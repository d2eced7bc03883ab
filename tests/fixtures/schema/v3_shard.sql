-- Schema version 3: the DDL of a shard file (tree data only), frozen.

CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);

CREATE TABLE IF NOT EXISTS nodes (
    tree_id        INTEGER NOT NULL,
    node_id        INTEGER NOT NULL,
    parent_id      INTEGER,
    child_order    INTEGER NOT NULL,
    name           TEXT,
    edge_length    REAL NOT NULL,
    depth          INTEGER NOT NULL,
    dist_from_root REAL NOT NULL,
    pre_order_end  INTEGER NOT NULL,
    is_leaf        INTEGER NOT NULL,
    PRIMARY KEY (tree_id, node_id)
) WITHOUT ROWID;

CREATE TABLE IF NOT EXISTS blocks (
    tree_id         INTEGER NOT NULL,
    block_id        INTEGER NOT NULL,
    layer           INTEGER NOT NULL,
    root_inode_id   INTEGER NOT NULL,
    source_inode_id INTEGER,
    rep_inode_id    INTEGER,
    PRIMARY KEY (tree_id, block_id)
) WITHOUT ROWID;

CREATE TABLE IF NOT EXISTS inodes (
    tree_id             INTEGER NOT NULL,
    inode_id            INTEGER NOT NULL,
    layer               INTEGER NOT NULL,
    block_id            INTEGER NOT NULL,
    local_label         TEXT NOT NULL,
    label_depth         INTEGER NOT NULL,
    orig_node_id        INTEGER,
    represents_block_id INTEGER,
    is_canonical        INTEGER NOT NULL,
    PRIMARY KEY (tree_id, inode_id)
) WITHOUT ROWID;

CREATE INDEX IF NOT EXISTS idx_nodes_name ON nodes(tree_id, name);

CREATE UNIQUE INDEX IF NOT EXISTS idx_inodes_label
    ON inodes(tree_id, block_id, local_label);

CREATE INDEX IF NOT EXISTS idx_inodes_orig
    ON inodes(tree_id, orig_node_id, is_canonical);
