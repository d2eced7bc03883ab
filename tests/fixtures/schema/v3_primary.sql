-- Schema version 3: the DDL of a primary file (catalogue plus tree
-- data; tree-data tables carry no foreign keys), frozen.

CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);

CREATE TABLE IF NOT EXISTS trees (
    tree_id     INTEGER PRIMARY KEY AUTOINCREMENT,
    name        TEXT NOT NULL UNIQUE,
    n_nodes     INTEGER NOT NULL,
    n_leaves    INTEGER NOT NULL,
    max_depth   INTEGER NOT NULL,
    f           INTEGER NOT NULL,
    n_layers    INTEGER NOT NULL,
    n_blocks    INTEGER NOT NULL,
    created_at  TEXT NOT NULL,
    description TEXT NOT NULL DEFAULT '',
    shard       INTEGER NOT NULL DEFAULT 0
);

CREATE TABLE IF NOT EXISTS species (
    tree_id   INTEGER NOT NULL REFERENCES trees(tree_id) ON DELETE CASCADE,
    node_id   INTEGER NOT NULL,
    sequence  TEXT NOT NULL,
    char_type TEXT NOT NULL DEFAULT 'DNA',
    PRIMARY KEY (tree_id, node_id)
) WITHOUT ROWID;

CREATE TABLE IF NOT EXISTS query_history (
    query_id       INTEGER PRIMARY KEY AUTOINCREMENT,
    issued_at      TEXT NOT NULL,
    tree_name      TEXT,
    operation      TEXT NOT NULL,
    params_json    TEXT NOT NULL,
    duration_ms    REAL,
    result_summary TEXT NOT NULL DEFAULT ''
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
