"""Every SQL statement the storage layer sends, as named constants.

This module is the one place SQL text lives.  Each statement is a
module-level constant (a tuple for statements the code runs in turn:
the DDL, the schema upgrade steps, a delete's purge), and a call site
passes the constant, by name, to ``CrimsonDatabase.execute``/``query_one``/
``query_all`` or to a connection inside ``transaction()``.  A
variable-length ``IN (...)`` list is the constant's ``IN (?)`` widened
by :func:`in_list`, which repeats only ``?``; no runtime value is ever
spliced into a statement.

SQLite itself checks the catalogue: ``tests/test_sql_catalogue.py``
prepares every entry with ``EXPLAIN`` and a dummy tuple of its arity
against fresh primary and shard schemas (the upgrade steps against the
frozen DDL of the versions they upgrade), so an unknown table, column
or ``INDEXED BY`` index fails a test, and a workload that runs every
entry under the sanitizer fails on a wrong binding count.  The same
test reads each entry's ``EXPLAIN QUERY PLAN`` and fails when one
reads ``nodes``, ``inodes`` or ``blocks`` by a full scan, or by a
search narrowed only to ``tree_id``, unless it is in
:data:`WHOLE_TREE_READS`.  ``crimson lint`` checks the other half: the
first argument of every statement sink is a catalogue name or an
:func:`in_list` call.
"""

from __future__ import annotations

from functools import lru_cache

# ----------------------------------------------------------------------
# Connection setup (storage/database.py)
# ----------------------------------------------------------------------

FOREIGN_KEYS_ON = "PRAGMA foreign_keys = ON"
QUERY_ONLY_ON = "PRAGMA query_only = ON"
JOURNAL_MODE_WAL = "PRAGMA journal_mode = WAL"
SYNCHRONOUS_NORMAL = "PRAGMA synchronous = NORMAL"
FILE_ROLE = "SELECT value FROM meta WHERE key = 'role'"

# ----------------------------------------------------------------------
# Schema (storage/schema.py)
# ----------------------------------------------------------------------

META_DDL = """
    CREATE TABLE IF NOT EXISTS meta (
        key   TEXT PRIMARY KEY,
        value TEXT NOT NULL
    )
    """

CATALOGUE_DDL: tuple[str, ...] = (
    """
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
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS species (
        tree_id   INTEGER NOT NULL REFERENCES trees(tree_id) ON DELETE CASCADE,
        node_id   INTEGER NOT NULL,
        sequence  TEXT NOT NULL,
        char_type TEXT NOT NULL DEFAULT 'DNA',
        PRIMARY KEY (tree_id, node_id)
    ) WITHOUT ROWID
    """,
    """
    CREATE TABLE IF NOT EXISTS query_history (
        query_id       INTEGER PRIMARY KEY AUTOINCREMENT,
        issued_at      TEXT NOT NULL,
        tree_name      TEXT,
        operation      TEXT NOT NULL,
        params_json    TEXT NOT NULL,
        duration_ms    REAL,
        result_summary TEXT NOT NULL DEFAULT ''
    )
    """,
)


def _nodes_table(suffix: str) -> str:
    """``CREATE TABLE`` of ``nodes`` under the name ``nodes`` +
    ``suffix``: empty in :data:`TREE_DATA_DDL`, non-empty for the copy
    an upgrade step's rebuild renames over the old table (as are the
    two builders below)."""
    return f"""
        CREATE TABLE IF NOT EXISTS nodes{suffix} (
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
        ) WITHOUT ROWID
        """


def _blocks_table(suffix: str) -> str:
    """``CREATE TABLE`` of ``blocks`` + ``suffix``."""
    return f"""
        CREATE TABLE IF NOT EXISTS blocks{suffix} (
            tree_id         INTEGER NOT NULL,
            block_id        INTEGER NOT NULL,
            layer           INTEGER NOT NULL,
            root_inode_id   INTEGER NOT NULL,
            source_inode_id INTEGER,
            rep_inode_id    INTEGER,
            PRIMARY KEY (tree_id, block_id)
        ) WITHOUT ROWID
        """


def _inodes_table(suffix: str) -> str:
    """``CREATE TABLE`` of ``inodes`` + ``suffix``."""
    return f"""
        CREATE TABLE IF NOT EXISTS inodes{suffix} (
            tree_id             INTEGER NOT NULL,
            inode_id            INTEGER NOT NULL,
            layer               INTEGER NOT NULL,
            block_id            INTEGER NOT NULL,
            local_label         TEXT NOT NULL,
            label_depth         INTEGER NOT NULL,
            orig_node_id        INTEGER,
            represents_block_id INTEGER,
            PRIMARY KEY (tree_id, inode_id)
        ) WITHOUT ROWID
        """


TREE_DATA_DDL: tuple[str, ...] = (
    _nodes_table(""),
    _blocks_table(""),
    _inodes_table(""),
    # Access paths of the hot queries; clade, children and scans read
    # primary-key ranges of the pre-order ids, and a canonical inode is
    # a primary-key fetch.  No name lookup can match an unnamed node,
    # so the name index leaves them out.
    """
    CREATE INDEX IF NOT EXISTS idx_nodes_name
        ON nodes(tree_id, name) WHERE name IS NOT NULL
    """,
    """
    CREATE UNIQUE INDEX IF NOT EXISTS idx_inodes_label
        ON inodes(tree_id, block_id, local_label)
    """,
)
"""The tree-data tables and their indexes, the same in every file."""

PRIMARY_DDL: tuple[str, ...] = (META_DDL, *CATALOGUE_DDL, *TREE_DATA_DDL)
"""The full schema of a store's primary file."""

SHARD_DDL: tuple[str, ...] = (META_DDL, *TREE_DATA_DDL)
"""The tree-data-only schema of a shard file."""

SCHEMA_VERSION_ROW = "SELECT value FROM meta WHERE key = 'schema_version'"
SET_SCHEMA_VERSION = (
    "INSERT OR REPLACE INTO meta(key, value) VALUES ('schema_version', ?)"
)
SET_FILE_ROLE = "INSERT OR REPLACE INTO meta(key, value) VALUES ('role', ?)"
TABLE_INFO_META = "PRAGMA table_info(meta)"
TABLE_INFO_TREES = "PRAGMA table_info(trees)"
TABLE_INFO_INODES = "PRAGMA table_info(inodes)"
INDEX_LIST_NODES = "PRAGMA index_list(nodes)"
FOREIGN_KEY_LIST = "SELECT * FROM pragma_foreign_key_list(?)"
BEGIN = "BEGIN"

# Version 2: the catalogue records each tree's shard.
ADD_SHARD_COLUMN = "ALTER TABLE trees ADD COLUMN shard INTEGER NOT NULL DEFAULT 0"

# Version 3: no foreign keys on the tree-data tables, no unread indexes.
DROP_IDX_NODES_DIST = "DROP INDEX IF EXISTS idx_nodes_dist"
DROP_IDX_NODES_PARENT = "DROP INDEX IF EXISTS idx_nodes_parent"

REBUILD_WITHOUT_FOREIGN_KEYS: tuple[str, ...] = (
    # SQLite cannot drop a foreign key in place.  Its documented
    # procedure: create the new table, copy, drop the old table (and
    # with it the old indexes), rename, recreate the indexes.  The
    # version-4 step rebuilds ``inodes``, and its key with it.
    _nodes_table("_v3"),
    _blocks_table("_v3"),
    "INSERT INTO nodes_v3 SELECT * FROM nodes",
    "INSERT INTO blocks_v3 SELECT * FROM blocks",
    "DROP TABLE nodes",
    "DROP TABLE blocks",
    "ALTER TABLE nodes_v3 RENAME TO nodes",
    "ALTER TABLE blocks_v3 RENAME TO blocks",
    *TREE_DATA_DDL,
)

# Version 4: inode r is node r's canonical inode.
RENUMBER_INODES: tuple[str, ...] = (
    """
    CREATE TEMP TABLE inode_ids (
        tree_id INTEGER NOT NULL,
        old_id  INTEGER NOT NULL,
        new_id  INTEGER NOT NULL,
        PRIMARY KEY (tree_id, old_id)
    ) WITHOUT ROWID
    """,
    # A node's canonical inode takes the node's id; the others keep
    # their order from the tree's node count on, so a damaged file whose
    # canonical inode rows are not one per node still numbers every
    # inode apart (verify() then reports the fault).  The flag is not
    # read but derived from the structure it mirrors (an inode is
    # canonical unless it lies above layer 0 or is the ε copy rooting a
    # split block), so no statement names a dropped column.
    """
    INSERT INTO inode_ids (tree_id, old_id, new_id)
    SELECT tree_id, inode_id,
           CASE WHEN canonical THEN orig_node_id
                ELSE COALESCE(n_nodes, 0)
                     + ROW_NUMBER() OVER (
                           PARTITION BY tree_id, canonical ORDER BY inode_id
                       ) - 1
           END
    FROM (
        SELECT tree_id, inode_id, orig_node_id,
               layer = 0 AND (block_id = 0 OR label_depth > 0) AS canonical
        FROM inodes
    )
    LEFT JOIN (
        SELECT tree_id, COUNT(*) AS n_nodes FROM nodes GROUP BY tree_id
    ) USING (tree_id)
    """,
    _inodes_table("_v4"),
    """
    INSERT INTO inodes_v4
    SELECT inodes.tree_id, new_id, layer, block_id, local_label,
           label_depth, orig_node_id, represents_block_id
    FROM inodes
    JOIN inode_ids
      ON inode_ids.tree_id = inodes.tree_id AND old_id = inode_id
    """,
    """
    UPDATE blocks SET
        root_inode_id = (
            SELECT new_id FROM inode_ids
            WHERE inode_ids.tree_id = blocks.tree_id
              AND old_id = root_inode_id
        ),
        source_inode_id = (
            SELECT new_id FROM inode_ids
            WHERE inode_ids.tree_id = blocks.tree_id
              AND old_id = source_inode_id
        ),
        rep_inode_id = (
            SELECT new_id FROM inode_ids
            WHERE inode_ids.tree_id = blocks.tree_id
              AND old_id = rep_inode_id
        )
    """,
    # Dropping the old table drops its indexes.
    "DROP TABLE inodes",
    "ALTER TABLE inodes_v4 RENAME TO inodes",
    "DROP INDEX idx_nodes_name",
    *TREE_DATA_DDL,
    "DROP TABLE inode_ids",
)

# ----------------------------------------------------------------------
# Store layout (storage/store.py)
# ----------------------------------------------------------------------

STORE_SHARDS = "SELECT value FROM meta WHERE key = 'shards'"
SET_STORE_SHARDS = "INSERT OR REPLACE INTO meta(key, value) VALUES ('shards', ?)"
SHARD_NODE_TOTALS = (
    "SELECT shard, COALESCE(SUM(n_nodes), 0) AS total "
    "FROM trees GROUP BY shard"
)
TREE_COUNT = "SELECT COUNT(*) AS n FROM trees"

# ----------------------------------------------------------------------
# Catalogue and loads (storage/tree_repository.py, storage/loader.py)
# ----------------------------------------------------------------------

TREE_BY_NAME = "SELECT * FROM trees WHERE name = ?"
TREES_BY_NAME = "SELECT * FROM trees ORDER BY name"
TREE_NAME_TAKEN = "SELECT 1 FROM trees WHERE name = ?"
NEXT_TREE_ID = "SELECT value FROM meta WHERE key = 'next_tree_id'"
MAX_TREE_ID = "SELECT COALESCE(MAX(tree_id), 0) FROM trees"
SET_NEXT_TREE_ID = (
    "INSERT OR REPLACE INTO meta(key, value) VALUES ('next_tree_id', ?)"
)

INSERT_TREE = """
    INSERT INTO trees
        (tree_id, name, n_nodes, n_leaves, max_depth, f,
         n_layers, n_blocks, created_at, description, shard)
    VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
"""

#: Rows per multi-row ``INSERT`` of a load.  Writing the 561 rows of a
#: 128-leaf tree at f = 8 (255 nodes, 288 inodes, 18 blocks) into a
#: file store took, median of 60-150 transactions on a 2-core x86
#: host: 5.8-6.0 ms all through ``executemany``; 4.3 ms at 16 rows per
#: statement, 3.9-4.1 ms at 32, 3.8-4.0 ms at 48, 4.1-4.2 ms at 64 and
#: 4.4 ms at 128.  On a 2,000-leaf tree the sizes from 32 to 128 were
#: within run-to-run noise of each other.
CHUNK_ROWS = 48


def _rows(insert: str, row: str, count: int) -> str:
    """``insert`` followed by ``count`` comma-separated ``row``s."""
    return insert + ", ".join([row] * count)


_NODES = (
    "INSERT INTO nodes (tree_id, node_id, parent_id, child_order, name, "
    "edge_length, depth, dist_from_root, pre_order_end, is_leaf) VALUES "
)
_NODE_ROW = "(?, ?, ?, ?, ?, ?, ?, ?, ?, ?)"
INSERT_NODE = _rows(_NODES, _NODE_ROW, 1)
INSERT_NODE_CHUNK = _rows(_NODES, _NODE_ROW, CHUNK_ROWS)

_INODES = (
    "INSERT INTO inodes (tree_id, inode_id, layer, block_id, local_label, "
    "label_depth, orig_node_id, represents_block_id) VALUES "
)
_INODE_ROW = "(?, ?, ?, ?, ?, ?, ?, ?)"
INSERT_INODE = _rows(_INODES, _INODE_ROW, 1)
INSERT_INODE_CHUNK = _rows(_INODES, _INODE_ROW, CHUNK_ROWS)

_BLOCKS = (
    "INSERT INTO blocks (tree_id, block_id, layer, root_inode_id, "
    "source_inode_id, rep_inode_id) VALUES "
)
_BLOCK_ROW = "(?, ?, ?, ?, ?, ?)"
INSERT_BLOCK = _rows(_BLOCKS, _BLOCK_ROW, 1)
INSERT_BLOCK_CHUNK = _rows(_BLOCKS, _BLOCK_ROW, CHUNK_ROWS)

DELETE_TREE = "DELETE FROM trees WHERE tree_id = ?"
DELETE_SPECIES = "DELETE FROM species WHERE tree_id = ?"
DELETE_INODES = "DELETE FROM inodes WHERE tree_id = ?"
DELETE_BLOCKS = "DELETE FROM blocks WHERE tree_id = ?"
DELETE_NODES = "DELETE FROM nodes WHERE tree_id = ?"
DELETE_TREE_DATA: tuple[str, ...] = (DELETE_INODES, DELETE_BLOCKS, DELETE_NODES)
"""A tree's rows in its shard, in the order a delete purges them."""

# ----------------------------------------------------------------------
# Stored-tree reads (storage/tree_repository.py)
# ----------------------------------------------------------------------

TREE_HAS_NODES = "SELECT 1 FROM nodes WHERE tree_id = ? LIMIT 1"
LEAVES = "SELECT * FROM nodes WHERE tree_id = ? AND is_leaf = 1 ORDER BY node_id"
LEAF_NAMES = (
    "SELECT name FROM nodes WHERE tree_id = ? AND is_leaf = 1 "
    "ORDER BY node_id"
)
LEAF_IDS = (
    "SELECT node_id FROM nodes WHERE tree_id = ? AND is_leaf = 1 "
    "ORDER BY node_id"
)
CHILDREN = (
    "SELECT * FROM nodes WHERE tree_id = ? "
    "AND node_id BETWEEN ? AND ? AND parent_id = ? ORDER BY node_id"
)
CLADE = (
    "SELECT * FROM nodes WHERE tree_id = ? AND node_id BETWEEN ? AND ? "
    "ORDER BY node_id"
)
TIME_FRONTIER = """
    SELECT child.* FROM nodes AS child
    JOIN nodes AS parent
      ON parent.tree_id = child.tree_id
     AND parent.node_id = child.parent_id
    WHERE child.tree_id = ?
      AND child.dist_from_root > ?
      AND parent.dist_from_root <= ?
    ORDER BY child.node_id
    """
TREE_SHAPE = (
    "SELECT node_id, parent_id, name, edge_length FROM nodes "
    "WHERE tree_id = ? ORDER BY node_id"
)

# ----------------------------------------------------------------------
# Row fetches of the stored-query engine (storage/engine.py)
# ----------------------------------------------------------------------

NODE = "SELECT * FROM nodes WHERE tree_id = ? AND node_id = ?"
NODE_BY_NAME = (
    "SELECT * FROM nodes INDEXED BY idx_nodes_name "
    "WHERE tree_id = ? AND name = ?"
)
NODES_BY_IDS = "SELECT * FROM nodes WHERE tree_id = ? AND node_id IN (?)"
NODES_BY_NAMES = (
    "SELECT * FROM nodes INDEXED BY idx_nodes_name "
    "WHERE tree_id = ? AND name IN (?)"
)
SCAN_COLUMNS = (
    "SELECT node_id, pre_order_end, is_leaf, name FROM nodes "
    "WHERE tree_id = ? AND node_id BETWEEN 0 AND ? ORDER BY node_id"
)
INODE = "SELECT * FROM inodes WHERE tree_id = ? AND inode_id = ?"
INODES_BY_IDS = "SELECT * FROM inodes WHERE tree_id = ? AND inode_id IN (?)"
INODE_AT = (
    "SELECT * FROM inodes WHERE tree_id = ? AND block_id = ? "
    "AND local_label = ?"
)
INODES_AT = (
    "SELECT * FROM inodes INDEXED BY idx_inodes_label "
    "WHERE tree_id = ? AND block_id = ? AND local_label IN (?)"
)
BLOCK = "SELECT * FROM blocks WHERE tree_id = ? AND block_id = ?"
BLOCKS_BY_IDS = "SELECT * FROM blocks WHERE tree_id = ? AND block_id IN (?)"

# ----------------------------------------------------------------------
# Species rows (storage/species_repository.py)
# ----------------------------------------------------------------------

SPECIES_NODE_IDS = "SELECT node_id FROM species WHERE tree_id = ?"
INSERT_SPECIES = (
    "INSERT OR REPLACE INTO species (tree_id, node_id, sequence, char_type) "
    "VALUES (?, ?, ?, ?)"
)
SEQUENCES = (
    "SELECT node_id, sequence FROM species WHERE tree_id = ? "
    "AND node_id IN (?)"
)
SPECIES_COUNT = "SELECT COUNT(*) AS n FROM species WHERE tree_id = ?"

# ----------------------------------------------------------------------
# Query history (storage/query_repository.py)
# ----------------------------------------------------------------------

INSERT_HISTORY = """
    INSERT INTO query_history
        (issued_at, tree_name, operation, params_json,
         duration_ms, result_summary)
    VALUES (?, ?, ?, ?, ?, ?)
    """
HISTORY_ENTRY = "SELECT * FROM query_history WHERE query_id = ?"
RECENT_HISTORY = "SELECT * FROM query_history ORDER BY query_id DESC LIMIT ?"
RECENT_TREE_HISTORY = (
    "SELECT * FROM query_history WHERE tree_name = ? "
    "ORDER BY query_id DESC LIMIT ?"
)
HISTORY_COUNT = "SELECT COUNT(*) AS n FROM query_history"
CLEAR_HISTORY = "DELETE FROM query_history"

# ----------------------------------------------------------------------
# Integrity checks (storage/maintenance.py); one ``?`` is the tree id
# ----------------------------------------------------------------------

CATALOGUED_TREE_IDS = "SELECT tree_id FROM trees"
DATA_TREE_IDS: tuple[str, ...] = (
    "SELECT DISTINCT tree_id FROM nodes",
    "SELECT DISTINCT tree_id FROM inodes",
    "SELECT DISTINCT tree_id FROM blocks",
)
"""The tree ids holding rows in each tree-data table of a file."""

COUNT_NODES = "SELECT COUNT(*) FROM nodes WHERE tree_id = ?"
COUNT_LEAVES = "SELECT COUNT(*) FROM nodes WHERE tree_id = ? AND is_leaf = 1"
COUNT_BLOCKS = "SELECT COUNT(*) FROM blocks WHERE tree_id = ?"
ROOTS = "SELECT node_id FROM nodes WHERE tree_id = ? AND parent_id IS NULL"
BAD_PARENTS = """
    SELECT COUNT(*) FROM nodes AS child
    LEFT JOIN nodes AS parent
      ON parent.tree_id = child.tree_id
     AND parent.node_id = child.parent_id
    WHERE child.tree_id = ? AND child.parent_id IS NOT NULL
      AND (parent.node_id IS NULL OR parent.node_id >= child.node_id)
    """
BAD_INTERVALS = """
    SELECT COUNT(*) FROM nodes AS child
    JOIN nodes AS parent
      ON parent.tree_id = child.tree_id
     AND parent.node_id = child.parent_id
    WHERE child.tree_id = ?
      AND (child.node_id > child.pre_order_end
           OR child.pre_order_end > parent.pre_order_end)
    """
MISSING_CANONICAL = """
    SELECT COUNT(*) FROM nodes
    LEFT JOIN inodes
      ON inodes.tree_id = nodes.tree_id
     AND inodes.inode_id = nodes.node_id
    WHERE nodes.tree_id = ?
      AND (inodes.inode_id IS NULL OR inodes.layer != 0
           OR inodes.orig_node_id IS NOT nodes.node_id)
    """
OVER_BOUND_LABELS = (
    "SELECT COUNT(*) FROM inodes WHERE tree_id = ? AND label_depth > ?"
)
DUPLICATE_LABELS = """
    SELECT COUNT(*) FROM (
        SELECT block_id, local_label FROM inodes WHERE tree_id = ?
        GROUP BY block_id, local_label HAVING COUNT(*) > 1
    )
    """
BAD_SOURCES = """
    SELECT COUNT(*) FROM blocks
    LEFT JOIN inodes
      ON inodes.tree_id = blocks.tree_id
     AND inodes.inode_id = blocks.source_inode_id
    WHERE blocks.tree_id = ? AND blocks.source_inode_id IS NOT NULL
      AND (inodes.inode_id IS NULL OR inodes.layer != blocks.layer)
    """
BLOCKS_PER_LAYER = (
    "SELECT layer, COUNT(*) AS n FROM blocks WHERE tree_id = ? "
    "GROUP BY layer ORDER BY layer"
)
MISSING_REPS = (
    "SELECT COUNT(*) FROM blocks WHERE tree_id = ? AND layer = ? "
    "AND rep_inode_id IS NULL"
)

# ----------------------------------------------------------------------
# Deliberate whole-tree reads
# ----------------------------------------------------------------------

WHOLE_TREE_READS: frozenset[str] = frozenset(
    {
        # verify(): every check reads all of a tree's rows, and the
        # orphan sweep all of a file's.
        *DATA_TREE_IDS,
        COUNT_NODES,
        COUNT_LEAVES,
        COUNT_BLOCKS,
        ROOTS,
        BAD_PARENTS,
        BAD_INTERVALS,
        MISSING_CANONICAL,
        OVER_BOUND_LABELS,
        DUPLICATE_LABELS,
        BAD_SOURCES,
        BLOCKS_PER_LAYER,
        MISSING_REPS,
        # delete_tree() removes every row of the tree.
        *DELETE_TREE_DATA,
        # Reads that walk every row of the tree: all its leaves, all
        # its nodes, and the frontier's pre-order walk.
        LEAVES,
        LEAF_NAMES,
        TIME_FRONTIER,
        TREE_SHAPE,
        # The leaf-id table a sample draws from: it runs once per tree
        # per store, and every later sample reads it from memory.
        LEAF_IDS,
        # The stale-handle probe: its plan walks the tree's key range,
        # and LIMIT 1 stops it at the first row.
        TREE_HAS_NODES,
    }
)
"""Statements that read ``nodes``/``inodes``/``blocks`` across a whole
tree (or file) on purpose; the query-plan gate exempts only these."""


@lru_cache(maxsize=None)
def in_list(statement: str, size: int) -> str:
    """``statement`` with its ``IN (?)`` widened to ``size`` placeholders.

    The text is cached per statement and size; callers chunk their
    keys (at most 400 per list), so the cache stays small.
    """
    return statement.replace(" IN (?)", " IN (" + ",".join("?" * size) + ")")


def entries() -> dict[str, str]:
    """Every statement of the catalogue by name; the members of a tuple
    entry are named ``NAME[i]``."""
    found: dict[str, str] = {}
    for name, value in globals().items():
        if name.startswith("_") or not name.isupper():
            continue
        if isinstance(value, str):
            found[name] = value
        elif isinstance(value, tuple):
            found.update(
                (f"{name}[{i}]", statement)
                for i, statement in enumerate(value)
            )
    return found
