"""Relational schema for the Crimson repositories.

The schema mirrors the paper's architecture: the **Tree Repository**
(``trees``, ``nodes`` and the index tables ``blocks``/``inodes``), the
**Species Repository** (``species``), and the **Query Repository**
(``query_history``).  Tree structure and species data are deliberately
separated — the paper's queries are structure-based, so structural scans
must not drag sequence payloads through the buffer pool.

Files
-----
A store is one **primary** file plus zero or more **shard** files.  The
primary keeps ``trees`` (whose ``shard`` column names the file holding
each tree's rows), ``species``, ``query_history`` and ``meta``; each
tree's ``nodes``/``inodes``/``blocks`` rows live in the file its
catalogue row names (shard ``0`` is the primary itself, so a
single-file store is the one-shard layout).  Both roles create the
tree-data tables from one declaration, :data:`TREE_DATA_DDL`, so their
tables and indexes are the same in every file.  The tree-data tables
carry no foreign keys into ``trees``: the loader writes the catalogue
row in the load's own transaction, ``delete_tree`` purges each table
explicitly, and ``verify()`` sweeps every file, the primary included,
for orphan rows.  ``species`` keeps its foreign key.

Versions
--------
1. One file.  The tree-data tables reference ``trees`` with cascading
   deletes, and ``nodes`` is indexed by name, root distance and parent.
2. Sharding: the ``trees.shard`` column and tree-data-only shard files.
3. One tree-data DDL for every file: no foreign keys, and no
   ``idx_nodes_dist``/``idx_nodes_parent``, which no hot query read and
   every write maintained.

:func:`create_schema` upgrades an older file in place, one step function
per version.  Each step reads the file's structure (``PRAGMA
table_info``/``index_list``/``foreign_key_list``) to decide whether it
has work, not the ``schema_version`` row.  A file whose version row is
newer than :data:`SCHEMA_VERSION` is refused.

Conventions
-----------
* ``node_id`` is the node's pre-order rank, so the minimal spanning clade
  of a node is exactly ``node_id BETWEEN n.node_id AND n.pre_order_end``.
* ``inodes.local_label`` stores the dotted Dewey string local to the
  block; ``label_depth`` is its component count (bounded by the tree's
  ``f``); ``is_canonical`` marks the one inode that is a node's canonical
  position (boundary nodes also appear as the ε root of their split
  block).
"""

from __future__ import annotations

from typing import Any

from repro.errors import StorageError

SCHEMA_VERSION = 3

_META_DDL = """
    CREATE TABLE IF NOT EXISTS meta (
        key   TEXT PRIMARY KEY,
        value TEXT NOT NULL
    )
    """

_CATALOGUE_DDL: tuple[str, ...] = (
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


def _tree_data_tables(suffix: str) -> tuple[str, ...]:
    """``CREATE TABLE`` of ``nodes``/``blocks``/``inodes``, each name
    followed by ``suffix``: empty in :data:`TREE_DATA_DDL`, ``_v3`` for
    the copies the version-3 rebuild renames over the old tables."""
    return (
        f"""
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
        """,
        f"""
        CREATE TABLE IF NOT EXISTS blocks{suffix} (
            tree_id         INTEGER NOT NULL,
            block_id        INTEGER NOT NULL,
            layer           INTEGER NOT NULL,
            root_inode_id   INTEGER NOT NULL,
            source_inode_id INTEGER,
            rep_inode_id    INTEGER,
            PRIMARY KEY (tree_id, block_id)
        ) WITHOUT ROWID
        """,
        f"""
        CREATE TABLE IF NOT EXISTS inodes{suffix} (
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
        ) WITHOUT ROWID
        """,
    )


TREE_DATA_DDL: tuple[str, ...] = (
    *_tree_data_tables(""),
    # Access paths of the hot queries; clade, children and scans read
    # primary-key ranges of the pre-order ids instead.
    "CREATE INDEX IF NOT EXISTS idx_nodes_name ON nodes(tree_id, name)",
    """
    CREATE UNIQUE INDEX IF NOT EXISTS idx_inodes_label
        ON inodes(tree_id, block_id, local_label)
    """,
    """
    CREATE INDEX IF NOT EXISTS idx_inodes_orig
        ON inodes(tree_id, orig_node_id, is_canonical)
    """,
)
"""The tree-data tables and their indexes, the same in every file."""

DDL_STATEMENTS: tuple[str, ...] = (_META_DDL, *_CATALOGUE_DDL, *TREE_DATA_DDL)
"""The full primary-file schema (kept as the historical public name)."""

SHARD_DDL_STATEMENTS: tuple[str, ...] = (_META_DDL, *TREE_DATA_DDL)
"""The tree-data-only schema of a shard file."""

TABLE_COLUMNS: dict[str, tuple[str, ...]] = {
    "meta": ("key", "value"),
    "trees": (
        "tree_id", "name", "n_nodes", "n_leaves", "max_depth", "f",
        "n_layers", "n_blocks", "created_at", "description", "shard",
    ),
    "species": ("tree_id", "node_id", "sequence", "char_type"),
    "query_history": (
        "query_id", "issued_at", "tree_name", "operation", "params_json",
        "duration_ms", "result_summary",
    ),
    "nodes": (
        "tree_id", "node_id", "parent_id", "child_order", "name",
        "edge_length", "depth", "dist_from_root", "pre_order_end",
        "is_leaf",
    ),
    "blocks": (
        "tree_id", "block_id", "layer", "root_inode_id",
        "source_inode_id", "rep_inode_id",
    ),
    "inodes": (
        "tree_id", "inode_id", "layer", "block_id", "local_label",
        "label_depth", "orig_node_id", "represents_block_id",
        "is_canonical",
    ),
}
"""The schema as structured data: table -> column names, in DDL order.

This is the declaration the ``sql-*`` lint rules check every statement
against, and the ``sql-schema-sync`` rule keeps it honest: it must
stay byte-for-byte consistent with :data:`DDL_STATEMENTS` and
:data:`SHARD_DDL_STATEMENTS` (a runtime test also diffs it against
``PRAGMA table_info`` on a freshly created database)."""

SHARD_TABLES: tuple[str, ...] = ("meta", "nodes", "blocks", "inodes")
"""Tables a shard file carries (the tree-data subset plus ``meta``)."""


# ----------------------------------------------------------------------
# Version steps
# ----------------------------------------------------------------------

def _add_shard_column(connection: Any) -> None:
    """Version 2: the catalogue records each tree's shard.

    Runs on a primary file whose ``trees`` lacks the column; a shard
    file has no ``trees`` table.
    """
    columns = {
        row[1] for row in connection.execute("PRAGMA table_info(trees)")
    }
    if columns and "shard" not in columns:
        connection.execute(
            "ALTER TABLE trees ADD COLUMN shard INTEGER NOT NULL DEFAULT 0"
        )


_REBUILD_WITHOUT_FOREIGN_KEYS: tuple[str, ...] = (
    # SQLite cannot drop a foreign key in place.  Its documented
    # procedure: create the new table, copy, drop the old table (and
    # with it the old indexes), rename, recreate the indexes.
    *_tree_data_tables("_v3"),
    "INSERT INTO nodes_v3 SELECT * FROM nodes",
    "INSERT INTO blocks_v3 SELECT * FROM blocks",
    "INSERT INTO inodes_v3 SELECT * FROM inodes",
    "DROP TABLE nodes",
    "DROP TABLE blocks",
    "DROP TABLE inodes",
    "ALTER TABLE nodes_v3 RENAME TO nodes",
    "ALTER TABLE blocks_v3 RENAME TO blocks",
    "ALTER TABLE inodes_v3 RENAME TO inodes",
    *TREE_DATA_DDL,
)


def _drop_foreign_keys_and_unread_indexes(connection: Any) -> None:
    """Version 3: drop ``idx_nodes_dist`` and ``idx_nodes_parent``, and
    rebuild tree-data tables that still reference ``trees``.

    One transaction: a failure leaves the file as it was.
    """
    indexes = {
        row[1] for row in connection.execute("PRAGMA index_list(nodes)")
    }
    stale = {"idx_nodes_dist", "idx_nodes_parent"} & indexes
    rebuild = any(
        connection.execute(f"PRAGMA foreign_key_list({table})").fetchone()
        is not None
        for table in ("nodes", "blocks", "inodes")
    )
    if not stale and not rebuild:
        return
    # DDL opens no implicit transaction, so this one is explicit.
    connection.execute("BEGIN")
    try:
        connection.execute("DROP INDEX IF EXISTS idx_nodes_dist")
        connection.execute("DROP INDEX IF EXISTS idx_nodes_parent")
        if rebuild:
            for statement in _REBUILD_WITHOUT_FOREIGN_KEYS:
                connection.execute(statement)
    except BaseException:
        connection.rollback()
        raise
    connection.commit()


_VERSION_STEPS = (_add_shard_column, _drop_foreign_keys_and_unread_indexes)
"""One function per version after the first, applied in order."""


def _refuse_newer_file(connection: Any) -> None:
    """Raise if the file says it was written by a newer schema."""
    if connection.execute("PRAGMA table_info(meta)").fetchone() is None:
        return  # a brand-new file
    row = connection.execute(
        "SELECT value FROM meta WHERE key = 'schema_version'"
    ).fetchone()
    if row is None:
        return
    try:
        version = int(row[0])
    except ValueError:
        raise StorageError(
            f"unreadable schema_version {row[0]!r} in meta"
        ) from None
    if version > SCHEMA_VERSION:
        raise StorageError(
            f"the file has schema version {version}; this build reads "
            f"versions up to {SCHEMA_VERSION}"
        )


def create_schema(connection: Any, shard: bool = False) -> None:
    """Create all tables and indexes, upgrading an older file in place
    (idempotent).

    ``shard=True`` creates the tree-data subset a shard file needs;
    the default creates the full primary schema.

    Raises
    ------
    StorageError
        If the file's schema version is newer than this build's.
    """
    _refuse_newer_file(connection)
    for statement in SHARD_DDL_STATEMENTS if shard else DDL_STATEMENTS:
        connection.execute(statement)
    for step in _VERSION_STEPS:
        step(connection)
    connection.execute(
        "INSERT OR REPLACE INTO meta(key, value) VALUES ('schema_version', ?)",
        (str(SCHEMA_VERSION),),
    )
    connection.execute(
        "INSERT OR REPLACE INTO meta(key, value) VALUES ('role', ?)",
        ("shard" if shard else "primary",),
    )
