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
4. Inode ``r`` is node ``r``'s canonical inode, so the
   ``inodes.is_canonical`` flag and ``idx_inodes_orig`` (which found
   the flagged inode of a node) are gone, and ``idx_nodes_name`` is
   partial: it indexes named nodes only.

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
  ``f``).
* Inode ``r`` is node ``r``'s canonical position, in layer 0, with
  ``orig_node_id = r``, for every ``r < n_nodes``; the canonical inode
  of a node is a primary-key fetch.  The other inodes follow from
  ``n_nodes`` on: the ε copies rooting layer 0's split blocks (each
  with its boundary node as ``orig_node_id``), then the upper layers.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

from repro.errors import StorageError

SCHEMA_VERSION = 4

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


def _nodes_table(suffix: str) -> str:
    """``CREATE TABLE`` of ``nodes`` under the name ``nodes`` +
    ``suffix``: empty in :data:`TREE_DATA_DDL`, non-empty for the copy
    a version step's rebuild renames over the old table (as are the
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


@contextmanager
def _one_transaction(connection: Any) -> Iterator[None]:
    """One transaction around a version step's statements: a failure
    leaves the file as it was."""
    # DDL opens no implicit transaction, so this one is explicit.
    connection.execute("BEGIN")
    try:
        yield
    except BaseException:
        connection.rollback()
        raise
    connection.commit()


def _drop_foreign_keys_and_unread_indexes(connection: Any) -> None:
    """Version 3: drop ``idx_nodes_dist`` and ``idx_nodes_parent``, and
    rebuild ``nodes`` and ``blocks`` if they still reference ``trees``.
    """
    indexes = {
        row[1] for row in connection.execute("PRAGMA index_list(nodes)")
    }
    stale = {"idx_nodes_dist", "idx_nodes_parent"} & indexes
    rebuild = any(
        connection.execute(f"PRAGMA foreign_key_list({table})").fetchone()
        is not None
        for table in ("nodes", "blocks")
    )
    if not stale and not rebuild:
        return
    with _one_transaction(connection):
        connection.execute("DROP INDEX IF EXISTS idx_nodes_dist")
        connection.execute("DROP INDEX IF EXISTS idx_nodes_parent")
        if rebuild:
            for statement in _REBUILD_WITHOUT_FOREIGN_KEYS:
                connection.execute(statement)


_RENUMBER_INODES: tuple[str, ...] = (
    """
    CREATE TEMP TABLE inode_ids (
        tree_id INTEGER NOT NULL,
        old_id  INTEGER NOT NULL,
        new_id  INTEGER NOT NULL,
        PRIMARY KEY (tree_id, old_id)
    ) WITHOUT ROWID
    """,
    # A node's canonical inode takes the node's id; the others keep
    # their order from n_nodes (the tree's canonical count) on.  The
    # flag is not read but derived from the structure it mirrors (an
    # inode is canonical unless it lies above layer 0 or is the ε copy
    # rooting a split block), so no statement names a dropped column.
    """
    INSERT INTO inode_ids (tree_id, old_id, new_id)
    SELECT tree_id, inode_id,
           CASE WHEN canonical THEN orig_node_id
                ELSE SUM(canonical) OVER (PARTITION BY tree_id)
                     + ROW_NUMBER() OVER (
                           PARTITION BY tree_id, canonical ORDER BY inode_id
                       ) - 1
           END
    FROM (
        SELECT tree_id, inode_id, orig_node_id,
               layer = 0 AND (block_id = 0 OR label_depth > 0) AS canonical
        FROM inodes
    )
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


def _number_canonical_inodes_by_node(connection: Any) -> None:
    """Version 4: renumber the inodes so that inode ``r`` is node
    ``r``'s canonical inode, dropping the flag column and its index, and
    make ``idx_nodes_name`` partial.  Runs on a file whose ``inodes``
    still has ``is_canonical``."""
    columns = {
        row[1] for row in connection.execute("PRAGMA table_info(inodes)")
    }
    if "is_canonical" not in columns:
        return
    with _one_transaction(connection):
        for statement in _RENUMBER_INODES:
            connection.execute(statement)


_VERSION_STEPS = (
    _add_shard_column,
    _drop_foreign_keys_and_unread_indexes,
    _number_canonical_inodes_by_node,
)
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
