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
tree-data tables from one declaration,
:data:`repro.storage.sql.TREE_DATA_DDL`, so their
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
from repro.storage import sql

SCHEMA_VERSION = 4

# ----------------------------------------------------------------------
# Version steps
# ----------------------------------------------------------------------

def _add_shard_column(connection: Any) -> None:
    """Version 2: the catalogue records each tree's shard.

    Runs on a primary file whose ``trees`` lacks the column; a shard
    file has no ``trees`` table.
    """
    columns = {
        row[1] for row in connection.execute(sql.TABLE_INFO_TREES)
    }
    if columns and "shard" not in columns:
        connection.execute(sql.ADD_SHARD_COLUMN)


@contextmanager
def _one_transaction(connection: Any) -> Iterator[None]:
    """One transaction around a version step's statements: a failure
    leaves the file as it was."""
    # DDL opens no implicit transaction, so this one is explicit.
    connection.execute(sql.BEGIN)
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
        row[1] for row in connection.execute(sql.INDEX_LIST_NODES)
    }
    stale = {"idx_nodes_dist", "idx_nodes_parent"} & indexes
    rebuild = any(
        connection.execute(sql.FOREIGN_KEY_LIST, (table,)).fetchone()
        is not None
        for table in ("nodes", "blocks")
    )
    if not stale and not rebuild:
        return
    with _one_transaction(connection):
        connection.execute(sql.DROP_IDX_NODES_DIST)
        connection.execute(sql.DROP_IDX_NODES_PARENT)
        if rebuild:
            for statement in sql.REBUILD_WITHOUT_FOREIGN_KEYS:
                connection.execute(statement)


def _number_canonical_inodes_by_node(connection: Any) -> None:
    """Version 4: renumber the inodes so that inode ``r`` is node
    ``r``'s canonical inode, dropping the flag column and its index, and
    make ``idx_nodes_name`` partial.  Runs on a file whose ``inodes``
    still has ``is_canonical``."""
    columns = {
        row[1] for row in connection.execute(sql.TABLE_INFO_INODES)
    }
    if "is_canonical" not in columns:
        return
    with _one_transaction(connection):
        for statement in sql.RENUMBER_INODES:
            connection.execute(statement)


_VERSION_STEPS = (
    _add_shard_column,
    _drop_foreign_keys_and_unread_indexes,
    _number_canonical_inodes_by_node,
)
"""One function per version after the first, applied in order."""


def _refuse_newer_file(connection: Any) -> None:
    """Raise if the file says it was written by a newer schema."""
    if connection.execute(sql.TABLE_INFO_META).fetchone() is None:
        return  # a brand-new file
    row = connection.execute(sql.SCHEMA_VERSION_ROW).fetchone()
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
    for statement in sql.SHARD_DDL if shard else sql.PRIMARY_DDL:
        connection.execute(statement)
    for step in _VERSION_STEPS:
        step(connection)
    connection.execute(sql.SET_SCHEMA_VERSION, (str(SCHEMA_VERSION),))
    connection.execute(sql.SET_FILE_ROLE, ("shard" if shard else "primary",))
