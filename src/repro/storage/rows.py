"""Typed rows of a stored tree's ``nodes``/``inodes``/``blocks`` tables.

The stored-query engine caches these instead of ``sqlite3.Row``
objects.  Each is built once, when its row is fetched, so a cache hit
costs no column-name lookups, no ``bool`` casts and no Dewey-label
parsing — the layered LCA walk reads attributes and compares label
tuples.  All three are frozen, slotted dataclasses: a cached row can be
shared freely, and a :class:`NodeRow` is no bigger than the
``sqlite3.Row`` (plus its value tuple) it replaces.

The builders take a row in the table's column order (its ``CREATE
TABLE`` in :data:`repro.storage.sql.TREE_DATA_DDL`), as ``SELECT *``
returns it — a ``sqlite3.Row`` and a ``plain=True`` tuple both unpack
that way.  ``tests/test_sql_catalogue.py`` checks the fields against
``PRAGMA table_info``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.dewey import DeweyLabel, label_from_string


@dataclass(frozen=True, slots=True)
class NodeRow:
    """One row of the ``nodes`` table (a node's structural facts)."""

    node_id: int
    parent_id: int | None
    child_order: int
    name: str | None
    edge_length: float
    depth: int
    dist_from_root: float
    pre_order_end: int
    is_leaf: bool

    @property
    def subtree_interval(self) -> tuple[int, int]:
        """Pre-order interval ``[node_id, pre_order_end]`` of the clade."""
        return (self.node_id, self.pre_order_end)

    def contains(self, node_id: int) -> bool:
        """Ancestor-or-self test: is ``node_id`` inside this clade?"""
        return self.node_id <= node_id <= self.pre_order_end


@dataclass(frozen=True, slots=True)
class InodeRow:
    """One row of the ``inodes`` table, its Dewey label parsed to a tuple."""

    inode_id: int
    layer: int
    block_id: int
    label: DeweyLabel
    orig_node_id: int | None
    represents_block_id: int | None


@dataclass(frozen=True, slots=True)
class BlockRow:
    """One row of the ``blocks`` table."""

    block_id: int
    layer: int
    root_inode_id: int
    source_inode_id: int | None
    rep_inode_id: int | None


def as_node_row(values: Sequence) -> NodeRow:
    """A :class:`NodeRow` from a ``nodes`` row in column order."""
    (
        _tree_id, node_id, parent_id, child_order, name, edge_length,
        depth, dist_from_root, pre_order_end, is_leaf,
    ) = values
    return NodeRow(
        node_id, parent_id, child_order, name, edge_length, depth,
        dist_from_root, pre_order_end, bool(is_leaf),
    )


def as_inode_row(values: Sequence) -> InodeRow:
    """An :class:`InodeRow` from an ``inodes`` row in column order."""
    (
        _tree_id, inode_id, layer, block_id, local_label, _label_depth,
        orig_node_id, represents_block_id,
    ) = values
    return InodeRow(
        inode_id, layer, block_id, label_from_string(local_label),
        orig_node_id, represents_block_id,
    )


def as_block_row(values: Sequence) -> BlockRow:
    """A :class:`BlockRow` from a ``blocks`` row in column order."""
    _tree_id, block_id, layer, root, source, rep = values
    return BlockRow(block_id, layer, root, source, rep)
