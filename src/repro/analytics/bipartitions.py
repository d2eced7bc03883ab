"""Cluster and bipartition extraction straight from stored rows.

Every cross-tree operation in :mod:`repro.analytics` — Robinson–Foulds
distances, distance matrices, consensus — reduces to one question per
tree: *which leaf sets hang under its interior nodes?*  The in-memory
answer (:func:`repro.benchmark.metrics.clusters`) walks a materialized
:class:`~repro.trees.tree.PhyloTree` in post-order.  This module gives
the identical answer without ever materializing the tree: the stored
``nodes`` rows already carry each node's pre-order clade interval
``[node_id, pre_order_end]``, so

1. one narrow primary-key range scan
   (:meth:`~repro.storage.tree_repository.StoredTree.scan_table`)
   yields the four columns needed of every row as plain tuples, without
   going through the row caches or building a
   :class:`~repro.storage.tree_repository.NodeRow` per row, and
2. one linear pass over those rows in reverse pre-order turns them into
   a :class:`TreeScan`: every cluster as an ``int`` bitmask over the
   tree's sorted distinct leaf names (bit *i* is the *i*-th name), each
   interior node the OR of its children's masks.  The engine memoises
   that table per handle when the tree fits its cache, so a warm repeat
   runs zero SQL and builds nothing.

Compare and consensus then count, intersect and diff plain ints; leaf
names appear only at the API edge (:meth:`TreeScan.leaf_sets`,
:meth:`TreeScan.bipartitions`, a consensus's support keys).  The
outputs are value-identical to their in-memory counterparts on the same
tree (including error behaviour for unnamed or duplicated leaves),
which the differential tests in ``tests/test_analytics.py`` pin down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import QueryError
from repro.storage.tree_repository import StoredTree
from repro.trees.splits import mask_bits

Split = frozenset[str]


@dataclass(frozen=True)
class TreeScan:
    """One tree's clusters as bitmasks, from a single row scan.

    Compare and consensus derive leaf sets, clusters *and* splits from
    one :func:`scan_tree` call.  Duplicate leaf names share a bit, so
    clusters behave as the in-memory frozensets do.
    """

    names: tuple[str, ...]  # sorted distinct leaf names; bit i is names[i]
    leaf_names: tuple[str, ...]  # in pre-order
    clusters: tuple[int, ...]  # distinct non-trivial clusters, in pre-order

    @classmethod
    def from_rows(
        cls, rows: Sequence[tuple[int, int, int, str | None]]
    ) -> TreeScan:
        """Build from ``(node_id, pre_order_end, is_leaf, name)`` rows
        in pre-order, in one pass: walking them backwards, a node's
        children are the finished subtrees on top of the stack whose
        ids fall inside its interval.  A cluster is trivial when it is
        a singleton or the whole leaf set; a unary node repeats its
        child's cluster, which is kept once.

        Raises
        ------
        QueryError
            If the tree has unnamed leaves.
        """
        leaf_names = tuple([row[3] for row in rows if row[2]])
        if None in leaf_names:
            raise QueryError("tree has unnamed leaves")
        names = tuple(sorted(set(leaf_names)))
        size = len(names)
        bit = {name: 1 << index for index, name in enumerate(names)}
        masks: list[int] = []  # non-trivial, in reverse pre-order
        ids: list[int] = []  # roots of finished subtrees, smallest on top
        subtree: list[int] = []  # their masks
        for node_id, end, is_leaf, name in reversed(rows):
            if is_leaf:
                mask = bit[name]
            else:  # an interior node has at least one child
                ids.pop()
                mask = subtree.pop()
                while ids and ids[-1] <= end:
                    ids.pop()
                    mask |= subtree.pop()
                if 1 < mask.bit_count() < size:
                    masks.append(mask)
            ids.append(node_id)
            subtree.append(mask)
        clusters = tuple(dict.fromkeys(reversed(masks)))
        return cls(names=names, leaf_names=leaf_names, clusters=clusters)

    def split_masks(self) -> set[int]:
        """Non-trivial unrooted splits, each the side *not* holding bit
        0 (the smallest name), kept when both sides have at least two
        leaves.

        Raises
        ------
        QueryError
            If the tree has duplicated leaf names.
        """
        size = len(self.names)
        if len(self.leaf_names) != size:
            raise QueryError("duplicate leaf names make splits ambiguous")
        full = (1 << size) - 1
        result: set[int] = set()
        for mask in self.clusters:
            side = full ^ mask if mask & 1 else mask
            if 2 <= side.bit_count() <= size - 2:
                result.add(side)
        return result

    def leaf_set(self, mask: int) -> Split:
        """The leaf names of ``mask``."""
        return frozenset(map(self.names.__getitem__, mask_bits(mask)))

    def leaf_sets(self, include_trivial: bool = False) -> set[Split]:
        """Rooted clusters, identical to
        :func:`repro.benchmark.metrics.clusters` on the materialized
        tree.  The root's full set and singletons are trivial and
        excluded unless ``include_trivial`` is set.
        """
        result = {self.leaf_set(mask) for mask in self.clusters}
        if include_trivial:
            result.update(frozenset([name]) for name in self.names)
            result.add(frozenset(self.names))
        return result

    def bipartitions(self) -> set[Split]:
        """Non-trivial unrooted splits, identical to
        :func:`repro.benchmark.metrics.bipartitions` on the
        materialized tree (see :meth:`split_masks`)."""
        return {self.leaf_set(mask) for mask in self.split_masks()}


def scan_tree(stored: StoredTree) -> TreeScan:
    """A stored tree's cluster table: one narrow range scan and one
    linear pass cold, neither when the handle's engine has it memoised.

    Raises
    ------
    QueryError
        If the tree has unnamed leaves.
    StorageError
        If the tree was deleted out from under the handle.
    """
    return stored.scan_table(TreeScan.from_rows)


def stored_leaf_names(stored: StoredTree) -> list[str]:
    """Leaf names in pre-order (the stored twin of ``tree.leaf_names()``).

    Raises
    ------
    QueryError
        If the tree has unnamed leaves.
    """
    return list(scan_tree(stored).leaf_names)


def stored_clusters(
    stored: StoredTree, include_trivial: bool = False
) -> set[Split]:
    """Rooted clusters of a stored tree (see :meth:`TreeScan.leaf_sets`)."""
    return scan_tree(stored).leaf_sets(include_trivial)


def stored_bipartitions(stored: StoredTree) -> set[Split]:
    """Unrooted splits of a stored tree (see :meth:`TreeScan.bipartitions`)."""
    return scan_tree(stored).bipartitions()
