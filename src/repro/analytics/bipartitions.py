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
   (:meth:`~repro.storage.tree_repository.StoredTree.scan_rows`)
   yields the four columns needed of every row as plain tuples — one
   statement cold, **zero** warm once the engine has memoised a tree
   that fits its cache — without going through the row caches or
   building a :class:`~repro.storage.tree_repository.NodeRow` per
   row, and
2. the cluster of an interior node is simply the (pre-order-sorted)
   leaves whose ids fall inside its interval, found with two binary
   searches per interior node.

The outputs are value-identical to their in-memory counterparts on the
same tree (including error behaviour for unnamed or duplicated
leaves), which the differential tests in ``tests/test_analytics.py``
pin down.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterator

from repro.errors import QueryError
from repro.storage.tree_repository import StoredTree

Split = frozenset[str]


@dataclass(frozen=True)
class TreeScan:
    """One tree's cluster-relevant facts, from a single row scan.

    Holds only the leaf columns and interior clade intervals — the
    compare/consensus paths derive leaf sets, clusters, *and* splits
    from one :func:`scan_tree` call instead of re-scanning per product.
    """

    leaf_ids: tuple[int, ...]  # pre-order (therefore sorted)
    leaf_names: tuple[str, ...]
    intervals: tuple[tuple[int, int], ...]  # interior (start, end) pairs

    def _interval_clusters(self) -> Iterator[Split]:
        """Cluster of each interior node via binary search on leaf ids."""
        for start, end in self.intervals:
            low = bisect_left(self.leaf_ids, start)
            high = bisect_right(self.leaf_ids, end)
            yield frozenset(self.leaf_names[low:high])

    def clusters(self, include_trivial: bool = False) -> set[Split]:
        """Rooted clusters, identical to
        :func:`repro.benchmark.metrics.clusters` on the materialized
        tree.  The root's full set and singletons are trivial and
        excluded unless ``include_trivial`` is set.
        """
        all_leaves: Split = frozenset(self.leaf_names)
        result: set[Split] = set()
        if include_trivial:
            result.update(frozenset([name]) for name in self.leaf_names)
            result.add(all_leaves)
        for cluster in self._interval_clusters():
            if include_trivial or 1 < len(cluster) < len(all_leaves):
                result.add(cluster)
        return result

    def bipartitions(self) -> set[Split]:
        """Non-trivial unrooted splits, identical to
        :func:`repro.benchmark.metrics.bipartitions` on the
        materialized tree: each split is normalized to the side *not*
        containing the lexicographically smallest leaf name, and kept
        only when both sides have at least two leaves.

        Raises
        ------
        QueryError
            If the tree has duplicated leaf names.
        """
        if len(set(self.leaf_names)) != len(self.leaf_names):
            raise QueryError("duplicate leaf names make splits ambiguous")
        full: Split = frozenset(self.leaf_names)
        anchor = min(full) if full else ""
        result: set[Split] = set()
        for cluster in self._interval_clusters():
            side = full - cluster if anchor in cluster else cluster
            if 2 <= len(side) <= len(full) - 2:
                result.add(side)
        return result


def scan_tree(stored: StoredTree) -> TreeScan:
    """One narrow range scan over a stored tree's rows.

    Raises
    ------
    QueryError
        If the tree has unnamed leaves.
    StorageError
        If the tree was deleted out from under the handle.
    """
    leaf_ids: list[int] = []
    leaf_names: list[str] = []
    intervals: list[tuple[int, int]] = []
    for node_id, end, is_leaf, name in stored.scan_rows():
        if is_leaf:
            if name is None:
                raise QueryError("tree has unnamed leaves")
            leaf_ids.append(node_id)
            leaf_names.append(name)
        else:
            intervals.append((node_id, end))
    return TreeScan(
        leaf_ids=tuple(leaf_ids),
        leaf_names=tuple(leaf_names),
        intervals=tuple(intervals),
    )


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
    """Rooted clusters of a stored tree (see :meth:`TreeScan.clusters`)."""
    return scan_tree(stored).clusters(include_trivial)


def stored_bipartitions(stored: StoredTree) -> set[Split]:
    """Unrooted splits of a stored tree (see :meth:`TreeScan.bipartitions`)."""
    return scan_tree(stored).bipartitions()
