"""Pairwise and all-pairs comparison of stored trees.

Robinson–Foulds distance, shared-cluster counts, and the all-pairs
distance matrix over a catalogue subset — computed entirely from
stored rows (:mod:`repro.analytics.bipartitions`, as ``int`` cluster
bitmasks), never from materialized trees.  The numbers are
value-identical to running :func:`repro.benchmark.metrics.compare_splits` /
:func:`~repro.benchmark.metrics.clusters` on the fetched trees; the
assembly is literally shared (:func:`comparison_from_splits`), so the
two paths cannot drift.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.analytics.bipartitions import scan_tree
from repro.storage.tree_repository import StoredTree
from repro.trees.splits import (
    SplitComparison,
    check_same_leaf_sets,
    comparison_from_splits,
)


@dataclass(frozen=True)
class StoredComparison:
    """One pairwise comparison of two stored trees.

    ``splits`` carries the unrooted Robinson–Foulds figures
    (:class:`~repro.trees.splits.SplitComparison`); the rooted
    cluster counts sit beside it because consensus workloads reason in
    rooted clusters.
    """

    splits: SplitComparison
    shared_clusters: int
    n_clusters_a: int
    n_clusters_b: int

    @property
    def rf_distance(self) -> int:
        return self.splits.rf_distance


def compare_stored(a: StoredTree, b: StoredTree) -> StoredComparison:
    """Compare two stored trees over the same leaf set (one cluster
    table each; clusters and splits both derive from it).

    Raises
    ------
    QueryError
        If the trees have different leaf sets (same message as the
        in-memory :func:`~repro.benchmark.metrics.compare_splits`).
    """
    scan_a = scan_tree(a)
    scan_b = scan_tree(b)
    if scan_a.names != scan_b.names:  # name sets only for the message
        check_same_leaf_sets(set(scan_a.names), set(scan_b.names))
    shared = set(scan_a.clusters).intersection(scan_b.clusters)
    return StoredComparison(
        splits=comparison_from_splits(
            scan_a.split_masks(), scan_b.split_masks()
        ),
        shared_clusters=len(shared),
        n_clusters_a=len(scan_a.clusters),
        n_clusters_b=len(scan_b.clusters),
    )


def rf_matrix(handles: Sequence[StoredTree]) -> list[list[int]]:
    """All-pairs Robinson–Foulds distances over a catalogue subset.

    Each tree's cluster table is read once and its splits extracted
    once, so the cost is ``O(N)`` scans plus ``O(N²)`` set differences
    of ints — not ``O(N²)`` scans.  The matrix is symmetric with a zero
    diagonal, rows/columns in input order.

    Raises
    ------
    QueryError
        If any two trees have different leaf sets.
    """
    scans = [scan_tree(handle) for handle in handles]
    for later in scans[1:]:
        if later.names != scans[0].names:
            check_same_leaf_sets(set(scans[0].names), set(later.names))
    splits = [scan.split_masks() for scan in scans]
    size = len(handles)
    matrix = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            distance = len(splits[i] ^ splits[j])
            matrix[i][j] = matrix[j][i] = distance
    return matrix
