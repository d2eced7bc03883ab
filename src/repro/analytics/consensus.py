"""Majority-rule and strict consensus across N stored trees.

The in-memory reference (:mod:`repro.benchmark.consensus`, after the
linear-time majority-rule line of Amenta et al.) needs every input
tree materialized at once.  This version streams instead: trees are
visited one at a time, each contributing its rooted clusters — ``int``
bitmasks over the sorted leaf names, from the handle's memoised
cluster table (:func:`~repro.analytics.bipartitions.scan_tree`) — to a
running counter, so peak memory is the counter plus the tables the
handles already hold, never N trees.  Tree assembly is shared with the
in-memory path (:func:`repro.trees.splits.build_tree_from_masks`
is the builder behind ``build_tree_from_clusters``), so the returned
topology is identical — byte-identical as Newick — to
:func:`~repro.benchmark.consensus.majority_rule_consensus` /
:func:`~repro.benchmark.consensus.strict_consensus` over the same
profile.  Leaf names are looked up only for the support keys.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from repro.analytics.bipartitions import Split, TreeScan, scan_tree
from repro.errors import QueryError
from repro.storage.tree_repository import StoredTree
from repro.trees.splits import build_tree_from_masks
from repro.trees.tree import PhyloTree


def stored_consensus(
    handles: Sequence[StoredTree],
    threshold: float = 0.5,
    strict: bool = False,
) -> tuple[PhyloTree, dict[Split, float]]:
    """Consensus of N stored trees with per-cluster support fractions.

    Parameters
    ----------
    handles:
        At least one stored-tree handle; all trees must share one leaf
        set.  A single-tree profile returns that tree's own clusters
        with support 1.0.
    threshold:
        A cluster is kept when it appears in strictly more than
        ``threshold`` of the trees; 0.5 is the classical majority rule.
        Ignored when ``strict`` is set.
    strict:
        Keep only clusters present in *every* tree (set intersection,
        exactly like :func:`~repro.benchmark.consensus.strict_consensus`
        — with two trees a cluster in both is kept, which a 1.0
        threshold would drop).

    Raises
    ------
    QueryError
        On an empty profile, mismatched leaf sets, or a threshold
        outside [0.5, 1.0].
    """
    if not handles:
        raise QueryError("consensus of an empty tree profile")
    if not strict and not 0.5 <= threshold < 1.0 + 1e-12:
        raise QueryError(f"threshold must be in [0.5, 1.0], got {threshold}")

    first: TreeScan | None = None
    counts: Counter[int] = Counter()
    shared: set[int] | None = None
    for handle in handles:
        scan = scan_tree(handle)
        if first is None:
            first = scan
        elif scan.names != first.names:
            raise QueryError("consensus input trees have different leaf sets")
        if strict:
            if shared is None:
                shared = set(scan.clusters)
            else:
                shared.intersection_update(scan.clusters)
        else:
            counts.update(scan.clusters)
    assert first is not None

    if strict:
        assert shared is not None
        support = {first.leaf_set(mask): 1.0 for mask in shared}
        return build_tree_from_masks(first.names, shared), support

    needed = threshold * len(handles)
    majority = [mask for mask, count in counts.items() if count > needed]
    support = {
        first.leaf_set(mask): counts[mask] / len(handles) for mask in majority
    }
    return build_tree_from_masks(first.names, majority), support
