"""Majority-rule and strict consensus across N stored trees.

The in-memory reference (:mod:`repro.benchmark.consensus`, after the
linear-time majority-rule line of Amenta et al.) needs every input
tree materialized at once.  This version streams instead: trees are
visited one at a time, each contributing its rooted cluster set
(extracted from one narrow range scan of its stored rows,
:func:`~repro.analytics.bipartitions.scan_tree`) to a running
counter, so peak memory is one cluster table plus the counter — never
N trees.  Tree assembly is shared with the in-memory path
(:func:`repro.benchmark.consensus.build_tree_from_clusters`), so the
returned topology is identical — byte-identical as Newick — to
:func:`~repro.benchmark.consensus.majority_rule_consensus` /
:func:`~repro.benchmark.consensus.strict_consensus` over the same
profile.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from repro.analytics.bipartitions import Split, scan_tree
from repro.benchmark.consensus import build_tree_from_clusters
from repro.errors import QueryError
from repro.storage.tree_repository import StoredTree
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
    if not strict and (threshold < 0.5 or threshold >= 1.0 + 1e-12):
        raise QueryError(f"threshold must be in [0.5, 1.0], got {threshold}")

    leaf_set: frozenset[str] | None = None
    counts: Counter[Split] = Counter()
    shared: set[Split] | None = None
    for handle in handles:
        scan = scan_tree(handle)  # one row pass: leaf set and clusters
        names = frozenset(scan.leaf_names)
        if leaf_set is None:
            leaf_set = names
        elif names != leaf_set:
            raise QueryError("consensus input trees have different leaf sets")
        clusters = scan.clusters()
        if strict:
            shared = clusters if shared is None else shared & clusters
        else:
            counts.update(clusters)
    assert leaf_set is not None

    if strict:
        assert shared is not None
        tree = build_tree_from_clusters(
            sorted(leaf_set), sorted(shared, key=len)
        )
        return tree, {cluster: 1.0 for cluster in shared}

    needed = threshold * len(handles)
    majority = [
        cluster for cluster, count in counts.items() if count > needed
    ]
    support = {
        cluster: counts[cluster] / len(handles) for cluster in majority
    }
    return build_tree_from_clusters(sorted(leaf_set), majority), support
