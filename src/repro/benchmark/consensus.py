"""Majority-rule consensus trees (paper reference [1], Amenta et al.).

Given a profile of rooted trees over the same leaf set, the majority
tree contains exactly the clusters appearing in more than half of the
input trees.  Majority clusters are pairwise compatible, so they nest
into a unique tree; construction here is cluster counting with hashed
leaf sets followed by containment nesting — linear in the total input
size up to hashing, the spirit of the linear-time algorithm the paper
cites.

Consensus is how the Benchmark Manager aggregates an algorithm's output
across replicate samples into one summary topology.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from repro.benchmark.metrics import clusters
from repro.errors import QueryError
from repro.trees.node import Node
from repro.trees.tree import PhyloTree


def majority_rule_consensus(
    trees: Sequence[PhyloTree], threshold: float = 0.5
) -> tuple[PhyloTree, dict[frozenset[str], float]]:
    """Majority-rule consensus of rooted trees on a common leaf set.

    Returns the consensus tree together with per-cluster support (the
    fraction of input trees containing each retained cluster).

    Parameters
    ----------
    trees:
        At least one tree; all must share the same leaf names.
    threshold:
        A cluster is kept when it appears in strictly more than
        ``threshold`` of the trees.  0.5 is the classical majority rule;
        values up to 1.0 approach the strict consensus.

    Raises
    ------
    QueryError
        On an empty profile, mismatched leaf sets, or a threshold below
        0.5 (lower values can select incompatible clusters).
    """
    if not trees:
        raise QueryError("consensus of an empty tree profile")
    if threshold < 0.5 or threshold >= 1.0 + 1e-12:
        raise QueryError(f"threshold must be in [0.5, 1.0], got {threshold}")

    leaf_set = frozenset(trees[0].leaf_names())
    for tree in trees[1:]:
        if frozenset(tree.leaf_names()) != leaf_set:
            raise QueryError("consensus input trees have different leaf sets")

    counts: Counter[frozenset[str]] = Counter()
    for tree in trees:
        for cluster in clusters(tree):
            counts[cluster] += 1

    needed = threshold * len(trees)
    majority = [
        cluster for cluster, count in counts.items() if count > needed
    ]
    support = {
        cluster: counts[cluster] / len(trees) for cluster in majority
    }
    return build_tree_from_clusters(sorted(leaf_set), majority), support


def majority_consensus_tree(
    trees: Sequence[PhyloTree], threshold: float = 0.5
) -> PhyloTree:
    """Like :func:`majority_rule_consensus` but returning only the tree."""
    tree, _support = majority_rule_consensus(trees, threshold)
    return tree


def strict_consensus(trees: Sequence[PhyloTree]) -> PhyloTree:
    """Strict consensus: only clusters present in *every* input tree.

    Implemented as cluster intersection (not a threshold), so a cluster
    in all trees is kept even when the profile has two trees.
    """
    if not trees:
        raise QueryError("consensus of an empty tree profile")
    leaf_set = frozenset(trees[0].leaf_names())
    shared = clusters(trees[0])
    for tree in trees[1:]:
        if frozenset(tree.leaf_names()) != leaf_set:
            raise QueryError("consensus input trees have different leaf sets")
        shared &= clusters(tree)
    return build_tree_from_clusters(sorted(leaf_set), sorted(shared, key=len))


def build_tree_from_clusters(
    leaf_names: Sequence[str], cluster_sets: Sequence[frozenset[str]]
) -> PhyloTree:
    """Assemble the unique rooted tree realizing pairwise-compatible,
    non-trivial clusters over ``leaf_names``.

    Raises
    ------
    QueryError
        If two clusters are incompatible (overlap without containment).
    """
    root = Node()
    root_cluster = frozenset(leaf_names)
    # Interior nodes created so far, keyed by their cluster.
    interior: dict[frozenset[str], Node] = {root_cluster: root}

    # Insert big clusters first so parents exist before children.  Two
    # distinct compatible clusters of one size are disjoint, so the
    # smallest name breaks every tie: children are attached in the same
    # order whatever order (or hash seed) the clusters came in.
    by_size = sorted(
        set(cluster_sets), key=lambda c: (-len(c), min(c, default=""))
    )
    for cluster in by_size:
        if not cluster or cluster == root_cluster:
            continue
        parent_cluster = _smallest_superset(interior, cluster)
        for existing in interior:
            if existing & cluster and not (
                existing >= cluster or cluster >= existing
            ):
                raise QueryError(
                    f"incompatible clusters: {sorted(existing)} vs {sorted(cluster)}"
                )
        node = Node()
        interior[parent_cluster].add_child(node)
        interior[cluster] = node

    # Hang each leaf under the smallest cluster containing it.
    for name in leaf_names:
        parent_cluster = _smallest_superset(interior, frozenset([name]))
        interior[parent_cluster].new_child(name, 1.0)

    # Give interior edges unit length for renderability.
    for node in root.preorder():
        if node.parent is not None and not node.is_leaf:
            node.length = 1.0
    return PhyloTree(root, name="consensus")


def _smallest_superset(
    interior: dict[frozenset[str], Node], cluster: frozenset[str]
) -> frozenset[str]:
    best: frozenset[str] | None = None
    for candidate in interior:
        if candidate >= cluster and (best is None or len(candidate) < len(best)):
            best = candidate
    if best is None:
        raise QueryError("cluster escapes the root leaf set")
    return best
