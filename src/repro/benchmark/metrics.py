"""Tree comparison metrics for algorithm evaluation (paper §2.2).

The Benchmark Manager "characterizes and evaluates a tree inference
algorithm by comparing its output to a set of projection trees".  The
standard comparisons, all provided here:

* **Robinson–Foulds** distance over unrooted bipartitions (plus the
  normalized form and the false-positive / false-negative split rates),
* **branch-score** distance (Kuhner & Felsenstein), which also weighs
  edge-length disagreement,
* **triplet distance** over rooted trees (fraction of leaf triples whose
  rooted shape differs), exact or subsampled for large inputs,
* exact **cluster** comparison for rooted trees.

All comparisons are computed in time linear in the tree sizes (triplets:
per sampled triple), matching the paper's "tree comparison can be done
in linear time" remark.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.errors import QueryError
from repro.trees.splits import (
    SplitComparison,
    check_same_leaf_sets,
    comparison_from_splits,
)
from repro.trees.tree import PhyloTree

Split = frozenset[str]


def clusters(tree: PhyloTree, include_trivial: bool = False) -> set[Split]:
    """Rooted clusters: the leaf-name set under each interior node.

    The root's full set and singletons are trivial and excluded unless
    ``include_trivial`` is set.
    """
    table: dict[int, frozenset[str]] = {}
    result: set[Split] = set()
    all_leaves: frozenset[str] = frozenset(tree.leaf_names())
    for node in tree.postorder():
        if node.is_leaf:
            if node.name is None:
                raise QueryError("tree has unnamed leaves")
            table[id(node)] = frozenset([node.name])
            if include_trivial:
                result.add(table[id(node)])
        else:
            merged: set[str] = set()
            for child in node.children:
                merged |= table[id(child)]
            cluster = frozenset(merged)
            table[id(node)] = cluster
            if include_trivial or 1 < len(cluster) < len(all_leaves):
                result.add(cluster)
    if include_trivial:
        result.add(all_leaves)
    return result


def bipartitions(tree: PhyloTree) -> set[Split]:
    """Non-trivial unrooted splits, each normalized to the side *not*
    containing the lexicographically smallest leaf name.

    A split is non-trivial when both sides have at least two leaves.
    """
    names = tree.leaf_names()
    if len(set(names)) != len(names):
        raise QueryError("duplicate leaf names make splits ambiguous")
    full: frozenset[str] = frozenset(names)
    anchor = min(full) if full else ""
    result: set[Split] = set()
    table: dict[int, frozenset[str]] = {}
    for node in tree.postorder():
        if node.is_leaf:
            table[id(node)] = frozenset([node.name])  # type: ignore[list-item]
            continue
        merged: set[str] = set()
        for child in node.children:
            merged |= table[id(child)]
        cluster = frozenset(merged)
        table[id(node)] = cluster
        side = full - cluster if anchor in cluster else cluster
        if 2 <= len(side) <= len(full) - 2:
            result.add(side)
    return result


def _check_same_leaves(a: PhyloTree, b: PhyloTree) -> None:
    check_same_leaf_sets(set(a.leaf_names()), set(b.leaf_names()))


def compare_splits(reference: PhyloTree, estimate: PhyloTree) -> SplitComparison:
    """Unrooted split comparison of an estimate against a reference.

    Raises
    ------
    QueryError
        If the trees have different leaf sets.
    """
    _check_same_leaves(reference, estimate)
    return comparison_from_splits(bipartitions(reference), bipartitions(estimate))


def robinson_foulds(a: PhyloTree, b: PhyloTree) -> int:
    """Plain symmetric-difference RF distance over unrooted splits."""
    return compare_splits(a, b).rf_distance


def normalized_rf(a: PhyloTree, b: PhyloTree) -> float:
    """RF distance divided by the total split count (0 = identical,
    1 = no shared splits)."""
    return compare_splits(a, b).normalized_rf


def _split_lengths(tree: PhyloTree) -> dict[Split, float]:
    """Split → incident branch length (trivial splits use leaf edges)."""
    names = frozenset(tree.leaf_names())
    anchor = min(names) if names else ""
    table: dict[int, frozenset[str]] = {}
    lengths: dict[Split, float] = {}
    for node in tree.postorder():
        if node.is_leaf:
            cluster = frozenset([node.name])  # type: ignore[list-item]
        else:
            merged: set[str] = set()
            for child in node.children:
                merged |= table[id(child)]
            cluster = frozenset(merged)
        table[id(node)] = cluster
        if node.parent is None:
            continue
        side = names - cluster if anchor in cluster else cluster
        if side and side != names:
            lengths[side] = lengths.get(side, 0.0) + node.length
    return lengths


def branch_score_distance(a: PhyloTree, b: PhyloTree) -> float:
    """Kuhner–Felsenstein branch score: L2 distance over split lengths.

    Splits present in only one tree contribute their full length.
    """
    _check_same_leaves(a, b)
    lengths_a = _split_lengths(a)
    lengths_b = _split_lengths(b)
    total = 0.0
    for split in set(lengths_a) | set(lengths_b):
        difference = lengths_a.get(split, 0.0) - lengths_b.get(split, 0.0)
        total += difference * difference
    return float(np.sqrt(total))


def _triplet_shape(depth_lca: dict[tuple[str, str], int], a: str, b: str, c: str) -> str:
    """Which pair of {a,b,c} is the cherry, by deepest pairwise LCA."""
    dab = depth_lca[(a, b)]
    dac = depth_lca[(a, c)]
    dbc = depth_lca[(b, c)]
    best = max(dab, dac, dbc)
    winners = [
        pair
        for pair, depth in (("ab", dab), ("ac", dac), ("bc", dbc))
        if depth == best
    ]
    return winners[0] if len(winners) == 1 else "star"


def _pairwise_lca_depths(tree: PhyloTree) -> dict[tuple[str, str], int]:
    from repro.core.hindex import HierarchicalIndex

    leaves = tree.leaves()
    depths = tree.depths()
    index = HierarchicalIndex(tree, 8)
    result: dict[tuple[str, str], int] = {}
    for first, second in itertools.combinations(leaves, 2):
        lca = index.lca(first, second)
        key = (first.name, second.name)  # type: ignore[assignment]
        result[key] = depths[id(lca)]
        result[(key[1], key[0])] = result[key]
    return result


def triplet_distance(
    a: PhyloTree,
    b: PhyloTree,
    max_triplets: int | None = 50000,
    rng: np.random.Generator | None = None,
) -> float:
    """Fraction of leaf triples with different rooted shapes in the trees.

    Exact when the number of triples is at most ``max_triplets``;
    otherwise estimated from a uniform sample of that size.

    Raises
    ------
    QueryError
        On mismatched leaf sets or fewer than three leaves.
    """
    _check_same_leaves(a, b)
    names = sorted(a.leaf_names())
    if len(names) < 3:
        raise QueryError("triplet distance needs at least three leaves")
    depths_a = _pairwise_lca_depths(a)
    depths_b = _pairwise_lca_depths(b)

    total = len(names) * (len(names) - 1) * (len(names) - 2) // 6
    if max_triplets is not None and total > max_triplets:
        rng = rng or np.random.default_rng()
        disagreements = 0
        for _ in range(max_triplets):
            x, y, z = rng.choice(len(names), size=3, replace=False)
            triple = (names[int(x)], names[int(y)], names[int(z)])
            if _triplet_shape(depths_a, *triple) != _triplet_shape(depths_b, *triple):
                disagreements += 1
        return disagreements / max_triplets

    disagreements = 0
    for triple in itertools.combinations(names, 3):
        if _triplet_shape(depths_a, *triple) != _triplet_shape(depths_b, *triple):
            disagreements += 1
    return disagreements / total


def _quartet_shape(
    splits_map: set[Split],
    quartet: tuple[str, str, str, str],
) -> str:
    """Which pairing of a 4-taxon set is separated by some split.

    Returns ``"ab|cd"``, ``"ac|bd"``, ``"ad|bc"`` for a resolved quartet
    or ``"star"`` when no split of the tree separates it.
    """
    a, b, c, d = quartet
    for split in splits_map:
        inside = split
        in_a, in_b, in_c, in_d = a in inside, b in inside, c in inside, d in inside
        count = in_a + in_b + in_c + in_d
        if count == 2:
            if in_a and in_b:
                return "ab|cd"
            if in_a and in_c:
                return "ac|bd"
            if in_a and in_d:
                return "ad|bc"
            if in_c and in_d:
                return "ab|cd"
            if in_b and in_d:
                return "ac|bd"
            if in_b and in_c:
                return "ad|bc"
    return "star"


def quartet_distance(
    a: PhyloTree,
    b: PhyloTree,
    max_quartets: int = 20000,
    rng: np.random.Generator | None = None,
) -> float:
    """Estimated fraction of leaf quartets resolved differently.

    The unrooted counterpart of :func:`triplet_distance` — insensitive to
    the root, sensitive to everything else.  Exact evaluation is
    O(n⁴)·O(splits); this implementation samples ``max_quartets``
    uniformly (or enumerates when there are fewer), which is accurate to
    a few percent and sufficient for algorithm ranking.

    Raises
    ------
    QueryError
        On mismatched leaf sets or fewer than four leaves.
    """
    _check_same_leaves(a, b)
    names = sorted(a.leaf_names())
    if len(names) < 4:
        raise QueryError("quartet distance needs at least four leaves")
    splits_a = bipartitions(a)
    splits_b = bipartitions(b)
    rng = rng or np.random.default_rng()

    total = (
        len(names) * (len(names) - 1) * (len(names) - 2) * (len(names) - 3) // 24
    )
    if total <= max_quartets:
        quartets = list(itertools.combinations(names, 4))
    else:
        quartets = []
        for _ in range(max_quartets):
            picks = rng.choice(len(names), size=4, replace=False)
            quartets.append(tuple(sorted(names[int(i)] for i in picks)))

    disagreements = 0
    for quartet in quartets:
        if _quartet_shape(splits_a, quartet) != _quartet_shape(
            splits_b, quartet
        ):
            disagreements += 1
    return disagreements / len(quartets)


def same_topology(a: PhyloTree, b: PhyloTree) -> bool:
    """Unordered rooted topology equality over leaf-labelled trees."""
    return a.topology_key() == b.topology_key()
