"""Tree pattern match (paper §2.2).

Given a pattern tree and a target tree, the match proceeds exactly as the
paper describes: take the pattern's leaf set, project the target over it,
then compare the projection against the pattern — equality for an exact
match, a tree-distance score for an approximate match.  Comparison is
linear in the pattern size.

The two steps are separate functions.  :func:`match_pattern` projects an
in-memory tree with :func:`~repro.core.projection.project_tree`; a stored
``match`` projects with :func:`repro.storage.projection.project_stored`,
which reads only the pattern's leaf rows and their LCAs.  Both hand the
projection to :func:`compare_projection`, so they answer alike.

The paper's example is order-sensitive: the Figure-2 pattern matches the
Figure-1 tree, but swapping ``Bha`` and ``Lla`` in the pattern breaks the
match.  :func:`match_pattern` therefore compares with ordered equality by
default and offers unordered (topology-only) comparison as an option.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.lca import LcaService
from repro.core.projection import project_tree
from repro.errors import QueryError
from repro.trees.tree import PhyloTree


@dataclass(frozen=True)
class MatchResult:
    """Outcome of a tree pattern match.

    Attributes
    ----------
    matched:
        True for an exact match under the requested comparison.
    similarity:
        1.0 for a match; otherwise the fraction of the pattern's
        leaf-name bipartitions also present in the projection (a
        Robinson–Foulds-style similarity in [0, 1]).
    projection:
        The projected subtree the pattern was compared against.
    """

    matched: bool
    similarity: float
    projection: PhyloTree


def match_pattern(
    tree: PhyloTree,
    pattern: PhyloTree,
    lca_service: LcaService | None = None,
    ordered: bool = True,
    compare_lengths: bool = False,
    tolerance: float = 1e-6,
) -> MatchResult:
    """Match ``pattern`` against ``tree``.

    Parameters
    ----------
    tree:
        The target tree.
    pattern:
        The pattern tree; its leaves must all exist in ``tree``.
    lca_service:
        LCA strategy for the projection step.
    ordered:
        Compare with child order significant (the paper's semantics).
        When False, compares unordered leaf-labelled topologies.
    compare_lengths:
        Also require edge lengths to agree within ``tolerance``
        (only meaningful for ordered comparison).

    Raises
    ------
    QueryError
        If the pattern has no leaves or mentions names missing from the
        target tree.
    """
    leaf_names = pattern.leaf_names()
    if not leaf_names:
        raise QueryError("pattern tree has no leaves")
    missing = [name for name in leaf_names if name not in tree]
    if missing:
        raise QueryError(f"pattern leaves not in target tree: {missing}")

    projection = project_tree(tree, leaf_names, lca_service=lca_service)
    return compare_projection(
        projection, pattern, ordered, compare_lengths, tolerance
    )


def compare_projection(
    projection: PhyloTree,
    pattern: PhyloTree,
    ordered: bool = True,
    compare_lengths: bool = False,
    tolerance: float = 1e-6,
) -> MatchResult:
    """The match's second step: compare ``projection``, the target
    projected over ``pattern``'s leaves, with ``pattern``.  The other
    parameters are as in :func:`match_pattern`."""
    if ordered:
        matched = projection.equals(
            pattern, compare_lengths=compare_lengths, tolerance=tolerance
        ) or _equal_ignoring_interior_names(projection, pattern, compare_lengths, tolerance)
    else:
        matched = _strip_names(projection).topology_key() == _strip_names(
            pattern
        ).topology_key()

    similarity = 1.0 if matched else _bipartition_similarity(projection, pattern)
    return MatchResult(matched=matched, similarity=similarity, projection=projection)


def _equal_ignoring_interior_names(
    a: PhyloTree,
    b: PhyloTree,
    compare_lengths: bool,
    tolerance: float,
) -> bool:
    """Ordered equality that only requires *leaf* names to agree.

    Projections inherit interior names from the source tree while user
    patterns usually leave interiors anonymous; the paper's match is about
    structure and taxa, so interior labels must not block it.
    """
    stack = [(a.root, b.root)]
    while stack:
        x, y = stack.pop()
        if len(x.children) != len(y.children):
            return False
        if x.is_leaf and x.name != y.name:
            return False
        if compare_lengths and abs(x.length - y.length) > tolerance:
            return False
        stack.extend(zip(x.children, y.children))
    return True


def _strip_names(tree: PhyloTree) -> PhyloTree:
    clone = tree.copy()
    for node in clone.preorder():
        if not node.is_leaf:
            node.name = None
    clone.invalidate_caches()
    return clone


def _clusters(tree: PhyloTree) -> set[frozenset[str]]:
    """Non-trivial leaf-name clusters (one per interior edge)."""
    sets: dict[int, frozenset[str]] = {}
    for node in tree.postorder():
        if node.is_leaf:
            sets[id(node)] = frozenset([node.name] if node.name else [])
        else:
            merged: set[str] = set()
            for child in node.children:
                merged |= sets[id(child)]
            sets[id(node)] = frozenset(merged)
    all_leaves = sets[id(tree.root)]
    return {
        cluster
        for node_id, cluster in sets.items()
        if 1 < len(cluster) < len(all_leaves)
    }


def _bipartition_similarity(a: PhyloTree, b: PhyloTree) -> float:
    """Shared fraction of non-trivial clusters (rooted RF similarity)."""
    clusters_a = _clusters(a)
    clusters_b = _clusters(b)
    if not clusters_a and not clusters_b:
        return 1.0 if set(a.leaf_names()) == set(b.leaf_names()) else 0.0
    union = clusters_a | clusters_b
    if not union:
        return 0.0
    return len(clusters_a & clusters_b) / len(union)
