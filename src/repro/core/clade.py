"""Minimal spanning clade (paper §2.2).

Given a set of input leaves, their minimal spanning clade is the set of
*all* nodes in the subtree rooted at their least common ancestor.  Crimson
answers it in two steps: take the leaf set's LCA (index-backed; the
relational store walks one pair, the set's lowest and highest pre-order
ids), then enumerate the LCA's subtree — in the relational store that
enumeration is a single ``BETWEEN`` over the pre-order interval columns.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.lca import LcaService
from repro.errors import QueryError
from repro.trees.node import Node
from repro.trees.tree import PhyloTree


def minimal_spanning_clade(
    tree: PhyloTree,
    leaf_names: Iterable[str],
    lca_service: LcaService | None = None,
) -> list[Node]:
    """All nodes under the LCA of the named leaves, in pre-order.

    Parameters
    ----------
    tree:
        The tree to query.
    leaf_names:
        Names of the input leaves (at least one).
    lca_service:
        LCA strategy; defaults to a layered index built on the fly.

    Raises
    ------
    QueryError
        If the name set is empty or contains unknown names.
    """
    names = list(dict.fromkeys(leaf_names))
    if not names:
        raise QueryError("minimal spanning clade of an empty leaf set")
    nodes = [tree.find(name) for name in names]
    service = lca_service or LcaService(tree, "layered")
    root = service.lca_many(nodes)
    return list(root.preorder())


def clade_leaves(
    tree: PhyloTree,
    leaf_names: Iterable[str],
    lca_service: LcaService | None = None,
) -> list[str]:
    """Leaf names of the minimal spanning clade (the clade's taxon set)."""
    return [
        node.name
        for node in minimal_spanning_clade(tree, leaf_names, lca_service)
        if node.is_leaf and node.name is not None
    ]


def is_monophyletic(
    tree: PhyloTree,
    leaf_names: Iterable[str],
    lca_service: LcaService | None = None,
) -> bool:
    """True when the named leaves form a complete clade.

    A set is monophyletic exactly when its minimal spanning clade contains
    no other leaves — the standard systematics question Crimson's clade
    query answers.
    """
    names = set(dict.fromkeys(leaf_names))
    if not names:
        raise QueryError("monophyly test over an empty leaf set")
    spanned = set(clade_leaves(tree, names, lca_service))
    return spanned == names
