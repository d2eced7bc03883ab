"""Unified LCA interface over the three strategies the benches compare.

The paper's experiments need the same query answered three ways:

* ``naive`` — walk parent pointers (no index; cost ∝ depth),
* ``dewey`` — plain Dewey labels (fast compare, but label size ∝ depth),
* ``layered`` — the hierarchical bounded-label index (the contribution).

:class:`LcaService` hides the choice behind one object so the projection,
clade, and pattern algorithms can be exercised against any of them.
"""

from __future__ import annotations

from typing import Iterable, Literal

from repro.core.dewey import DeweyIndex
from repro.core.hindex import HierarchicalIndex
from repro.errors import QueryError
from repro.trees.node import Node
from repro.trees.traversal import naive_lca
from repro.trees.tree import PhyloTree

Strategy = Literal["naive", "dewey", "layered"]

DEFAULT_LABEL_BOUND = 8
"""Default label bound ``f`` used when none is specified.

Eight components keeps labels under a typical index-key size while
holding the layer count low even for million-level trees
(``log_8(10^6) ≈ 7``).
"""


class LcaService:
    """LCA queries over one tree, answered by a chosen strategy.

    Parameters
    ----------
    tree:
        The tree to query.
    strategy:
        ``"naive"``, ``"dewey"``, or ``"layered"`` (default).
    f:
        Label bound for the layered strategy; ignored otherwise.
    """

    def __init__(
        self,
        tree: PhyloTree,
        strategy: Strategy = "layered",
        f: int = DEFAULT_LABEL_BOUND,
    ) -> None:
        self.tree = tree
        self.strategy = strategy
        self._distances: dict[int, float] | None = None
        self._dewey: DeweyIndex | None = None
        self._layered: HierarchicalIndex | None = None
        if strategy == "dewey":
            self._dewey = DeweyIndex(tree)
        elif strategy == "layered":
            self._layered = HierarchicalIndex(tree, f)
        elif strategy != "naive":
            raise QueryError(f"unknown LCA strategy {strategy!r}")

    def lca(self, a: Node, b: Node) -> Node:
        """Least common ancestor of two nodes.

        Raises
        ------
        QueryError
            If a node is not part of the tree (every strategy raises
            the same error).
        """
        if self._layered is not None:
            return self._layered.lca(a, b)
        if self._dewey is not None:
            return self._dewey.lca(a, b)
        try:
            return naive_lca(a, b)
        except ValueError as error:
            raise QueryError(str(error)) from None

    def lca_many(self, nodes: Iterable[Node]) -> Node:
        """LCA of a non-empty collection of nodes.

        Raises
        ------
        QueryError
            If the collection is empty or any node is not part of the
            tree.
        """
        if self._layered is not None:
            return self._layered.lca_many(nodes)
        if self._dewey is not None:
            return self._dewey.lca_many(nodes)
        iterator = iter(nodes)
        try:
            result = next(iterator)
        except StopIteration:
            raise QueryError("cannot take the LCA of zero nodes") from None
        for node in iterator:
            result = self.lca(result, node)
        return result

    def is_ancestor_or_self(self, ancestor: Node, descendant: Node) -> bool:
        """The paper's ancestor test: ``LCA(m, n) = m``."""
        return self.lca(ancestor, descendant) is ancestor

    def path_distance(self, a: Node, b: Node) -> float:
        """Weighted path length between two nodes via their LCA.

        ``d(a, b) = dist(a) + dist(b) − 2·dist(LCA(a, b))`` — the
        evolutionary distance between species, and the quantity additive
        distance matrices are built from.
        """
        if self._distances is None:
            self._distances = self.tree.distances_from_root()
        anchor = self.lca(a, b)
        return (
            self._distances[id(a)]
            + self._distances[id(b)]
            - 2.0 * self._distances[id(anchor)]
        )

    def __repr__(self) -> str:
        return f"LcaService(strategy={self.strategy!r})"
