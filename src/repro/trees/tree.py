"""Rooted phylogenetic tree container.

:class:`PhyloTree` wraps a root :class:`~repro.trees.node.Node` and adds the
whole-tree services Crimson needs: leaf lookup by taxon name, pre-order
numbering (the basis of projection ordering and clade intervals), depth and
distance statistics, structural equality, and copying.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import QueryError, TreeStructureError
from repro.trees.node import Node
from repro.trees.traversal import preorder_columns


class PhyloTree:
    """A rooted tree with named leaves and weighted edges.

    Parameters
    ----------
    root:
        The root node of an existing node structure.
    name:
        Optional tree name (used as the repository key when stored).

    Notes
    -----
    The tree does not copy the node structure; it takes ownership of it.
    Taxon-name lookups are served from a lazily built cache which is
    invalidated by :meth:`invalidate_caches` after manual surgery.
    """

    def __init__(self, root: Node, name: str | None = None) -> None:
        if root.parent is not None:
            raise TreeStructureError("the root of a PhyloTree must have no parent")
        self.root = root
        self.name = name
        self._by_name: dict[str, Node] | None = None
        self._preorder_rank: dict[int, int] | None = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_newick(cls, text: str, name: str | None = None) -> "PhyloTree":
        """Parse a Newick string (delegates to :mod:`repro.trees.newick`)."""
        from repro.trees.newick import parse_newick

        tree = parse_newick(text)
        tree.name = name
        return tree

    def copy(self) -> "PhyloTree":
        """Deep-copy the tree structure (names, lengths, child order)."""
        mapping: dict[int, Node] = {}
        for node in self.root.preorder():
            clone = Node(node.name, node.length)
            mapping[id(node)] = clone
            if node.parent is not None:
                mapping[id(node.parent)].add_child(clone)
        return PhyloTree(mapping[id(self.root)], name=self.name)

    # ------------------------------------------------------------------
    # Traversal and lookup
    # ------------------------------------------------------------------

    def preorder(self) -> Iterator[Node]:
        """All nodes in pre-order."""
        return self.root.preorder()

    def postorder(self) -> Iterator[Node]:
        """All nodes in post-order."""
        return self.root.postorder()

    def leaves(self) -> list[Node]:
        """All leaves, in pre-order."""
        return list(self.root.leaves())

    def leaf_names(self) -> list[str]:
        """Names of all leaves, in pre-order.

        Raises
        ------
        TreeStructureError
            If any leaf is anonymous.
        """
        names: list[str] = []
        for leaf in self.root.leaves():
            if leaf.name is None:
                raise TreeStructureError("tree contains an unnamed leaf")
            names.append(leaf.name)
        return names

    def find(self, name: str) -> Node:
        """Return the unique node with the given taxon name.

        Raises
        ------
        QueryError
            If no node carries ``name``.
        TreeStructureError
            If more than one node carries ``name``.
        """
        index = self._name_index()
        if name not in index:
            raise QueryError(f"no node named {name!r} in tree {self.name!r}")
        return index[name]

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and name in self._name_index()

    def _name_index(self) -> dict[str, Node]:
        if self._by_name is None:
            built: dict[str, Node] = {}
            for node in self.root.preorder():
                if node.name is None:
                    continue
                if node.name in built:
                    raise TreeStructureError(
                        f"duplicate node name {node.name!r} in tree {self.name!r}"
                    )
                built[node.name] = node
            self._by_name = built
        return self._by_name

    def invalidate_caches(self) -> None:
        """Drop lazily built lookup structures after manual tree surgery."""
        self._by_name = None
        self._preorder_rank = None

    # ------------------------------------------------------------------
    # Pre-order numbering (projection ordering, clade intervals)
    # ------------------------------------------------------------------

    def preorder_rank(self, node: Node) -> int:
        """0-based position of ``node`` in the pre-order traversal."""
        if self._preorder_rank is None:
            self._preorder_rank = {
                id(n): i for i, n in enumerate(self.root.preorder())
            }
        try:
            return self._preorder_rank[id(node)]
        except KeyError:
            raise QueryError("node does not belong to this tree") from None

    # ------------------------------------------------------------------
    # Whole-tree statistics
    # ------------------------------------------------------------------

    def size(self) -> int:
        """Total number of nodes."""
        return self.root.subtree_size()

    def n_leaves(self) -> int:
        """Number of leaves."""
        return sum(1 for _ in self.root.leaves())

    def max_depth(self) -> int:
        """Largest number of edges from the root to any node."""
        deepest = 0
        stack: list[tuple[Node, int]] = [(self.root, 0)]
        while stack:
            node, depth = stack.pop()
            if depth > deepest:
                deepest = depth
            stack.extend((child, depth + 1) for child in node.children)
        return deepest

    def avg_leaf_depth(self) -> float:
        """Mean number of edges from the root to a leaf."""
        total = 0
        count = 0
        stack: list[tuple[Node, int]] = [(self.root, 0)]
        while stack:
            node, depth = stack.pop()
            if not node.children:
                total += depth
                count += 1
            else:
                stack.extend((child, depth + 1) for child in node.children)
        if count == 0:
            return 0.0
        return total / count

    def total_edge_length(self) -> float:
        """Sum of all edge lengths (the root's length is excluded)."""
        return sum(n.length for n in self.root.preorder() if n.parent is not None)

    def depths(self) -> dict[int, int]:
        """Iterative depth of every node, keyed by ``id(node)``.

        Computed in one pass so deep trees do not pay a quadratic cost.
        """
        table: dict[int, int] = {}
        stack: list[tuple[Node, int]] = [(self.root, 0)]
        while stack:
            node, depth = stack.pop()
            table[id(node)] = depth
            stack.extend((child, depth + 1) for child in node.children)
        return table

    def distances_from_root(self) -> dict[int, float]:
        """Weighted root distance of every node, keyed by ``id(node)``."""
        table: dict[int, float] = {}
        stack: list[tuple[Node, float]] = [(self.root, 0.0)]
        while stack:
            node, dist = stack.pop()
            table[id(node)] = dist
            stack.extend((child, dist + child.length) for child in node.children)
        return table

    # ------------------------------------------------------------------
    # Structural equality (used by exact tree pattern match)
    # ------------------------------------------------------------------

    def equals(
        self,
        other: "PhyloTree",
        compare_lengths: bool = True,
        tolerance: float = 1e-9,
    ) -> bool:
        """Ordered structural equality.

        Two trees are equal when their roots expand to the same shape with
        the same names in the same child order (and, when
        ``compare_lengths`` is set, edge lengths equal within
        ``tolerance``).  The paper's pattern-match example is
        order-sensitive — swapping two siblings breaks the match — so the
        default comparison is ordered; use :meth:`topology_key` for an
        order-insensitive comparison.
        """
        stack = [(self.root, other.root)]
        while stack:
            a, b = stack.pop()
            if a.name != b.name or len(a.children) != len(b.children):
                return False
            if compare_lengths and abs(a.length - b.length) > tolerance:
                return False
            stack.extend(zip(a.children, b.children))
        return True

    def topology_key(self) -> tuple:
        """Canonical, order-insensitive key for the leaf-labelled topology.

        Two trees have the same key iff they are isomorphic as unordered
        rooted trees with matching leaf names.  Edge lengths are ignored.
        """

        # Iterative bottom-up evaluation to survive very deep trees.
        keys: dict[int, tuple] = {}
        for node in self.root.postorder():
            if not node.children:
                keys[id(node)] = ("leaf", node.name)
            else:
                keys[id(node)] = (
                    "int",
                    tuple(sorted(keys[id(c)] for c in node.children)),
                )
        return keys[id(self.root)]

    # ------------------------------------------------------------------
    # Rendering helpers
    # ------------------------------------------------------------------

    def to_newick(self, include_lengths: bool = True) -> str:
        """Serialize to Newick (delegates to :mod:`repro.trees.newick`)."""
        from repro.trees.newick import write_newick

        return write_newick(self, include_lengths=include_lengths)

    def __repr__(self) -> str:
        return (
            f"PhyloTree(name={self.name!r}, nodes={self.size()}, "
            f"leaves={self.n_leaves()})"
        )


def validate_tree(tree: PhyloTree, require_leaf_names: bool = True) -> None:
    """Check structural invariants; raise :class:`TreeStructureError` if broken.

    Verifies parent/child pointer consistency, that no node is reached
    twice, unique leaf names (all leaves named when
    ``require_leaf_names``), and non-negative edge lengths.  This is
    :func:`~repro.trees.traversal.preorder_columns` — the walk a load
    makes anyway — with its columns thrown away.
    """
    preorder_columns(tree, require_leaf_names=require_leaf_names)
