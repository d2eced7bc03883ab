"""Whole-tree traversal utilities shared by the index and query layers.

:func:`preorder_columns` is the walk the relational loader stores: one
iterative pre-order pass yields, per node, every ``nodes`` column —
pre-order rank, parent rank, child position, depth, weighted root
distance, clade-interval end and the leaf flag — as flat lists indexed
by rank.  Like the other helpers here it survives trees far deeper
than Python's recursion limit, and its cost is linear in the node
count whatever the fan-out.
"""

from __future__ import annotations

from typing import Callable, Iterator, NamedTuple

from repro.trees.node import Node
from repro.trees.tree import PhyloTree


class PreorderColumns(NamedTuple):
    """Per-node columns of one pre-order walk, each indexed by rank.

    ``ends[r]`` is the largest rank in the subtree of rank ``r``, so a
    node ``d`` is a descendant-or-self of ``a`` iff
    ``a <= d <= ends[a]`` — the clade interval the minimal spanning
    clade query runs as a SQL ``BETWEEN``.
    """

    nodes: list[Node]
    #: Parent's rank (``None`` for the root).
    parents: list[int | None]
    #: 1-based position among the parent's children (0 for the root),
    #: the Dewey edge label of the edge above the node.
    positions: list[int]
    #: Edge depth (the root is 0).
    depths: list[int]
    #: Weighted distance from the root.
    distances: list[float]
    ends: list[int]
    leaves: list[bool]


def preorder_columns(tree: PhyloTree) -> PreorderColumns:
    """Walk ``tree`` once in pre-order and return its node columns.

    Depth, root distance and the child position ride down the stack,
    so no node ever searches its parent's child list; the interval
    ends come from one reverse pass over the parent ranks.
    """
    nodes: list[Node] = []
    parents: list[int | None] = []
    positions: list[int] = []
    depths: list[int] = []
    distances: list[float] = []
    leaves: list[bool] = []
    stack: list[tuple[Node, int | None, int, int, float]] = [
        (tree.root, None, 0, 0, 0.0)
    ]
    pop, push = stack.pop, stack.append
    while stack:
        node, parent, position, depth, distance = pop()
        rank = len(nodes)
        nodes.append(node)
        parents.append(parent)
        positions.append(position)
        depths.append(depth)
        distances.append(distance)
        children = node.children
        leaves.append(not children)
        depth += 1
        for position in range(len(children), 0, -1):
            child = children[position - 1]
            push((child, rank, position, depth, distance + child.length))
    # A subtree's ranks are contiguous and every descendant outranks
    # its ancestors, so by the time the reverse pass reaches a rank its
    # end is final and can be pushed up to the parent.
    ends = list(range(len(nodes)))
    for rank in range(len(nodes) - 1, 0, -1):
        parent = parents[rank]
        if ends[rank] > ends[parent]:
            ends[parent] = ends[rank]
    return PreorderColumns(
        nodes, parents, positions, depths, distances, ends, leaves
    )


def iter_edges(tree: PhyloTree) -> Iterator[tuple[Node, Node]]:
    """Yield ``(parent, child)`` pairs in pre-order."""
    for node in tree.preorder():
        for child in node.children:
            yield node, child


def naive_lca(a: Node, b: Node) -> Node:
    """Least common ancestor by walking parent pointers.

    This is the baseline the paper's indexing replaces: cost proportional
    to the depth of the deeper argument, with no index support.
    """
    ancestors: set[int] = set()
    walker: Node | None = a
    while walker is not None:
        ancestors.add(id(walker))
        walker = walker.parent
    walker = b
    while walker is not None:
        if id(walker) in ancestors:
            return walker
        walker = walker.parent
    raise ValueError("nodes do not share a root; are they from the same tree?")


def path_to_root(node: Node) -> list[Node]:
    """Nodes from ``node`` (inclusive) up to the root (inclusive)."""
    path: list[Node] = []
    walker: Node | None = node
    while walker is not None:
        path.append(walker)
        walker = walker.parent
    return path


def map_nodes(tree: PhyloTree, fn: Callable[[Node], None]) -> None:
    """Apply ``fn`` to every node in pre-order (for bulk annotation)."""
    for node in tree.preorder():
        fn(node)
