"""Whole-tree traversal utilities shared by the index and query layers.

:func:`preorder_columns` is the one walk a load makes.  A single
iterative pre-order pass yields, per node, every ``nodes`` column —
pre-order rank, parent rank, child position, depth, weighted root
distance, clade-interval end and the leaf flag — plus each node's
child ranks, all as flat lists indexed by rank.  The child lists are
what :mod:`repro.core.decompose` and :mod:`repro.core.hindex` build
the layered index from, so after the walk nothing looks at a
:class:`Node` again.  The same pass is the tree's validation:
:func:`~repro.trees.tree.validate_tree` is this walk with its columns
thrown away.  Like the other helpers here it survives trees far deeper
than Python's recursion limit, and its cost is linear in the node
count whatever the fan-out.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple

from repro.errors import TreeStructureError
from repro.trees.node import Node

if TYPE_CHECKING:
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
    #: Ranks of the node's children, in child order.
    children: list[list[int]]


def preorder_columns(
    tree: PhyloTree, validate: bool = True, require_leaf_names: bool = True
) -> PreorderColumns:
    """Walk ``tree`` once in pre-order and return its node columns.

    Depth, root distance and the child position ride down the stack,
    so no node ever searches its parent's child list; the interval
    ends come from one reverse pass over the parent ranks.

    The walk always refuses a broken structure: a root with a parent,
    a child whose ``parent`` is another node, or a child listed twice
    (together these rule out every way to reach a node twice, cycles
    included).  With ``validate`` it also refuses negative edge
    lengths, duplicate leaf names and, with ``require_leaf_names``,
    unnamed leaves — the checks a tree must pass to be stored.

    Raises
    ------
    TreeStructureError
        On a fault.
    """
    root = tree.root
    if root.parent is not None:
        raise TreeStructureError(f"root {root!r} has a parent")
    nodes: list[Node] = []
    parents: list[int | None] = []
    positions: list[int] = []
    depths: list[int] = []
    distances: list[float] = []
    leaves: list[bool] = []
    children_of: list[list[int]] = []
    # Each entry carries the parent's child-rank list, which the child
    # joins when it gets its rank.
    stack: list[tuple[Node, int | None, int, int, float, list[int] | None]] = [
        (root, None, 0, 0, 0.0, None)
    ]
    pop, push = stack.pop, stack.append
    rank = 0
    check = 64
    while stack:
        node, parent, position, depth, distance, siblings = pop()
        if rank == check:
            # A child listed twice puts its whole subtree on the stack
            # twice; checking at every doubling of the rank stops such
            # a walk early at a cost linear in the tree.
            _check_revisits(nodes)
            check *= 2
        nodes.append(node)
        parents.append(parent)
        positions.append(position)
        depths.append(depth)
        distances.append(distance)
        if siblings is not None:
            siblings.append(rank)
        children = node.children
        leaves.append(not children)
        kids: list[int] = []
        children_of.append(kids)
        depth += 1
        position = len(children)
        for child in reversed(children):
            if child.parent is not node:
                raise TreeStructureError(
                    f"child {child!r} does not point back to parent {node!r}"
                )
            push((child, rank, position, depth, distance + child.length, kids))
            position -= 1
        rank += 1
    _check_revisits(nodes)
    if validate:
        _check_content(nodes, leaves, require_leaf_names)
    # A subtree's ranks are contiguous and every descendant outranks
    # its ancestors, so by the time the reverse pass reaches a rank its
    # end is final and can be pushed up to the parent.
    ends = list(range(len(nodes)))
    for rank in range(len(nodes) - 1, 0, -1):
        parent = parents[rank]
        if ends[rank] > ends[parent]:
            ends[parent] = ends[rank]
    return PreorderColumns(
        nodes, parents, positions, depths, distances, ends, leaves,
        children_of,
    )


def _check_revisits(nodes: list[Node]) -> None:
    """Refuse a walk that reached some node twice."""
    if len(set(nodes)) < len(nodes):
        raise TreeStructureError("a node is reached twice: a child is listed twice")


def _check_content(
    nodes: list[Node], leaves: list[bool], require_leaf_names: bool
) -> None:
    """Edge lengths and leaf names, each checked in one C-level pass
    and searched node by node only to name the first offender."""
    if any(map((0.0).__gt__, map(attrgetter("length"), nodes))):
        node = next(node for node in nodes if node.length < 0)
        raise TreeStructureError(f"negative edge length on {node!r}")
    names = list(map(attrgetter("name"), compress(nodes, leaves)))
    if None in names:
        if require_leaf_names:
            raise TreeStructureError("unnamed leaf")
        names = [name for name in names if name is not None]
    if len(set(names)) < len(names):
        name = next(name for name, seen in Counter(names).items() if seen > 1)
        raise TreeStructureError(f"duplicate leaf name {name!r}")


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
