"""Tree construction helpers, including the paper's worked example.

:func:`sample_tree` builds the exact Figure-1 tree of the Crimson paper,
reconstructed from the paper's textual facts:

* Dewey labels ``Lla = 2.1.1`` and ``Spy = 2.1.2`` with LCA ``2.1``;
* sampling at time 1 yields the frontier ``{Bha, x, Syn, Bsu}``;
* projecting ``{Bha, Lla, Syn}`` produces the Figure-2 edge lengths
  ``{0.75, 1.5, 1.5, 2.5}``.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.errors import TreeStructureError
from repro.trees.node import Node
from repro.trees.tree import PhyloTree


def sample_tree() -> PhyloTree:
    """The Crimson paper's Figure-1 example tree.

    Structure (child order fixes the Dewey labels)::

        R ─1→ Syn  (2.5)
          ─2→ A    (0.75)
                ─1→ x   (0.5)
                      ─1→ Lla (1.0)
                      ─2→ Spy (1.0)
                ─2→ Bha (1.5)
          ─3→ Bsu  (1.25)
    """
    root = Node("R")
    root.new_child("Syn", 2.5)
    interior_a = root.new_child("A", 0.75)
    interior_x = interior_a.new_child("x", 0.5)
    interior_x.new_child("Lla", 1.0)
    interior_x.new_child("Spy", 1.0)
    interior_a.new_child("Bha", 1.5)
    root.new_child("Bsu", 1.25)
    return PhyloTree(root, name="fig1-sample")


def caterpillar(n_leaves: int, edge_length: float = 1.0) -> PhyloTree:
    """A maximally deep (ladder/caterpillar) tree with ``n_leaves`` leaves.

    Depth grows linearly with the leaf count, making this the stress shape
    for plain Dewey labels: the deepest label has ``n_leaves - 1``
    components.  Leaves are named ``t1 .. tN``.
    """
    if n_leaves < 2:
        raise TreeStructureError("a caterpillar needs at least 2 leaves")
    root = Node()
    spine = root
    for index in range(1, n_leaves):
        spine.new_child(f"t{index}", edge_length)
        if index < n_leaves - 1:
            spine = spine.new_child(None, edge_length)
        else:
            spine.new_child(f"t{n_leaves}", edge_length)
    return PhyloTree(root, name=f"caterpillar-{n_leaves}")


def balanced(depth: int, arity: int = 2, edge_length: float = 1.0) -> PhyloTree:
    """A complete ``arity``-ary tree of the given edge ``depth``.

    Leaves are named ``t1 .. tN`` in pre-order.  This is the best case for
    plain Dewey labels (depth is logarithmic in the leaf count) and serves
    as the control shape in the label-size experiments.
    """
    if depth < 0:
        raise TreeStructureError("depth must be non-negative")
    if arity < 2:
        raise TreeStructureError("arity must be at least 2")
    root = Node()
    counter = 0
    frontier = [(root, 0)]
    while frontier:
        node, node_depth = frontier.pop()
        if node_depth == depth:
            counter += 1
            node.name = f"t{counter}"
            continue
        for _ in range(arity):
            frontier.append((node.new_child(None, edge_length), node_depth + 1))
    if depth == 0:
        root.name = "t1"
    tree = PhyloTree(root, name=f"balanced-{arity}ary-d{depth}")
    return tree


def from_parent_table(
    parents: Mapping[str, str | None],
    lengths: Mapping[str, float] | None = None,
) -> PhyloTree:
    """Build a tree from a child-name → parent-name mapping.

    Exactly one entry must map to ``None`` (the root).  ``lengths`` maps a
    child name to the length of its incoming edge; missing entries default
    to 0.  Children are attached in the mapping's iteration order, which
    therefore fixes the Dewey child order.

    Raises
    ------
    TreeStructureError
        If there is not exactly one root or a parent is undeclared.
    """
    lengths = lengths or {}
    nodes: dict[str, Node] = {
        name: Node(name, lengths.get(name, 0.0)) for name in parents
    }
    root: Node | None = None
    for name, parent_name in parents.items():
        if parent_name is None:
            if root is not None:
                raise TreeStructureError("more than one root in parent table")
            root = nodes[name]
            continue
        if parent_name not in nodes:
            raise TreeStructureError(f"parent {parent_name!r} is not declared")
        nodes[parent_name].add_child(nodes[name])
    if root is None:
        raise TreeStructureError("no root (entry mapping to None) in parent table")
    return PhyloTree(root)


def star(leaf_names: Sequence[str], edge_length: float = 1.0) -> PhyloTree:
    """A star tree: one root with every leaf as a direct child."""
    if len(leaf_names) < 2:
        raise TreeStructureError("a star tree needs at least 2 leaves")
    root = Node()
    for name in leaf_names:
        root.new_child(name, edge_length)
    return PhyloTree(root, name="star")


def rename_leaves(tree: PhyloTree, mapping: Mapping[str, str]) -> PhyloTree:
    """Return a copy of ``tree`` with leaf names substituted via ``mapping``."""
    clone = tree.copy()
    for leaf in clone.root.leaves():
        if leaf.name in mapping:
            leaf.name = mapping[leaf.name]
    clone.invalidate_caches()
    return clone
