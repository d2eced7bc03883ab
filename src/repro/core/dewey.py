"""Plain Dewey labeling (the baseline scheme the paper extends).

A Dewey label encodes the path from the root to a node as the sequence of
1-based child positions along that path: the root is the empty label, and
in the paper's Figure 1 the leaf ``Lla`` is ``2.1.1`` and ``Spy`` is
``2.1.2``.  The least common ancestor of two nodes is the node at the
longest common prefix of their labels — ``LCA(2.1.1, 2.1.2) = 2.1``.

The weakness motivating the paper: label size is proportional to node
depth, and simulation trees can be a million levels deep.  The layered
scheme in :mod:`repro.core.hindex` bounds label size by a constant ``f``.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import QueryError
from repro.trees.node import Node
from repro.trees.tree import PhyloTree

DeweyLabel = tuple[int, ...]


def label_to_string(label: DeweyLabel) -> str:
    """Render a label in the paper's dotted notation (root = empty string)."""
    return ".".join(str(part) for part in label)


def label_from_string(text: str) -> DeweyLabel:
    """Parse a dotted label string; the empty string is the root label.

    Raises
    ------
    QueryError
        On components that are not positive integers.
    """
    if not text:
        return ()
    parts: list[int] = []
    for piece in text.split("."):
        try:
            value = int(piece)
        except ValueError:
            raise QueryError(f"invalid Dewey label component {piece!r}") from None
        if value < 1:
            raise QueryError(f"Dewey label components are 1-based, got {value}")
        parts.append(value)
    return tuple(parts)


def common_prefix(a: DeweyLabel, b: DeweyLabel) -> DeweyLabel:
    """Longest common prefix of two labels (the LCA's label)."""
    limit = min(len(a), len(b))
    cut = 0
    while cut < limit and a[cut] == b[cut]:
        cut += 1
    return a[:cut]


def is_prefix(prefix: DeweyLabel, label: DeweyLabel) -> bool:
    """True when ``prefix`` is a (not necessarily proper) prefix of ``label``.

    Under Dewey labeling this is exactly the ancestor-or-self relation.
    """
    return len(prefix) <= len(label) and label[: len(prefix)] == prefix


class DeweyIndex:
    """Whole-tree plain Dewey index.

    Assigns every node its full root-to-node label in one pre-order pass
    and answers LCA/ancestor queries by label arithmetic.  Used as the
    baseline in the label-size and LCA-latency experiments (E3, E4).
    """

    def __init__(self, tree: PhyloTree) -> None:
        self.tree = tree
        self._label_of: dict[int, DeweyLabel] = {}
        self._node_at: dict[DeweyLabel, Node] = {}
        # Children are pushed reversed so the LIFO pop order — and hence
        # the dicts' insertion order — is the tree's true pre-order.
        stack: list[tuple[Node, DeweyLabel]] = [(tree.root, ())]
        while stack:
            node, label = stack.pop()
            self._label_of[id(node)] = label
            self._node_at[label] = node
            for order, child in reversed(list(enumerate(node.children, start=1))):
                stack.append((child, label + (order,)))

    def label(self, node: Node) -> DeweyLabel:
        """The full Dewey label of ``node``.

        Raises
        ------
        QueryError
            If ``node`` is not part of the indexed tree.
        """
        try:
            return self._label_of[id(node)]
        except KeyError:
            raise QueryError("node does not belong to the indexed tree") from None

    def node_at(self, label: DeweyLabel) -> Node:
        """The node carrying ``label``.

        Raises
        ------
        QueryError
            If no node has that label.
        """
        try:
            return self._node_at[label]
        except KeyError:
            raise QueryError(f"no node labeled {label_to_string(label) or 'ε'}") from None

    def lca(self, a: Node, b: Node) -> Node:
        """Least common ancestor via longest-common-prefix."""
        return self.node_at(common_prefix(self.label(a), self.label(b)))

    def lca_many(self, nodes: Iterable[Node]) -> Node:
        """LCA of any non-empty set of nodes.

        Dewey labels sort in pre-order and every subtree is one run of
        that order, so the LCA of a set is the LCA of its smallest and
        largest labels.

        Raises
        ------
        QueryError
            If ``nodes`` is empty or any node is not part of the
            indexed tree.
        """
        labels = [self.label(node) for node in nodes]
        if not labels:
            raise QueryError("cannot take the LCA of zero nodes")
        return self.node_at(common_prefix(min(labels), max(labels)))

    def is_ancestor_or_self(self, a: Node, d: Node) -> bool:
        """Ancestor-or-self test by label prefix."""
        return is_prefix(self.label(a), self.label(d))

    def max_label_length(self) -> int:
        """Largest number of components in any label (equals tree depth)."""
        if not self._label_of:
            return 0
        return max(len(label) for label in self._label_of.values())

    def total_label_bytes(self) -> int:
        """Total size of all labels in dotted-string form.

        This is the storage-cost measure used in experiment E3: the byte
        cost of materializing the labels as a database column.
        """
        return sum(
            len(label_to_string(label)) for label in self._label_of.values()
        )
