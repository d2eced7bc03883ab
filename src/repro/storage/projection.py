"""Tree projection computed entirely through the relational store.

The paper's challenge 1: "Simulation trees are huge, yet the portions
retrieved by a single query are relatively small.  It is important to
support random access ... which argues against using main memory
techniques."  :func:`project_stored` honours that: it runs the same
rightmost-path insertion as :func:`repro.core.projection.project_tree`,
but every ancestor test is a SQL layered-LCA query and only the sampled
rows (plus the LCA rows) are ever fetched — the gold-standard tree is
never materialized in memory.

The access pattern is batched through the stored-query engine: all
sampled leaf rows arrive in one ``IN (...)`` fetch
(:meth:`StoredTree.nodes_by_name`), and because the rightmost-path
algorithm only ever needs the LCA of *consecutive* pre-order leaves,
those LCAs are answered in one :meth:`StoredTree.lca_batch` call before
the in-memory stack replay begins.  That call walks all the pairs up
the layered index together, so a cold projection costs a round of
SQL per index layer and source-chain hop (about a dozen statements on
a 5,000-leaf Yule tree), whatever the sample size.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import QueryError
from repro.storage.tree_repository import NodeRow, StoredTree
from repro.trees.node import Node
from repro.trees.tree import PhyloTree


def project_stored(
    stored: StoredTree,
    leaf_names: Iterable[str],
    keep_root_edge: bool = False,
) -> PhyloTree:
    """Project a stored tree over a species sample, via SQL only.

    Parameters
    ----------
    stored:
        Handle of the stored gold-standard tree.
    leaf_names:
        Sampled taxa (duplicates collapsed).
    keep_root_edge:
        Keep the path above the projection root as its edge length.

    Returns
    -------
    PhyloTree
        The projection, identical (up to float tolerance) to running the
        in-memory algorithm on the fetched tree.

    Raises
    ------
    QueryError
        On an empty sample, unknown names, or interior-node names.
    """
    names = list(dict.fromkeys(leaf_names))
    if not names:
        raise QueryError("cannot project over an empty leaf set")

    rows = stored.nodes_by_name(names)
    for name, row in zip(names, rows):
        if not row.is_leaf:
            raise QueryError(f"{name!r} is an interior node, not a leaf")

    # node_id is the pre-order rank, so sorting by it is the paper's
    # "sort the input leaf set according to the pre-order of tree T".
    rows.sort(key=lambda row: row.node_id)

    builder = _RowTreeBuilder()
    if len(rows) == 1:
        clone = builder.clone_of(rows[0])
        clone.length = rows[0].dist_from_root if keep_root_edge else 0.0
        return PhyloTree(clone)

    # The stack top at each step is the previously appended leaf, so the
    # per-step LCA is always LCA(rows[i], rows[i+1]) — one batch call.
    branches = stored.lca_batch(
        [
            (left.node_id, right.node_id)
            for left, right in zip(rows, rows[1:])
        ]
    )

    stack: list[NodeRow] = [rows[0]]
    for leaf, branch in zip(rows[1:], branches):
        while len(stack) >= 2 and stack[-2].depth >= branch.depth:
            builder.add_edge(stack[-2], stack[-1])
            stack.pop()
        if stack[-1].depth > branch.depth:
            builder.add_edge(branch, stack[-1])
            stack[-1] = branch
        stack.append(leaf)

    while len(stack) >= 2:
        builder.add_edge(stack[-2], stack[-1])
        stack.pop()

    root_row = stack[0]
    root_clone = builder.clone_of(root_row)
    root_clone.length = root_row.dist_from_root if keep_root_edge else 0.0
    return PhyloTree(root_clone)


class _RowTreeBuilder:
    """Clone builder over :class:`NodeRow` (keyed by pre-order id)."""

    def __init__(self) -> None:
        self._clones: dict[int, Node] = {}

    def clone_of(self, row: NodeRow) -> Node:
        clone = self._clones.get(row.node_id)
        if clone is None:
            clone = Node(row.name)
            self._clones[row.node_id] = clone
        return clone

    def add_edge(self, parent: NodeRow, child: NodeRow) -> None:
        child_clone = self.clone_of(child)
        child_clone.length = child.dist_from_root - parent.dist_from_root
        self.clone_of(parent).add_child(child_clone)
