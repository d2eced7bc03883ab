"""The hierarchical (layered) Dewey index — the paper's core contribution.

Plain Dewey labels grow linearly with depth, which is fatal on simulation
trees more than a million levels deep.  Crimson bounds label size by a
constant ``f``:

1. decompose the tree into blocks of local depth ≤ ``f`` (layer 0);
2. if layer 0 has more than one block, build a *layer-1 tree* with one
   node per layer-0 block, connected as the blocks are, and decompose it
   with the same bound; repeat until a layer fits in a single block;
3. label every node with a Dewey label *local to its block* (≤ ``f``
   components);
4. record, for every split block, its **source node** — the boundary copy
   of the block root in the parent block.

LCA is answered with the paper's recursive procedure: same block → node
at the longest common label prefix; different blocks → recurse one layer
up on the blocks' representative nodes, land in the LCA block, pull both
arguments into it along source chains, and take the local prefix there.
The recursion visits one layer per step, so the cost is
``O(f · log_f(depth))`` instead of ``O(depth)``.

The build runs in rank space: every layer is per-rank child lists
decomposed by :func:`~repro.core.decompose.decompose_ranks` — layer 0
from the pre-order walk, each upper layer from the block tree below it,
never a tree of ``Node`` objects.  The result is flat integer-indexed
tables, original nodes as pre-order ranks and labels also in dotted
text, mirroring :mod:`repro.storage.schema` one-for-one so a load zips
them straight into rows.  Layer 0's tables are the decomposition's
per-rank lists as they come, so inode ``r`` *is* rank ``r``'s
canonical position and finding it needs no lookup.  ``Node``-facing
queries map through the walk's rank → node list and build their lookup
dicts on first use.
"""

from __future__ import annotations

from itertools import count
from typing import Iterable, Sequence

from repro.core.decompose import RankBlocks, decompose_ranks
from repro.core.dewey import DeweyLabel, common_prefix, label_to_string
from repro.errors import QueryError
from repro.trees.node import Node
from repro.trees.traversal import PreorderColumns, preorder_columns
from repro.trees.tree import PhyloTree


class HierarchicalIndex:
    """Layered bounded-label index over a :class:`PhyloTree`.

    Parameters
    ----------
    tree:
        The tree to index.  Not modified.
    f:
        Label bound — the maximum number of components in any local
        Dewey label.  Must be at least 1 (else :class:`QueryError`);
        the paper's Figure-4 example uses ``f = 2``.
    walk:
        ``tree``'s pre-order walk, when the caller already made one (a
        load walks once to validate and reuses it here); without it the
        index walks the tree itself, refusing a broken structure with
        :class:`~repro.errors.TreeStructureError`.

    Notes
    -----
    *inode* (index node) ids are dense integers covering every position in
    every layer: original nodes, boundary copies, and representative nodes
    of upper layers.  *Block* ids are dense integers across all layers.
    Inode ``r`` for ``r < n`` (the tree's node count) is the node of
    pre-order rank ``r``'s canonical position, in layer 0.  From ``n``
    on come the ε copies rooting layer 0's split blocks, in block order,
    then the upper layers one by one, each block by block as its ε copy
    (split blocks only) followed by its members in pre-order.
    """

    def __init__(
        self, tree: PhyloTree, f: int, walk: PreorderColumns | None = None
    ) -> None:
        self.tree = tree
        self.f = f
        if walk is None:
            walk = preorder_columns(tree, validate=False)
        #: Rank → original node; ``inode_orig`` holds ranks into it.
        self.nodes = walk.nodes

        # Flat inode tables, indexed by inode id.
        self.inode_layer: list[int] = []
        self.inode_block: list[int] = []
        self.inode_label: list[DeweyLabel] = []
        #: The local label in the stored dotted form ("" for ε).
        self.inode_text: list[str] = []
        #: Pre-order rank of the original node at this position, for
        #: every layer-0 inode (a boundary copy records its root).
        self.inode_orig: list[int | None] = []
        self.inode_represents: list[int | None] = []

        # Flat block tables, indexed by global block id.
        self.block_layer: list[int] = []
        self.block_root_inode: list[int] = []
        self.block_source_inode: list[int | None] = []
        self.block_rep_inode: list[int | None] = []

        self._inode_of_node: dict[int, int] | None = None
        self._inode_at: dict[tuple[int, DeweyLabel], int] | None = None

        self._build(walk.children)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _build(self, children: Sequence[Sequence[int]]) -> None:
        ranks = decompose_ranks(children, self.f)
        size, roots = len(children), ranks.roots
        # Layer 0: inode ``r`` is rank ``r``'s canonical position, and
        # the split blocks' ε copies follow in block order.
        copies = len(roots) - 1
        self.inode_layer = [0] * (size + copies)
        self.inode_block = ranks.block + list(range(1, len(roots)))
        self.inode_label = ranks.labels + [()] * copies
        self.inode_text = ranks.texts + [""] * copies
        self.inode_orig = [*range(size), *roots[1:]]
        self.inode_represents = [None] * (size + copies)
        self.block_root_inode = [0, *range(size, size + copies)]
        self.block_source_inode = [None, *roots[1:]]
        layer, below = 0, 0  # below: first block id of ``layer``
        while True:
            blocks = len(ranks.roots)
            self.block_layer += [layer] * blocks
            self.block_rep_inode += [None] * blocks
            if blocks == 1:
                break
            # The next layer's tree: one node per block, children in
            # block-id order under the block holding their source node.
            children = [[] for _ in range(blocks)]
            for block, root in enumerate(ranks.roots[1:], 1):
                children[ranks.block[root]].append(block)
            ranks = decompose_ranks(children, self.f)
            layer, base = layer + 1, len(self.block_layer)
            self._upper_layer(layer, base, below, ranks)
            below = base

        self.n_layers = layer + 1

    def _upper_layer(
        self, layer: int, base: int, below: int, ranks: RankBlocks
    ) -> None:
        """Append one upper layer's inodes, block by block: a split
        block's ε copy, then its members in pre-order.  Node ``rank`` of
        the layer stands for block ``below + rank`` one layer down."""
        first = len(self.inode_layer)
        # The layer's inodes as ranks; an ε copy stands as its root's.
        order: list[int] = []
        for block, (root, members) in enumerate(zip(ranks.roots, ranks.members)):
            self.block_root_inode.append(first + len(order))
            if block:
                order.append(root)
                self.inode_label.append(())
                self.inode_text.append("")
            order += members
            self.inode_block += [base + block] * (len(members) + (block > 0))
            self.inode_label += map(ranks.labels.__getitem__, members)
            self.inode_text += map(ranks.texts.__getitem__, members)
        size = len(order)
        self.inode_layer += [layer] * size
        self.inode_orig += [None] * size
        self.inode_represents += [below + rank for rank in order]
        # A root's canonical slot precedes its copy's, so filled in
        # reverse the canonical slot is written last and sticks.
        canonical = dict(
            zip(reversed(order), range(first + size - 1, first - 1, -1))
        )
        # Each block one layer down is represented by its canonical inode.
        self.block_rep_inode[below:base] = map(
            canonical.__getitem__, range(base - below)
        )
        self.block_source_inode.append(None)
        self.block_source_inode += [canonical[root] for root in ranks.roots[1:]]

    # ------------------------------------------------------------------
    # Label accessors
    # ------------------------------------------------------------------

    def inode_of(self, node: Node) -> int:
        """Canonical layer-0 inode id of an original tree node.

        Raises
        ------
        QueryError
            If ``node`` is not part of the indexed tree.
        """
        if self._inode_of_node is None:
            self._inode_of_node = dict(zip(map(id, self.nodes), count()))
        try:
            return self._inode_of_node[id(node)]
        except KeyError:
            raise QueryError("node does not belong to the indexed tree") from None

    def label_of(self, node: Node) -> tuple[int, DeweyLabel]:
        """``(block id, local label)`` of a node's canonical position."""
        inode = self.inode_of(node)
        return self.inode_block[inode], self.inode_label[inode]

    def describe_label(self, node: Node) -> str:
        """Human-readable ``block:label`` rendering (for the CLI)."""
        block, label = self.label_of(node)
        return f"{block}:{label_to_string(label) or 'ε'}"

    # ------------------------------------------------------------------
    # Core queries
    # ------------------------------------------------------------------

    def lca(self, a: Node, b: Node) -> Node:
        """Least common ancestor of two original tree nodes."""
        result = self._lca_inode(self.inode_of(a), self.inode_of(b))
        orig = self.inode_orig[result]
        assert orig is not None, "layer-0 LCA inode must map to an original node"
        return self.nodes[orig]

    def lca_many(self, nodes: Iterable[Node]) -> Node:
        """LCA of any non-empty collection of nodes.

        Every node's inode is looked up before the fold starts, so a
        foreign node raises wherever it sits in the collection.

        Raises
        ------
        QueryError
            If the collection is empty or any node is not part of the
            indexed tree.
        """
        members = list(nodes)
        for node in members:
            self.inode_of(node)
        if not members:
            raise QueryError("cannot take the LCA of zero nodes")
        result = members[0]
        for node in members[1:]:
            result = self.lca(result, node)
            if result is self.tree.root:
                break
        return result

    def is_ancestor_or_self(self, ancestor: Node, descendant: Node) -> bool:
        """Ancestor-or-self test via the paper's identity LCA(m,n) = m."""
        return self.lca(ancestor, descendant) is ancestor

    def _lca_inode(self, a: int, b: int) -> int:
        """LCA over inodes at the same layer (recursive across layers)."""
        block_a = self.inode_block[a]
        block_b = self.inode_block[b]
        if block_a == block_b:
            label = common_prefix(self.inode_label[a], self.inode_label[b])
            return self._at(block_a, label)
        rep_a = self.block_rep_inode[block_a]
        rep_b = self.block_rep_inode[block_b]
        assert rep_a is not None and rep_b is not None, (
            "blocks in a multi-block layer must have representatives"
        )
        upper = self._lca_inode(rep_a, rep_b)
        target_block = self.inode_represents[upper]
        assert target_block is not None
        a2 = self._ancestor_in_block(a, target_block)
        b2 = self._ancestor_in_block(b, target_block)
        label = common_prefix(self.inode_label[a2], self.inode_label[b2])
        return self._at(target_block, label)

    def _at(self, block: int, label: DeweyLabel) -> int:
        """The inode at ``label`` in ``block``."""
        if self._inode_at is None:
            self._inode_at = dict(
                zip(zip(self.inode_block, self.inode_label), count())
            )
        return self._inode_at[(block, label)]

    def _ancestor_in_block(self, inode: int, target_block: int) -> int:
        """Hop along source nodes until reaching ``target_block``."""
        while self.inode_block[inode] != target_block:
            source = self.block_source_inode[self.inode_block[inode]]
            assert source is not None, "walked past the top block"
            inode = source
        return inode

    # ------------------------------------------------------------------
    # Statistics (experiments E2/E3)
    # ------------------------------------------------------------------

    def max_label_length(self) -> int:
        """Largest local label length across all layers (≤ ``f``)."""
        return max(map(len, self.inode_label), default=0)

    def total_label_bytes(self) -> int:
        """Byte cost of all local labels in dotted-string form.

        Comparable with :meth:`repro.core.dewey.DeweyIndex.total_label_bytes`
        for experiment E3; includes the upper-layer bookkeeping labels so
        the comparison is fair.
        """
        return sum(map(len, self.inode_text))

    def n_blocks(self, layer: int | None = None) -> int:
        """Number of blocks, optionally restricted to one layer."""
        if layer is None:
            return len(self.block_layer)
        return sum(1 for value in self.block_layer if value == layer)

    def n_inodes(self) -> int:
        """Total number of index positions across all layers."""
        return len(self.inode_layer)

    def layer_summary(self) -> list[dict[str, int]]:
        """Per-layer block and inode counts (drives the Fig-4 bench)."""
        summary = []
        for layer in range(self.n_layers):
            summary.append(
                {
                    "layer": layer,
                    "blocks": self.n_blocks(layer),
                    "inodes": sum(
                        1 for value in self.inode_layer if value == layer
                    ),
                }
            )
        return summary

    def __repr__(self) -> str:
        return (
            f"HierarchicalIndex(f={self.f}, layers={self.n_layers}, "
            f"blocks={self.n_blocks()}, inodes={self.n_inodes()})"
        )
