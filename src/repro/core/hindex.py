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

Everything is stored in flat integer-indexed tables that mirror the
relational schema in :mod:`repro.storage.schema` one-for-one.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.decompose import decompose
from repro.core.dewey import DeweyLabel, common_prefix, label_to_string
from repro.errors import QueryError
from repro.trees.node import Node
from repro.trees.tree import PhyloTree


class HierarchicalIndex:
    """Layered bounded-label index over a :class:`PhyloTree`.

    Parameters
    ----------
    tree:
        The tree to index.  Not modified.
    f:
        Label bound — the maximum number of components in any local
        Dewey label.  Must be at least 1; the paper's Figure-4 example
        uses ``f = 2``.

    Notes
    -----
    *inode* (index node) ids are dense integers covering every position in
    every layer: original nodes, boundary copies, and representative nodes
    of upper layers.  *Block* ids are dense integers across all layers.
    """

    def __init__(self, tree: PhyloTree, f: int) -> None:
        if f < 1:
            raise QueryError(f"label bound f must be >= 1, got {f}")
        self.tree = tree
        self.f = f

        # Flat inode tables, indexed by inode id.
        self.inode_layer: list[int] = []
        self.inode_block: list[int] = []
        self.inode_label: list[DeweyLabel] = []
        self.inode_orig: list[Node | None] = []
        self.inode_represents: list[int | None] = []

        # Flat block tables, indexed by global block id.
        self.block_layer: list[int] = []
        self.block_root_inode: list[int] = []
        self.block_source_inode: list[int | None] = []
        self.block_rep_inode: list[int | None] = []

        self._inode_of_node: dict[int, int] = {}
        self._inode_at: dict[tuple[int, DeweyLabel], int] = {}

        self._build()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _new_inode(
        self,
        layer: int,
        block: int,
        label: DeweyLabel,
        orig: Node | None,
        represents: int | None,
    ) -> int:
        inode_id = len(self.inode_layer)
        self.inode_layer.append(layer)
        self.inode_block.append(block)
        self.inode_label.append(label)
        self.inode_orig.append(orig)
        self.inode_represents.append(represents)
        self._inode_at[(block, label)] = inode_id
        return inode_id

    def _build(self) -> None:
        layer = 0
        current_tree = self.tree
        # For layer >= 1, synthetic nodes stand for blocks one layer down.
        represents_of: dict[int, int] = {}

        while True:
            decomposition = decompose(current_tree, self.f)
            block_offset = len(self.block_layer)
            local_to_global = {
                block.block_id: block_offset + block.block_id
                for block in decomposition.blocks
            }

            # Register blocks (source inodes are wired after members exist).
            for block in decomposition.blocks:
                self.block_layer.append(layer)
                self.block_root_inode.append(-1)  # patched below
                self.block_source_inode.append(None)
                self.block_rep_inode.append(None)

            # Canonical member inodes.  The top block's member list starts
            # with the layer root at label ε, which doubles as its root
            # inode; split blocks get an explicit ε root copy.
            for block in decomposition.blocks:
                global_id = local_to_global[block.block_id]
                if not block.is_top:
                    root_inode = self._new_inode(
                        layer,
                        global_id,
                        (),
                        block.root if layer == 0 else None,
                        represents_of.get(id(block.root)),
                    )
                    self.block_root_inode[global_id] = root_inode
                for node, label in block.members:
                    inode = self._new_inode(
                        layer,
                        global_id,
                        label,
                        node if layer == 0 else None,
                        represents_of.get(id(node)),
                    )
                    if layer == 0:
                        self._inode_of_node[id(node)] = inode
                    if not label:  # the layer root in the top block
                        self.block_root_inode[global_id] = inode

            # Wire source inodes: the boundary copy lives in the parent
            # block at the label decompose() recorded.
            for block in decomposition.blocks:
                if block.is_top:
                    continue
                global_id = local_to_global[block.block_id]
                source_global = local_to_global[block.source_block]
                assert block.source_label is not None
                self.block_source_inode[global_id] = self._inode_at[
                    (source_global, block.source_label)
                ]

            if len(decomposition.blocks) == 1:
                break

            # Build the next layer's tree: one synthetic node per block,
            # children attached in block-creation order under the block
            # holding their source node.
            synthetic: dict[int, Node] = {}
            next_represents: dict[int, int] = {}
            for block in decomposition.blocks:
                node = Node()
                synthetic[block.block_id] = node
                next_represents[id(node)] = local_to_global[block.block_id]
            layer_root: Node | None = None
            for block in decomposition.blocks:
                if block.is_top:
                    layer_root = synthetic[block.block_id]
                else:
                    synthetic[block.source_block].add_child(
                        synthetic[block.block_id]
                    )
            assert layer_root is not None
            current_tree = PhyloTree(layer_root)
            represents_of = next_represents
            layer += 1

        self.n_layers = layer + 1

        # Patch rep inodes: block B at layer k is represented by the
        # canonical inode of its synthetic node at layer k+1.
        for inode_id, block_id in enumerate(self.inode_represents):
            if block_id is None:
                continue
            # Prefer the canonical (non-root, deeper-label) position; the
            # ε copy of a boundary synthetic node must not shadow it.
            current = self.block_rep_inode[block_id]
            if current is None or len(self.inode_label[inode_id]) > len(
                self.inode_label[current]
            ):
                self.block_rep_inode[block_id] = inode_id

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
        return orig

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
            return self._inode_at[(block_a, label)]
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
        return self._inode_at[(target_block, label)]

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
        if not self.inode_label:
            return 0
        return max(len(label) for label in self.inode_label)

    def total_label_bytes(self) -> int:
        """Byte cost of all local labels in dotted-string form.

        Comparable with :meth:`repro.core.dewey.DeweyIndex.total_label_bytes`
        for experiment E3; includes the upper-layer bookkeeping labels so
        the comparison is fair.
        """
        return sum(len(label_to_string(label)) for label in self.inode_label)

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
