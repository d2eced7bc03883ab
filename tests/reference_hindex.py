"""The pre-rank-space layered index, kept as an independent oracle.

This is the ``Node``-based construction :mod:`repro.core.decompose` and
:mod:`repro.core.hindex` used before they moved to rank-space tables:
a stack walk that decomposes a ``PhyloTree`` into blocks, and a layer
loop that builds each upper layer as a fresh ``PhyloTree`` of synthetic
nodes.  The code below is that construction unchanged; only the
read-side queries are left out.  Tests compare the production tables
(and the rows a load writes) against it, after :func:`v4_numbering`
maps its inode ids onto schema version 4's, so a wrong rank-space
build cannot also be the oracle that checks it.  It is test-only:
nothing under ``src/`` imports it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.dewey import DeweyLabel
from repro.errors import QueryError
from repro.trees.node import Node
from repro.trees.tree import PhyloTree


@dataclass
class Block:
    """One bounded-depth subtree of the decomposition.

    Attributes
    ----------
    block_id:
        Dense 0-based identifier within the decomposition.
    root:
        The original tree node acting as this block's root.  For a split
        block this is the boundary node itself (conceptually a copy of it;
        the copy carries local label ε within this block).
    source_block / source_label:
        Position of the boundary copy in the parent block — ``None`` for
        the block containing the tree root.  ``source_label`` is the
        boundary node's local label *in the parent block*.
    members:
        ``(node, local_label)`` pairs for every node whose canonical
        (non-root) position is in this block, in pre-order.  The block
        root's ε label is implicit and not listed, except for the global
        root which has no other position.
    """

    block_id: int
    root: Node
    source_block: int | None = None
    source_label: DeweyLabel | None = None
    members: list[tuple[Node, DeweyLabel]] = field(default_factory=list)

    @property
    def is_top(self) -> bool:
        """True for the block containing the original tree's root."""
        return self.source_block is None


@dataclass
class Decomposition:
    """The full layer-0 decomposition of a tree under bound ``f``."""

    tree: PhyloTree
    f: int
    blocks: list[Block]
    block_of: dict[int, int]
    label_of: dict[int, DeweyLabel]


def decompose(tree: PhyloTree, f: int) -> Decomposition:
    """Cut ``tree`` into blocks of local depth ≤ ``f``.

    Every node receives one canonical position ``(block, local label)``:
    for the tree root that is ``(top block, ε)``; for a boundary node it is
    the depth-``f`` leaf position in the *parent* block (its copy roots the
    child block but carries no separate canonical label).

    Parameters
    ----------
    tree:
        The tree to decompose.  Not modified.
    f:
        Maximum local depth (and therefore maximum label components).
        Must be at least 1.

    Raises
    ------
    QueryError
        If ``f < 1``.
    """
    if f < 1:
        raise QueryError(f"decomposition bound f must be >= 1, got {f}")

    blocks: list[Block] = []
    block_of: dict[int, int] = {}
    label_of: dict[int, DeweyLabel] = {}

    top = Block(block_id=0, root=tree.root)
    blocks.append(top)
    top.members.append((tree.root, ()))

    # Work items: (node, block_id, local_label), popped in true pre-order
    # (children are pushed reversed onto the LIFO stack).  A node's
    # canonical position is recorded when *it* is visited, so every
    # block's ``members`` list honours the dataclass's "in pre-order"
    # contract.  Children are placed either in the node's own block
    # (label grows) or, when the node sits at local depth f, in a fresh
    # block rooted at the node's copy.
    stack: list[tuple[Node, int, DeweyLabel]] = [(tree.root, 0, ())]
    while stack:
        node, block_id, label = stack.pop()
        block_of[id(node)] = block_id
        label_of[id(node)] = label
        if node is not tree.root:
            blocks[block_id].members.append((node, label))
        if not node.children:
            continue
        if len(label) == f:
            # Boundary: split a new block off this node.
            child_block = Block(
                block_id=len(blocks),
                root=node,
                source_block=block_id,
                source_label=label,
            )
            blocks.append(child_block)
            block_id = child_block.block_id
            label = ()
        for order, child in reversed(list(enumerate(node.children, start=1))):
            stack.append((child, block_id, label + (order,)))

    return Decomposition(tree=tree, f=f, blocks=blocks, block_of=block_of, label_of=label_of)


class ReferenceIndex:
    """The tables of the layered index, built the ``Node``-based way."""

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


def v4_numbering(reference: ReferenceIndex) -> tuple[list[int], list[int]]:
    """Schema version 4's inode ids for ``reference``'s inodes.

    The reference numbers inodes layer by layer, block by block, each
    block as its ε copy then its members.  Version 4 gives the node of
    pre-order rank ``r`` the id ``r`` for its canonical inode, and every
    other inode keeps its relative order from ``n`` (the node count) on.
    This is the one renumbering the oracles apply to the reference.

    Returns ``(order, new_id)``: ``order[new]`` is the reference's id of
    the inode numbered ``new``, and ``new_id[old]`` is its inverse.  It
    asserts that the canonical inodes are ``n`` distinct layer-0 inodes,
    each holding its own node, so that they map onto ``0..n-1``.
    """
    nodes = list(reference.tree.preorder())
    canonical = [reference.inode_of(node) for node in nodes]
    assert len(set(canonical)) == len(nodes)
    for node, inode in zip(nodes, canonical):
        assert reference.inode_layer[inode] == 0
        assert reference.inode_orig[inode] is node
    taken = set(canonical)
    order = canonical + [
        inode for inode in range(len(reference.inode_layer)) if inode not in taken
    ]
    new_id = [0] * len(order)
    for new, old in enumerate(order):
        new_id[old] = new
    return order, new_id
