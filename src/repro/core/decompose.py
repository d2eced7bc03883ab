"""Bounded-depth tree decomposition (layer 0 of the hierarchical index).

The paper's scheme: given a bound ``f``, the input tree is cut into a set
of subtrees ("blocks") in which every node sits at local depth at most
``f`` from its block root.  A node that reaches local depth exactly ``f``
and still has children becomes a *boundary* node: it stays in its block as
a leaf, and a fresh copy of it roots a new block holding its descendants.
The copy's block records the boundary node as its **source node** — the
hook ancestor queries use to hop from a block into its parent block.

With ``f = 2`` on the paper's Figure-1 tree this produces exactly the
Figure-4 structure: block 1 = ``{R, Syn, A, Bsu, Bha, x}`` with ``x`` as a
boundary leaf labeled ``2.1``, and block 2 rooted at a copy of ``x``
containing ``{Lla, Spy}``.

:func:`decompose_ranks` does the work in rank space.  Its tree is a list
of per-rank child lists whose ranks number the nodes in pre-order: the
``children`` column of :func:`~repro.trees.traversal.preorder_columns`
for an input tree, or the block tree one layer down for the index's
upper layers (block ids are themselves a pre-order of the block tree).
One pass in rank order visits every node after its parent, hands each
child its block, label and dotted label text, and collects each block's
members in pre-order.  :func:`decompose` is the ``Node``-facing view.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

from repro.core.dewey import DeweyLabel
from repro.errors import QueryError
from repro.trees.node import Node
from repro.trees.traversal import preorder_columns
from repro.trees.tree import PhyloTree


class RankBlocks(NamedTuple):
    """One layer's decomposition, indexed by rank and by block id.

    Block ids are dense and follow the pre-order of the boundary nodes
    that open them, so they number the block tree in pre-order too.
    """

    #: Block of each rank's canonical position.
    block: list[int]
    #: Local label of each rank, and the same label as dotted text.
    labels: list[DeweyLabel]
    texts: list[str]
    #: Rank of each block's root (0 for the top block).  A split
    #: block's root is the boundary node; its canonical position is in
    #: the parent block, ``block[roots[b]]``.
    roots: list[int]
    #: Each block's member ranks in pre-order.  The top block's list
    #: starts with rank 0; a split block's leaves out its root.
    members: list[list[int]]


def decompose_ranks(children: Sequence[Sequence[int]], f: int) -> RankBlocks:
    """Cut the pre-ordered tree ``children`` into blocks of local depth
    ≤ ``f``.

    Raises
    ------
    QueryError
        If ``f < 1``.
    """
    if f < 1:
        raise QueryError(f"decomposition bound f must be >= 1, got {f}")
    size = len(children)
    block = [0] * size
    labels: list[DeweyLabel] = [()] * size
    texts = [""] * size
    roots = [0]
    members: list[list[int]] = [[]]
    digits = [str(position) for position in range(max(map(len, children)) + 1)]
    for rank, kids in enumerate(children):
        home = block[rank]
        members[home].append(rank)
        if not kids:
            continue
        label = labels[rank]
        if len(label) == f:
            # Boundary: the children open a block rooted at a copy of
            # this node, whose label there is ε.
            home = len(roots)
            roots.append(rank)
            members.append([])
            label, prefix = (), ""
        else:
            prefix = texts[rank] + "." if label else ""
        for position, child in enumerate(kids, 1):
            block[child] = home
            labels[child] = label + (position,)
            texts[child] = prefix + digits[position]
    return RankBlocks(block, labels, texts, roots, members)


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

    def block_chain(self, node: Node) -> list[int]:
        """Block ids from the node's own block up to the top block."""
        chain: list[int] = []
        block_id = self.block_of[id(node)]
        while True:
            chain.append(block_id)
            block = self.blocks[block_id]
            if block.is_top:
                return chain
            assert block.source_block is not None
            block_id = block.source_block

    def local_label(self, node: Node) -> DeweyLabel:
        """The node's canonical local label within its block.

        Raises
        ------
        QueryError
            If the node is not part of the decomposed tree.
        """
        try:
            return self.label_of[id(node)]
        except KeyError:
            raise QueryError("node does not belong to the decomposed tree") from None

    def max_label_length(self) -> int:
        """Largest local label length — guaranteed ≤ ``f``."""
        if not self.label_of:
            return 0
        return max(len(label) for label in self.label_of.values())


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
    TreeStructureError
        If a child's ``parent`` points elsewhere or a child is listed
        twice (see :func:`~repro.trees.traversal.preorder_columns`).
    """
    walk = preorder_columns(tree, validate=False)
    ranks = decompose_ranks(walk.children, f)
    nodes, block, labels = walk.nodes, ranks.block, ranks.labels
    blocks = [
        Block(
            block_id=block_id,
            root=nodes[root],
            source_block=block[root] if block_id else None,
            source_label=labels[root] if block_id else None,
            members=[(nodes[rank], labels[rank]) for rank in members],
        )
        for block_id, (root, members) in enumerate(zip(ranks.roots, ranks.members))
    ]
    return Decomposition(
        tree=tree,
        f=f,
        blocks=blocks,
        block_of=dict(zip(map(id, nodes), block)),
        label_of=dict(zip(map(id, nodes), labels)),
    )


def block_parent_tree(decomposition: Decomposition) -> dict[int, int | None]:
    """Parent relation over blocks: block → parent block (top → ``None``).

    This is the conceptual "layer 1" tree of the paper — one node per
    layer-0 block, connected exactly as the blocks are.
    """
    return {
        block.block_id: block.source_block for block in decomposition.blocks
    }


def block_depths(decomposition: Decomposition) -> dict[int, int]:
    """Depth of every block in the block tree (top block = 0)."""
    parents = block_parent_tree(decomposition)
    depths: dict[int, int] = {}
    for block in decomposition.blocks:
        # Iterative resolution with path recording (blocks can chain
        # thousands deep on caterpillar trees).
        path: list[int] = []
        current: int | None = block.block_id
        while current is not None and current not in depths:
            path.append(current)
            current = parents[current]
        base = depths[current] if current is not None else -1
        for member in reversed(path):
            base += 1
            depths[member] = base
    return depths
