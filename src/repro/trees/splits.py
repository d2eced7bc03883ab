"""Split and cluster helpers shared by the in-memory metrics and the
stored-tree analytics.

:mod:`repro.benchmark` compares and builds trees from ``PhyloTree``
objects, and :mod:`repro.analytics` from stored rows, as ``int``
cluster bitmasks; both assemble a :class:`SplitComparison`, refuse
mismatched leaf sets and build consensus trees with the same code,
which lives here so that the analytics path does not import the
benchmark package (and numpy with it).  :mod:`repro.benchmark.metrics`
and :mod:`repro.benchmark.consensus` re-export every name.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass
from typing import AbstractSet, Iterable, Sequence

from repro.errors import QueryError
from repro.trees.node import Node
from repro.trees.tree import PhyloTree


def check_same_leaf_sets(leaves_a: set[str], leaves_b: set[str]) -> None:
    """Raise :class:`QueryError` when two leaf-name sets differ.

    Shared with the stored-tree analytics so in-memory and stored
    comparisons refuse mismatched inputs with the same message.
    """
    if leaves_a != leaves_b:
        only_a = sorted(leaves_a - leaves_b)[:5]
        only_b = sorted(leaves_b - leaves_a)[:5]
        raise QueryError(
            f"trees have different leaf sets (e.g. {only_a} vs {only_b})"
        )


@dataclass(frozen=True)
class SplitComparison:
    """Robinson–Foulds-style comparison of two trees."""

    rf_distance: int
    normalized_rf: float
    false_positives: int
    false_negatives: int
    n_splits_reference: int
    n_splits_estimate: int

    @property
    def false_positive_rate(self) -> float:
        if self.n_splits_estimate == 0:
            return 0.0
        return self.false_positives / self.n_splits_estimate

    @property
    def false_negative_rate(self) -> float:
        if self.n_splits_reference == 0:
            return 0.0
        return self.false_negatives / self.n_splits_reference


def comparison_from_splits(
    splits_ref: AbstractSet[Hashable], splits_est: AbstractSet[Hashable]
) -> SplitComparison:
    """Assemble a :class:`SplitComparison` from two extracted split sets.

    Shared by :func:`compare_splits` and the stored-tree analytics
    (:mod:`repro.analytics.compare`, whose splits are ``int`` bitmasks),
    so the two paths cannot drift.
    """
    false_neg = len(splits_ref - splits_est)
    false_pos = len(splits_est - splits_ref)
    rf = false_neg + false_pos
    denominator = len(splits_ref) + len(splits_est)
    normalized = rf / denominator if denominator else 0.0
    return SplitComparison(
        rf_distance=rf,
        normalized_rf=normalized,
        false_positives=false_pos,
        false_negatives=false_neg,
        n_splits_reference=len(splits_ref),
        n_splits_estimate=len(splits_est),
    )


def build_tree_from_masks(
    names: Sequence[str], masks: Iterable[int]
) -> PhyloTree:
    """Assemble the rooted tree realizing compatible clusters given as
    bitmasks over the sorted distinct ``names`` (bit *i* is
    ``names[i]``); the empty and full masks are ignored.

    Big clusters go in first, the lowest bit (smallest name) breaking
    ties, so children are attached in the same order whatever order the
    clusters came in, and each node's leaves follow them in name order.
    A cluster's parent is the current owner of its lowest leaf; it is
    incompatible when it is not inside that parent or overlaps a sibling
    already placed.

    Raises
    ------
    QueryError
        If two clusters are incompatible, or a mask has a bit beyond
        ``names``.
    """
    size = len(names)
    full = (1 << size) - 1
    root = Node()
    nodes = [root]  # placed interior nodes
    spans = [full]  # their clusters
    taken = [0]  # the union of each one's placed interior children
    owner = [0] * size  # innermost placed node holding each leaf
    ordered = sorted(
        set(masks) - {0, full},
        key=lambda mask: (-mask.bit_count(), mask & -mask),
    )
    for mask in ordered:
        if mask >> size:
            raise QueryError("cluster escapes the root leaf set")
        parent = owner[(mask & -mask).bit_length() - 1]
        if mask & ~spans[parent] or mask & taken[parent]:
            other = next(
                span
                for span in spans
                if span & mask and span & mask not in (span, mask)
            )
            raise QueryError(
                "incompatible clusters: "
                f"{[names[i] for i in mask_bits(other)]} vs "
                f"{[names[i] for i in mask_bits(mask)]}"
            )
        node = _attach(nodes[parent], Node(length=1.0))
        taken[parent] |= mask
        for index in mask_bits(mask):
            owner[index] = len(nodes)
        nodes.append(node)
        spans.append(mask)
        taken.append(0)
    for index, name in enumerate(names):
        _attach(nodes[owner[index]], Node(name, 1.0))
    return PhyloTree(root, name="consensus")


def _attach(parent: Node, child: Node) -> Node:
    """``parent.add_child`` without its cycle walk: ``child`` is fresh."""
    child.parent = parent
    parent.children.append(child)
    return child


def mask_bits(mask: int) -> list[int]:
    """The set bit positions of ``mask``, lowest first."""
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return bits
