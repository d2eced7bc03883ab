"""E3 — label size versus depth: plain Dewey against the layered scheme.

The paper's §2.1 claim: "the size of a Dewey label is proportional to
the length of the path from the root ... labels may become large enough
to hurt query performance"; the layered scheme "bounds the size of
labels to a constant f".

Measured here on caterpillar trees (depth = n-1, the worst case) and a
balanced control, with an f ablation over {4, 8, 16, 32}.  The benchmark times index construction at the deepest setting.
"""

from __future__ import annotations

import pytest

from repro.core.dewey import DeweyIndex
from repro.core.hindex import HierarchicalIndex
from repro.trees.build import balanced, caterpillar

DEPTHS = (100, 1000, 5000)
BOUNDS = (4, 8, 16, 32)


def test_label_size_vs_depth(benchmark, report):
    rows = []
    for depth in DEPTHS:
        tree = caterpillar(depth)
        plain = DeweyIndex(tree)
        layered = HierarchicalIndex(tree, 8)
        assert plain.max_label_length() == tree.max_depth()
        assert layered.max_label_length() <= 8
        rows.append(
            (
                depth,
                plain.max_label_length(),
                plain.total_label_bytes(),
                layered.max_label_length(),
                layered.total_label_bytes(),
                layered.n_layers,
            )
        )

    benchmark(HierarchicalIndex, caterpillar(DEPTHS[-1]), 8)

    report("E3 — label size vs depth (caterpillar trees, f=8)")
    report("  paper claim: plain Dewey label size ∝ depth; layered ≤ f")
    report(
        f"  {'depth':>6} {'dewey max':>10} {'dewey bytes':>12} "
        f"{'layered max':>12} {'layered bytes':>14} {'layers':>7}"
    )
    for depth, d_max, d_bytes, l_max, l_bytes, layers in rows:
        report(
            f"  {depth:>6} {d_max:>10} {d_bytes:>12} "
            f"{l_max:>12} {l_bytes:>14} {layers:>7}"
        )
    # Shape assertions: linear growth vs constant bound.
    assert rows[-1][1] > 40 * rows[0][1]  # plain max label grows ~linearly
    assert rows[-1][3] <= 8  # layered stays bounded
    assert rows[-1][4] < rows[-1][2] / 50  # layered bytes ≪ plain bytes


def test_label_bound_ablation(benchmark, report):
    tree = caterpillar(2000)

    def build_all():
        return {f: HierarchicalIndex(tree, f) for f in BOUNDS}

    indexes = benchmark(build_all)
    report("")
    report("E3 ablation — label bound f on a depth-1999 caterpillar")
    report(f"  {'f':>4} {'max label':>10} {'bytes':>10} {'layers':>7} {'blocks':>7}")
    for f, index in indexes.items():
        assert index.max_label_length() <= f
        report(
            f"  {f:>4} {index.max_label_length():>10} "
            f"{index.total_label_bytes():>10} {index.n_layers:>7} "
            f"{index.n_blocks():>7}"
        )
    # Larger f → fewer layers, more bytes per label.
    assert indexes[32].n_layers <= indexes[4].n_layers


def test_label_encoding_ablation(benchmark, report):
    """Ablation: tuple-compare vs string-compare labels.

    The in-memory index compares tuples; the relational store compares
    dotted strings (SQL TEXT).  Both are correct — this measures the
    CPU cost difference of the common-prefix kernel.
    """
    import time as _time

    from repro.core.dewey import (
        common_prefix,
        label_from_string,
        label_to_string,
    )

    tree = caterpillar(2000)
    index = DeweyIndex(tree)
    leaves = list(tree.root.leaves())
    pairs = [
        (index.label(leaves[i]), index.label(leaves[-(i + 1)]))
        for i in range(200)
    ]
    string_pairs = [
        (label_to_string(a), label_to_string(b)) for a, b in pairs
    ]

    def tuple_kernel():
        for a, b in pairs:
            common_prefix(a, b)

    def string_kernel():
        for a, b in string_pairs:
            common_prefix(label_from_string(a), label_from_string(b))

    benchmark(tuple_kernel)
    start = _time.perf_counter()
    for _ in range(5):
        tuple_kernel()
    tuple_time = (_time.perf_counter() - start) / 5
    start = _time.perf_counter()
    for _ in range(5):
        string_kernel()
    string_time = (_time.perf_counter() - start) / 5
    report("")
    report("E3 ablation — label comparison kernel (200 deep-label prefixes)")
    report(
        f"  tuple compare {tuple_time * 1000:.2f} ms; parse-from-string + "
        f"compare {string_time * 1000:.2f} ms "
        f"({string_time / tuple_time:.1f}x) — why the store keeps "
        "label_depth materialized and compares lazily"
    )
    assert string_time > tuple_time


def test_balanced_control(benchmark, report):
    """On shallow XML-like trees the two schemes are comparable — the
    layered index only pays off where XML techniques break down."""
    tree = balanced(12)  # 4096 leaves, depth 12 (XML-ish)
    plain = DeweyIndex(tree)
    layered = benchmark(HierarchicalIndex, tree, 8)
    ratio = layered.total_label_bytes() / plain.total_label_bytes()
    report("")
    report("E3 control — balanced binary tree, depth 12 (XML-like shape)")
    report(
        f"  dewey bytes {plain.total_label_bytes()}, layered bytes "
        f"{layered.total_label_bytes()} (ratio {ratio:.2f}); layered wins "
        "only on deep trees, as the paper argues"
    )
    assert 0.05 < ratio < 5.0  # same order of magnitude
