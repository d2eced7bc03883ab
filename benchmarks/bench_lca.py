"""E4 — LCA latency by strategy and depth.

The database challenge (§"What are the database challenges"): queries
touch small portions of a huge tree, so random access through an index
must beat walking the structure.  Compares naive parent-walks, plain
Dewey prefix comparison, and the layered index — in memory and through
SQL — as tree depth grows.
"""

from __future__ import annotations

import time

import pytest

from repro.core.lca import LcaService
from repro.storage.store import CrimsonStore
from repro.trees.build import caterpillar

DEPTHS = (200, 1000, 5000)


def _query_pairs(tree, n_pairs=40):
    leaves = list(tree.root.leaves())
    return [(leaves[i], leaves[-(i + 1)]) for i in range(n_pairs)]


@pytest.mark.parametrize("strategy", ["naive", "dewey", "layered"])
def test_lca_strategy_deep_tree(benchmark, strategy, report):
    tree = caterpillar(DEPTHS[-1])
    service = LcaService(tree, strategy, f=8)
    pairs = _query_pairs(tree)

    def run():
        for a, b in pairs:
            service.lca(a, b)

    benchmark(run)


def test_lca_depth_sweep(benchmark, report):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    report("E4 — mean LCA latency (µs/query) vs depth, in memory")
    report(f"  {'depth':>6} {'naive':>10} {'dewey':>10} {'layered':>10}")
    final: dict[str, float] = {}
    for depth in DEPTHS:
        tree = caterpillar(depth)
        pairs = _query_pairs(tree)
        row = {}
        for strategy in ("naive", "dewey", "layered"):
            service = LcaService(tree, strategy, f=8)
            start = time.perf_counter()
            for _ in range(5):
                for a, b in pairs:
                    service.lca(a, b)
            row[strategy] = (
                (time.perf_counter() - start) / (5 * len(pairs)) * 1e6
            )
        final = row
        report(
            f"  {depth:>6} {row['naive']:>10.2f} {row['dewey']:>10.2f} "
            f"{row['layered']:>10.2f}"
        )
    report(
        "  shape: naive grows with depth; layered stays near-constant "
        "(paper's motivation for the index)"
    )
    # At the deepest setting the layered index must beat the naive walk.
    assert final["layered"] < final["naive"]


def test_lca_sql_backed(benchmark, report):
    """Index-backed point queries through the relational store."""
    tree = caterpillar(2000)
    store = CrimsonStore.open()
    handle = store.trees.store_tree(tree, name="deep", f=8)
    names = [(f"t{i + 1}", f"t{2000 - i}") for i in range(25)]

    def run():
        for a, b in names:
            handle.lca(a, b)

    benchmark(run)
    row = handle.lca("t1", "t2000")
    assert row.depth == 0
    report("")
    report(
        "E4 — SQL-backed layered LCA on a depth-1999 tree: each query is a "
        "handful of indexed point lookups, no full-tree materialization"
    )
    store.close()
