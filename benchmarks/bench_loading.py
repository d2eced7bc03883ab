"""E8 — bulk loading throughput (paper §3, "Loading Data").

Measures Data Loader throughput in nodes/second for structure-only and
with-species loads across tree sizes, plus the cost split between the
node table and the layered-index tables.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.simulation.birth_death import yule_tree
from repro.simulation.models import jc69
from repro.simulation.seqgen import evolve_sequences
from repro.storage.store import CrimsonStore

SIZES = (100, 1000, 5000)


@pytest.fixture(scope="module")
def trees():
    rng = np.random.default_rng(3)
    return {n: yule_tree(n, rng=rng) for n in SIZES}


@pytest.mark.parametrize("n", SIZES)
def test_store_structure_only(benchmark, trees, n):
    tree = trees[n]
    counter = iter(range(10**6))

    def run():
        with CrimsonStore.open() as store:
            store.trees.store_tree(tree, name=f"t{next(counter)}", f=8)

    benchmark(run)


def test_loading_throughput_table(benchmark, trees, report):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rng = np.random.default_rng(4)
    report("E8 — load throughput (fresh in-memory store per load)")
    report(
        f"  {'leaves':>7} {'nodes':>7} {'structure kn/s':>15} "
        f"{'with species kn/s':>18}"
    )
    for n in SIZES:
        tree = trees[n]
        store = CrimsonStore.open()
        start = time.perf_counter()
        store.trees.store_tree(tree, name="structure", f=8)
        structure_rate = tree.size() / (time.perf_counter() - start) / 1000
        sequences = evolve_sequences(tree, jc69(), 100, rng=rng, scale=0.2)
        start = time.perf_counter()
        store.load_tree(tree, name="full", sequences=sequences)
        full_rate = tree.size() / (time.perf_counter() - start) / 1000
        store.close()
        report(
            f"  {n:>7} {tree.size():>7} {structure_rate:>15.1f} "
            f"{full_rate:>18.1f}"
        )
    report(
        "  shape: throughput roughly flat across sizes (batch inserts), "
        "species data adds a per-leaf surcharge"
    )


def test_index_overhead_by_f(benchmark, report):
    """Index rows written per node as the label bound varies."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    tree = yule_tree(2000, rng=np.random.default_rng(5))
    report("")
    report("E8 ablation — index rows per node vs label bound f (2000 leaves)")
    report(f"  {'f':>4} {'blocks':>8} {'inode rows':>11} {'rows/node':>10}")
    for f in (2, 4, 8, 16):
        store = CrimsonStore.open()
        handle = store.trees.store_tree(tree, name="g", f=f)
        inodes = store.db.query_one("SELECT COUNT(*) AS n FROM inodes")["n"]
        report(
            f"  {f:>4} {handle.info.n_blocks:>8} {inodes:>11} "
            f"{inodes / tree.size():>10.2f}"
        )
        store.close()
