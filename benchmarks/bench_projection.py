"""E5 — tree projection throughput versus sample size.

The Benchmark Manager's hot query (§2.2): project the gold-standard
subtree induced by a sample.  The indexed algorithm costs one LCA per
sample leaf; the brute-force oracle walks the whole tree.  The crossover
demonstrates why Crimson computes projections through the index.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.benchmark.sampling import random_sample
from repro.core.lca import LcaService
from repro.core.projection import brute_force_projection, project_tree
from repro.simulation.birth_death import yule_tree

SAMPLE_SIZES = (4, 16, 64, 256)


@pytest.fixture(scope="module")
def gold():
    tree = yule_tree(3000, rng=np.random.default_rng(42))
    service = LcaService(tree, "layered", f=8)
    return tree, service


@pytest.mark.parametrize("k", SAMPLE_SIZES)
def test_projection_indexed(benchmark, gold, k):
    tree, service = gold
    rng = np.random.default_rng(k)
    sample = random_sample(tree, k, rng)
    benchmark(project_tree, tree, sample, service)


def test_projection_sql_backed(benchmark, gold, report):
    """E5 extension: the projection computed entirely over SQL — no
    gold-standard materialization at all."""
    from repro.storage.projection import project_stored
    from repro.storage.store import CrimsonStore

    tree, service = gold
    store = CrimsonStore.open()
    handle = store.trees.store_tree(tree, name="gold", f=8)
    rng = np.random.default_rng(1)
    sample = random_sample(tree, 32, rng)

    result = benchmark(project_stored, handle, sample)
    in_memory = project_tree(tree, sample, service)
    assert result.equals(in_memory, tolerance=1e-9)
    report(
        "E5 — SQL-backed projection (k=32) fetches only sample + LCA rows; "
        "result identical to the in-memory algorithm"
    )
    store.close()


def test_projection_vs_brute_force(benchmark, gold, report):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    tree, service = gold
    rng = np.random.default_rng(0)
    report("E5 — projection latency (ms) on a 3000-leaf gold standard")
    report(f"  {'k':>5} {'indexed':>10} {'brute-force':>12}")
    last_fast = last_slow = 0.0
    for k in SAMPLE_SIZES:
        sample = random_sample(tree, k, rng)
        start = time.perf_counter()
        fast = project_tree(tree, sample, service)
        last_fast = (time.perf_counter() - start) * 1000
        start = time.perf_counter()
        slow = brute_force_projection(tree, sample)
        last_slow = (time.perf_counter() - start) * 1000
        assert fast.equals(slow, tolerance=1e-9)
        report(f"  {k:>5} {last_fast:>10.2f} {last_slow:>12.2f}")
    report(
        "  shape: indexed cost scales with k, brute force with tree size — "
        "small samples from huge trees are exactly Crimson's workload"
    )
    # At the largest sample the indexed path must still beat a full walk
    # of a 3000-leaf tree... only the small-k regime is asserted to keep
    # the check robust across machines.
    sample = random_sample(tree, 4, rng)
    start = time.perf_counter()
    project_tree(tree, sample, service)
    fast_small = time.perf_counter() - start
    start = time.perf_counter()
    brute_force_projection(tree, sample)
    slow_small = time.perf_counter() - start
    assert fast_small < slow_small
