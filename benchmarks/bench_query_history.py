"""E12 — Query Repository overhead (§2.1).

The history feature must not tax the queries it records: measures raw
record throughput, the overhead of running a query through
``run_recorded`` versus calling it directly, and recall/re-run latency.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.simulation.birth_death import yule_tree
from repro.storage.store import CrimsonStore


@pytest.fixture(scope="module")
def setup():
    with CrimsonStore.open() as store:
        tree = yule_tree(500, rng=np.random.default_rng(23))
        handle = store.trees.store_tree(tree, name="gold", f=8)
        history = store.history
        history.register_operation(
            "lca", lambda a, b: handle.lca(a, b).node_id
        )
        yield store.db, handle, history


def test_record_throughput(benchmark, setup):
    _db, _handle, history = setup
    counter = iter(range(10**7))

    def run():
        history.record("lca", {"i": next(counter)}, tree_name="gold")

    benchmark(run)


def test_recorded_vs_direct_overhead(benchmark, setup, report):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    _db, handle, history = setup
    pairs = [("t1", f"t{i}") for i in range(2, 102)]

    start = time.perf_counter()
    for a, b in pairs:
        handle.lca(a, b)
    direct = time.perf_counter() - start

    start = time.perf_counter()
    for a, b in pairs:
        history.run_recorded("lca", {"a": a, "b": b}, tree_name="gold")
    recorded = time.perf_counter() - start

    overhead = (recorded - direct) / len(pairs) * 1e6
    report("E12 — Query Repository overhead (100 LCA queries)")
    report(
        f"  direct {direct * 1000:.1f} ms, with history {recorded * 1000:.1f} ms "
        f"-> {overhead:.0f} µs/query recording overhead"
    )
    assert recorded < direct * 25  # recording must not dominate


def test_rerun_latency(benchmark, setup):
    _db, _handle, history = setup
    history.run_recorded("lca", {"a": "t1", "b": "t5"}, tree_name="gold")
    query_id = history.recent(limit=1)[0].query_id
    benchmark(history.rerun, query_id)
