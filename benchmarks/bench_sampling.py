"""E6 — sampling with respect to evolutionary time.

The §2.2 sampling query: find the time-``t`` frontier, then draw k/m
leaves per frontier subtree.  Measured in memory and through the SQL
join of the relational store, with the frontier-minimality property
verified on every draw.

Both stored samplers draw from the tree's store-wide leaf-id table,
which the first sample of the tree in a store reads with one statement.
After that a draw of ``k`` leaves reads exactly the ``k`` rows it keeps,
by primary key, for a small ``k`` and a large one alike.  Each random
draw runs on a fresh handle from the store, so its rows are cold.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.benchmark.sampling import (
    random_sample_stored,
    sample_with_time,
    sample_with_time_stored,
    time_frontier,
)
from repro.simulation.birth_death import yule_tree
from repro.storage.store import CrimsonStore


@pytest.fixture(scope="module")
def store():
    with CrimsonStore.open() as crimson:
        yield crimson


@pytest.fixture(scope="module")
def gold(store):
    tree = yule_tree(2000, rng=np.random.default_rng(7))
    horizon = max(tree.distances_from_root().values())
    handle = store.trees.store_tree(tree, name="gold", f=8)
    return tree, handle, horizon


def test_frontier_in_memory(benchmark, gold):
    tree, _handle, horizon = gold
    benchmark(time_frontier, tree, horizon * 0.5)


def test_frontier_sql(benchmark, gold, report):
    tree, handle, horizon = gold
    rows = benchmark(handle.time_frontier, horizon * 0.5)
    memory = time_frontier(tree, horizon * 0.5)
    assert len(rows) == len(memory)
    report("E6 — time frontier on a 2000-leaf gold standard")
    report(
        f"  frontier at t = 0.5·horizon: {len(rows)} nodes "
        "(SQL join == in-memory cut)"
    )


def test_deep_frontier_sql_is_linear(report):
    """Late in the tree most nodes sit below the cut.  The join walks the
    rows once and probes each parent by primary key; a plan that ranged
    over root distances from both sides was quadratic: 11 s at this size
    on a 2-core x86 host."""
    tree = yule_tree(5000, rng=np.random.default_rng(11))
    horizon = max(tree.distances_from_root().values())
    rank = {id(node): i for i, node in enumerate(tree.preorder())}
    with CrimsonStore.open() as store:
        handle = store.trees.store_tree(tree, name="deep", f=8)
        start = time.perf_counter()
        rows = handle.time_frontier(horizon * 0.9)
        elapsed = time.perf_counter() - start
    memory = time_frontier(tree, horizon * 0.9)
    assert [row.node_id for row in rows] == [rank[id(n)] for n in memory]
    assert elapsed < 0.5, f"time_frontier took {elapsed:.2f} s"
    report(
        f"  frontier at t = 0.9·horizon on 5000 leaves: {len(rows)} nodes "
        f"in {elapsed * 1e3:.1f} ms"
    )


def test_sample_with_time_memory(benchmark, gold):
    tree, _handle, horizon = gold
    rng = np.random.default_rng(1)
    benchmark(sample_with_time, tree, horizon * 0.5, 64, rng)


def test_sample_with_time_sql(benchmark, gold, report):
    tree, handle, horizon = gold
    rng = np.random.default_rng(2)

    def run():
        return sample_with_time_stored(handle, horizon * 0.5, 64, rng)

    sample = benchmark(run)
    assert len(sample) == len(set(sample)) == 64

    # Stratification property: at most ceil(64/m)+1 leaves under any
    # frontier node (quota + remainder).
    frontier = handle.time_frontier(horizon * 0.5)
    m = len(frontier)
    drawn = {row.node_id for row in handle.nodes_by_name(sample)}
    counts = [
        sum(node.contains(node_id) for node_id in drawn) for node in frontier
    ]
    assert sum(counts) == 64
    assert max(counts) <= (64 // m) + 2
    report("")
    report(
        f"E6 — stratified draw of 64 species across {m} frontier subtrees: "
        f"per-subtree counts min={min(counts)}, max={max(counts)} "
        "(paper: k/m per subtree)"
    )


def rows_read(db, monkeypatch) -> list[int]:
    """Rows each ``query_all`` on ``db`` returns from now on."""
    read: list[int] = []
    query_all = db.query_all

    def counting(*args, **kwargs):
        rows = query_all(*args, **kwargs)
        read.append(len(rows))
        return rows

    monkeypatch.setattr(db, "query_all", counting)
    return read


@pytest.mark.parametrize("k", [16, 1000])
def test_random_sample_sql(benchmark, store, gold, report, monkeypatch, k):
    _tree, handle, _horizon = gold
    rng = np.random.default_rng(3)

    def run():
        return random_sample_stored(store.trees.open("gold"), k, rng)

    if k == 16:
        handle.clear_cache()  # drops the leaf-id table with the skeleton
        fresh = store.trees.open("gold")
        read = rows_read(fresh.db, monkeypatch)
        start = time.perf_counter()
        with fresh.db.count_statements() as counter:
            fresh.leaf_ids()
        elapsed = time.perf_counter() - start
        report("")
        report(
            f"Stored random sampling on the {handle.info.n_leaves}-leaf "
            "gold standard"
        )
        report(
            f"  leaf-id table, once per tree and store: {counter.count} "
            f"statement, {sum(read)} rows, {elapsed * 1e3:.1f} ms"
        )
        monkeypatch.undo()

    sample = benchmark(run)
    assert len(sample) == len(set(sample)) == k

    fresh = store.trees.open("gold")
    read = rows_read(fresh.db, monkeypatch)
    with fresh.db.count_statements() as counter:
        random_sample_stored(fresh, k, rng)
    assert sum(read) == k
    report(
        f"  k = {k}: {counter.count} statement(s), {sum(read)} rows read"
    )
