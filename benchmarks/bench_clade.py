"""E10 — minimal spanning clade retrieval.

Crimson answers the clade query as LCA + one pre-order ``BETWEEN`` range
scan; the alternative is a recursive walk issuing one query per node.
Measured on the relational store, against the in-memory traversal as the
reference.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.clade import minimal_spanning_clade
from repro.core.lca import LcaService
from repro.simulation.birth_death import yule_tree
from repro.storage.store import CrimsonStore


@pytest.fixture(scope="module")
def setup():
    tree = yule_tree(2000, rng=np.random.default_rng(13))
    with CrimsonStore.open() as store:
        handle = store.trees.store_tree(tree, name="gold", f=8)
        service = LcaService(tree, "layered", f=8)
        yield tree, handle, service


def _recursive_clade(handle, names):
    """The slow plan: LCA, then one child query per interior node."""
    anchor = handle.lca_many(list(names))
    rows = []
    stack = [anchor]
    while stack:
        row = stack.pop()
        rows.append(row)
        stack.extend(handle.children(row.node_id))
    return rows


def test_clade_interval_scan(benchmark, setup):
    _tree, handle, _service = setup
    benchmark(handle.clade, ["t10", "t500"])


def test_clade_recursive_walk(benchmark, setup):
    _tree, handle, _service = setup
    benchmark(_recursive_clade, handle, ["t10", "t500"])


def test_clade_plans_agree_and_interval_wins(benchmark, setup, report):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    tree, handle, service = setup
    rng = np.random.default_rng(1)
    names = [leaf.name for leaf in tree.root.leaves()]

    interval_total = walk_total = 0.0
    for _ in range(10):
        pair = [names[int(i)] for i in rng.choice(len(names), 2, replace=False)]
        start = time.perf_counter()
        via_interval = handle.clade(pair)
        interval_total += time.perf_counter() - start
        start = time.perf_counter()
        via_walk = _recursive_clade(handle, pair)
        walk_total += time.perf_counter() - start
        assert {row.node_id for row in via_interval} == {
            row.node_id for row in via_walk
        }
        memory = minimal_spanning_clade(tree, pair, service)
        assert len(memory) == len(via_interval)

    report("E10 — minimal spanning clade, 10 random leaf pairs, 2000-leaf tree")
    report(
        f"  interval BETWEEN plan: {interval_total * 100:.1f} ms total; "
        f"per-node walk plan: {walk_total * 100:.1f} ms total"
    )
    report("  shape: one range scan beats per-node navigation  "
           f"[{'holds' if interval_total < walk_total else 'VIOLATED'}]")
    assert interval_total < walk_total
