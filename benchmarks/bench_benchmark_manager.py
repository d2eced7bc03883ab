"""E7 — the Benchmark Manager end to end: who reconstructs best?

The paper's headline use case: sample the gold standard, project the
true subtree, run reconstruction algorithms on the sample's sequences,
and score them against the projection.  The reproduced "figure" is the
accuracy-versus-sample-size table; its required shape is

* every real algorithm sits far below the random floor,
* NJ (no clock assumption) never loses badly to UPGMA, and wins when
  rates vary across lineages,
* accuracy in absolute split counts degrades as samples grow.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.benchmark.manager import (
    ALL_ALGORITHMS,
    BenchmarkManager,
    format_sweep_table,
)
from repro.simulation.birth_death import birth_death_tree
from repro.simulation.models import hky85
from repro.simulation.rates import SiteRates
from repro.simulation.seqgen import evolve_sequences
from repro.storage.store import CrimsonStore

SAMPLE_SIZES = (8, 16, 32)
TRIALS = 3


@pytest.fixture(scope="module")
def store():
    rng = np.random.default_rng(1231)
    gold = birth_death_tree(400, 1.0, 0.3, rng=rng)
    rates = SiteRates(400, rng, alpha=0.8)
    sequences = evolve_sequences(
        gold, hky85(2.0), 400, rng=rng, site_rates=rates, scale=0.15
    )
    with CrimsonStore.open() as crimson:
        crimson.load_tree(gold, name="gold", sequences=sequences)
        yield crimson


def test_single_trial(benchmark, store):
    manager = BenchmarkManager(
        store,
        algorithms={
            "nj-jc69": ALL_ALGORITHMS["nj-jc69"],
            "random": ALL_ALGORITHMS["random"],
        },
        record_history=False,
    )
    rng = np.random.default_rng(5)
    benchmark(manager.run_trial, "gold", 16, rng=rng)


def test_accuracy_sweep(benchmark, store, report):
    manager = BenchmarkManager(
        store,
        algorithms={
            name: ALL_ALGORITHMS[name]
            for name in ("nj-jc69", "nj-k2p", "upgma-jc69", "random")
        },
        record_history=False,
    )
    rng = np.random.default_rng(6)

    def run():
        return manager.run_sweep(
            "gold", SAMPLE_SIZES, n_trials=TRIALS,
            rng=np.random.default_rng(6),
        )

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    by_key = {(row.algorithm, row.sample_size): row for row in rows}

    report("E7 — Benchmark Manager accuracy table (normalized RF, lower = better)")
    for line in format_sweep_table(rows).splitlines():
        report("  " + line)

    # Shape: real algorithms beat the random floor at every sample size.
    for k in SAMPLE_SIZES:
        floor = by_key[("random", k)].mean_normalized_rf
        for name in ("nj-jc69", "nj-k2p", "upgma-jc69"):
            assert by_key[(name, k)].mean_normalized_rf < floor
    # Shape: absolute RF error grows with sample size for the floor.
    assert (
        by_key[("random", SAMPLE_SIZES[-1])].mean_rf
        > by_key[("random", SAMPLE_SIZES[0])].mean_rf
    )
    report(
        "  shape check: all real algorithms < random floor at every k; "
        "floor RF grows with k  [holds]"
    )


def test_parsimony_included_small_sample(benchmark, store, report):
    """Parsimony joins at small k (its greedy search is quadratic)."""
    manager = BenchmarkManager(
        store,
        algorithms={
            "parsimony": ALL_ALGORITHMS["parsimony"],
            "nj-jc69": ALL_ALGORITHMS["nj-jc69"],
            "random": ALL_ALGORITHMS["random"],
        },
        record_history=False,
    )

    def run():
        return manager.run_trial("gold", 10, rng=np.random.default_rng(9))

    trial = benchmark.pedantic(run, rounds=1, iterations=1)
    assert (
        trial.results["parsimony"].normalized_rf
        <= trial.results["random"].normalized_rf
    )
    report("")
    report(
        "E7 — parsimony at k=10: nRF "
        f"{trial.results['parsimony'].normalized_rf:.3f} vs random "
        f"{trial.results['random'].normalized_rf:.3f}"
    )
