"""Unit tests for the Benchmark Manager pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.benchmark.manager import (
    ALL_ALGORITHMS,
    DEFAULT_ALGORITHMS,
    BenchmarkManager,
    evaluate_sample,
    format_sweep_table,
    run_in_memory_trial,
)
from repro.core.projection import project_tree
from repro.errors import QueryError, StorageError
from repro.simulation.birth_death import yule_tree
from repro.simulation.models import jc69
from repro.simulation.seqgen import evolve_sequences


@pytest.fixture
def gold(rng):
    tree = yule_tree(40, rng=rng)
    sequences = evolve_sequences(tree, jc69(), 300, rng=rng, scale=0.2)
    return tree, sequences


@pytest.fixture
def loaded(store, gold):
    tree, sequences = gold
    store.loader.load_tree(tree, name="gold", sequences=sequences)
    return store


class TestEvaluateSample:
    def test_all_algorithms_scored(self, gold, rng):
        tree, sequences = gold
        sample = [name for name in list(sequences)[:10]]
        projection = project_tree(tree, sample)
        chosen = {name: sequences[name] for name in sample}
        results = evaluate_sample(projection, chosen, DEFAULT_ALGORITHMS)
        assert set(results) == set(DEFAULT_ALGORITHMS)
        for result in results.values():
            assert 0.0 <= result.normalized_rf <= 1.0
            assert result.runtime_s >= 0.0
            assert set(result.estimate.leaf_names()) == set(sample)


class TestInMemoryTrial:
    def test_random_method(self, gold, rng):
        tree, sequences = gold
        trial = run_in_memory_trial(tree, sequences, k=12, rng=rng)
        assert len(trial.sample) == 12
        assert set(trial.projection.leaf_names()) == set(trial.sample)

    def test_time_method(self, gold, rng):
        tree, sequences = gold
        horizon = max(tree.distances_from_root().values())
        trial = run_in_memory_trial(
            tree, sequences, k=8, method="time", time=horizon * 0.5, rng=rng
        )
        assert len(trial.sample) == 8

    def test_time_without_threshold_raises(self, gold, rng):
        tree, sequences = gold
        with pytest.raises(QueryError):
            run_in_memory_trial(tree, sequences, k=8, method="time", rng=rng)

    def test_unknown_method_raises(self, gold, rng):
        tree, sequences = gold
        with pytest.raises(QueryError):
            run_in_memory_trial(tree, sequences, k=8, method="stratified", rng=rng)

    def test_missing_sequences_raise(self, gold, rng):
        tree, _ = gold
        with pytest.raises(QueryError):
            run_in_memory_trial(tree, {"t1": "ACGT"}, k=5, rng=rng)

    def test_ranking_orders_by_nrf(self, gold, rng):
        tree, sequences = gold
        trial = run_in_memory_trial(tree, sequences, k=15, rng=rng)
        ranking = trial.ranking()
        values = [trial.results[name].normalized_rf for name in ranking]
        assert values == sorted(values)

    def test_nj_beats_random_floor(self, gold):
        """The headline benchmark shape: a real algorithm extracts signal,
        the strawman does not."""
        tree, sequences = gold
        rng = np.random.default_rng(0)
        nj_scores = []
        random_scores = []
        for _ in range(3):
            trial = run_in_memory_trial(tree, sequences, k=15, rng=rng)
            nj_scores.append(trial.results["nj-jc69"].normalized_rf)
            random_scores.append(trial.results["random"].normalized_rf)
        assert np.mean(nj_scores) < np.mean(random_scores)


class TestRepositoryManager:
    def test_run_trial(self, loaded, rng):
        manager = BenchmarkManager(loaded)
        trial = manager.run_trial("gold", k=10, rng=rng)
        assert len(trial.sample) == 10
        assert set(trial.results) == set(DEFAULT_ALGORITHMS)

    def test_unknown_tree_raises(self, loaded, rng):
        manager = BenchmarkManager(loaded)
        with pytest.raises(StorageError):
            manager.run_trial("ghost", k=5, rng=rng)

    def test_user_sampling(self, loaded, rng):
        manager = BenchmarkManager(loaded)
        taxa = ["t1", "t2", "t3", "t4", "t5"]
        trial = manager.run_trial("gold", method="user", taxa=taxa, rng=rng)
        assert trial.sample == taxa

    def test_user_sampling_unknown_taxa(self, loaded, rng):
        manager = BenchmarkManager(loaded)
        with pytest.raises(QueryError):
            manager.run_trial("gold", method="user", taxa=["ghost"], rng=rng)

    def test_user_sampling_names_unknown_and_interior_taxa(self, store, fig1, rng):
        store.loader.load_tree(fig1, name="fig1")
        manager = BenchmarkManager(store)
        taxa = ["ghost", "Lla", "x", "Syn", "phantom", "A"]
        with pytest.raises(QueryError) as raised:
            manager.run_trial("fig1", method="user", taxa=taxa, rng=rng)
        assert str(raised.value) == (
            "unknown taxa in user sample: ['ghost', 'x', 'phantom', 'A']"
        )

    def test_user_sampling_without_taxa(self, loaded, rng):
        manager = BenchmarkManager(loaded)
        with pytest.raises(QueryError):
            manager.run_trial("gold", method="user", rng=rng)

    def test_random_needs_k(self, loaded, rng):
        manager = BenchmarkManager(loaded)
        with pytest.raises(QueryError):
            manager.run_trial("gold", rng=rng)

    def test_time_needs_threshold(self, loaded, rng):
        manager = BenchmarkManager(loaded)
        with pytest.raises(QueryError):
            manager.run_trial("gold", k=5, method="time", rng=rng)

    def test_unknown_method(self, loaded, rng):
        manager = BenchmarkManager(loaded)
        with pytest.raises(QueryError):
            manager.run_trial("gold", k=5, method="quantum", rng=rng)

    def test_history_recorded(self, loaded, rng):
        manager = BenchmarkManager(loaded)
        manager.run_trial("gold", k=8, rng=rng)
        entries = manager.history.recent()
        assert entries[0].operation == "benchmark-trial"
        assert entries[0].params["k"] == 8

    def test_history_can_be_disabled(self, loaded, rng):
        manager = BenchmarkManager(loaded, record_history=False)
        manager.run_trial("gold", k=8, rng=rng)
        assert manager.history.recent() == []

    def test_custom_algorithm_set(self, loaded, rng):
        manager = BenchmarkManager(
            loaded, algorithms={"nj-jc69": ALL_ALGORITHMS["nj-jc69"]}
        )
        trial = manager.run_trial("gold", k=8, rng=rng)
        assert set(trial.results) == {"nj-jc69"}


class TestSweep:
    def test_sweep_shape(self, loaded, rng):
        manager = BenchmarkManager(
            loaded,
            algorithms={
                "nj-jc69": ALL_ALGORITHMS["nj-jc69"],
                "random": ALL_ALGORITHMS["random"],
            },
        )
        rows = manager.run_sweep("gold", [6, 10], n_trials=2, rng=rng)
        assert len(rows) == 4  # 2 algorithms × 2 sizes
        assert {row.sample_size for row in rows} == {6, 10}
        for row in rows:
            assert row.n_trials == 2
            assert 0.0 <= row.mean_normalized_rf <= 1.0

    def test_format_sweep_table(self, loaded, rng):
        manager = BenchmarkManager(
            loaded, algorithms={"random": ALL_ALGORITHMS["random"]}
        )
        rows = manager.run_sweep("gold", [5], n_trials=1, rng=rng)
        table = format_sweep_table(rows)
        assert "algorithm" in table
        assert "random" in table
