"""Unit tests for sampling strategies (in-memory and SQL-backed)."""

from __future__ import annotations

import itertools
import math
import random

import numpy as np
import pytest
from scipy.stats import chisquare

from repro.benchmark.sampling import (
    random_sample,
    random_sample_stored,
    sample_with_time,
    sample_with_time_stored,
    time_frontier,
    validate_user_sample,
)
from repro.errors import QueryError, StorageError
from repro.simulation.birth_death import yule_tree
from repro.storage.projection import project_stored
from repro.storage.store import CrimsonStore
from repro.trees.node import Node
from repro.trees.tree import PhyloTree


class TestRandomSample:
    def test_size_and_uniqueness(self, fig1, rng):
        sample = random_sample(fig1, 3, rng)
        assert len(sample) == 3
        assert len(set(sample)) == 3
        assert set(sample) <= set(fig1.leaf_names())

    def test_full_sample(self, fig1, rng):
        assert set(random_sample(fig1, 5, rng)) == set(fig1.leaf_names())

    def test_oversample_raises(self, fig1, rng):
        with pytest.raises(QueryError):
            random_sample(fig1, 6, rng)

    def test_zero_raises(self, fig1, rng):
        with pytest.raises(QueryError):
            random_sample(fig1, 0, rng)

    def test_all_leaves_reachable(self, fig1):
        rng = np.random.default_rng(0)
        seen: set[str] = set()
        for _ in range(100):
            seen.update(random_sample(fig1, 1, rng))
        assert seen == set(fig1.leaf_names())


class TestTimeFrontier:
    def test_paper_example(self, fig1):
        assert {n.name for n in time_frontier(fig1, 1.0)} == {
            "Bha",
            "x",
            "Syn",
            "Bsu",
        }

    def test_zero_time_gives_root_children(self, fig1):
        assert {n.name for n in time_frontier(fig1, 0.0)} == {"Syn", "A", "Bsu"}

    def test_beyond_horizon_empty(self, fig1):
        assert time_frontier(fig1, 10.0) == []

    def test_frontier_is_minimal_cut(self, fig1):
        """No frontier node is an ancestor of another, and every leaf
        past the time lies under exactly one frontier node."""
        frontier = time_frontier(fig1, 1.0)
        for a in frontier:
            for b in frontier:
                if a is not b:
                    assert not a.is_ancestor_of(b)

    def test_frontier_property_on_random_trees(self, random_tree_factory):
        for seed in range(5):
            tree = random_tree_factory(60, seed)
            distances = tree.distances_from_root()
            cut = max(distances.values()) * 0.4
            for node in time_frontier(tree, cut):
                assert distances[id(node)] > cut
                if node.parent is not None:
                    assert distances[id(node.parent)] <= cut


class TestSampleWithTime:
    def test_stratification(self, fig1):
        rng = np.random.default_rng(1)
        sample = sample_with_time(fig1, 1.0, 4, rng)
        assert len(sample) == 4
        # One leaf per frontier subtree.
        assert "Bha" in sample and "Syn" in sample and "Bsu" in sample
        assert ("Lla" in sample) != ("Spy" in sample)

    def test_remainder_distribution(self, fig1):
        rng = np.random.default_rng(2)
        for _ in range(20):
            sample = sample_with_time(fig1, 1.0, 5, rng)
            assert len(sample) == len(set(sample)) == 5

    def test_shortfall_redistribution(self, fig1):
        # k=3 from 4 frontier groups: three groups contribute one each.
        rng = np.random.default_rng(3)
        sample = sample_with_time(fig1, 1.0, 3, rng)
        assert len(sample) == 3

    def test_empty_frontier_raises(self, fig1, rng):
        with pytest.raises(QueryError):
            sample_with_time(fig1, 99.0, 2, rng)

    def test_oversample_raises(self, fig1, rng):
        with pytest.raises(QueryError):
            sample_with_time(fig1, 1.0, 6, rng)

    def test_all_sampled_leaves_past_time(self, rng):
        tree = yule_tree(60, rng=rng)
        distances = tree.distances_from_root()
        horizon = max(distances.values())
        sample = sample_with_time(tree, horizon * 0.5, 10, rng)
        assert len(sample) == 10  # all leaves are at the horizon


class TestUserSample:
    def test_valid(self, fig1):
        assert validate_user_sample(fig1, ["Lla", "Syn"]) == ["Lla", "Syn"]

    def test_deduplication(self, fig1):
        assert validate_user_sample(fig1, ["Lla", "Lla"]) == ["Lla"]

    def test_empty_raises(self, fig1):
        with pytest.raises(QueryError):
            validate_user_sample(fig1, [])

    def test_unknown_raises(self, fig1):
        with pytest.raises(QueryError):
            validate_user_sample(fig1, ["ghost"])

    def test_interior_raises(self, fig1):
        with pytest.raises(QueryError):
            validate_user_sample(fig1, ["x"])


class TestStoredVariants:
    @pytest.fixture
    def stored(self, store, fig1):
        return store.trees.store_tree(fig1, f=2)

    def test_random_stored(self, stored, rng):
        sample = random_sample_stored(stored, 3, rng)
        assert len(set(sample)) == 3

    def test_random_stored_oversample(self, stored, rng):
        with pytest.raises(QueryError):
            random_sample_stored(stored, 99, rng)

    def test_time_stored_matches_paper(self, stored):
        rng = np.random.default_rng(4)
        for _ in range(10):
            sample = set(sample_with_time_stored(stored, 1.0, 4, rng))
            assert sample in (
                {"Bha", "Lla", "Syn", "Bsu"},
                {"Bha", "Spy", "Syn", "Bsu"},
            )

    def test_time_stored_empty_frontier(self, stored, rng):
        with pytest.raises(QueryError):
            sample_with_time_stored(stored, 50.0, 2, rng)

    def test_stored_agrees_with_memory_distribution(self, store, rng):
        """The SQL and in-memory stratifications draw from identical
        frontier groups."""
        tree = yule_tree(40, rng=rng)
        stored = store.trees.store_tree(tree, name="y40")
        distances = tree.distances_from_root()
        cut = max(distances.values()) * 0.3
        memory_frontier = {n.name or "anon" for n in time_frontier(tree, cut)}
        sql_frontier = {row.name or "anon" for row in stored.time_frontier(cut)}
        # Anonymous interior nodes: compare by count and leaf coverage.
        assert len(memory_frontier) == len(sql_frontier)


def chained_tree(n_leaves: int, seed: int, chain_lengths=(0, 0, 1, 3)) -> PhyloTree:
    """A random binary tree with every node named and a unary chain of
    a length drawn from ``chain_lengths`` above each node."""
    rng = random.Random(seed)
    ids = itertools.count()

    def build(leaves: int) -> Node:
        if leaves == 1:
            node = Node(f"leaf{next(ids)}", 1.0)
        else:
            split = rng.randint(1, leaves - 1)
            node = Node(f"in{next(ids)}", 1.0)
            node.add_child(build(split))
            node.add_child(build(leaves - split))
        for _ in range(rng.choice(chain_lengths)):
            parent = Node(f"u{next(ids)}", 0.5)
            parent.add_child(node)
            node = parent
        return node

    return PhyloTree(build(n_leaves))


def draw_size(stored, k: int) -> int:
    """The sampler's first batch size for ``k``."""
    info = stored.info
    return math.ceil(1.5 * k * info.n_nodes / info.n_leaves) + 8


def takes_draw_path(stored, k: int) -> bool:
    return draw_size(stored, k) * 16 <= stored.info.n_nodes


def read_log(db, monkeypatch) -> list[tuple[str, int]]:
    """``(sql, rows)`` of every ``query_all`` on ``db`` from now on."""
    log: list[tuple[str, int]] = []
    query_all = db.query_all

    def logged(sql, *args, **kwargs):
        rows = query_all(sql, *args, **kwargs)
        log.append((sql, len(rows)))
        return rows

    monkeypatch.setattr(db, "query_all", logged)
    return log


class TestRandomSampleStored:
    @pytest.fixture
    def chained(self, store):
        return store.trees.store_tree(chained_tree(400, seed=3), name="chain")

    def test_inclusion_is_uniform(self, chained):
        """Chi-square over how often each leaf is drawn, on a tree whose
        interior nodes are named and whose edges carry unary chains."""
        k, trials = 4, 2000
        assert takes_draw_path(chained, k)
        leaves = chained.leaf_names()
        counts = dict.fromkeys(leaves, 0)
        rng = np.random.default_rng(11)
        for _ in range(trials):
            sample = random_sample_stored(chained, k, rng)
            assert len(set(sample)) == k
            for name in sample:
                counts[name] += 1
        assert sum(counts.values()) == k * trials
        assert chisquare(list(counts.values())).pvalue > 0.001

    def test_draw_path_reads_only_the_drawn_rows(
        self, store, chained, monkeypatch
    ):
        k = 8
        handle = store.trees.open("chain")
        log = read_log(handle.db, monkeypatch)
        with handle.db.count_statements() as counter:
            sample = random_sample_stored(handle, k, np.random.default_rng(5))
        assert counter.count == 1
        assert sum(rows for _sql, rows in log) <= draw_size(handle, k)
        assert len(set(sample)) == k
        log.clear()
        projection = project_stored(handle, sample)
        assert set(projection.leaf_names()) == set(sample)
        assert not any("name IN" in sql for sql, _rows in log)

    def test_scan_path_matches_the_leaf_scan(self, chained):
        k = 120
        assert not takes_draw_path(chained, k)
        names = chained.leaf_names()
        expected = np.random.default_rng(8).choice(len(names), size=k, replace=False)
        sample = random_sample_stored(chained, k, np.random.default_rng(8))
        assert sample == [names[int(index)] for index in expected]

    def test_k_equal_to_leaf_count_takes_every_leaf(self, chained, rng):
        sample = random_sample_stored(chained, chained.info.n_leaves, rng)
        assert sorted(sample) == sorted(chained.leaf_names())

    def test_leaf_sparse_tree(self, store, monkeypatch):
        """Long unary chains make leaves rare: a one-leaf draw often
        holds no leaf and is redrawn, and the result stays uniform."""
        tree = chained_tree(40, seed=4, chain_lengths=(30,))
        stored = store.trees.store_tree(tree, name="sparse")
        assert stored.info.n_nodes > 30 * stored.info.n_leaves
        assert takes_draw_path(stored, 1)
        assert not takes_draw_path(stored, 3)
        log = read_log(store.db, monkeypatch)
        rng = np.random.default_rng(6)
        leaves = stored.leaf_names()
        counts = dict.fromkeys(leaves, 0)
        restarts = 0
        for _ in range(800):
            handle = store.trees.open("sparse")
            log.clear()
            (name,) = random_sample_stored(handle, 1, rng)
            counts[name] += 1
            restarts += len(log) > 1
        assert restarts > 0
        assert chisquare(list(counts.values())).pvalue > 0.001
        assert len(set(random_sample_stored(stored, 3, rng))) == 3

    @pytest.mark.parametrize("k", [8, 300])
    def test_stale_handle_raises_storage_error(self, store, chained, k):
        handle = store.trees.open("chain")
        store.trees.delete_tree("chain")
        with pytest.raises(StorageError, match="stale"):
            random_sample_stored(handle, k, np.random.default_rng(1))

    def test_out_of_range_k(self, chained, rng):
        n = chained.info.n_leaves
        with pytest.raises(QueryError, match="at least 1, got 0"):
            random_sample_stored(chained, 0, rng)
        with pytest.raises(
            QueryError, match=f"cannot sample {n + 1} species from {n} available"
        ):
            random_sample_stored(chained, n + 1, rng)

    def test_sharded_store_reads_the_handles_shard(self, tmp_path, rng):
        with CrimsonStore.open(tmp_path / "sharded.db", shards=2) as store:
            store.load_tree(yule_tree(300, rng=rng), name="first")
            store.load_tree(chained_tree(200, seed=9), name="second")
            second = store.trees.open("second")
            assert second.info.shard == 1
            assert takes_draw_path(second, 5)
            sample = random_sample_stored(second, 5, rng)
            assert len(set(sample)) == 5
            assert set(sample) <= set(second.leaf_names())
