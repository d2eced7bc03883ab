"""Unit tests for sampling strategies (in-memory and SQL-backed)."""

from __future__ import annotations

import itertools
import random
import sys
import threading

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
from repro.storage import sql
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

    def test_k_equal_to_leaf_count_takes_every_leaf(self, chained, rng):
        sample = random_sample_stored(chained, chained.info.n_leaves, rng)
        assert sorted(sample) == sorted(chained.leaf_names())

    def test_leaf_sparse_tree(self, store, monkeypatch):
        """Long unary chains make leaves rare; the draw indexes the
        leaf-id table, so it stays uniform and reads no interior row."""
        tree = chained_tree(40, seed=4, chain_lengths=(30,))
        stored = store.trees.store_tree(tree, name="sparse")
        assert stored.info.n_nodes > 30 * stored.info.n_leaves
        rng = np.random.default_rng(6)
        leaves = stored.leaf_names()
        counts = dict.fromkeys(leaves, 0)
        log = read_log(store.db, monkeypatch)
        for _ in range(800):
            handle = store.trees.open("sparse")
            log.clear()
            (name,) = random_sample_stored(handle, 1, rng)
            assert [rows for text, rows in log if text != sql.LEAF_IDS] == [1]
            counts[name] += 1
        assert chisquare(list(counts.values())).pvalue > 0.001
        assert len(set(random_sample_stored(stored, 3, rng))) == 3

    @pytest.mark.parametrize("filled", [False, True])
    def test_stale_handle_raises_storage_error(self, store, chained, filled):
        """Whether or not the leaf-id table was read before the delete,
        the first fetch of a deleted tree's rows reports a stale
        handle."""
        if filled:
            random_sample_stored(store.trees.open("chain"), 3, np.random.default_rng(2))
        handle = store.trees.open("chain")
        assert (handle.engine.skeleton.leaf_ids is not None) == filled
        store.trees.delete_tree("chain")
        with pytest.raises(StorageError, match="stale"):
            random_sample_stored(handle, 8, np.random.default_rng(1))
        with pytest.raises(StorageError, match="stale"):
            sample_with_time_stored(handle, 0.5, 8, np.random.default_rng(1))

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
            sample = random_sample_stored(second, 5, rng)
            assert len(set(sample)) == 5
            assert set(sample) <= set(second.leaf_names())


class TestLeafIdTable:
    """The store-wide leaf-id table both stored samplers draw from."""

    @pytest.mark.parametrize(
        "tree",
        [chained_tree(90, seed=5), yule_tree(70, rng=np.random.default_rng(8))],
        ids=["chained", "yule"],
    )
    def test_stored_samplers_equal_their_in_memory_twins(self, store, tree):
        """Same ``rng`` state, same sample, for every ``k``."""
        handle = store.trees.store_tree(tree, name="twin")
        n = handle.info.n_leaves
        for seed in range(3):
            for k in range(1, n + 1):
                assert random_sample_stored(
                    handle, k, np.random.default_rng(seed)
                ) == random_sample(tree, k, np.random.default_rng(seed))
        horizon = max(tree.distances_from_root().values())
        for seed, fraction in itertools.product(range(3), (0.1, 0.3, 0.6)):
            time = horizon * fraction
            available = sum(
                len(list(node.leaves())) for node in time_frontier(tree, time)
            )
            for k in sorted({1, 2, 7, available // 2, available} - {0}):
                assert sample_with_time_stored(
                    handle, time, k, np.random.default_rng(seed)
                ) == sample_with_time(tree, time, k, np.random.default_rng(seed))

    @pytest.mark.parametrize("k", [1, 8, "all"])
    def test_a_filled_table_costs_one_statement_of_k_rows(
        self, store, k, monkeypatch
    ):
        store.trees.store_tree(chained_tree(300, seed=6), name="gold")
        random_sample_stored(store.trees.open("gold"), 2, np.random.default_rng(0))
        handle = store.trees.open("gold")
        k = handle.info.n_leaves if k == "all" else k
        log = read_log(handle.db, monkeypatch)
        with handle.db.count_statements() as counter:
            sample = random_sample_stored(handle, k, np.random.default_rng(5))
        assert counter.count == 1
        assert [rows for _sql, rows in log] == [k]
        assert len(set(sample)) == k
        # The fetched rows warm the handle: projecting the sample looks
        # up no name.
        log.clear()
        projection = project_stored(handle, sample)
        assert set(projection.leaf_names()) == set(sample)
        assert not any("name IN" in text for text, _rows in log)

    def test_the_first_sample_in_a_store_reads_the_table_once(
        self, store, monkeypatch
    ):
        store.trees.store_tree(chained_tree(120, seed=7), name="gold")
        log = read_log(store.db, monkeypatch)
        first = store.trees.open("gold")
        random_sample_stored(first, 4, np.random.default_rng(1))
        assert [rows for text, rows in log if text == sql.LEAF_IDS] == [120]
        log.clear()
        second = store.trees.open("gold")
        assert second is not first
        sample_with_time_stored(second, 1.0, 4, np.random.default_rng(2))
        random_sample_stored(second, 4, np.random.default_rng(2))
        assert not any(text == sql.LEAF_IDS for text, _rows in log)
        assert second.engine.skeleton.leaf_ids is first.engine.skeleton.leaf_ids

    def test_a_restored_name_never_returns_an_old_leaf(self, store):
        old = chained_tree(60, seed=1)
        store.trees.store_tree(old, name="gold")
        held = store.open_tree("gold")
        random_sample_stored(held, 60, np.random.default_rng(0))
        store.trees.delete_tree("gold")
        new = yule_tree(80, rng=np.random.default_rng(2))
        store.trees.store_tree(new, name="gold")
        fresh = set(new.leaf_names())
        assert not fresh & set(old.leaf_names())
        for seed in range(5):
            for handle in (store.open_tree("gold"), store.trees.open("gold")):
                rng = np.random.default_rng(seed)
                assert set(random_sample_stored(handle, 80, rng)) == fresh
                assert set(sample_with_time_stored(handle, 0.2, 5, rng)) <= fresh

    def test_eight_threads_fill_one_cold_table(self, tmp_path):
        tree = yule_tree(500, rng=np.random.default_rng(9))
        leaves = set(tree.leaf_names())
        with CrimsonStore.open(tmp_path / "s.db", readers=8) as store:
            store.load_tree(tree, name="gold", f=8)
            barrier = threading.Barrier(8)
            results, errors, handles = [], [], []

            def run(seed: int) -> None:
                try:
                    handle = store.open_tree("gold")
                    handles.append(handle)
                    barrier.wait(timeout=10)
                    rng = np.random.default_rng(seed)
                    for k in (1, 16, 500):
                        results.append((k, random_sample_stored(handle, k, rng)))
                except BaseException as error:  # noqa: BLE001 - recorded
                    errors.append(error)

            threads = [
                threading.Thread(target=run, args=(seed,)) for seed in range(8)
            ]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            assert len(results) == 24
            for k, sample in results:
                assert len(sample) == len(set(sample)) == k
                assert set(sample) <= leaves
            table = handles[0].engine.skeleton.leaf_ids
            assert all(h.engine.skeleton.leaf_ids == table for h in handles)
            assert list(table) == [
                row.node_id for row in handles[0].nodes_by_name(tree.leaf_names())
            ]

    def test_store_stats_report_the_leaf_ids(self, store, monkeypatch):
        store.trees.store_tree(chained_tree(50, seed=2), name="a")
        store.trees.store_tree(chained_tree(30, seed=3), name="b")
        handles = [store.open_tree("a"), store.trees.open("a"), store.open_tree("b")]
        assert store.stats().caches["leaf_ids"]["size"] == 0
        for handle in handles:
            random_sample_stored(handle, 3, np.random.default_rng(0))
        # Counted once per tree, however many handles share it.
        assert store.stats().caches["leaf_ids"]["size"] == 80
        # clear_cache() drops the table; the next sample re-reads it.
        handles[0].clear_cache()
        assert store.stats().caches["leaf_ids"]["size"] == 30
        log = read_log(handles[1].db, monkeypatch)
        random_sample_stored(handles[1], 3, np.random.default_rng(0))
        assert [rows for text, rows in log if text == sql.LEAF_IDS] == [50]
        assert store.stats().caches["leaf_ids"]["size"] == 80
        # A delete forgets the tree's table.
        store.trees.delete_tree("b")
        assert store.stats().caches["leaf_ids"]["size"] == 50


class TestFrontierMemo:
    """The last time frontier read is kept in the tree's skeleton."""

    def frontier_reads(self, log) -> int:
        return sum(text == sql.TIME_FRONTIER for text, _rows in log)

    def test_a_second_draw_at_one_time_runs_no_frontier_join(
        self, store, monkeypatch
    ):
        store.trees.store_tree(chained_tree(200, seed=4), name="gold")
        handle = store.trees.open("gold")
        log = read_log(handle.db, monkeypatch)
        first = sample_with_time_stored(handle, 1.0, 8, np.random.default_rng(0))
        assert self.frontier_reads(log) == 1
        # Another handle of the tree shares the memo.
        other = store.open_tree("gold")
        second = sample_with_time_stored(other, 1.0, 8, np.random.default_rng(0))
        assert self.frontier_reads(log) == 1
        assert second == first

    def test_a_new_time_reads_the_frontier_again(self, store, monkeypatch):
        store.trees.store_tree(chained_tree(200, seed=4), name="gold")
        handle = store.trees.open("gold")
        log = read_log(handle.db, monkeypatch)
        at_one = list(handle.frontier_spans(1.0))
        at_two = list(handle.frontier_spans(2.0))
        assert self.frontier_reads(log) == 2
        assert at_one != at_two
        assert list(handle.frontier_spans(2.0)) == at_two
        assert self.frontier_reads(log) == 2
        assert at_two == [
            bound
            for row in handle.time_frontier(2.0)
            for bound in (row.node_id, row.pre_order_end)
        ]
        handle.clear_cache()
        handle.frontier_spans(2.0)
        assert self.frontier_reads(log) == 4

    def test_store_stats_report_the_frontier(self, store):
        store.trees.store_tree(chained_tree(200, seed=4), name="gold")
        handle = store.trees.open("gold")
        assert store.stats().caches["frontier"]["size"] == 0
        sample_with_time_stored(handle, 1.0, 8, np.random.default_rng(0))
        held = len(handle.time_frontier(1.0))
        assert held > 1
        assert store.stats().caches["frontier"] == {
            **store.stats().caches["frontier"], "size": held, "maxsize": held
        }
        handle.clear_cache()
        assert store.stats().caches["frontier"]["size"] == 0
        sample_with_time_stored(handle, 1.0, 8, np.random.default_rng(0))
        store.trees.delete_tree("gold")
        assert store.stats().caches.get("frontier", {"size": 0})["size"] == 0

    def test_memoised_draws_equal_the_in_memory_sampler(self, store):
        tree = yule_tree(120, rng=np.random.default_rng(6))
        handle = store.trees.store_tree(tree, name="twin")
        time = max(tree.distances_from_root().values()) * 0.4
        for seed in range(6):
            assert sample_with_time_stored(
                handle, time, 9, np.random.default_rng(seed)
            ) == sample_with_time(tree, time, 9, np.random.default_rng(seed))

    def test_a_restored_name_never_yields_an_old_frontier(self, store):
        old = chained_tree(60, seed=1)
        store.trees.store_tree(old, name="gold")
        held = store.open_tree("gold")
        sample_with_time_stored(held, 0.2, 5, np.random.default_rng(0))
        store.trees.delete_tree("gold")
        new = yule_tree(80, rng=np.random.default_rng(2))
        store.trees.store_tree(new, name="gold")
        fresh = set(new.leaf_names())
        expected = {row.name for row in store.open_tree("gold").time_frontier(0.2)}
        for handle in (store.open_tree("gold"), store.trees.open("gold")):
            names = {row.name for row in handle.time_frontier(0.2)}
            assert names == expected
            assert not names & set(old.leaf_names())
            sample = sample_with_time_stored(handle, 0.2, 5, np.random.default_rng(1))
            assert set(sample) <= fresh
