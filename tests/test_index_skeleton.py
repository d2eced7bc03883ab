"""The shared index skeleton: one append-only copy per tree and store.

Every handle a store opens on a tree reads the tree's
:class:`~repro.storage.engine.IndexSkeleton` — its block rows, its
upper-layer inodes and the layer-0 inodes reached through block
references — so a fresh handle's cold walk finds the rows earlier
handles fetched.  Each case says whether it fails on the per-handle
design the skeleton replaced, where every handle pinned its own copy of
those rows.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro.core.projection import project_tree
from repro.benchmark.metrics import robinson_foulds
from repro.errors import StorageError
from repro.storage.engine import IndexSkeleton
from repro.storage.projection import project_stored
from repro.storage.rows import BlockRow, InodeRow
from repro.storage.sanitize import record_statements
from repro.storage.store import CrimsonStore
from repro.trees.build import caterpillar
from repro.trees.traversal import naive_lca


def _rank(tree):
    return {id(node): rank for rank, node in enumerate(tree.preorder())}


def _oracle_pairs(tree, count, seed):
    rng = random.Random(seed)
    nodes = list(tree.preorder())
    rank = _rank(tree)
    pairs = [tuple(rng.sample(nodes, 2)) for _ in range(count)]
    return (
        [(rank[id(a)], rank[id(b)]) for a, b in pairs],
        [rank[id(naive_lca(a, b))] for a, b in pairs],
    )


def _fills(recorded):
    """``(block fills, inode-by-id fills)`` among recorded statements."""
    texts = [text for _, text in recorded]
    blocks = sum("FROM blocks" in text for text in texts)
    by_id = sum("inode_id IN" in text for text in texts)
    return blocks, by_id


class TestIndexSkeleton:
    """The structure itself.  New here: fails on the old design, which
    had no such class."""

    def test_cap_refuses_rows_past_maxsize(self):
        skeleton = IndexSkeleton(2)
        blocks = [BlockRow(k, 0, k, None, None) for k in range(3)]
        assert [skeleton.add_block(row) for row in blocks] == [
            True, True, False,
        ]
        # A held row is still reported held once the skeleton is full.
        assert skeleton.add_block(blocks[0])
        assert list(skeleton.blocks) == [0, 1]

    def test_inode_joins_under_both_keys(self):
        skeleton = IndexSkeleton(4)
        row = InodeRow(9, 1, 2, (1, 3), None, 5)
        assert skeleton.add_inode(row)
        assert skeleton.inodes[9] is row
        assert skeleton.inode_at[(2, (1, 3))] is row
        assert len(skeleton) == 1

    def test_clear_drops_every_row(self):
        skeleton = IndexSkeleton(4)
        skeleton.add_block(BlockRow(0, 0, 0, None, None))
        skeleton.add_inode(InodeRow(1, 1, 0, (), None, 0))
        skeleton.clear()
        assert len(skeleton) == 0 and not skeleton.inode_at

    def test_size_must_be_positive(self):
        with pytest.raises(StorageError):
            IndexSkeleton(0)

    def test_concurrent_inserts_keep_the_cap_and_both_keys(self):
        """More threads than cores race to admit overlapping rows with a
        short switch interval: a lost update or an unguarded
        check-then-insert would overrun the cap or leave the two inode
        dicts disagreeing."""
        skeleton = IndexSkeleton(50)
        blocks = [BlockRow(k, 0, k, None, None) for k in range(200)]
        inodes = [InodeRow(k, 1, k % 7, (k,), None, 0) for k in range(200)]
        errors = []

        def race(offset):
            try:
                for k in range(200):
                    j = (k * 7 + offset) % 200
                    skeleton.add_block(blocks[j])
                    skeleton.add_inode(inodes[j])
            except BaseException as error:  # noqa: BLE001 - recorded
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=race, args=(offset,))
                for offset in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert errors == [] and not any(t.is_alive() for t in threads)
        assert len(skeleton.blocks) == len(skeleton.inodes) == 50
        assert {
            (row.block_id, row.label): row for row in skeleton.inodes.values()
        } == skeleton.inode_at


class TestSharedAcrossHandles:
    def test_fresh_handle_cold_project_runs_no_skeleton_fill(self, sanitized):
        """Fails on the old design: the second handle re-read every
        block and every rep and source inode the first one had."""
        with CrimsonStore.open() as store:
            store.trees.store_tree(caterpillar(600), name="deep", f=4)
            names = [f"t{i}" for i in range(1, 601, 7)]
            first = store.trees.open("deep")
            with record_statements() as recorded:
                cold = project_stored(first, names)
            assert _fills(recorded)[0] > 0
            second = store.trees.open("deep")
            assert second is not first
            with record_statements() as recorded:
                fresh = project_stored(second, names)
            # No block fill; the one by-id inode fill is the canonical
            # inodes of the sample's leaves.
            assert _fills(recorded) == (0, 1)
            assert robinson_foulds(fresh, cold) == 0
            assert second.engine.skeleton is first.engine.skeleton

    def test_two_threads_share_one_skeleton_and_match_the_oracle(
        self, tmp_path, random_tree_factory
    ):
        """Fails on the old design: each thread's handle had its own
        copy (the answers themselves were right)."""
        tree = random_tree_factory(400, seed=21)
        pairs, expected = _oracle_pairs(tree, 60, seed=4)
        leaves = [leaf.name for leaf in tree.root.leaves()]
        projected = project_tree(tree, leaves[::5])
        with CrimsonStore.open(tmp_path / "s.db", readers=2) as store:
            store.load_tree(tree, name="gold", f=3)
            handles, errors, answers = [], [], []
            barrier = threading.Barrier(2)

            def run():
                try:
                    handle = store.open_tree("gold")
                    handles.append(handle)
                    barrier.wait(timeout=10)
                    singles = [handle.lca(a, b).node_id for a, b in pairs]
                    batch = [row.node_id for row in handle.lca_batch(pairs)]
                    projection = project_stored(handle, leaves[::5])
                    answers.append((singles, batch, projection))
                except BaseException as error:  # noqa: BLE001 - recorded
                    errors.append(error)

            threads = [threading.Thread(target=run) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert errors == []
            assert handles[0] is not handles[1]
            assert handles[0].db is not handles[1].db
            assert handles[0].engine.skeleton is handles[1].engine.skeleton
            for singles, batch, projection in answers:
                assert singles == expected
                assert batch == expected
                assert robinson_foulds(projection, projected) == 0

    def test_store_stats_count_a_shared_skeleton_once(self, tmp_path):
        """New here: the old stats had no skeleton entry."""
        with CrimsonStore.open(tmp_path / "s.db", readers=2) as store:
            store.trees.store_tree(caterpillar(200), name="deep", f=4)
            handles = []

            def query():
                # Each handle runs on the thread whose reader it holds.
                handles.append(store.open_tree("deep"))
                handles[-1].lca("t1", "t200")

            query()
            worker = threading.Thread(target=query)
            worker.start()
            worker.join()
            skeleton = handles[0].engine.skeleton
            assert handles[1].engine.skeleton is skeleton
            caches = store.stats().caches
            assert caches["handles"] == 2
            assert caches["skeleton"]["size"] == len(skeleton) > 0
            assert caches["skeleton"]["hits"] == sum(
                handle.cache_stats()["skeleton"].hits for handle in handles
            )
            assert caches["total"]["size"] == len(skeleton) + sum(
                handle.cache_stats()["total"].size - len(skeleton)
                for handle in handles
            )

    def test_store_stats_count_every_kind_of_handle(self, store):
        """Fails on the old registry, which only the cached
        ``open_tree`` path fed (``handles == 1``)."""
        loaded = store.trees.store_tree(caterpillar(40), name="deep", f=4)
        handles = [
            loaded,
            store.open_tree("deep"),
            store.open_tree("deep", cache_size=64),
            store.trees.open("deep"),
        ]
        for handle in handles:
            assert handle.lca("t1", "t40").node_id == 0
            assert handle.lca("t1", "t40").node_id == 0
        caches = store.stats().caches
        assert caches["handles"] == 4
        assert caches["nodes"]["hits"] > 0
        assert caches["total"]["hits"] == sum(
            handle.cache_stats()["total"].hits for handle in handles
        )

    def test_explicit_cache_size_shares_the_skeleton(self, store):
        """Fails on the old design only for want of the attribute: every
        handle's rows were private there."""
        store.trees.store_tree(caterpillar(40), name="deep", f=4)
        shared = store.open_tree("deep")
        handles = [
            store.trees.open("deep", cache_size=store.cache_size),
            store.open_tree("deep", cache_size=16),
            store.trees.open("deep", cache_size=16),
        ]
        for handle in handles:
            assert handle.engine.skeleton is shared.engine.skeleton
        assert shared.engine.skeleton.maxsize == store.cache_size
        assert handles[1].lca("t1", "t40").node_id == 0
        assert len(shared.engine.skeleton) > 0

    @pytest.mark.parametrize("seed", [1, 6])
    def test_tiny_cap_bounds_the_skeleton_and_keeps_answers(
        self, store_with_cache, random_tree_factory, seed
    ):
        """The answers pass on the old design too; the bound is new."""
        tree = random_tree_factory(300, seed=seed)
        pairs, expected = _oracle_pairs(tree, 40, seed)
        store = store_with_cache(8)
        store.load_tree(tree, name="tiny", f=2)
        leaves = [leaf.name for leaf in tree.root.leaves()][::3]
        projected = project_tree(tree, leaves)
        for _round in range(2):
            handle = store.trees.open("tiny")
            assert [handle.lca(a, b).node_id for a, b in pairs] == expected
            assert [row.node_id for row in handle.lca_batch(pairs)] == expected
            assert robinson_foulds(project_stored(handle, leaves), projected) == 0
            skeleton = handle.engine.skeleton
            assert len(skeleton.blocks) <= 8
            assert len(skeleton.inodes) <= 8
            assert len(skeleton.inode_at) <= 8
        assert len(skeleton.blocks) == 8  # full: the rest went to the LRUs
        assert handle.cache_stats()["blocks"].size > 0


class TestLifecycle:
    def test_delete_tree_drops_the_entry(self, store):
        """Fails on the old design: there was no store-wide entry."""
        store.trees.store_tree(caterpillar(30), name="a", f=4)
        store.trees.store_tree(caterpillar(30), name="b", f=4)
        a, b = store.open_tree("a"), store.open_tree("b")
        a.lca("t1", "t30")
        b.lca("t1", "t30")
        assert store.index_skeleton(a.info.tree_id) is a.engine.skeleton
        store.trees.delete_tree("a")
        assert store.index_skeleton(a.info.tree_id) is not a.engine.skeleton
        assert store.index_skeleton(b.info.tree_id) is b.engine.skeleton
        # A re-stored name is a new tree id with an empty skeleton.
        store.trees.store_tree(caterpillar(30), name="a", f=4)
        again = store.open_tree("a")
        assert again.info.tree_id != a.info.tree_id
        assert len(again.engine.skeleton) == 0

    def test_close_drops_every_entry(self):
        """Fails on the old design: there was no store-wide entry."""
        store = CrimsonStore.open()
        store.trees.store_tree(caterpillar(30), name="a", f=4)
        handle = store.open_tree("a")
        handle.lca("t1", "t30")
        store.close()
        assert store.index_skeleton(handle.info.tree_id) is not (
            handle.engine.skeleton
        )

    def test_recreated_file_never_serves_old_rows(
        self, tmp_path, random_tree_factory
    ):
        """The answers pass on the old design too, where nothing
        outlived a handle; the empty skeleton is new.  The registry
        belongs to one store object, and a file removed and re-created
        at the same path issues tree id 1 again."""
        path = tmp_path / "again.db"
        old = caterpillar(200)
        pairs, expected = _oracle_pairs(old, 30, seed=2)
        with CrimsonStore.open(path) as store:
            store.trees.store_tree(old, name="gold", f=2)
            handle = store.open_tree("gold")
            old_id = handle.info.tree_id
            assert [handle.lca(a, b).node_id for a, b in pairs] == expected
        path.unlink()
        tree = random_tree_factory(100, seed=3)
        pairs, expected = _oracle_pairs(tree, 30, seed=2)
        with CrimsonStore.open(path) as store:
            store.trees.store_tree(tree, name="gold", f=8)
            handle = store.open_tree("gold")
            assert handle.info.tree_id == old_id
            assert len(handle.engine.skeleton) == 0
            assert [handle.lca(a, b).node_id for a, b in pairs] == expected

    def test_clear_cache_restores_cold_statement_counts(self, store):
        """Passes on the old design too, where a second handle was cold
        anyway: clearing drops the shared skeleton, so a handle opened
        after a warm one costs what the very first cold run cost."""
        store.trees.store_tree(caterpillar(300), name="deep", f=4)
        names = [f"t{i}" for i in range(1, 301, 11)]
        counts = []
        for _round in range(3):
            handle = store.trees.open("deep")
            if counts:
                handle.clear_cache()
            with store.db.count_statements() as counter:
                project_stored(handle, names)
                handle.lca("t2", "t299")
            counts.append(counter.count)
        assert counts[0] > 0
        assert counts == [counts[0]] * 3
