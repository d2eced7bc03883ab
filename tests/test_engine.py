"""Stored-query engine: LRU row caches, batch APIs, statement accounting.

Covers the cache primitive, the warm-path guarantee (a repeated stored
LCA executes **zero** SQL statements), the batched LCA/projection paths,
and a differential property check pinning all five LCA implementations
(naive walk, plain Dewey, layered in-memory, stored-SQL single, stored
batch) to the same answers on random trees across several ``f`` values.
"""

from __future__ import annotations

import contextlib
import random

import numpy as np
import pytest

from repro.analytics.bipartitions import scan_tree
from repro.core.dewey import DeweyIndex
from repro.core.hindex import HierarchicalIndex
from repro.core.lca import LcaService
from repro.errors import QueryError, StorageError
from repro.simulation.birth_death import yule_tree
from repro.storage.cache import CacheStats, LRUCache
from repro.storage.projection import project_stored
from repro.storage.sanitize import record_statements, statement_budget
from repro.storage.store import CrimsonStore
from repro.trees.build import balanced, caterpillar, sample_tree
from repro.trees.traversal import naive_lca


@pytest.fixture
def repo(store):
    return store.trees


@pytest.fixture
def store_with_cache():
    """Opens in-memory stores of a given ``cache_size``, closed after
    the test."""
    with contextlib.ExitStack() as stack:
        yield lambda size: stack.enter_context(
            CrimsonStore.open(cache_size=size)
        )


@pytest.fixture
def stored(repo, fig1):
    return repo.store_tree(fig1, name="fig1", f=2)


class TestLRUCache:
    def test_roundtrip_and_counters(self):
        cache = LRUCache(4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.hits == 1
        assert cache.misses == 1

    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a": "b" becomes the LRU entry
        cache.put("c", 3)
        assert cache.get("a") == 1
        assert cache.get("b") is None
        assert cache.get("c") == 3
        assert cache.evictions == 1

    def test_put_refresh_does_not_evict(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # refresh, not a new entry
        assert len(cache) == 2
        assert cache.evictions == 0
        assert cache.get("a") == 10

    def test_invalid_size_rejected(self):
        with pytest.raises(StorageError):
            LRUCache(0)

    def test_clear_keeps_counters_reset_zeroes_them(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 1
        cache.reset_stats()
        assert cache.stats.hits == 0

    def test_stats_aggregate(self):
        total = CacheStats(hits=1, misses=1) + CacheStats(hits=2, misses=0)
        assert total.hits == 3
        assert total.lookups == 4
        assert total.hit_rate == pytest.approx(0.75)
        assert CacheStats().hit_rate == 0.0


class TestSegmentedAdmission:
    """The pinned segment: ordinary inserts can never evict pinned rows."""

    def test_pinned_entries_survive_a_probationary_flood(self):
        cache = LRUCache(4)
        cache.put("index", "skeleton", pinned=True)
        for key in range(100):
            cache.put(key, key)
        assert cache.get("index") == "skeleton"
        assert len(cache) == 5  # 4 probationary + 1 pinned
        assert cache.pinned_count == 1

    def test_pinned_segment_is_bounded_and_lru(self):
        cache = LRUCache(2)
        cache.put("a", 1, pinned=True)
        cache.put("b", 2, pinned=True)
        cache.get("a")  # refresh: "b" becomes the pinned LRU entry
        cache.put("c", 3, pinned=True)
        assert cache.get("a") == 1
        assert cache.get("b") is None
        assert cache.get("c") == 3
        assert cache.evictions == 1

    def test_pinning_is_sticky(self):
        cache = LRUCache(2)
        cache.put("k", 1)
        cache.put("k", 2, pinned=True)  # promotion
        assert cache.pinned_count == 1
        assert len(cache) == 1
        # An unpinned re-put refreshes in place — never demotes.
        cache.put("k", 3)
        assert cache.pinned_count == 1
        assert cache.get("k") == 3

    def test_repeated_scans_cannot_demote_pinned_rows(self):
        cache = LRUCache(4)
        cache.put("skeleton", "row", pinned=True)
        for _round in range(3):
            # A scan that re-fetches the skeleton key unpinned ...
            cache.put("skeleton", "row")
            for key in range(100):
                cache.put(key, key)
        # ... still cannot push it out.
        assert cache.get("skeleton") == "row"
        assert cache.pinned_count == 1

    def test_stats_report_pinned_entries(self):
        cache = LRUCache(4)
        cache.put("a", 1, pinned=True)
        cache.put("b", 2)
        stats = cache.stats
        assert stats.pinned == 1
        assert stats.size == 2
        assert stats.as_dict()["pinned"] == 1

    def test_clear_drops_both_segments(self):
        cache = LRUCache(4)
        cache.put("a", 1, pinned=True)
        cache.put("b", 2)
        cache.clear()
        assert len(cache) == 0
        assert cache.pinned_count == 0

    def test_full_tree_scan_cannot_evict_index_rows(self, store_with_cache):
        """The ROADMAP cache-admission item, end to end: after a warm-up,
        an adversarial layer-0 scan (every node row, every canonical
        inode — the analytics extraction pattern) must leave the pinned
        index skeleton resident, so the repeated point-query workload
        re-fetches only the handful of evicted layer-0 rows instead of
        re-walking the index from cold.
        """
        store = store_with_cache(256)
        repo = store.trees
        repo.store_tree(caterpillar(600), name="deep", f=4)
        handle = repo.open("deep")

        def workload():
            handle.lca("t1", "t600")
            handle.lca("t3", "t300")

        with store.db.count_statements() as counter:
            workload()
        cold = counter.count
        with store.db.count_statements() as counter:
            workload()
        assert counter.count == 0  # fully warm before the scan
        inodes = handle.engine._inodes
        skeleton = [
            inode
            for inode in range(2 * handle.info.n_nodes)
            if inodes.is_pinned(inode)
        ]
        assert skeleton

        # The adversarial scan: more layer-0 rows than the cache holds.
        # Run it twice — the second round re-fetches rows the first
        # evicted, which must not demote pinned skeleton rows (pinning
        # is sticky).
        assert handle.info.n_nodes > 256
        for _round in range(2):
            handle.preorder_rows()
            handle.engine.canonical_inodes_many(range(handle.info.n_nodes))

        before = {
            name: stats.misses
            for name, stats in handle.cache_stats().items()
        }
        with store.db.count_statements() as counter:
            workload()
        after = handle.cache_stats()
        # The index skeleton (blocks, pinned inodes) stays resident:
        # canonical inodes share the inode cache, so its misses count
        # the evicted layer-0 rows the repeat re-fetches ...
        assert after["blocks"].misses == before["blocks"]
        assert all(inodes.is_pinned(inode) for inode in skeleton)
        # ... so the post-scan repeat costs a few layer-0 re-fetches,
        # not a cold re-walk.
        assert 0 < counter.count <= 20
        assert counter.count < cold // 10


class TestWarmPath:
    def test_warm_repeat_lca_executes_zero_sql(self, store, stored):
        assert stored.lca("Lla", "Spy").name == "x"
        with store.db.count_statements() as counter:
            assert stored.lca("Lla", "Spy").name == "x"
        assert counter.count == 0

    def test_warm_lca_many_executes_zero_sql(self, store, stored):
        stored.lca_many(["Lla", "Spy", "Bha"])
        with store.db.count_statements() as counter:
            assert stored.lca_many(["Lla", "Spy", "Bha"]).name == "A"
        assert counter.count == 0

    def test_cold_query_counts_statements(self, store, stored):
        with store.db.count_statements() as counter:
            stored.lca("Lla", "Syn")
        assert counter.count > 0

    def test_cache_stats_track_hits(self, stored):
        stored.lca("Lla", "Spy")
        first = stored.cache_stats()["total"]
        stored.lca("Lla", "Spy")
        second = stored.cache_stats()["total"]
        assert second.hits > first.hits
        assert second.misses == first.misses

    def test_clear_cache_restores_cold_path(self, store, stored):
        stored.lca("Lla", "Spy")
        stored.clear_cache()
        with store.db.count_statements() as counter:
            stored.lca("Lla", "Spy")
        assert counter.count > 0

    def test_reset_cache_stats(self, stored):
        stored.lca("Lla", "Spy")
        stored.reset_cache_stats()
        total = stored.cache_stats()["total"]
        assert total.hits == 0 and total.misses == 0

    def test_tiny_cache_still_correct_and_evicts(self, store_with_cache, fig1):
        handle = store_with_cache(2).trees.store_tree(
            fig1, name="tiny", f=2
        )
        for _ in range(3):
            assert handle.lca("Lla", "Syn").name == "R"
            assert handle.lca("Lla", "Spy").name == "x"
        assert handle.cache_stats()["total"].evictions > 0

    def test_statement_counter_stops(self, store, stored):
        with store.db.count_statements() as counter:
            pass
        stored.clear_cache()
        stored.lca("Lla", "Syn")
        assert counter.count == 0  # frozen at scope exit


class TestTypedRowCaches:
    """Rows are typed once, when they enter a cache; a warm hit only
    reads them.  The counters, the pinning and the answers are those of
    the untyped-row engine."""

    def test_warm_repeat_makes_no_sql_and_no_cache_puts(
        self, store, random_tree_factory, monkeypatch
    ):
        tree = random_tree_factory(200, seed=4)
        handle = store.trees.store_tree(tree, name="warm", f=3)
        names = [leaf.name for leaf in tree.root.leaves()]

        def workload():
            handle.lca_many(names[:2])
            handle.lca(names[3], names[-1])
            handle.lca_batch(list(zip(names, names[5:]))[:30])
            project_stored(handle, names[::3])

        workload()
        puts = []
        original = LRUCache.put

        def counting_put(cache, key, value, pinned=False):
            puts.append(key)
            original(cache, key, value, pinned)

        monkeypatch.setattr(LRUCache, "put", counting_put)
        with store.db.count_statements() as counter:
            workload()
        assert counter.count == 0
        assert puts == []

    def test_fixed_workload_counters_are_unchanged(self, random_tree_factory):
        """Per-cache (hits, misses, evictions, size, pinned) of a fixed
        cold-then-warm workload, as recorded with ``sqlite3.Row``
        caches that re-put every pinned hit.

        Misses, evictions, sizes and pinned counts are those of the
        per-pair batch walk.  Hits are lower since ``lca_batch`` walks
        its pairs level by level: each round looks every distinct key
        up once, where the per-pair walk looked it up once per pair and
        hop.

        Canonical inodes had a cache of their own, (237, 71, 0, 104, 0)
        on this workload.  Node ``r``'s canonical inode is now inode
        ``r``, looked up in the inode cache, which counts those hits and
        misses on top of its own (435, 57); the totals are unchanged,
        and the total size drops by the 104 rows the inode cache already
        held."""
        with CrimsonStore.open() as store:
            store.load_tree(random_tree_factory(300, seed=7), name="fixed", f=3)
            handle = store.open_tree("fixed", cache_size=4096)
            names = [f"L{i}" for i in range(0, 300, 7)]
            for _round in range(2):
                for a, b in zip(names, names[3:]):
                    handle.lca(a, b)
                handle.lca_many(names[:9])
                handle.lca_batch(list(zip(names[::2], names[1::2])))
                handle.lca_batch([(5, 200), (17, "L250"), (299, 1)])
                leaves = [
                    f"L{i}"
                    for i in range(1, 300, 5)
                    if handle.node_by_name(f"L{i}").is_leaf
                ]
                project_stored(handle, leaves)
                handle.clade(["L40", "L41"])
                handle.node(123)
            counters = {
                name: (s.hits, s.misses, s.evictions, s.size, s.pinned)
                for name, s in handle.cache_stats().items()
            }
        assert counters == {
            # Per-pair walk: 602 hits (one block lookup per pair and hop).
            "blocks": (460, 32, 0, 32, 32),
            # 322: one label lookup per pair and layer.
            "inode_at": (198, 14, 0, 142, 61),
            # Per-pair walk: 577 rep/source hits (one per pair and hop)
            # and 457 canonical ones (each canonical inode read twice,
            # in the prefetch and again when its pair's walk started).
            # The canonical share, now 237, was 257 while ``lca_many``
            # folded its set: a prefetch plus two lookups per fold
            # step, where the pre-order extremes walk looks up two
            # inodes once.
            "inodes": (672, 128, 0, 142, 61),
            "node_ids": (350, 94, 0, 109, 0),
            # 583: one result-row lookup per walked pair, not per
            # distinct result.
            "nodes": (527, 15, 0, 109, 0),
            "total": (2207, 283, 0, 534, 154),
        }

    def test_probationary_skeleton_inode_is_promoted(self, store_with_cache):
        repo = store_with_cache(4096).trees
        repo.store_tree(caterpillar(600), name="deep", f=4)
        handle = repo.open("deep")
        engine = handle.engine
        deepest = engine.canonical_inode(handle.node_by_name("t600").node_id)
        source = engine.block(deepest.block_id).source_inode_id
        assert source is not None
        handle.clear_cache()
        # Reached outside the skeleton first: a probationary layer-0 row.
        row = engine.inode(source)
        assert row.layer == 0
        assert not engine._inodes.is_pinned(source)
        # The walk from the deepest block to the root climbs through it.
        assert handle.lca("t1", "t600").node_id == 0
        assert engine._inodes.is_pinned(source)
        assert engine._inode_at.is_pinned((row.block_id, row.label))

    @pytest.mark.parametrize("seed", [2, 9])
    def test_constant_eviction_agrees_with_dewey(
        self, store_with_cache, seed, random_tree_factory
    ):
        tree = random_tree_factory(120, seed=seed)
        rank = _preorder_rank(tree)
        nodes = list(tree.preorder())
        dewey = DeweyIndex(tree)
        handle = store_with_cache(4).trees.store_tree(
            tree, name=f"tiny{seed}", f=3
        )
        rng = random.Random(seed)
        pairs = [tuple(rng.sample(nodes, 2)) for _ in range(40)]
        batch = handle.lca_batch(
            [(rank[id(a)], rank[id(b)]) for a, b in pairs]
        )
        for (a, b), batch_row in zip(pairs, batch):
            expected = rank[id(dewey.lca(a, b))]
            assert handle.lca(a.name, b.name).node_id == expected
            assert batch_row.node_id == expected
        for _ in range(15):
            taxa = rng.sample(nodes, 3)
            anchor = dewey.lca_many(taxa)
            clade = handle.clade([node.name for node in taxa])
            assert [row.node_id for row in clade] == [
                rank[id(node)] for node in anchor.preorder()
            ]
        assert handle.cache_stats()["total"].evictions > 0


class TestBatchApis:
    def test_nodes_by_name_preserves_input_order(self, stored):
        rows = stored.nodes_by_name(["Spy", "Lla", "Bha"])
        assert [row.name for row in rows] == ["Spy", "Lla", "Bha"]

    def test_nodes_by_name_unknown_raises(self, stored):
        with pytest.raises(QueryError, match="alien"):
            stored.nodes_by_name(["Lla", "alien"])

    def test_lca_batch_matches_single_calls(self, store, repo):
        tree = balanced(4)
        handle = repo.store_tree(tree, name="bal", f=2)
        leaves = handle.leaves()
        pairs = [
            (leaves[i].node_id, leaves[-(i + 1)].node_id)
            for i in range(len(leaves) // 2)
        ]
        batch = handle.lca_batch(pairs)
        singles = [handle.lca(a, b) for a, b in pairs]
        assert [row.node_id for row in batch] == [
            row.node_id for row in singles
        ]

    def test_lca_batch_empty_is_empty(self, stored):
        assert stored.lca_batch([]) == []

    def test_lca_batch_unknown_name_raises(self, stored):
        with pytest.raises(QueryError):
            stored.lca_batch([("Lla", "alien")])

    def test_lca_batch_mixed_ids_and_names(self, stored):
        lla = stored.node_by_name("Lla")
        (row,) = stored.lca_batch([(lla.node_id, "Syn")])
        assert row.name == "R"

    def test_lca_batch_fewer_statements_than_singles(self, store, repo):
        tree = caterpillar(120)
        repo.store_tree(tree, name="deep", f=4)
        pairs = [(f"t{i + 1}", f"t{120 - i}") for i in range(40)]

        single_handle = repo.open("deep")
        with store.db.count_statements() as single_counter:
            for a, b in pairs:
                single_handle.lca(a, b)

        batch_handle = repo.open("deep")
        with store.db.count_statements() as batch_counter:
            batch_handle.lca_batch(pairs)

        assert batch_counter.count < single_counter.count

    def test_lca_many_early_exit_matches_in_memory_semantics(self, stored):
        # No early exit at the root: every item is resolved, so an
        # unknown one raises wherever it sits — same contract as
        # DeweyIndex/HierarchicalIndex and the naive fold.
        assert stored.lca_many(["Lla", "Syn"]).name == "R"
        with pytest.raises(QueryError, match="alien"):
            stored.lca_many(["Lla", "Syn", "alien"])
        with pytest.raises(QueryError, match="alien"):
            stored.lca_many(["Lla", "alien"])

    def test_lca_many_threads_rows_without_refetch(self, store, stored):
        # The set's rows arrive in one batch and only its pre-order
        # extremes are walked: after a first warming pass the whole
        # call is cache-served.
        stored.lca_many(["Lla", "Spy", "Bsu", "Bha"])
        with store.db.count_statements() as counter:
            stored.lca_many(["Lla", "Spy", "Bsu", "Bha"])
        assert counter.count == 0


def _longest_chains(tree, f: int) -> tuple[int, list[int]]:
    """``(rounds, blocks per layer)`` of a tree's layered index, where
    ``rounds`` sums each layer's deepest source chain: the most hop
    rounds a level-synchronous walk can take."""
    index = HierarchicalIndex(tree, f)
    depth: dict[int, int] = {}
    for block in range(index.n_blocks()):  # parents precede children
        source = index.block_source_inode[block]
        depth[block] = (
            0 if source is None else depth[index.inode_block[source]] + 1
        )
    rounds = 0
    for layer in range(index.n_layers):
        rounds += max(
            d for block, d in depth.items() if index.block_layer[block] == layer
        )
    return rounds, [index.n_blocks(layer) for layer in range(index.n_layers)]


class TestLevelSynchronousWalk:
    """``lca_batch`` pays one round of SQL per index layer and hop, not
    one statement per pair and hop."""

    def test_cold_statements_do_not_grow_with_pairs(self, store, repo):
        # balanced(8) with f = 4: a top block over 16 blocks of 16
        # leaves each.  The first 40 pairs reach every block and every
        # hop round: (t1, t256) crosses blocks, and one pair per lower
        # block (its first and last leaf) takes its label there.  The
        # next 360 pairs add rows but no block, round or label block.
        # No fill of this 511-node tree reaches the IN (...) chunk size.
        repo.store_tree(balanced(8), name="bal", f=4)
        rng = random.Random(3)
        leaves = [f"t{i}" for i in range(1, 257)]
        base = [("t1", "t256")] + [
            (f"t{16 * k + 1}", f"t{16 * k + 16}") for k in range(16)
        ]
        base += [tuple(rng.sample(leaves, 2)) for _ in range(40 - len(base))]
        more = base + [tuple(rng.sample(leaves, 2)) for _ in range(360)]
        counts = []
        for pairs in (base, more):
            handle = repo.open("bal")
            with store.db.count_statements() as counter:
                handle.lca_batch(pairs)
            counts.append(counter.count)
        assert len(base) == 40 and len(more) == 400
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("shape", ["yule", "caterpillar"])
    def test_cold_projection_within_the_layer_budget(self, sanitized, shape):
        f = 4
        tree = (
            yule_tree(1000, rng=np.random.default_rng(2))
            if shape == "yule"
            else caterpillar(300)
        )
        rounds, blocks = _longest_chains(tree, f)
        leaves = [leaf.name for leaf in tree.root.leaves()]
        pairs = 15
        # Names and canonical inodes, a block and a rep fill per layer
        # below the top, a block and a source fill per hop round, a
        # label lookup per distinct block of each layer, result rows.
        budget = (
            2
            + 2 * (len(blocks) - 1)
            + 2 * rounds
            + sum(min(pairs, n) for n in blocks)
            + 1
        )
        with CrimsonStore.open() as store:
            store.load_tree(tree, name="gold", f=f)
            for seed in range(5):
                handle = store.trees.open("gold")
                sample = random.Random(seed).sample(leaves, pairs + 1)
                with statement_budget(budget):
                    project_stored(handle, sample)


def _preorder_rank(tree):
    return {id(node): rank for rank, node in enumerate(tree.preorder())}


class TestDifferentialProperty:
    @pytest.mark.parametrize("f", [1, 2, 3, 8])
    @pytest.mark.parametrize("seed", [3, 11])
    def test_all_strategies_agree_on_random_trees(
        self, store, f, seed, random_tree_factory
    ):
        tree = random_tree_factory(70, seed=seed)
        rank = _preorder_rank(tree)
        handle = store.trees.store_tree(tree, name=f"r{f}-{seed}", f=f)
        naive = LcaService(tree, "naive")
        dewey = LcaService(tree, "dewey")
        layered = LcaService(tree, "layered", f=f)

        nodes = list(tree.preorder())
        pairs = [
            (nodes[i % len(nodes)], nodes[(i * 7 + 3) % len(nodes)])
            for i in range(25)
        ]
        batch = handle.lca_batch(
            [(rank[id(a)], rank[id(b)]) for a, b in pairs]
        )
        for (a, b), batch_row in zip(pairs, batch):
            expected = naive_lca(a, b)
            assert naive.lca(a, b) is expected
            assert dewey.lca(a, b) is expected
            assert layered.lca(a, b) is expected
            stored_row = handle.lca(rank[id(a)], rank[id(b)])
            assert stored_row.node_id == rank[id(expected)]
            assert batch_row.node_id == rank[id(expected)]

    def test_figure1_tree_all_strategies(self, store):
        tree = sample_tree()
        rank = _preorder_rank(tree)
        handle = store.trees.store_tree(tree, name="fig1", f=2)
        dewey = LcaService(tree, "dewey")
        layered = LcaService(tree, "layered", f=2)
        leaves = list(tree.root.leaves())
        for a in leaves:
            for b in leaves:
                expected = naive_lca(a, b)
                assert dewey.lca(a, b) is expected
                assert layered.lca(a, b) is expected
                assert handle.lca(rank[id(a)], rank[id(b)]).node_id == rank[
                    id(expected)
                ]


class TestBatchedProjection:
    def test_projection_unchanged_by_batching(self, store, random_tree_factory):
        from repro.benchmark.metrics import robinson_foulds
        from repro.core.projection import project_tree

        tree = random_tree_factory(80, seed=5)
        handle = store.trees.store_tree(tree, name="proj", f=3)
        names = [leaf.name for leaf in tree.root.leaves()][::2]
        via_sql = project_stored(handle, names)
        in_memory = project_tree(tree, names)
        assert sorted(via_sql.leaf_names()) == sorted(in_memory.leaf_names())
        assert robinson_foulds(via_sql, in_memory) == 0

    def test_warm_projection_executes_zero_sql(self, store, stored):
        names = ["Lla", "Spy", "Bha", "Syn"]
        project_stored(stored, names)
        with store.db.count_statements() as counter:
            project_stored(stored, names)
        assert counter.count == 0


class TestQueryPlans:
    """Tree-scoped lookups search their index, never the whole tree.

    Without planner statistics SQLite prefers the primary key's
    ``tree_id`` prefix — a walk over every row of the tree — to a
    secondary index, so each lookup pins its index with ``INDEXED BY``.
    The plans are read on a store holding two trees, where the
    ``tree_id`` prefix alone does not narrow the rows.
    """

    def test_every_lookup_plan_narrows_below_the_tree(self, sanitized):
        with CrimsonStore.open() as store:
            store.load_tree(caterpillar(60), name="first", f=4)
            store.load_tree(caterpillar(80), name="second", f=4)
            handle = store.open_tree("second", cache_size=4096)
            with record_statements() as recorded:
                handle.node_by_name("t7")
                handle.nodes_by_name(["t1", "t2", "t3"])
                handle.children(1)
                handle.engine.canonical_inode(5)
                handle.engine.canonical_inodes_many([6, 7, 8])
                scan_tree(handle)
            assert len(recorded) == 6
            plans = {}
            for _, sql in recorded:
                rows = store.db.connection.execute(
                    "EXPLAIN QUERY PLAN " + sql, (1,) * sql.count("?")
                ).fetchall()
                plans[sql] = " | ".join(row[3] for row in rows)
        for sql, plan in plans.items():
            assert "(tree_id=?)" not in plan, (sql, plan)
        used = " ".join(plans.values())
        assert "USING INDEX idx_nodes_name (tree_id=? AND" in used
        canonical = [
            plan
            for sql, plan in plans.items()
            if sql.startswith("SELECT * FROM inodes WHERE")
        ]
        assert canonical == [
            "SEARCH inodes USING PRIMARY KEY (tree_id=? AND inode_id=?)"
        ] * 2
        children = [plan for sql, plan in plans.items() if "parent_id = ?" in sql]
        assert children == [
            "SEARCH nodes USING PRIMARY KEY "
            "(tree_id=? AND node_id>? AND node_id<?)"
        ]
        assert "PRIMARY KEY (tree_id=? AND node_id>? AND node_id<?)" in used

    def test_time_frontier_probes_each_parent_by_primary_key(self, sanitized):
        """The frontier join walks the tree's rows in pre-order and finds
        each parent by primary key.  A root-distance index made it a
        range-by-range nested loop plus a sort: quadratic in the tree."""
        with CrimsonStore.open() as store:
            store.load_tree(caterpillar(60), name="first", f=4)
            store.load_tree(caterpillar(80), name="second", f=4)
            handle = store.open_tree("second")
            with record_statements() as recorded:
                handle.time_frontier(1.5)
            joins = [sql for _, sql in recorded if " JOIN " in sql]
            assert len(joins) == 1
            plan = " | ".join(
                row[3]
                for row in store.db.connection.execute(
                    "EXPLAIN QUERY PLAN " + joins[0], (1,) * joins[0].count("?")
                )
            )
        assert "idx_nodes_dist" not in plan, plan
        assert "TEMP B-TREE" not in plan, plan
        assert "SEARCH parent USING PRIMARY KEY (tree_id=? AND node_id=?)" in plan

    def test_batch_walk_plans_narrow_below_the_tree(self, sanitized):
        with CrimsonStore.open() as store:
            store.load_tree(caterpillar(60), name="first", f=4)
            store.load_tree(caterpillar(80), name="second", f=4)
            handle = store.open_tree("second", cache_size=4096)
            with record_statements() as recorded:
                handle.lca_batch([("t1", "t80"), ("t40", "t41"), ("t2", "t70")])
            plans = {}
            for _, sql in recorded:
                rows = store.db.connection.execute(
                    "EXPLAIN QUERY PLAN " + sql, (1,) * sql.count("?")
                ).fetchall()
                plans[sql] = " | ".join(row[3] for row in rows)
        for sql, plan in plans.items():
            assert "(tree_id=?)" not in plan, (sql, plan)
        labels = [plan for sql, plan in plans.items() if "local_label IN" in sql]
        assert labels
        for plan in labels:
            assert (
                "USING INDEX idx_inodes_label "
                "(tree_id=? AND block_id=? AND local_label=?)" in plan
            ), plan
