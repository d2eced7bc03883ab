"""Tests of the `CrimsonStore` façade, reader pool, and typed queries.

Covers the session-API redesign: one store handle owning the writer
connection and a pool of read-only WAL readers, the typed
``QueryRequest``/``QueryResult`` surface, the threaded stress contract
(no ``database is locked``, per-thread results equal to single-threaded
ground truth), and the deprecation shims that keep raw-database
construction alive.
"""

from __future__ import annotations

import threading
import warnings

import pytest

from repro.errors import CrimsonError, QueryError, StorageError
from repro.storage.api import QueryRequest, QueryResult
from repro.storage.cache import LRUCache
from repro.storage.database import CrimsonDatabase
from repro.storage.loader import DataLoader
from repro.storage.pool import ReaderPool
from repro.storage.query_repository import QueryRepository
from repro.storage.species_repository import SpeciesRepository
from repro.storage.store import CrimsonStore
from repro.storage.tree_repository import TreeRepository
from repro.trees.build import caterpillar, sample_tree
from repro.trees.newick import write_newick


@pytest.fixture
def store_path(tmp_path):
    return str(tmp_path / "store.db")


@pytest.fixture
def pooled_store(store_path):
    """A file-backed store with readers, seeded with two trees."""
    with CrimsonStore.open(store_path, readers=4) as store:
        store.load_tree(sample_tree(), name="fig1")
        store.load_tree(caterpillar(60), name="deep")
        yield store


class TestCrimsonStoreBasics:
    def test_open_close_context_manager(self, store_path):
        with CrimsonStore.open(store_path, readers=2) as store:
            assert not store.is_closed
            assert store.pool is not None and store.pool.size == 2
        assert store.is_closed
        assert store.pool.is_closed

    def test_memory_store_has_no_pool(self):
        with CrimsonStore.open(readers=4) as store:
            assert store.pool is None
            store.load_tree(sample_tree(), name="fig1")
            result = store.query(QueryRequest.lca("fig1", "Lla", "Syn"))
            direct = store.open_tree("fig1").lca("Lla", "Syn")
            assert result.node.node_id == direct.node_id

    def test_negative_readers_rejected(self, store_path):
        with pytest.raises(StorageError):
            CrimsonStore.open(store_path, readers=-1)

    def test_namespaces_share_one_writer(self, pooled_store):
        assert pooled_store.trees.db is pooled_store.db
        assert pooled_store.species.db is pooled_store.db
        assert pooled_store.history.db is pooled_store.db
        # The loader reuses the store's repositories, not private copies.
        assert pooled_store.loader.trees is pooled_store.trees
        assert pooled_store.loader.species is pooled_store.species

    def test_load_and_catalogue_roundtrip(self, pooled_store):
        names = [info.name for info in pooled_store.trees.list_trees()]
        assert names == ["deep", "fig1"]

    def test_open_tree_is_cached_per_thread(self, pooled_store):
        first = pooled_store.open_tree("fig1")
        assert pooled_store.open_tree("fig1") is first

    def test_open_tree_explicit_cache_size_is_fresh(self, pooled_store):
        cached = pooled_store.open_tree("fig1")
        fresh = pooled_store.open_tree("fig1", cache_size=16)
        assert fresh is not cached
        assert fresh.engine.cache_size == 16

    def test_open_tree_uses_pooled_reader(self, pooled_store):
        handle = pooled_store.open_tree("fig1")
        assert handle.db is not pooled_store.db
        assert handle.db.read_only

    def test_unknown_tree_raises_storage_error(self, pooled_store):
        with pytest.raises(StorageError):
            pooled_store.open_tree("ghost")

    def test_delete_and_restore_invalidates_cached_handles(self, store_path):
        """Regression: a re-stored name must not serve the old tree."""
        with CrimsonStore.open(store_path, readers=2) as store:
            store.load_newick_text("((a:1,b:1):1,c:2);", name="gold")
            before = store.query(QueryRequest.lca("gold", "a", "b")).node
            assert before.depth == 1  # LCA(a, b) is the inner node
            store.trees.delete_tree("gold")
            store.load_newick_text("(a:1,(b:1,c:1):1);", name="gold")
            after = store.query(QueryRequest.lca("gold", "a", "b")).node
            assert after.depth == 0  # in the new topology it is the root
            assert after.node_id == 0

    def test_verify_all_and_one(self, pooled_store):
        reports = pooled_store.verify()
        assert len(reports) == 2 and all(r.ok for r in reports)
        assert pooled_store.verify("fig1")[0].ok

    def test_loader_report_callback(self, store_path):
        messages = []
        with CrimsonStore.open(store_path, report=messages.append) as store:
            store.load_newick_text("(a:1,b:2);", name="tiny")
        assert any("tiny" in message for message in messages)

    def test_repr(self, pooled_store):
        text = repr(pooled_store)
        assert "readers=4" in text and "open" in text


class TestQueryRequestValidation:
    def test_unknown_operation(self):
        with pytest.raises(QueryError):
            QueryRequest(operation="frontier", tree="t", taxa=("a",))

    def test_missing_tree_name(self):
        with pytest.raises(QueryError):
            QueryRequest(operation="lca", tree="", taxa=("a", "b"))

    def test_lca_needs_taxa(self):
        with pytest.raises(QueryError):
            QueryRequest.lca("t")

    def test_batch_needs_pairs(self):
        with pytest.raises(QueryError):
            QueryRequest.lca_batch("t", [])

    def test_project_rejects_node_ids(self):
        with pytest.raises(QueryError):
            QueryRequest.project("t", 3)  # type: ignore[arg-type]

    def test_match_needs_pattern(self):
        with pytest.raises(QueryError):
            QueryRequest(operation="match", tree="t")

    def test_sequences_normalized_to_tuples(self):
        request = QueryRequest.lca_batch("t", [["a", "b"]])
        assert request.pairs == (("a", "b"),)

    def test_triple_in_pairs_is_query_error(self):
        # Regression: shape problems escaped as ValueError before.
        with pytest.raises(QueryError, match="exactly two taxa"):
            QueryRequest.lca_batch("t", [("a", "b", "c")])

    def test_bare_int_in_pairs_is_query_error(self):
        # Regression: a non-sequence pair escaped as TypeError before.
        with pytest.raises(QueryError, match="must be two taxa"):
            QueryRequest.lca_batch("t", [7])  # type: ignore[list-item]

    def test_string_pair_is_query_error(self):
        # "ab" is length-2 and iterable, but is one taxon, not a pair.
        with pytest.raises(QueryError, match="must be two taxa"):
            QueryRequest.lca_batch("t", ["ab"])  # type: ignore[list-item]

    def test_non_iterable_pairs_is_query_error(self):
        with pytest.raises(QueryError, match="pairs must be a sequence"):
            QueryRequest(operation="lca_batch", tree="t", pairs=3)

    def test_bool_taxon_is_query_error(self):
        # bool is an int subclass; "node True" is never intended.
        with pytest.raises(QueryError, match="species name or pre-order"):
            QueryRequest.lca("t", True, "b")  # type: ignore[arg-type]

    def test_non_taxon_in_pair_is_query_error(self):
        with pytest.raises(QueryError, match="species name or pre-order"):
            QueryRequest.lca_batch("t", [("a", 1.5)])  # type: ignore[list-item]

    def test_empty_lca_summary_is_query_error(self):
        # Regression: summary() indexed nodes[0] and raised IndexError
        # on an empty result; the .node accessor reports it properly.
        result = QueryResult(
            request=QueryRequest.lca("t", "a", "b"), duration_ms=0.0
        )
        with pytest.raises(QueryError, match="0 rows"):
            result.summary()

    def test_params_round_trip(self):
        assert QueryRequest.lca("t", "a", "b").params() == {"taxa": ["a", "b"]}
        assert QueryRequest.match("t", "(a,b);").params() == {
            "pattern": "(a,b);",
            "ordered": True,
        }
        assert QueryRequest.lca_batch("t", [("a", "b")]).params() == {
            "pairs": [["a", "b"]]
        }


class TestTypedQuerySurface:
    def test_lca_matches_handle(self, pooled_store):
        direct = pooled_store.open_tree("fig1").lca("Lla", "Syn")
        result = pooled_store.query(QueryRequest.lca("fig1", "Lla", "Syn"))
        assert result.node.node_id == direct.node_id
        assert result.duration_ms >= 0.0

    def test_lca_batch(self, pooled_store):
        pairs = [("t1", "t60"), ("t5", "t6")]
        expected = pooled_store.open_tree("deep").lca_batch(pairs)
        result = pooled_store.query(QueryRequest.lca_batch("deep", pairs))
        assert [row.node_id for row in result.nodes] == [
            row.node_id for row in expected
        ]
        assert result.summary() == "2 pairs"

    def test_clade(self, pooled_store):
        result = pooled_store.query(QueryRequest.clade("fig1", "Lla", "Syn"))
        names = {row.name for row in result.nodes if row.is_leaf}
        assert {"Lla", "Syn"} <= names

    def test_project_equals_stored_projection(self, pooled_store):
        from repro.storage.projection import project_stored

        expected = project_stored(
            pooled_store.open_tree("deep"), ["t1", "t10", "t20"]
        )
        result = pooled_store.query(
            QueryRequest.project("deep", "t1", "t10", "t20")
        )
        assert write_newick(result.projection) == write_newick(expected)

    def test_match(self, pooled_store):
        result = pooled_store.query(
            QueryRequest.match("fig1", "(Lla,Syn);", ordered=False)
        )
        assert result.matched is not None
        assert result.similarity is not None
        assert result.projection is not None

    def test_node_accessor_rejects_multi_row_results(self, pooled_store):
        result = pooled_store.query(QueryRequest.clade("fig1", "Lla", "Syn"))
        with pytest.raises(QueryError):
            result.node

    def test_record_writes_history(self, pooled_store):
        pooled_store.query(QueryRequest.lca("fig1", "Lla", "Syn"), record=True)
        [entry] = pooled_store.history.recent(limit=1)
        assert entry.operation == "lca"
        assert entry.params == {"taxa": ["Lla", "Syn"]}
        assert entry.duration_ms is not None

    def test_unrecorded_by_default(self, pooled_store):
        before = len(pooled_store.history.recent(limit=100))
        pooled_store.query(QueryRequest.lca("fig1", "Lla", "Syn"))
        assert len(pooled_store.history.recent(limit=100)) == before

    def test_unknown_taxon_is_query_error(self, pooled_store):
        with pytest.raises(QueryError):
            pooled_store.query(QueryRequest.lca("fig1", "Lla", "nope"))


class TestReaderPool:
    def test_size_must_be_positive(self, store_path):
        CrimsonDatabase(store_path).close()
        with pytest.raises(StorageError):
            ReaderPool(store_path, 0)

    def test_memory_rejected(self):
        with pytest.raises(StorageError):
            ReaderPool(":memory:")

    def test_checkout_is_thread_sticky(self, pooled_store):
        pool = pooled_store.pool
        assert pool.checkout() is pool.checkout()

    def test_readers_open_lazily(self, store_path):
        CrimsonDatabase(store_path).close()
        with ReaderPool(store_path, 3) as pool:
            assert pool.open_readers == 0
            pool.checkout()
            assert pool.open_readers == 1

    def test_threads_get_distinct_readers_up_to_size(self, pooled_store):
        seen = []

        def grab():
            seen.append(id(pooled_store.pool.checkout()))

        threads = [threading.Thread(target=grab) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(set(seen)) == 4

    def test_checkout_after_close_raises(self, store_path):
        CrimsonDatabase(store_path).close()
        pool = ReaderPool(store_path, 1)
        pool.checkout()
        pool.close()
        with pytest.raises(StorageError):
            pool.checkout()

    def test_readers_are_read_only(self, pooled_store):
        reader = pooled_store.pool.checkout()
        assert reader.read_only
        with pytest.raises(StorageError):
            with reader.transaction():
                pass
        with pytest.raises(StorageError):
            reader.execute("INSERT INTO meta VALUES ('x', 'y')")

    def test_missing_file_raises_storage_error(self, tmp_path):
        pool = ReaderPool(str(tmp_path / "absent.db"), 1)
        with pytest.raises(StorageError):
            pool.checkout()


class TestConcurrentReaders:
    """The acceptance stress test: mixed query traffic across threads."""

    N_THREADS = 6

    def _workload(self, store):
        """Run the mixed workload; returns a comparable result signature."""
        lca_ids = [
            store.query(QueryRequest.lca("gold", f"L{i}", f"L{i + 37}")).node.node_id
            for i in range(1, 20)
        ]
        batch = store.query(
            QueryRequest.lca_batch(
                "gold", [(f"L{i}", f"L{200 - i}") for i in range(1, 40)]
            )
        )
        batch_ids = [row.node_id for row in batch.nodes]
        leaves = store.open_tree("gold").leaf_names()
        projection = store.query(
            QueryRequest.project("gold", *leaves[::7])
        )
        return lca_ids, batch_ids, write_newick(projection.projection)

    def test_threaded_results_match_ground_truth(
        self, store_path, random_tree_factory
    ):
        tree = random_tree_factory(240, seed=77)
        with CrimsonStore.open(store_path, readers=4) as store:
            store.load_tree(tree, name="gold")
            expected = self._workload(store)  # single-threaded ground truth

            errors: list[BaseException] = []
            outcomes: list = []

            def run():
                try:
                    outcomes.append(self._workload(store))
                except BaseException as error:  # noqa: BLE001 - recorded
                    errors.append(error)

            threads = [
                threading.Thread(target=run) for _ in range(self.N_THREADS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            assert not errors, f"threaded queries failed: {errors!r}"
            assert all(outcome == expected for outcome in outcomes)
            assert "locked" not in "".join(repr(error) for error in errors)

    def test_readers_run_beside_the_loader(
        self, store_path, random_tree_factory
    ):
        """WAL property: loads on the writer never block pooled readers."""
        with CrimsonStore.open(store_path, readers=3) as store:
            store.load_tree(random_tree_factory(150, seed=5), name="gold")
            expected = [
                store.query(QueryRequest.lca("gold", f"L{i}", f"L{i + 50}")).node.node_id
                for i in range(1, 30)
            ]
            errors: list[BaseException] = []
            results: list = []
            stop = threading.Event()

            def reader():
                while not stop.is_set():
                    try:
                        got = [
                            store.query(
                                QueryRequest.lca("gold", f"L{i}", f"L{i + 50}")
                            ).node.node_id
                            for i in range(1, 30)
                        ]
                        results.append(got)
                    except BaseException as error:  # noqa: BLE001
                        errors.append(error)
                        return

            threads = [threading.Thread(target=reader) for _ in range(3)]
            for thread in threads:
                thread.start()
            # The writer keeps loading new trees while readers query.
            for round_ in range(5):
                store.load_tree(
                    random_tree_factory(80, seed=round_), name=f"extra{round_}"
                )
            stop.set()
            for thread in threads:
                thread.join()

            assert not errors, f"reader failed during writes: {errors!r}"
            assert results and all(got == expected for got in results)


class TestShardedStore:
    """Multi-database sharding hidden behind the store façade."""

    def _load_set(self, store):
        store.load_tree(sample_tree(), name="fig1")
        store.load_tree(caterpillar(40), name="deep")
        for index in range(4):
            store.load_newick_text(
                "((a:1,b:1):1,(c:1,d:2):1);", name=f"quad{index}"
            )

    def test_trees_distribute_over_all_shards(self, store_path):
        with CrimsonStore.open(store_path, readers=2, shards=4) as store:
            self._load_set(store)
            shards_used = {info.shard for info in store.trees.list_trees()}
            assert shards_used == {0, 1, 2, 3}

    def test_shard_files_created_beside_primary(self, tmp_path):
        path = tmp_path / "catalogue.db"
        with CrimsonStore.open(path, shards=3) as store:
            self._load_set(store)
        assert (tmp_path / "catalogue.shard1.db").exists()
        assert (tmp_path / "catalogue.shard2.db").exists()

    def test_placement_picks_emptiest_shard(self, store_path):
        with CrimsonStore.open(store_path, shards=2) as store:
            store.load_tree(caterpillar(60), name="big")
            store.load_newick_text("(a:1,b:1);", name="small")
            # The big tree landed first (shard 0); the small one must
            # avoid it, and the next one balances by node count.
            by_name = {i.name: i.shard for i in store.trees.list_trees()}
            assert by_name["big"] == 0
            assert by_name["small"] == 1
            store.load_newick_text("(x:1,y:1);", name="tiny")
            tiny = store.trees.info("tiny")
            assert tiny.shard == 1  # shard 1 still holds fewer nodes

    def test_sharded_queries_equal_single_file(self, tmp_path):
        requests = [
            QueryRequest.lca("deep", "t3", "t31"),
            QueryRequest.lca_batch("deep", [("t1", "t40"), ("t7", "t8")]),
            QueryRequest.clade("fig1", "Lla", "Syn"),
            QueryRequest.project("deep", "t2", "t11", "t29"),
            QueryRequest.match("fig1", "(Lla,Syn);", ordered=False),
        ]

        def signature(store):
            rows = []
            for request in requests:
                result = store.query(request)
                rows.append(
                    (
                        [row.node_id for row in result.nodes],
                        write_newick(result.projection)
                        if result.projection is not None
                        else None,
                        result.matched,
                    )
                )
            return rows

        with CrimsonStore.open(tmp_path / "one.db", readers=2) as store:
            self._load_set(store)
            expected = signature(store)
        with CrimsonStore.open(
            tmp_path / "many.db", readers=2, shards=3
        ) as store:
            self._load_set(store)
            assert {i.shard for i in store.trees.list_trees()} == {0, 1, 2}
            assert signature(store) == expected

    def test_open_tree_binds_to_shard_reader(self, store_path):
        with CrimsonStore.open(store_path, readers=2, shards=2) as store:
            self._load_set(store)
            info = next(
                i for i in store.trees.list_trees() if i.shard == 1
            )
            handle = store.open_tree(info.name)
            assert handle.db.read_only
            assert "shard1" in handle.db.path

    def test_reopen_without_shards_restores_layout(self, store_path):
        with CrimsonStore.open(store_path, shards=3) as store:
            self._load_set(store)
            names = {i.name for i in store.trees.list_trees()}
        with CrimsonStore.open(store_path) as store:
            assert store.shards == 3
            assert {i.name for i in store.trees.list_trees()} == names
            result = store.query(QueryRequest.lca("deep", "t1", "t9"))
            assert result.node.node_id == store.open_tree("deep").lca(
                "t1", "t9"
            ).node_id

    def test_growing_shard_count_is_allowed(self, store_path):
        with CrimsonStore.open(store_path, shards=2) as store:
            self._load_set(store)
        with CrimsonStore.open(store_path, shards=4) as store:
            assert store.shards == 4
            store.load_newick_text("(p:1,q:1);", name="extra")
            assert store.query(QueryRequest.lca("fig1", "Lla", "Syn")).node
        with CrimsonStore.open(store_path) as store:
            assert store.shards == 4

    def test_shrinking_shard_count_is_refused(self, store_path):
        with CrimsonStore.open(store_path, shards=3) as store:
            self._load_set(store)
        with pytest.raises(StorageError, match="unreachable"):
            CrimsonStore.open(store_path, shards=2)

    def test_nonpositive_shards_rejected(self, store_path):
        with pytest.raises(StorageError):
            CrimsonStore.open(store_path, shards=0)

    def test_pre_sharding_file_migrates_in_place(self, store_path):
        """A schema-v1 file (no ``shard`` column) opens unchanged."""
        import sqlite3

        with CrimsonStore.open(store_path) as store:
            store.load_newick_text("((a:1,b:1):1,c:2);", name="old")
        connection = sqlite3.connect(store_path)
        connection.execute("ALTER TABLE trees DROP COLUMN shard")
        connection.execute("DELETE FROM meta WHERE key IN ('shards', 'next_tree_id')")
        connection.commit()
        connection.close()
        with CrimsonStore.open(store_path, readers=2) as store:
            assert store.shards == 1
            info = store.trees.info("old")
            assert info.shard == 0
            assert store.query(QueryRequest.lca("old", "a", "b")).node.depth == 1

    def test_delete_tree_purges_shard_rows(self, store_path):
        with CrimsonStore.open(store_path, shards=2) as store:
            self._load_set(store)
            victim = next(
                i for i in store.trees.list_trees() if i.shard == 1
            )
            data_db = store.shard_database(1)
            before = data_db.query_one(
                "SELECT COUNT(*) AS n FROM nodes WHERE tree_id = ?",
                (victim.tree_id,),
            )["n"]
            assert before > 0
            store.trees.delete_tree(victim.name)
            after = data_db.query_one(
                "SELECT COUNT(*) AS n FROM nodes WHERE tree_id = ?",
                (victim.tree_id,),
            )["n"]
            assert after == 0
            assert all(report.ok for report in store.verify())

    def test_parallel_loads_land_on_distinct_shards(self, store_path):
        errors: list[BaseException] = []
        with CrimsonStore.open(store_path, readers=2, shards=4) as store:

            def load(index: int) -> None:
                try:
                    store.load_tree(caterpillar(30), name=f"par{index}")
                except BaseException as error:  # noqa: BLE001 - recorded
                    errors.append(error)

            threads = [
                threading.Thread(target=load, args=(i,)) for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors, f"parallel loads failed: {errors!r}"
            infos = store.trees.list_trees()
            assert len(infos) == 8
            assert len({i.tree_id for i in infos}) == 8
            assert {i.shard for i in infos} == {0, 1, 2, 3}
            for info in infos:
                assert store.open_tree(info.name).lca("t1", "t30").node_id == 0

    def test_repr_mentions_shards(self, store_path):
        with CrimsonStore.open(store_path, shards=2) as store:
            assert "shards=2" in repr(store)

    def test_opening_a_shard_file_directly_is_refused(self, tmp_path):
        """A shard file must not silently grow a catalogue schema."""
        path = tmp_path / "cat.db"
        with CrimsonStore.open(path, shards=2) as store:
            self._load_set(store)
        shard_file = tmp_path / "cat.shard1.db"
        with pytest.raises(StorageError, match="shard file"):
            CrimsonStore.open(shard_file)
        with pytest.raises(StorageError, match="primary"):
            CrimsonDatabase(shard_file)
        # And the reverse: a primary cannot be adopted as a shard.
        with pytest.raises(StorageError, match="primary file"):
            CrimsonDatabase(path, shard_schema=True)

    def test_raw_database_path_respects_the_id_allocator(self, tmp_path):
        """Regression: on a file a sharded store has written, even the
        deprecated raw-database path must allocate ids through the
        ``meta`` counter — AUTOINCREMENT cannot know about ids a failed
        cross-file load burned, and re-issuing one would collide with
        orphaned shard rows."""
        path = tmp_path / "mixed.db"
        with CrimsonStore.open(path, shards=2) as store:
            store.load_newick_text("(a:1,b:1);", name="one")
            store.load_newick_text("(c:1,d:1);", name="two")
        with CrimsonDatabase(path) as raw:
            # Simulate the counter state after a crashed load burned ids.
            with raw.transaction() as connection:
                connection.execute(
                    "UPDATE meta SET value = '10' WHERE key = 'next_tree_id'"
                )
            with pytest.warns(DeprecationWarning):
                repo = TreeRepository(raw)
            handle = repo.store_tree(sample_tree(), name="legacy")
            assert handle.info.tree_id == 10


class TestStaleHandles:
    """The delete-then-query race: stale handles fail loudly (not with
    sqlite errors or misleading unknown-taxon messages)."""

    @pytest.mark.parametrize("shards", [1, 2])
    def test_stale_handle_raises_storage_error(self, tmp_path, shards):
        path = tmp_path / f"stale{shards}.db"
        with CrimsonStore.open(path, readers=2, shards=shards) as store:
            store.load_newick_text("((a:1,b:1):1,c:2);", name="gold")
            handle = store.open_tree("gold")
            assert handle.lca("a", "b").depth == 1
            store.trees.delete_tree("gold")
            # "c" was never fetched, so the lookup misses and the handle
            # must report the deleted tree, not an unknown taxon.
            with pytest.raises(StorageError, match="no longer stored"):
                handle.lca("a", "c")

    def test_stale_handle_race_under_concurrent_delete(self, store_path):
        """A reader thread querying while the tree is deleted sees only
        correct answers or the explicit stale-handle StorageError."""
        with CrimsonStore.open(store_path, readers=2, shards=2) as store:
            store.load_tree(caterpillar(60), name="gold")
            unexpected: list[BaseException] = []
            stale = threading.Event()
            started = threading.Event()

            def reader():
                handle = store.open_tree("gold")
                started.set()
                for i in range(1, 59):
                    try:
                        handle.lca(f"t{i}", f"t{i + 1}")
                    except StorageError:
                        stale.set()
                        return
                    except BaseException as error:  # noqa: BLE001
                        unexpected.append(error)
                        return

            thread = threading.Thread(target=reader)
            thread.start()
            started.wait()
            store.trees.delete_tree("gold")
            thread.join()
            assert not unexpected, f"wrong error type: {unexpected!r}"

    def test_query_after_delete_reports_unknown_tree(self, store_path):
        with CrimsonStore.open(store_path, readers=2) as store:
            store.load_newick_text("(a:1,b:1);", name="gone")
            store.query(QueryRequest.lca("gone", "a", "b"))
            store.trees.delete_tree("gone")
            # The store-level path re-resolves the catalogue (epoch
            # bump), so it reports the missing tree, never sqlite noise.
            with pytest.raises(StorageError, match="no tree named"):
                store.query(QueryRequest.lca("gone", "a", "b"))


class TestHandleRevalidation:
    """A delete revalidates cached handles tree by tree: a handle whose
    name still resolves to its ``tree_id`` survives with its caches."""

    @pytest.mark.parametrize("shards", [1, 2])
    def test_delete_keeps_other_trees_handles(self, tmp_path, shards):
        path = tmp_path / f"keep{shards}.db"
        with CrimsonStore.open(path, readers=2, shards=shards) as store:
            store.load_tree(caterpillar(30), name="a")
            store.load_tree(caterpillar(40), name="b")
            handle = store.open_tree("b")
            handle.scan_rows()
            assert handle.engine.scan_resident
            store.trees.delete_tree("a")
            assert store.open_tree("b") is handle
            assert handle.engine.scan_resident

    @pytest.mark.parametrize("shards", [1, 2])
    def test_restored_name_gets_a_fresh_handle(self, tmp_path, shards):
        path = tmp_path / f"restore{shards}.db"
        with CrimsonStore.open(path, readers=2, shards=shards) as store:
            store.load_newick_text("((a:1,b:1):1,c:2);", name="gold")
            old = store.open_tree("gold")
            assert old.lca("a", "b").depth == 1
            store.trees.delete_tree("gold")
            store.load_newick_text("(a:1,(b:1,c:1):1);", name="gold")
            new = store.open_tree("gold")
            assert new is not old
            assert new.info.tree_id != old.info.tree_id
            assert new.info.tree_id == store.trees.info("gold").tree_id
            assert new.lca("a", "b").node_id == 0
            assert store.open_tree("gold") is new


class TestDeprecationShims:
    def test_raw_database_construction_warns_but_works(self, db):
        with pytest.warns(DeprecationWarning):
            trees = TreeRepository(db)
        with pytest.warns(DeprecationWarning):
            species = SpeciesRepository(db)
        with pytest.warns(DeprecationWarning):
            history = QueryRepository(db)
        with pytest.warns(DeprecationWarning):
            loader = DataLoader(db)
        handle = loader.load_newick_text("(a:1,b:2);", name="tiny")
        assert trees.info("tiny").n_leaves == 2
        assert handle.lca("a", "b").node_id == 0
        history.record("lca", {"taxa": ["a", "b"]}, tree_name="tiny")
        assert species.count(handle) == 0

    def test_store_construction_does_not_warn(self, store_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with CrimsonStore.open(store_path, readers=2) as store:
                store.load_newick_text("(a:1,b:2);", name="tiny")
                store.query(QueryRequest.lca("tiny", "a", "b"), record=True)
                store.verify()

    def test_repository_rejects_nonsense_owner(self):
        with pytest.raises(StorageError):
            TreeRepository("not a database")


class TestErrorHierarchy:
    def test_cache_size_error_is_crimson_error(self):
        with pytest.raises(CrimsonError):
            LRUCache(0)

    def test_memory_cannot_be_read_only(self):
        with pytest.raises(StorageError):
            CrimsonDatabase(read_only=True)

    def test_query_result_is_frozen(self, pooled_store):
        result = pooled_store.query(QueryRequest.lca("fig1", "Lla", "Syn"))
        assert isinstance(result, QueryResult)
        with pytest.raises(AttributeError):
            result.duration_ms = 0.0  # type: ignore[misc]
