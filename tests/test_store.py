"""Tests of the `CrimsonStore` façade, reader pool, and typed queries.

Covers the session-API redesign: one store handle owning the writer
connection and a pool of read-only WAL readers, the typed
``QueryRequest``/``QueryResult`` surface and the one request path
behind ``query`` and ``analyze``, the threaded stress contract
(no ``database is locked``, per-thread results equal to single-threaded
ground truth), sharded placement and the tree-id allocator, and that
the store is the only owner its repositories, loader and ``verify_*``
take.
"""

from __future__ import annotations

import sys
import threading
import warnings

import pytest

import repro.analytics
import repro.storage.projection
from repro.admission import AdmissionController, AdmissionLimits
from repro.analytics.bipartitions import scan_tree
from repro.errors import CrimsonError, QueryError, ResourceError, StorageError
from repro.obs import SlowQueryLog, Span, activate
from repro.storage import sql
from repro.storage.api import AnalyticsRequest, QueryRequest, QueryResult
from repro.storage.cache import LRUCache
from repro.storage.database import CrimsonDatabase
from repro.storage.pool import ReaderPool
from repro.storage.sanitize import record_statements, statement_budget
from repro.storage.store import CrimsonStore
from repro.storage.tree_repository import StoredTree
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

    def test_list_trees_is_one_statement(self, sanitized):
        """Regression: the catalogue listing ran one ``info`` lookup per
        tree after the name scan (1 + N statements)."""
        with CrimsonStore.open() as store:
            for index in range(5):
                store.load_newick_text("(a:1,b:1);", name=f"t{index}")
            with statement_budget(1):
                infos = store.list_trees()
            assert [info.name for info in infos] == [f"t{i}" for i in range(5)]
            assert infos == store.trees.list_trees()

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


def _requests():
    """One request of every query operation and two analytics ones, on
    the trees of the ``pooled_store`` fixture."""
    return [
        QueryRequest.lca("fig1", "Lla", "Syn"),
        QueryRequest.lca_batch("deep", [("t1", "t60"), ("t5", "t6")]),
        QueryRequest.clade("fig1", "Lla", "Syn"),
        QueryRequest.project("deep", "t1", "t10", "t20"),
        QueryRequest.match("fig1", "(Lla,Syn);", ordered=False),
        AnalyticsRequest.compare("fig1", "fig1"),
        AnalyticsRequest.consensus("deep", "deep"),
    ]


def _serve(store, request, **kwargs):
    if isinstance(request, QueryRequest):
        return store.query(request, **kwargs)
    return store.analyze(request, **kwargs)


def _verb(request):
    return "query" if isinstance(request, QueryRequest) else "analyze"


class TestRequestPath:
    """The one request path behind ``query`` and ``analyze``: what it
    times, counts, records and releases."""

    @pytest.mark.parametrize(
        "request_", _requests(), ids=lambda r: r.operation
    )
    def test_duration_is_the_store_owned_spans_engine_phase(
        self, pooled_store, request_
    ):
        pooled_store.slow_log = SlowQueryLog(threshold_ms=0.0)
        result = _serve(pooled_store, request_)
        [entry] = pooled_store.slow_log.entries()
        assert entry["verb"] == _verb(request_)
        assert entry["outcome"] == "ok"
        assert set(entry["phases"]) == {"admission", "engine"}
        assert entry["phases"]["engine"] == round(result.duration_ms, 4)
        assert entry["duration_ms"] >= result.duration_ms

    @pytest.mark.parametrize(
        "request_", _requests(), ids=lambda r: r.operation
    )
    def test_an_active_span_is_joined_and_left_running(
        self, pooled_store, request_
    ):
        pooled_store.slow_log = SlowQueryLog(threshold_ms=0.0)
        span = Span("server")
        with activate(span):
            result = _serve(pooled_store, request_)
        assert set(span.phases) == {"admission", "engine"}
        assert span.phases["engine"] == result.duration_ms
        assert span.annotations["operation"] == request_.operation
        assert span.duration_ms is None
        assert span.error_kind is None
        assert pooled_store.slow_log.entries() == []

    @pytest.mark.parametrize(
        "request_", _requests(), ids=lambda r: r.operation
    )
    def test_counts_the_request_and_its_statements(self, request_):
        with CrimsonStore.open() as store:
            store.load_tree(sample_tree(), name="fig1")
            store.load_tree(caterpillar(60), name="deep")
            store.open_tree("fig1")
            store.open_tree("deep").clear_cache()
            before = store.db.statements_executed
            _serve(store, request_)
            sent = store.db.statements_executed - before
            snapshot = store.metrics.snapshot()
        counters, histograms = snapshot["counters"], snapshot["histograms"]
        verb = _verb(request_)
        assert sent > 0
        assert counters["store.statements"] == sent
        assert counters[f"store.{verb}.requests"] == 1
        assert histograms[f"store.{verb}.{request_.operation}"]["count"] == 1
        assert f"store.{verb}.errors" not in counters
        assert [name for name in histograms if name.startswith("store.")] == [
            f"store.{verb}.{request_.operation}"
        ]

    @pytest.mark.parametrize(
        "request_", _requests(), ids=lambda r: r.operation
    )
    def test_record_writes_the_history_row(self, pooled_store, request_):
        result = _serve(pooled_store, request_, record=True)
        [entry] = pooled_store.history.recent(limit=1)
        assert entry.operation == request_.operation
        assert entry.params == request_.params()
        expected_tree = (
            request_.tree if isinstance(request_, QueryRequest) else None
        )
        assert entry.tree_name == expected_tree
        assert entry.duration_ms == pytest.approx(result.duration_ms)
        assert entry.result_summary == result.summary()

    @pytest.mark.parametrize(
        "request_",
        [
            QueryRequest.lca("fig1", "Lla", "nope"),
            AnalyticsRequest.compare("fig1", "deep"),
        ],
        ids=["query", "analyze"],
    )
    def test_an_engine_error_releases_the_slot(self, store_path, request_):
        limits = AdmissionLimits(max_concurrent=1)
        with CrimsonStore.open(store_path, limits=limits) as store:
            store.load_tree(sample_tree(), name="fig1")
            store.load_tree(caterpillar(60), name="deep")
            store.slow_log = SlowQueryLog(threshold_ms=0.0)
            for _ in range(2):
                with pytest.raises(QueryError):
                    _serve(store, request_)
                assert store.admission.snapshot()["active"] == 0
            verb = _verb(request_)
            counters = store.metrics.snapshot()["counters"]
            assert counters[f"store.{verb}.errors"] == 2
            assert f"store.{verb}.requests" not in counters
            entries = store.slow_log.entries()
            assert [e["error_kind"] for e in entries] == ["QueryError"] * 2
            assert all("engine" in e["phases"] for e in entries)

    def test_an_unknown_tree_counts_as_one_error_and_fails_the_span(
        self, pooled_store
    ):
        """Regression: the handle was resolved before the counted region,
        so this error reached no counter and no span."""
        pooled_store.slow_log = SlowQueryLog(threshold_ms=0.0)
        request = QueryRequest.lca("nope", "a", "b")
        with pytest.raises(StorageError, match="no tree named"):
            pooled_store.query(request)
        [entry] = pooled_store.slow_log.entries()
        assert entry["outcome"] == "error"
        assert entry["error_kind"] == "StorageError"
        span = Span("server")
        with activate(span):
            with pytest.raises(StorageError):
                pooled_store.query(request)
        assert span.error_kind == "StorageError"
        counters = pooled_store.metrics.snapshot()["counters"]
        assert counters["store.query.errors"] == 2
        with pytest.raises(StorageError):
            pooled_store.analyze(AnalyticsRequest.consensus("fig1", "nope"))
        counters = pooled_store.metrics.snapshot()["counters"]
        assert counters["store.analyze.errors"] == 1

    def test_an_admission_refusal_is_not_an_error(self, pooled_store):
        pooled_store.admission = AdmissionController(
            AdmissionLimits(max_cost=1e-9)
        )
        with pytest.raises(ResourceError):
            pooled_store.query(QueryRequest.lca("fig1", "Lla", "Syn"))
        with pytest.raises(ResourceError):
            pooled_store.analyze(AnalyticsRequest.consensus("fig1", "fig1"))
        counters = pooled_store.metrics.snapshot()["counters"]
        assert not any(name.endswith(".errors") for name in counters)
        assert pooled_store.admission.snapshot()["refused"] == {"cost": 2}


class TestTracerPatchPoints:
    """The end-to-end tracer (``benchmarks/e2e/tracer.py``) times the
    layers by replacing module and class attributes; the request path
    must look each of them up at call time, or its ledger rows go
    silent."""

    @staticmethod
    def _spy(monkeypatch, owner, attribute):
        calls = []
        original = getattr(owner, attribute)

        def spy(*args, **kwargs):
            calls.append(attribute)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attribute, spy)
        return calls

    @pytest.mark.parametrize(
        "owner, attribute, request_",
        [
            (StoredTree, "lca_many", QueryRequest.lca("fig1", "Lla", "Syn")),
            (
                StoredTree,
                "lca_batch",
                QueryRequest.lca_batch("deep", [("t1", "t2")]),
            ),
            (StoredTree, "clade", QueryRequest.clade("fig1", "Lla", "Syn")),
            (
                repro.storage.projection,
                "project_stored",
                QueryRequest.project("deep", "t1", "t10", "t20"),
            ),
            (
                repro.analytics,
                "stored_consensus",
                AnalyticsRequest.consensus("deep", "deep"),
            ),
            (
                repro.analytics,
                "compare_stored",
                AnalyticsRequest.compare("fig1", "fig1"),
            ),
            (
                AdmissionController,
                "admit",
                QueryRequest.lca("fig1", "Lla", "Syn"),
            ),
        ],
        ids=[
            "lca_many", "lca_batch", "clade", "project_stored",
            "stored_consensus", "compare_stored", "admit",
        ],
    )
    def test_a_patched_entry_point_is_called(
        self, pooled_store, monkeypatch, owner, attribute, request_
    ):
        calls = self._spy(monkeypatch, owner, attribute)
        _serve(pooled_store, request_)
        assert calls == [attribute]


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
            # Without a counter row, the allocator starts above every
            # catalogued id.
            existing = max(i.tree_id for i in store.trees.list_trees())
            store.load_newick_text("(d:1,e:1);", name="new")
            assert store.trees.info("new").tree_id > existing

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

    @pytest.mark.parametrize("shards", [1, 2])
    def test_loads_respect_the_id_allocator(self, tmp_path, shards):
        """Regression: every load allocates its id through the ``meta``
        counter, which never re-issues an id a failed cross-file load
        burned (re-issuing one would collide with orphaned shard rows).
        With one shard the load takes the primary-placement branch."""
        path = tmp_path / f"mixed{shards}.db"
        with CrimsonStore.open(path, shards=shards) as store:
            store.load_newick_text("(a:1,b:1);", name="one")
            store.load_newick_text("(c:1,d:1);", name="two")
            # Simulate the counter state after a crashed load burned ids.
            with store.db.transaction() as connection:
                connection.execute(
                    "UPDATE meta SET value = '10' WHERE key = 'next_tree_id'"
                )
            handle = store.trees.store_tree(sample_tree(), name="legacy")
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
            scan_tree(handle)
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

    def test_replacing_two_of_24_trees_rereads_only_their_names(
        self, sanitized
    ):
        """A delete stamps only its own name.  The store-wide epoch this
        replaced made all 24 handles read the catalogue again (24
        catalogue reads and 2 scans per consensus)."""
        names = [f"rep{k:02d}" for k in range(24)]
        with CrimsonStore.open() as store:
            for name in names:
                store.load_tree(caterpillar(16), name=name)
            consensus = AnalyticsRequest.consensus(*names)
            store.analyze(consensus)
            for name in names[:2]:
                store.trees.delete_tree(name)
                store.load_tree(caterpillar(16), name=name)
            with record_statements() as recorded:
                store.analyze(consensus)
            texts = [text for _, text in recorded]
            assert texts.count(sql.TREE_BY_NAME) == 2
            assert texts.count(sql.SCAN_COLUMNS) == 2
            assert len(texts) == 4

    def test_another_names_replacement_revalidates_no_handle(
        self, sanitized
    ):
        with CrimsonStore.open() as store:
            store.load_tree(caterpillar(20), name="a")
            handle = store.open_tree("a")
            store.load_tree(caterpillar(30), name="b")
            store.trees.delete_tree("b")
            store.load_tree(caterpillar(30), name="b")
            with statement_budget(0):
                assert store.open_tree("a") is handle

    def test_concurrent_replacements_leave_no_stale_handle(self, store_path):
        """Four threads replace their own name over and over while two
        readers query every name; afterwards each reader's cached handle
        on each name is the catalogue's current tree.  A delete whose
        stamp was lost would leave a reader on a deleted tree."""
        names = [f"slot{k}" for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with CrimsonStore.open(store_path, readers=2) as store:
                for name in names:
                    store.load_tree(caterpillar(12), name=name)
                done = threading.Event()
                problems: list[object] = []

                def replace(name):
                    try:
                        for _ in range(15):
                            store.trees.delete_tree(name)
                            store.load_tree(caterpillar(12), name=name)
                    except BaseException as error:  # noqa: BLE001
                        problems.append(error)

                def read():
                    try:
                        while not done.is_set():
                            for name in names:
                                try:
                                    store.query(
                                        QueryRequest.lca(name, "t1", "t2")
                                    )
                                except StorageError:
                                    pass  # deleted under us: expected
                        done.wait()
                        for name in names:
                            current = store.trees.info(name).tree_id
                            if store.open_tree(name).info.tree_id != current:
                                problems.append(name)
                    except BaseException as error:  # noqa: BLE001
                        problems.append(error)

                replacers = [
                    threading.Thread(target=replace, args=(name,))
                    for name in names
                ]
                readers = [threading.Thread(target=read) for _ in range(2)]
                for thread in replacers + readers:
                    thread.start()
                for thread in replacers:
                    thread.join(timeout=60)
                done.set()
                for thread in readers:
                    thread.join(timeout=60)
                threads = replacers + readers
                assert not any(thread.is_alive() for thread in threads)
                assert problems == []
        finally:
            sys.setswitchinterval(interval)


class TestDeprecationShims:
    def test_store_construction_does_not_warn(self, store_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with CrimsonStore.open(store_path, readers=2) as store:
                store.load_newick_text("(a:1,b:2);", name="tiny")
                store.query(QueryRequest.lca("tiny", "a", "b"), record=True)
                store.verify()


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
