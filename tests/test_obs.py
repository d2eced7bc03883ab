"""Observability subsystem tests: registry, spans, the stats surface.

The guarantees from ISSUE 9, checked here rather than inferred:

* enabling metrics must not change what executes — a warm ``lca`` /
  ``consensus`` under :func:`statement_budget(0)` still runs zero SQL;
* recording a histogram sample allocates nothing (the bucket list is
  fixed at construction and never replaced);
* a disabled registry hands out shared null instruments;
* the ``stats`` verb answers with the same counter names and histogram
  shapes from a :class:`LocalSession` and over a live server, with the
  server stamping ``server_ms`` so the client can separate wire
  overhead from server work.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ProtocolError, QueryError
from repro.obs import (
    MetricsRegistry,
    SlowQueryLog,
    Span,
    activate,
    current_span,
    render_prometheus,
    render_table,
)
from repro.obs.metrics import (
    HISTOGRAM_BUCKETS,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    LatencyHistogram,
)
from repro.server import CrimsonServer, RemoteSession
from repro.storage import wire
from repro.storage.api import (
    AnalyticsRequest,
    QueryRequest,
    StatsRequest,
    StatsSnapshot,
)
from repro.storage.sanitize import statement_budget
from repro.storage.store import CrimsonStore
from repro.trees.build import sample_tree

HISTOGRAM_KEYS = {"count", "p50_ms", "p95_ms", "p99_ms", "mean_ms", "max_ms"}


class TestInstruments:
    def test_counter_and_gauge(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        assert registry.counter("c") is counter
        gauge = registry.gauge("g")
        gauge.inc()
        gauge.inc()
        gauge.dec()
        assert gauge.value == 1.0
        gauge.set(7.5)
        assert gauge.value == 7.5

    def test_histogram_quantile_is_clamped_bucket_upper_bound(self):
        histogram = LatencyHistogram("h")
        histogram.record(0.001)  # 1000 µs → bucket upper bound 1024 µs
        figures = histogram.as_dict()
        # The readout is clamped to the observed max (1.0 ms), so a
        # single sample reads back exactly.
        assert figures["count"] == 1
        assert figures["p50_ms"] == figures["p99_ms"] == 1.0
        assert figures["max_ms"] == 1.0
        assert set(figures) == HISTOGRAM_KEYS

    def test_histogram_quantiles_rank_across_buckets(self):
        histogram = LatencyHistogram("h")
        for _ in range(98):
            histogram.record(0.001)  # ~1 ms
        for _ in range(2):
            histogram.record(0.1)  # ~100 ms
        figures = histogram.as_dict()
        assert figures["p50_ms"] <= 2.0  # within the 2x bucket error
        assert figures["p99_ms"] >= 50.0
        assert figures["max_ms"] == 100.0

    def test_histogram_recording_is_allocation_free_and_bounded(self):
        histogram = LatencyHistogram("h")
        buckets = histogram._counts
        assert len(buckets) == HISTOGRAM_BUCKETS
        # Nothing — not zeros, not negatives, not a week in seconds —
        # may grow or replace the bucket list.
        for seconds in (0.0, -3.0, 1e-9, 1e-6, 0.5, 604800.0, 1e9):
            histogram.record(seconds)
        assert histogram._counts is buckets
        assert len(buckets) == HISTOGRAM_BUCKETS
        assert histogram.count == 7
        assert sum(buckets) == 7
        # The absurdly large samples clamp into the last bucket.
        assert buckets[HISTOGRAM_BUCKETS - 1] == 2

    def test_disabled_registry_hands_out_shared_null_instruments(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("c")
        gauge = registry.gauge("g")
        histogram = registry.histogram("h")
        assert counter is NULL_COUNTER
        assert gauge is NULL_GAUGE
        assert histogram is NULL_HISTOGRAM
        counter.inc(100)
        gauge.set(9.0)
        gauge.inc()
        histogram.record(1.0)
        assert counter.value == 0
        assert gauge.value == 0.0
        assert histogram.count == 0
        assert registry.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }

    def test_registry_snapshot_is_sorted_and_plain(self):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.counter("a").inc(2)
        registry.histogram("z").record(0.002)
        snapshot = registry.snapshot()
        assert list(snapshot["counters"]) == ["a", "b"]
        assert snapshot["counters"] == {"a": 2, "b": 1}
        assert set(snapshot["histograms"]["z"]) == HISTOGRAM_KEYS
        # JSON-plain end to end (the wire and the renderers rely on it).
        json.dumps(snapshot)


class TestSpans:
    def test_phases_accumulate_per_label(self):
        span = Span("query", detail="lca gold")
        with span.phase("engine"):
            pass
        with span.phase("engine"):
            pass
        with span.phase("write"):
            pass
        assert set(span.phases) == {"engine", "write"}
        duration = span.finish()
        assert duration >= 0.0
        entry = span.as_dict()
        assert entry["verb"] == "query"
        assert entry["outcome"] == "ok"
        assert entry["error_kind"] is None

    def test_activation_is_scoped_and_restores_the_previous_span(self):
        assert current_span() is None
        outer, inner = Span("a"), Span("b")
        with activate(outer):
            assert current_span() is outer
            with activate(inner):
                assert current_span() is inner
            assert current_span() is outer
        assert current_span() is None

    def test_fail_marks_the_outcome(self):
        span = Span("query")
        span.fail("QueryError")
        span.annotate("operation", "lca")
        span.finish()
        entry = span.as_dict()
        assert entry["outcome"] == "error"
        assert entry["error_kind"] == "QueryError"
        assert entry["annotations"] == {"operation": "lca"}


class TestSlowQueryLog:
    @staticmethod
    def _finished_span(verb: str, duration_ms: float) -> Span:
        span = Span(verb)
        span.finish()
        span.duration_ms = duration_ms
        return span

    def test_threshold_filters_and_ring_retains_newest(self):
        log = SlowQueryLog(capacity=2, threshold_ms=10.0)
        assert not log.observe(self._finished_span("fast", 1.0))
        assert not log.observe(Span("unfinished"))  # never finished
        for index in range(3):
            assert log.observe(self._finished_span(f"slow{index}", 50.0))
        assert log.recorded == 3
        entries = log.entries()
        assert [entry["verb"] for entry in entries] == ["slow1", "slow2"]


class TestWarmPathStaysFree:
    def test_warm_query_and_analyze_execute_zero_sql_with_metrics(
        self, sanitized
    ):
        with CrimsonStore.open() as store:
            assert store.metrics.enabled
            store.trees.store_tree(sample_tree(), name="a", f=2)
            store.trees.store_tree(sample_tree(), name="b", f=2)
            lca = QueryRequest.lca("a", "Lla", "Syn")
            consensus = AnalyticsRequest.consensus("a", "b")
            store.query(lca)  # warm the handles' row caches
            store.analyze(consensus)
            with statement_budget(0) as budget:
                result = store.query(lca)
                outcome = store.analyze(consensus)
            assert budget.spent == 0
            assert result.node is not None
            assert outcome.consensus is not None
            # And the instrumentation saw all four requests.
            snapshot = store.metrics.snapshot()
            assert snapshot["counters"]["store.query.requests"] == 2
            assert snapshot["counters"]["store.analyze.requests"] == 2
            assert snapshot["histograms"]["store.query.lca"]["count"] == 2
            assert (
                snapshot["histograms"]["store.analyze.consensus"]["count"]
                == 2
            )


class TestStoreStats:
    def test_sections_narrow_the_snapshot(self):
        with CrimsonStore.open() as store:
            store.trees.store_tree(sample_tree(), f=2)
            store.query(QueryRequest.lca("fig1-sample", "Lla", "Syn"))
            narrow = store.stats(StatsRequest(sections=("admission",)))
            assert narrow.counters == {}
            assert narrow.histograms == {}
            assert narrow.caches == {}
            assert narrow.admission["admitted"] == 1
            full = store.stats()
            assert full.counters["store.query.requests"] == 1
            assert full.caches["handles"] >= 1
            assert "total" in full.caches
            assert "writer_statements" in full.pool
            assert full.service["transport"] == "local"

    def test_unknown_section_raises_a_typed_query_error(self):
        with pytest.raises(QueryError, match="bogus"):
            StatsRequest(sections=("bogus",))

    def test_error_requests_count_errors(self):
        with CrimsonStore.open() as store:
            store.trees.store_tree(sample_tree(), f=2)
            with pytest.raises(QueryError):
                store.query(
                    QueryRequest.lca("fig1-sample", "Lla", "no-such-taxon")
                )
            snapshot = store.stats()
            assert snapshot.counters["store.query.errors"] == 1


class TestStatsWire:
    def test_snapshot_roundtrips_through_json(self):
        with CrimsonStore.open() as store:
            store.trees.store_tree(sample_tree(), f=2)
            store.query(QueryRequest.lca("fig1-sample", "Lla", "Syn"))
            snapshot = store.stats()
        payload = json.loads(
            json.dumps(wire.encode_result(snapshot, StatsSnapshot))
        )
        decoded = wire.decode_result(payload, StatsSnapshot)
        assert isinstance(decoded, StatsSnapshot)
        assert decoded.counters == dict(snapshot.counters)
        assert decoded.histograms == {
            name: dict(figures)
            for name, figures in snapshot.histograms.items()
        }
        assert decoded.service == dict(snapshot.service)

    def test_request_roundtrip_and_validation(self):
        encoded = wire.encode_request(
            StatsRequest(sections=("metrics", "pool")), StatsRequest
        )
        decoded = wire.decode_request(
            json.loads(json.dumps(encoded)), StatsRequest
        )
        assert decoded.sections == ("metrics", "pool")
        with pytest.raises(ProtocolError):
            wire.decode_request(
                {"protocol": wire.PROTOCOL_VERSION, "sections": "metrics"},
                StatsRequest,
            )

    def test_malformed_snapshot_payload_raises_protocol_error(self):
        with pytest.raises(ProtocolError, match="stats"):
            wire.decode_result(
                {"protocol": wire.PROTOCOL_VERSION}, StatsSnapshot
            )


class TestRenderers:
    def _snapshot(self) -> dict:
        with CrimsonStore.open() as store:
            store.trees.store_tree(sample_tree(), f=2)
            store.query(QueryRequest.lca("fig1-sample", "Lla", "Syn"))
            return store.stats().as_dict()

    def test_prometheus_exposition_shape(self):
        text = render_prometheus(self._snapshot())
        assert "# TYPE crimson_store_query_requests counter" in text
        assert "crimson_store_query_requests 1" in text
        assert "# TYPE crimson_store_query_lca summary" in text
        assert 'crimson_store_query_lca{quantile="0.5"}' in text
        assert "crimson_store_query_lca_count 1" in text
        assert "# TYPE crimson_admission_admitted gauge" in text

    def test_table_renders_every_populated_section(self):
        text = render_table(self._snapshot())
        assert "service:" in text
        assert "store.query.requests" in text
        assert "p95_ms" in text
        assert "admission.admitted" in text

    def test_empty_snapshot_renders_placeholders(self):
        assert render_table({}) == "no metrics recorded\n"
        assert render_prometheus({}) == ""


class TestServerDifferential:
    def test_local_and_remote_snapshots_share_names_and_shapes(
        self, tmp_path
    ):
        path = str(tmp_path / "obs.db")
        with CrimsonStore.open(path, readers=2) as store:
            store.trees.store_tree(sample_tree(), f=2)
            with CrimsonServer(store, port=0) as server:
                host, port = server.address
                with RemoteSession(host, port) as session:
                    session.query(
                        QueryRequest.lca("fig1-sample", "Lla", "Syn")
                    )
                    remote = session.stats()
                    local = store.session().stats()
        # One registry feeds both transports, so every name the remote
        # snapshot carries must appear locally with the same shape.
        assert set(remote.counters) <= set(local.counters)
        assert set(remote.histograms) <= set(local.histograms)
        for name in (
            "store.query.requests",
            "server.requests",
            "server.bytes_in",
            "server.bytes_out",
        ):
            assert name in remote.counters
            assert name in local.counters
        assert "server.latency.query" in remote.histograms
        for figures in remote.histograms.values():
            assert set(figures) == HISTOGRAM_KEYS
        assert "server.inflight" in remote.gauges
        assert remote.service["transport"] == "tcp"
        assert local.service["transport"] == "local"
        assert remote.admission["admitted"] == local.admission["admitted"]

    def test_server_ms_stamp_separates_wire_overhead(self, tmp_path):
        path = str(tmp_path / "wirems.db")
        with CrimsonStore.open(path) as store:
            store.trees.store_tree(sample_tree(), f=2)
            with CrimsonServer(store, port=0) as server:
                host, port = server.address
                with RemoteSession(host, port) as session:
                    assert session.last_round_trip_ms is None
                    assert session.last_wire_overhead_ms is None
                    session.query(
                        QueryRequest.lca("fig1-sample", "Lla", "Syn")
                    )
                    assert session.last_round_trip_ms is not None
                    assert session.last_server_ms is not None
                    overhead = session.last_wire_overhead_ms
                    assert overhead is not None and overhead >= 0.0
                    assert session.last_server_ms <= (
                        session.last_round_trip_ms + 1e-6
                    )

    def test_access_log_writes_one_json_line_per_request(self, tmp_path):
        path = str(tmp_path / "logged.db")
        log_path = tmp_path / "access.log"
        with CrimsonStore.open(path) as store:
            store.trees.store_tree(sample_tree(), f=2)
            server = CrimsonServer(store, port=0, access_log=str(log_path))
            with server:
                host, port = server.address
                with RemoteSession(host, port) as session:
                    session.query(
                        QueryRequest.lca("fig1-sample", "Lla", "Syn")
                    )
                    with pytest.raises(QueryError):
                        session.query(
                            QueryRequest.lca("fig1-sample", "Lla", "nope")
                        )
                    session.ping()
        lines = [
            json.loads(line)
            for line in log_path.read_text().splitlines()
            if line
        ]
        assert [entry["verb"] for entry in lines] == [
            "query", "query", "ping"
        ]
        ok, failed, pinged = lines
        assert ok["outcome"] == "ok" and ok["duration_ms"] > 0.0
        assert ok["session_key"].startswith("127.0.0.1:")
        assert "engine" in ok["phases"] and "write" in ok["phases"]
        assert ok["annotations"]["operation"] == "lca"
        assert failed["outcome"] == "error"
        assert failed["error_kind"] == "QueryError"
        assert pinged["verb"] == "ping"

    def test_error_kinds_are_counted_by_name(self, tmp_path):
        path = str(tmp_path / "errs.db")
        with CrimsonStore.open(path) as store:
            store.trees.store_tree(sample_tree(), f=2)
            with CrimsonServer(store, port=0) as server:
                host, port = server.address
                with RemoteSession(host, port) as session:
                    with pytest.raises(QueryError):
                        session.query(
                            QueryRequest.lca("fig1-sample", "Lla", "nope")
                        )
                    snapshot = session.stats()
        assert snapshot.counters["server.errors.QueryError"] == 1
