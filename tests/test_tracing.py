"""Tracing, time-series history, and health monitoring tests.

The guarantees from ISSUE 10, checked here rather than inferred:

* one trace id observably joins the client's ``last_trace``, the
  server's access-log line, and the slow-query-log entry for the same
  request over a real TCP round trip;
* the windowed history sampler derives rates from counter deltas in
  bounded rings, costs nothing when disabled, and never executes SQL —
  a warm ``lca`` / ``consensus`` under ``statement_budget(0)`` with
  tracing and sampling active still runs zero statements;
* the health evaluator maps windowed values onto declarative
  thresholds, prefers fresh windows over lifetime totals, and drain
  overrides everything;
* ``render_prometheus`` survives a strict text-format parser: legal
  names, exactly one ``# TYPE`` per metric, declared before samples;
* ``last_wire_overhead_ms`` clamps clock skew to zero and is populated
  on the error-reply path too.
"""

from __future__ import annotations

import io
import json
import re
import time

import pytest

from repro.cli.top import render_dashboard, run_top, sparkline

from repro.errors import ProtocolError, QueryError, ResourceError
from repro.obs import (
    MetricsRegistry,
    SlowQueryLog,
    Span,
    TimeSeries,
    evaluate_health,
    new_trace_id,
    render_health,
    render_prometheus,
)
from repro.obs.health import HealthThresholds
from repro.obs.timeseries import MAX_SERIES
from repro.server import CrimsonServer, RemoteSession, protocol
from repro.storage import wire
from repro.storage.api import (
    AnalyticsRequest,
    HealthReport,
    QueryRequest,
    StatsRequest,
    StatsSnapshot,
)
from repro.storage.sanitize import statement_budget
from repro.storage.store import CrimsonStore
from repro.trees.build import sample_tree


class TestTraceIds:
    def test_ids_are_hex_and_distinct(self):
        ids = {new_trace_id() for _ in range(64)}
        assert len(ids) == 64
        for trace_id in ids:
            assert re.fullmatch(r"[0-9a-f]{16}", trace_id)

    def test_trace_of_accepts_only_sane_strings(self):
        assert protocol.trace_of({"trace": "abc123"}) == "abc123"
        assert protocol.trace_of({}) is None
        assert protocol.trace_of({"trace": ""}) is None
        assert protocol.trace_of({"trace": 42}) is None
        assert protocol.trace_of({"trace": "x" * 65}) is None
        assert protocol.trace_of({"trace": "x" * 64}) == "x" * 64
        assert protocol.trace_of({"trace": "bad\nid"}) is None

    def test_request_envelope_carries_and_omits_the_trace(self):
        stamped = protocol.request_envelope("ping", None, trace="tid1")
        assert stamped["trace"] == "tid1"
        bare = protocol.request_envelope("ping", None)
        assert "trace" not in bare

    def test_slow_log_mints_ids_for_local_spans(self):
        log = SlowQueryLog(capacity=4, threshold_ms=0.0)
        span = Span("query")
        span.finish()
        assert span.trace_id is None
        assert log.observe(span)
        entry = log.entries()[0]
        assert re.fullmatch(r"[0-9a-f]{16}", entry["trace_id"])
        # A span that already carries a wire trace id keeps it.
        traced = Span("query", trace_id="feedfacefeedface")
        traced.finish()
        log.observe(traced)
        assert log.entries()[-1]["trace_id"] == "feedfacefeedface"


class TestTimeSeries:
    @staticmethod
    def _registry(requests: int = 0, errors: int = 0) -> MetricsRegistry:
        registry = MetricsRegistry()
        if requests:
            registry.counter("store.query.requests").inc(requests)
        if errors:
            registry.counter("store.query.errors").inc(errors)
        return registry

    def test_first_sample_only_establishes_the_baseline(self):
        series = TimeSeries(self._registry(10), windows=((1.0, 8),))
        series.sample(now=100.0)
        history = series.history()
        assert history["enabled"] is True
        assert history["windows"][0]["samples"] == 0

    def test_rates_derive_from_counter_deltas(self):
        registry = self._registry()
        series = TimeSeries(registry, windows=((1.0, 8),))
        series.sample(now=100.0)
        registry.counter("store.query.requests").inc(20)
        registry.counter("store.query.errors").inc(2)
        registry.counter("store.statements").inc(40)
        series.sample(now=102.0)  # 2s elapsed
        window = series.history()["windows"][0]
        assert window["samples"] == 1
        assert window["series"]["qps"] == [10.0]
        assert window["series"]["error_rate"] == [0.1]
        assert window["series"]["statements_per_s"] == [20.0]
        assert series.latest()["qps"] == 10.0

    def test_window_only_rolls_when_its_interval_elapsed(self):
        registry = self._registry()
        series = TimeSeries(registry, windows=((1.0, 8), (10.0, 8)))
        series.sample(now=0.0)
        registry.counter("store.query.requests").inc(5)
        series.sample(now=1.5)
        windows = {
            w["interval_s"]: w for w in series.history()["windows"]
        }
        assert windows[1.0]["samples"] == 1
        assert windows[10.0]["samples"] == 0  # interval not yet elapsed
        series.sample(now=11.0)
        windows = {
            w["interval_s"]: w for w in series.history()["windows"]
        }
        assert windows[10.0]["samples"] == 1

    def test_ring_is_bounded_and_oldest_first(self):
        registry = self._registry()
        series = TimeSeries(registry, windows=((1.0, 3),))
        series.sample(now=0.0)
        for tick in range(1, 6):
            registry.counter("store.query.requests").inc(tick)
            series.sample(now=float(tick))
        window = series.history()["windows"][0]
        assert window["slots"] == 3
        assert window["samples"] == 3  # capped, not 5
        # Oldest of the retained samples first: deltas 3, 4, 5.
        assert window["series"]["qps"] == [3.0, 4.0, 5.0]

    def test_per_verb_series_from_histogram_bucket_deltas(self):
        registry = MetricsRegistry()
        registry.counter("server.requests").inc()
        series = TimeSeries(registry, windows=((1.0, 8),))
        series.sample(now=0.0)
        registry.histogram("server.latency.query").record(0.002)
        registry.histogram("server.latency.query").record(0.002)
        registry.counter("server.requests").inc(2)
        series.sample(now=2.0)
        values = series.latest()
        assert values["qps.query"] == 1.0
        assert values["p99_ms.query"] > 0.0
        assert values["qps"] == 1.0

    def test_disabled_timeseries_records_nothing(self):
        registry = self._registry(5)
        series = TimeSeries(registry, windows=((1.0, 8),), enabled=False)
        series.sample(now=0.0)
        registry.counter("store.query.requests").inc(50)
        series.sample(now=10.0)
        history = series.history()
        assert history["enabled"] is False
        assert history["windows"][0]["samples"] == 0
        assert series.latest() == {}

    def test_series_count_is_capped(self):
        registry = MetricsRegistry()
        registry.counter("server.requests").inc()
        series = TimeSeries(registry, windows=((1.0, 4),))
        series.sample(now=0.0)
        for index in range(MAX_SERIES + 20):
            registry.histogram(f"server.latency.v{index}").record(0.001)
        series.sample(now=1.5)
        window = series.history()["windows"][0]
        assert len(window["series"]) <= MAX_SERIES


class TestHealthEvaluator:
    @staticmethod
    def _history(**latest: float) -> dict:
        return {
            "enabled": True,
            "windows": [{
                "interval_s": 1.0,
                "slots": 8,
                "samples": 1,
                "series": {name: [value] for name, value in latest.items()},
            }],
        }

    def test_quiet_store_is_ok(self):
        verdict = evaluate_health(
            history={"enabled": True, "windows": []},
            counters={},
            histograms={},
            admission={},
        )
        assert verdict["status"] == "ok"
        assert [c["name"] for c in verdict["checks"]] == [
            "error_rate", "p99_ms", "queue_depth", "inflight_fraction"
        ]
        assert all(c["status"] == "ok" for c in verdict["checks"])

    def test_windowed_error_rate_trips_degraded_then_unhealthy(self):
        for rate, expected in ((0.005, "ok"), (0.05, "degraded"),
                               (0.5, "unhealthy")):
            verdict = evaluate_health(
                history=self._history(error_rate=rate),
                counters={}, histograms={}, admission={},
            )
            assert verdict["status"] == expected, rate

    def test_windowed_values_beat_cumulative_totals(self):
        # Lifetime counters say 100% errors; the fresh window says the
        # incident is over.  Health must listen to the window.
        verdict = evaluate_health(
            history=self._history(error_rate=0.0),
            counters={
                "store.query.requests": 10, "store.query.errors": 10,
            },
            histograms={}, admission={},
        )
        assert verdict["status"] == "ok"

    def test_cumulative_fallback_before_any_window_rolls(self):
        verdict = evaluate_health(
            history={"enabled": True, "windows": []},
            counters={
                "store.query.requests": 10, "store.query.errors": 10,
            },
            histograms={}, admission={},
        )
        assert verdict["status"] == "unhealthy"

    def test_worst_check_wins(self):
        verdict = evaluate_health(
            history=self._history(**{
                "error_rate": 0.05,          # degraded
                "p99_ms.query": 5000.0,      # unhealthy
            }),
            counters={}, histograms={}, admission={},
        )
        assert verdict["status"] == "unhealthy"
        by_name = {c["name"]: c for c in verdict["checks"]}
        assert by_name["error_rate"]["status"] == "degraded"
        assert by_name["p99_ms"]["status"] == "unhealthy"

    def test_queue_depth_and_inflight_fraction(self):
        verdict = evaluate_health(
            history={"enabled": True, "windows": []},
            counters={}, histograms={},
            admission={"waiting": 20},
            inflight=9.0, capacity=10,
        )
        by_name = {c["name"]: c for c in verdict["checks"]}
        assert by_name["queue_depth"]["status"] == "unhealthy"
        assert by_name["inflight_fraction"]["status"] == "degraded"
        assert by_name["inflight_fraction"]["value"] == 0.9

    def test_draining_overrides_everything(self):
        verdict = evaluate_health(
            history={"enabled": True, "windows": []},
            counters={}, histograms={}, admission={},
            draining=True,
        )
        assert verdict["status"] == "draining"
        assert verdict["draining"] is True

    def test_custom_thresholds_are_honoured(self):
        strict = HealthThresholds(
            error_rate_degraded=0.001, error_rate_unhealthy=0.002
        )
        verdict = evaluate_health(
            history=self._history(error_rate=0.0015),
            counters={}, histograms={}, admission={},
            thresholds=strict,
        )
        assert verdict["status"] == "degraded"
        assert "error_rate_degraded" in strict.as_dict()


class TestHealthWire:
    def _report(self) -> HealthReport:
        with CrimsonStore.open() as store:
            return store.session().health()

    def test_report_roundtrips_through_json(self):
        report = self._report()
        payload = json.loads(
            json.dumps(wire.encode_result(report, HealthReport))
        )
        decoded = wire.decode_result(payload, HealthReport)
        assert decoded.status == report.status
        assert decoded.ok is report.ok
        assert decoded.draining is report.draining
        assert [dict(c) for c in decoded.checks] == [
            dict(c) for c in report.checks
        ]
        assert decoded.service == dict(report.service)

    def test_malformed_payload_raises_protocol_error(self):
        with pytest.raises(ProtocolError, match="health"):
            wire.decode_result(
                {"protocol": wire.PROTOCOL_VERSION}, HealthReport
            )

    def test_render_health_lists_every_check(self):
        text = render_health(self._report().as_dict())
        assert text.startswith("status: ok")
        for name in ("error_rate", "p99_ms", "queue_depth",
                     "inflight_fraction"):
            assert name in text


# Prometheus text-format (0.0.4) constraints: a metric name matches
# ``[a-zA-Z_:][a-zA-Z0-9_:]*``, carries at most one ``# TYPE`` line,
# and that line precedes every sample of the metric.
_METRIC_NAME = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE = re.compile(
    r"(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})? (?P<value>\S+)$"
)


def parse_prometheus_strict(text: str) -> dict:
    """Parse an exposition strictly; raise AssertionError on violations."""
    types: dict = {}
    samples: dict = {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(" ")
            assert parts[:2] == ["#", "TYPE"], f"unknown comment: {line!r}"
            assert len(parts) == 4, f"malformed TYPE line: {line!r}"
            _, _, name, kind = parts
            assert _METRIC_NAME.match(name), f"illegal name {name!r}"
            assert kind in ("counter", "gauge", "summary", "histogram")
            assert name not in types, f"duplicate TYPE for {name!r}"
            types[name] = kind
            continue
        match = _SAMPLE.match(line)
        assert match, f"malformed sample: {line!r}"
        name = match.group("name")
        base = name
        for suffix in ("_count", "_sum"):
            if name.endswith(suffix) and name[: -len(suffix)] in types:
                base = name[: -len(suffix)]
        assert base in types, f"sample {name!r} has no preceding TYPE"
        if base == name and types[base] != "summary":
            assert name not in samples or match.group("labels"), (
                f"duplicate unlabelled sample {name!r}"
            )
        float(match.group("value"))
        samples.setdefault(name, []).append(match.group("value"))
    return {"types": types, "samples": samples}


class TestPrometheusStrict:
    def test_live_snapshot_passes_the_strict_parser(self):
        with CrimsonStore.open() as store:
            store.trees.store_tree(sample_tree(), f=2)
            store.query(QueryRequest.lca("fig1-sample", "Lla", "Syn"))
            store.timeseries.sample(now=0.0)
            store.query(QueryRequest.clade("fig1-sample", "A"))
            store.timeseries.sample(now=2.0)
            snapshot = store.stats().as_dict()
        parsed = parse_prometheus_strict(render_prometheus(snapshot))
        assert parsed["types"]["crimson_store_query_requests"] == "counter"
        assert parsed["types"]["crimson_store_query_lca"] == "summary"
        assert "crimson_store_query_lca_count" in parsed["samples"]
        # History made it out as gauges, window label sanitized.
        history_gauges = [
            name for name, kind in parsed["types"].items()
            if name.startswith("crimson_history_") and kind == "gauge"
        ]
        assert any("qps" in name for name in history_gauges)

    def test_colliding_sanitized_names_emit_one_type_line(self):
        snapshot = {
            "counters": {"a.b": 1, "a_b": 2},
            "histograms": {"c": {"count": 1, "p50_ms": 1.0}},
            "caches": {"c_count": 9},
        }
        text = render_prometheus(snapshot)
        parse_prometheus_strict(text)
        assert text.count("# TYPE crimson_a_b ") == 1
        # The summary owns `crimson_c_count`; the cache gauge that
        # sanitizes onto it must not redeclare the name.
        assert "# TYPE crimson_c_count" not in text


class TestWireOverheadClamp:
    def test_clock_skew_clamps_to_zero(self):
        session = RemoteSession.__new__(RemoteSession)
        session.last_round_trip_ms = 1.0
        session.last_server_ms = 1.4  # server clock ahead of the client
        assert session.last_wire_overhead_ms == 0.0
        session.last_server_ms = 0.25
        assert session.last_wire_overhead_ms == 0.75
        session.last_server_ms = None
        assert session.last_wire_overhead_ms is None


def _wait_for(condition, timeout_s: float = 2.0):
    """Poll until ``condition()`` is truthy (the server writes its
    access-log and slow-log records *after* replying, so a client-side
    read can race the observer by a few microseconds)."""
    deadline = time.monotonic() + timeout_s
    while True:
        value = condition()
        if value or time.monotonic() >= deadline:
            return value
        time.sleep(0.005)


@pytest.fixture
def traced_server(tmp_path):
    """A live server with a threshold-0 slow log and an access log."""
    path = str(tmp_path / "traced.db")
    log_path = tmp_path / "access.log"
    with CrimsonStore.open(path) as store:
        store.trees.store_tree(sample_tree(), f=2)
        store.slow_log = SlowQueryLog(threshold_ms=0.0)
        server = CrimsonServer(store, port=0, access_log=str(log_path))
        with server:
            host, port = server.address
            yield store, host, port, log_path


class TestTraceDifferential:
    def test_one_trace_id_joins_client_access_log_and_slow_log(
        self, traced_server
    ):
        store, host, port, log_path = traced_server
        with RemoteSession(host, port) as session:
            assert session.last_trace_id is None
            session.query(QueryRequest.lca("fig1-sample", "Lla", "Syn"))
            trace_id = session.last_trace_id
            trace = session.last_trace
        assert trace_id is not None
        assert trace["trace_id"] == trace_id
        assert trace["verb"] == "query"
        assert trace["outcome"] == "ok"
        assert set(trace["phases"]) == {"write", "read"}
        assert trace["wire_overhead_ms"] >= 0.0
        # The slow log (threshold 0) retained the same id...
        slow_ids = _wait_for(lambda: [
            entry["trace_id"] for entry in store.slow_log.entries()
        ])
        assert trace_id in slow_ids
        # ...and so did the access-log line for the query.
        access = _wait_for(lambda: [
            json.loads(line)
            for line in log_path.read_text().splitlines() if line
        ])
        query_lines = [e for e in access if e["verb"] == "query"]
        assert [e["trace_id"] for e in query_lines] == [trace_id]

    def test_error_replies_carry_the_trace_and_overhead(
        self, traced_server
    ):
        _, host, port, log_path = traced_server
        with RemoteSession(host, port) as session:
            with pytest.raises(QueryError):
                session.query(
                    QueryRequest.lca("fig1-sample", "Lla", "no-such")
                )
            trace_id = session.last_trace_id
            trace = session.last_trace
            overhead = session.last_wire_overhead_ms
        # The failed round trip still populated the whole decomposition.
        assert trace_id is not None
        assert trace["outcome"] == "error"
        assert trace["server_ms"] is not None
        assert overhead is not None and overhead >= 0.0
        access = _wait_for(lambda: [
            json.loads(line)
            for line in log_path.read_text().splitlines() if line
        ])
        failed = [e for e in access if e["outcome"] == "error"]
        assert [e["trace_id"] for e in failed] == [trace_id]

    def test_each_call_gets_a_fresh_trace_id(self, traced_server):
        _, host, port, _ = traced_server
        with RemoteSession(host, port) as session:
            session.ping()
            first = session.last_trace_id
            session.ping()
            second = session.last_trace_id
        assert first != second

    def test_stats_slow_queries_expose_trace_ids_remotely(
        self, traced_server
    ):
        _, host, port, _ = traced_server
        with RemoteSession(host, port) as session:
            session.query(QueryRequest.lca("fig1-sample", "Lla", "Syn"))
            trace_id = session.last_trace_id
            snapshot = session.stats(
                StatsRequest(sections=("slow_queries",))
            )
        assert trace_id in [
            entry.get("trace_id") for entry in snapshot.slow_queries
        ]


class TestHealthSurfaces:
    def test_local_session_health_is_ok_and_typed(self):
        with CrimsonStore.open() as store:
            report = store.session().health()
        assert isinstance(report, HealthReport)
        assert report.status == "ok" and report.ok
        assert report.service["transport"] == "local"
        assert [c["name"] for c in report.checks] == [
            "error_rate", "p99_ms", "queue_depth", "inflight_fraction"
        ]

    def test_remote_health_matches_local_shape(self, traced_server):
        store, host, port, _ = traced_server
        with RemoteSession(host, port) as session:
            remote = session.health()
        local = store.session().health()
        assert remote.service["transport"] == "tcp"
        assert [c["name"] for c in remote.checks] == [
            c["name"] for c in local.checks
        ]
        assert remote.ok

    def test_health_answers_during_drain_with_draining_status(
        self, tmp_path
    ):
        path = str(tmp_path / "drain.db")
        with CrimsonStore.open(path) as store:
            store.trees.store_tree(sample_tree(), f=2)
            with CrimsonServer(store, port=0) as server:
                host, port = server.address
                with RemoteSession(host, port) as session:
                    session.ping()
                    server.stop_accepting()
                    # Other verbs are refused while draining...
                    with pytest.raises(ResourceError):
                        session.ping()
                    # ...but health still answers, and says so.
                    report = session.health()
                    assert report.status == "draining"
                    assert report.draining and not report.ok

    def test_history_section_rides_the_stats_verb(self, traced_server):
        _, host, port, _ = traced_server
        with RemoteSession(host, port) as session:
            session.query(QueryRequest.lca("fig1-sample", "Lla", "Syn"))
            snapshot = session.stats(StatsRequest(sections=("history",)))
        assert snapshot.history["enabled"] is True
        shapes = {
            (w["interval_s"], w["slots"])
            for w in snapshot.history["windows"]
        }
        assert shapes == {(1.0, 120), (10.0, 360)}
        # Narrowed to history: the heavy sections stayed home.
        assert snapshot.counters == {}
        assert snapshot.histograms == {}

    def test_old_peer_snapshot_without_history_still_decodes(self):
        with CrimsonStore.open() as store:
            payload = wire.encode_result(store.stats(), StatsSnapshot)
        del payload["history"]
        decoded = wire.decode_result(
            json.loads(json.dumps(payload)), StatsSnapshot
        )
        assert decoded.history == {}


class TestTopDashboard:
    _SNAPSHOT = {
        "service": {"transport": "tcp", "trees": 3, "shards": 2},
        "caches": {"row": {"hits": 9, "misses": 1}},
        "slow_queries": [{
            "trace_id": "deadbeefdeadbeef", "verb": "query",
            "duration_ms": 12.5, "detail": "lca gold",
        }],
        "history": {
            "enabled": True,
            "windows": [{
                "interval_s": 1.0, "slots": 8, "samples": 3,
                "series": {
                    "qps": [1.0, 2.0, 4.0],
                    "error_rate": [0.0, 0.0, 0.5],
                    "qps.query": [1.0, 2.0, 4.0],
                    "p99_ms.query": [0.5, 0.7, 0.9],
                },
            }],
        },
    }

    def test_sparkline_scales_to_the_peak(self):
        assert sparkline([0.0, 0.0], width=8) == "▁▁"
        line = sparkline([1.0, 2.0, 4.0], width=8)
        assert len(line) == 3
        assert line[-1] == "█"
        assert line[0] < line[-1]
        assert sparkline([], width=8) == ""
        # Only the last `width` values are drawn.
        assert len(sparkline([1.0] * 50, width=8)) == 8

    def test_dashboard_is_deterministic_and_complete(self):
        frame = render_dashboard(self._SNAPSHOT, title="unit")
        assert frame == render_dashboard(self._SNAPSHOT, title="unit")
        assert "crimson top — unit — transport=tcp trees=3 shards=2" in frame
        assert "qps" in frame and "errors" in frame
        assert "query" in frame  # the per-verb row
        assert "row 90.0%" in frame  # cache hit rate
        assert "deadbeefdeadbeef" in frame  # slow query trace id

    def test_run_top_polls_and_honours_iterations(self):
        polls = []

        class FakeSnapshot:
            def as_dict(self):
                polls.append(1)
                return TestTopDashboard._SNAPSHOT

        out = io.StringIO()
        code = run_top(
            FakeSnapshot, title="t", interval=0.0, iterations=2, out=out
        )
        assert code == 0
        assert len(polls) == 2
        assert out.getvalue().count("crimson top — t") == 2

    def test_empty_snapshot_still_renders_a_header(self):
        frame = render_dashboard({}, title="empty")
        assert frame.startswith("crimson top — empty")


class TestWarmPathWithTracingStaysFree:
    def test_warm_queries_with_sampling_execute_zero_sql(self, sanitized):
        with CrimsonStore.open() as store:
            store.trees.store_tree(sample_tree(), name="a", f=2)
            store.trees.store_tree(sample_tree(), name="b", f=2)
            store.slow_log = SlowQueryLog(threshold_ms=0.0)
            lca = QueryRequest.lca("a", "Lla", "Syn")
            consensus = AnalyticsRequest.consensus("a", "b")
            store.query(lca)  # warm the handles' row caches
            store.analyze(consensus)
            store.timeseries.sample(now=0.0)
            with statement_budget(0) as budget:
                result = store.query(lca)
                outcome = store.analyze(consensus)
                store.timeseries.sample(now=2.0)
            assert budget.spent == 0
            assert result.node is not None
            assert outcome.consensus is not None
            # Sampling really happened: the window derived real rates.
            latest = store.timeseries.latest()
            assert latest["qps"] > 0.0
            # And the slow log traced the warm queries.
            assert all(
                entry["trace_id"] for entry in store.slow_log.entries()
            )
