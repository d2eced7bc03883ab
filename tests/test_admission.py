"""Admission control: estimation, quotas, backpressure, streaming.

The subsystem's contract has four load-bearing pieces, each covered
here: the estimator predicts cost from catalogue stats and live cache
state without executing SQL (warm handles estimate cheaper than cold
ones); the controller refuses over-budget, over-quota, and over-
concurrent work with typed :class:`ResourceError`\\ s that carry their
context across the wire; the ``estimate`` verb answers identically on
local and remote sessions; and ``crimson serve`` both streams
oversized results in chunks and drains gracefully on SIGINT/SIGTERM.
"""

from __future__ import annotations

import io
import json
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.admission import (
    BATCH_CHUNK,
    MAX_TRACKED_SESSIONS,
    AdmissionController,
    AdmissionLimits,
    CostEstimate,
    estimate_query,
)
from repro.errors import ProtocolError, ResourceError, StorageError
from repro.server import CrimsonServer, RemoteSession, protocol
from repro.simulation.birth_death import yule_tree
from repro.storage import engine, wire
from repro.storage.api import AnalyticsRequest, QueryRequest
from repro.storage.store import CrimsonStore
from repro.trees.build import balanced, caterpillar, sample_tree


@pytest.fixture
def store(tmp_path):
    path = str(tmp_path / "admission.db")
    with CrimsonStore.open(path, readers=2) as store:
        store.trees.store_tree(sample_tree(), f=2)
        store.load_tree(caterpillar(80), name="cat", f=8)
        yield store


@pytest.fixture
def served(store):
    with CrimsonServer(store, port=0) as server:
        host, port = server.address
        yield store, host, port


def _free_estimate(cost: float = 0.0) -> CostEstimate:
    return CostEstimate(
        operation="lca",
        trees=("cat",),
        statements=int(cost),
        rows=0,
        result_bytes=0,
        warm_fraction=0.0,
        cost=cost,
    )


# ----------------------------------------------------------------------
# Estimator
# ----------------------------------------------------------------------


class TestEstimator:
    def test_batch_chunk_mirrors_engine(self):
        # The estimator's batching model must track the engine's actual
        # IN (...) chunk size, or statement counts drift from reality.
        assert BATCH_CHUNK == engine._IN_CHUNK

    def test_warm_handle_estimates_cheaper_than_cold(self, store):
        request = QueryRequest.lca("cat", "t1", "t80")
        cold = store.estimate(request)
        store.query(request)
        warm = store.estimate(request)
        assert warm.cost < cold.cost
        assert warm.warm_fraction > cold.warm_fraction

    def test_estimation_executes_no_sql(self, store):
        handle = store.open_tree("cat")
        before = {
            name: (stats.hits, stats.misses)
            for name, stats in handle.cache_stats().items()
        }
        estimate_query(QueryRequest.lca("cat", "t1", "t80"), handle)
        after = {
            name: (stats.hits, stats.misses)
            for name, stats in handle.cache_stats().items()
        }
        # Membership-only residency probes: no hits, no misses, no LRU
        # perturbation from estimating.
        assert after == before

    def test_match_is_priced_and_run_as_a_project_of_its_leaves(
        self, store
    ):
        taxa = ("t3", "t40", "t17", "t80")
        match = QueryRequest.match("cat", "((t3,t40),(t17,t80));")
        project = QueryRequest.project("cat", *taxa)

        def priced(request):
            estimate = store.estimate(request)
            return estimate.statements, estimate.rows, estimate.warm_fraction

        cold = store.estimate(match)
        assert priced(match) == priced(project)

        handle = store.open_tree("cat")
        counts = []
        for request in (match, project):
            handle.clear_cache()
            with handle.db.count_statements() as counter:
                store.query(request)
            counts.append(counter.count)
        assert counts[0] == counts[1] > 0

        warm = store.estimate(match)
        assert warm.cost < cold.cost
        assert warm.warm_fraction > cold.warm_fraction

    def test_analytics_estimate_warms_after_scan(self, store):
        request = AnalyticsRequest.compare("cat", "cat")
        cold = store.estimate(request)
        store.analyze(request)
        warm = store.estimate(request)
        assert warm.cost < cold.cost

    def test_round_trip_and_malformed(self):
        estimate = _free_estimate(3.0)
        def from_dict(payload):
            return wire.decode_result(wire.stamp(payload), CostEstimate)

        assert from_dict(estimate.as_dict()) == estimate
        with pytest.raises(ProtocolError, match="malformed cost estimate"):
            from_dict({"operation": "lca"})
        with pytest.raises(ProtocolError, match="must be a list"):
            from_dict({**estimate.as_dict(), "trees": "not-a-list"})


def _soundness_tree(kind: str, random_tree_factory):
    if kind == "fig1":
        return sample_tree()
    if kind == "random":
        return random_tree_factory(150, seed=4)
    if kind == "yule":
        return yule_tree(300, rng=np.random.default_rng(6))
    return caterpillar(800)


def _pattern(leaves: list[str]) -> str:
    """A Newick pattern over ``leaves``: a caterpillar in list order."""
    newick = leaves[-1]
    for leaf in reversed(leaves[:-1]):
        newick = f"({leaf},{newick})"
    return f"{newick};"


def _soundness_requests(handle, rng: random.Random) -> list[QueryRequest]:
    """Every priced query operation, over random leaves and nodes."""
    name = handle.info.name
    leaves = handle.leaf_names()
    nodes = range(handle.info.n_nodes)
    return [
        QueryRequest.lca(name, leaves[0], leaves[-1]),
        QueryRequest.lca(name, *rng.sample(leaves, 2)),
        QueryRequest.clade(name, *rng.sample(leaves, 3)),
        QueryRequest.lca_batch(
            name,
            [tuple(rng.sample(leaves, 2)) for _ in range(30)]
            + [tuple(rng.sample(nodes, 2)) for _ in range(10)],
        ),
        QueryRequest.project(name, *rng.sample(leaves, min(16, len(leaves)))),
        QueryRequest.match(name, _pattern(rng.sample(leaves, min(16, len(leaves))))),
        QueryRequest.match(
            name,
            _pattern(rng.sample(leaves, min(16, len(leaves)))),
            ordered=False,
        ),
        # Larger sets: still priced as one pair walk.
        QueryRequest.clade(name, *rng.sample(leaves, min(12, len(leaves)))),
        QueryRequest.lca(
            name,
            *(rng.choice(leaves) if k % 2 else rng.choice(nodes) for k in range(12)),
        ),
    ]


class TestEstimatorSoundness:
    """The estimate is a worst-case bound: no request runs more
    statements than it was priced at, on cold, partly warm and warm
    handles."""

    @pytest.mark.parametrize("f", [2, 4, 8])
    @pytest.mark.parametrize("kind", ["fig1", "random", "yule", "caterpillar"])
    def test_statements_never_exceed_the_estimate(
        self, kind, f, random_tree_factory
    ):
        with CrimsonStore.open() as store:
            store.load_tree(
                _soundness_tree(kind, random_tree_factory), name=kind, f=f
            )
            handle = store.open_tree(kind)
            requests = _soundness_requests(handle, random.Random(f))
            overruns = []

            def run(request, state):
                estimate = store.estimate(request)
                with handle.db.count_statements() as counter:
                    store.query(request)
                if counter.count > estimate.statements:
                    overruns.append(
                        (state, request.operation, counter.count,
                         estimate.statements)
                    )

            for request in requests:
                handle.clear_cache()
                run(request, "cold")
            # One handle through the whole sequence: each request meets
            # the rows its predecessors left, then a second pass is warm.
            handle.clear_cache()
            for state in ("partly warm", "warm"):
                for request in requests:
                    run(request, state)
            assert overruns == []

    @pytest.mark.parametrize("f", [2, 4, 8])
    @pytest.mark.parametrize("kind", ["fig1", "random", "yule", "caterpillar"])
    def test_fresh_handle_on_a_warmed_skeleton(
        self, kind, f, random_tree_factory
    ):
        """A fresh handle's row caches are empty, but the tree's shared
        skeleton already holds what another handle's walks fetched —
        half of the requests' walks, then all of them."""
        with CrimsonStore.open() as store:
            store.load_tree(
                _soundness_tree(kind, random_tree_factory), name=kind, f=f
            )
            warmer = store.trees.open(kind)
            requests = _soundness_requests(warmer, random.Random(f))
            overruns = []
            for warmed in (requests[::2], requests):
                for request in warmed:
                    store._execute(warmer, request)
                for request in requests:
                    fresh = store.trees.open(kind)
                    assert fresh.engine.skeleton is warmer.engine.skeleton
                    estimate = estimate_query(request, fresh)
                    with fresh.db.count_statements() as counter:
                        store._execute(fresh, request)
                    if counter.count > estimate.statements:
                        overruns.append(
                            (len(warmed), request.operation, counter.count,
                             estimate.statements)
                        )
            assert overruns == []

    def test_skeleton_warm_in_one_half_prices_the_other_cold(self):
        """Walks confined to the left half of a balanced tree fill most
        of the skeleton but none of the right half's climb.  Discounting
        by the fraction of skeleton rows resident under-priced 12 of
        these 31 right-half walks (28 statements against 17); only a
        skeleton that holds the whole climb is discounted now."""
        with CrimsonStore.open() as store:
            store.load_tree(balanced(10), name="bal", f=2)
            warmer = store.trees.open("bal")
            leaves = warmer.leaf_names()
            half = len(leaves) // 2
            left, right = leaves[:half], leaves[half:]
            rng = random.Random(3)
            for _ in range(200):
                warmer.lca(*rng.sample(left, 2))
            skeleton = warmer.engine.skeleton
            info = warmer.info
            assert not skeleton.holds_climb(info.n_blocks, info.n_layers)

            def overruns(requests):
                found = []
                for request in requests:
                    fresh = store.trees.open("bal")
                    estimate = estimate_query(request, fresh)
                    with fresh.db.count_statements() as counter:
                        store._execute(fresh, request)
                    if counter.count > estimate.statements:
                        found.append((counter.count, estimate.statements))
                return found

            walks = [
                QueryRequest.lca("bal", *rng.sample(right, 2))
                for _ in range(31)
            ]
            assert overruns(walks) == []
            # Every node paired with a node of the other half climbs
            # every block below the top one.
            last = info.n_nodes - 1
            warmer.lca_batch(
                [(node, end) for node in range(last) for end in (1, last)]
            )
            assert skeleton.holds_climb(info.n_blocks, info.n_layers)
            assert overruns(walks) == []


# ----------------------------------------------------------------------
# Controller
# ----------------------------------------------------------------------


class TestController:
    def test_unlimited_admits_everything(self):
        controller = AdmissionController()
        with controller.admit(_free_estimate(1e9)):
            pass
        assert controller.snapshot()["admitted"] == 1

    def test_unlimited_count_stays_exact_across_threads(self):
        """The unlimited path counts without the condition; eight
        threads admitting at once, with snapshots read between, lose no
        admission."""
        controller = AdmissionController()
        estimate = _free_estimate(1.0)
        barrier = threading.Barrier(8)
        seen = []

        def run():
            barrier.wait(timeout=10)
            for i in range(1000):
                with controller.admit(estimate):
                    pass
                if i % 100 == 0:
                    seen.append(controller.snapshot()["admitted"])

        threads = [threading.Thread(target=run) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert controller.snapshot()["admitted"] == 8000
        assert controller.snapshot()["admitted"] == 8000
        assert all(0 < value <= 8000 for value in seen)
        assert controller.snapshot()["active"] == 0

    def test_cost_budget_refusal_carries_context(self):
        controller = AdmissionController(AdmissionLimits(max_cost=5.0))
        with pytest.raises(ResourceError) as excinfo:
            controller.admit(_free_estimate(6.0))
        error = excinfo.value
        assert error.resource == "cost"
        assert error.limit == 5.0
        assert error.estimate["cost"] == 6.0
        assert controller.snapshot()["refused"] == {"cost": 1}
        # Under budget still admits.
        controller.admit(_free_estimate(4.0)).release()

    def test_quota_bucket_drains_and_refills(self):
        clock = [0.0]
        controller = AdmissionController(
            AdmissionLimits(quota_rate=10.0, quota_burst=20.0),
            now=lambda: clock[0],
        )
        controller.admit(_free_estimate(15.0), key="abuser").release()
        with pytest.raises(ResourceError) as excinfo:
            controller.admit(_free_estimate(15.0), key="abuser")
        assert excinfo.value.resource == "quota"
        # Another session's bucket is untouched.
        controller.admit(_free_estimate(15.0), key="polite").release()
        # Refill at 10/s: one second buys the refused request back.
        clock[0] = 1.0
        controller.admit(_free_estimate(15.0), key="abuser").release()

    def test_concurrency_cap_refuses_and_releases(self):
        controller = AdmissionController(
            AdmissionLimits(max_concurrent=1, max_queue=0)
        )
        slot = controller.admit(_free_estimate())
        with pytest.raises(ResourceError) as excinfo:
            controller.admit(_free_estimate())
        assert excinfo.value.resource == "concurrency"
        slot.release()
        controller.admit(_free_estimate()).release()

    def test_refused_slot_refunds_quota(self):
        controller = AdmissionController(
            AdmissionLimits(
                quota_rate=10.0,
                quota_burst=20.0,
                max_concurrent=1,
                max_queue=0,
            ),
            now=lambda: 0.0,
        )
        slot = controller.admit(_free_estimate(1.0), key="victim")
        # Concurrency refuses this one; its 15 tokens must come back.
        with pytest.raises(ResourceError):
            controller.admit(_free_estimate(15.0), key="victim")
        slot.release()
        controller.admit(_free_estimate(15.0), key="victim").release()

    def test_bucket_count_is_bounded(self):
        controller = AdmissionController(
            AdmissionLimits(quota_rate=1e9), now=time.monotonic
        )
        for index in range(MAX_TRACKED_SESSIONS + 50):
            controller.admit(_free_estimate(0.0), key=index).release()
        assert controller.snapshot()["sessions"] <= MAX_TRACKED_SESSIONS


# ----------------------------------------------------------------------
# Store integration
# ----------------------------------------------------------------------


class TestStoreAdmission:
    def test_open_accepts_limits(self, tmp_path):
        path = str(tmp_path / "limited.db")
        with CrimsonStore.open(
            path, limits=AdmissionLimits(max_cost=0.001)
        ) as store:
            store.trees.store_tree(sample_tree(), f=2)
            with pytest.raises(ResourceError):
                store.query(QueryRequest.lca("fig1-sample", "Lla", "Spy"))

    def test_store_survives_refusals(self, store):
        store.admission = AdmissionController(
            AdmissionLimits(max_cost=0.001)
        )
        request = QueryRequest.lca("cat", "t1", "t80")
        with pytest.raises(ResourceError):
            store.query(request)
        # estimate is always free, and lifting the limit restores service.
        assert store.estimate(request).cost > 0.001
        store.admission = AdmissionController()
        assert store.query(request).node is not None

    def test_analytics_pass_through_admission(self, store):
        store.admission = AdmissionController(
            AdmissionLimits(max_cost=0.001)
        )
        with pytest.raises(ResourceError):
            store.analyze(AnalyticsRequest.compare("cat", "cat"))
        store.admission = AdmissionController()
        assert (
            store.analyze(AnalyticsRequest.compare("cat", "cat")).comparison
            is not None
        )

    def test_estimate_rejects_other_types(self, store):
        from repro.errors import QueryError

        with pytest.raises(QueryError):
            store.estimate("not a request")


# ----------------------------------------------------------------------
# Wire codec and the estimate verb
# ----------------------------------------------------------------------


class TestEstimateVerb:
    def test_estimate_request_codec_round_trip(self):
        query = QueryRequest.lca("cat", "t1", "t2")
        payload = wire.encode_request(query, wire.ESTIMATE_REQUEST)
        assert wire.decode_request(payload, wire.ESTIMATE_REQUEST) == query
        analytics = AnalyticsRequest.consensus("a", "b", threshold=0.6)
        payload = wire.encode_request(analytics, wire.ESTIMATE_REQUEST)
        assert (
            wire.decode_request(payload, wire.ESTIMATE_REQUEST) == analytics
        )

    def test_estimate_request_codec_rejects_unknown_kind(self):
        with pytest.raises(ProtocolError, match="kind"):
            wire.decode_request(
                wire.stamp({"kind": "mystery", "request": {}}),
                wire.ESTIMATE_REQUEST,
            )
        with pytest.raises(ProtocolError):
            wire.encode_request("not a request", wire.ESTIMATE_REQUEST)

    def test_local_and_remote_estimates_agree(self, served):
        store, host, port = served
        requests = [
            QueryRequest.lca("cat", "t1", "t80"),
            QueryRequest.clade("cat", "t1", "t5", "t9"),
            AnalyticsRequest.compare("cat", "cat"),
        ]
        with RemoteSession(host, port) as session:
            for request in requests:
                # Same store, same cache state: the wire round trip
                # must not change a single figure.
                assert (
                    session.estimate(request).as_dict()
                    == store.estimate(request).as_dict()
                )

    def test_resource_error_round_trips_with_estimate(self, served):
        store, host, port = served
        store.admission = AdmissionController(
            AdmissionLimits(max_cost=0.001)
        )
        try:
            with RemoteSession(host, port) as session:
                with pytest.raises(ResourceError) as excinfo:
                    session.query(QueryRequest.lca("cat", "t1", "t80"))
                error = excinfo.value
                assert error.resource == "cost"
                assert error.limit == 0.001
                assert error.estimate is not None
                assert error.estimate["operation"] == "lca"
                # The refusal did not tear down the connection.
                assert session.ping()["protocol"] == wire.PROTOCOL_VERSION
        finally:
            store.admission = AdmissionController()


# ----------------------------------------------------------------------
# Chunked response framing
# ----------------------------------------------------------------------


class TestChunkedFraming:
    def round_trip(self, envelope, monkeypatch, chunk_bytes=64):
        monkeypatch.setattr(protocol, "STREAM_CHUNK_BYTES", chunk_bytes)
        buffer = io.BytesIO()
        protocol.write_envelope(buffer, envelope, chunked=True)
        buffer.seek(0)
        return buffer

    def test_small_envelope_stays_single_frame(self, monkeypatch):
        envelope = protocol.response_envelope(1, {"tiny": True})
        buffer = self.round_trip(envelope, monkeypatch, chunk_bytes=4096)
        assert len(buffer.getvalue().splitlines()) == 1
        assert protocol.read_envelope(buffer) == envelope

    def test_large_envelope_chunks_and_reassembles(self, monkeypatch):
        envelope = protocol.response_envelope(
            7, {"rows": ["ünïcode-" + str(i) for i in range(64)]}
        )
        buffer = self.round_trip(envelope, monkeypatch)
        frames = buffer.getvalue().splitlines()
        assert len(frames) > 1
        for frame in frames:
            parsed = json.loads(frame)
            assert parsed["id"] == 7
            assert "chunk" in parsed
        buffer.seek(0)
        assert protocol.read_envelope(buffer) == envelope

    def test_every_chunk_frame_respects_the_frame_limit(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 700)
        envelope = protocol.response_envelope(
            7, {"rows": ["x" * 50 for _ in range(64)]}
        )
        buffer = io.BytesIO()
        protocol.write_envelope(buffer, envelope, chunked=True)
        for frame in buffer.getvalue().splitlines():
            assert len(frame) < 700
        buffer.seek(0)
        assert protocol.read_envelope(buffer) == envelope

    def test_out_of_order_chunk_is_protocol_error(self):
        buffer = io.BytesIO()
        protocol.write_frame(
            buffer,
            wire.stamp({"id": 1, "chunk": 1, "more": False, "data": "{}"}),
        )
        buffer.seek(0)
        with pytest.raises(ProtocolError, match="out of order"):
            protocol.read_envelope(buffer)

    def test_eof_mid_chunk_is_protocol_error(self):
        buffer = io.BytesIO()
        protocol.write_frame(
            buffer,
            wire.stamp({"id": 1, "chunk": 0, "more": True, "data": "{"}),
        )
        buffer.seek(0)
        with pytest.raises(ProtocolError, match="mid-chunk"):
            protocol.read_envelope(buffer)

    def test_oversize_stream_is_refused(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_STREAM_BYTES", 8)
        buffer = io.BytesIO()
        protocol.write_frame(
            buffer,
            wire.stamp(
                {"id": 1, "chunk": 0, "more": True, "data": "0123456789"}
            ),
        )
        buffer.seek(0)
        with pytest.raises(ProtocolError, match="refusing to buffer"):
            protocol.read_envelope(buffer)


# ----------------------------------------------------------------------
# TreeInfo satellite
# ----------------------------------------------------------------------


class TestTreeInfoCounts:
    def test_count_aliases_match_fields(self, store):
        info = store.describe("cat")
        assert info.node_count == info.n_nodes
        assert info.leaf_count == info.n_leaves
        assert info.leaf_count == 80

    def test_counts_survive_the_wire(self, served):
        store, host, port = served
        with RemoteSession(host, port) as session:
            local = store.describe("cat")
            remote = session.describe("cat")
            assert remote.node_count == local.node_count
            assert remote.leaf_count == local.leaf_count
            assert remote.shard == local.shard


# ----------------------------------------------------------------------
# Graceful shutdown
# ----------------------------------------------------------------------


class TestGracefulShutdown:
    def test_draining_server_refuses_with_typed_error(self, store):
        server = CrimsonServer(store, port=0)
        server.start()
        drain_host, drain_port = server.address
        session = RemoteSession(drain_host, drain_port)
        try:
            session.ping()
            server.stop_accepting()
            with pytest.raises(ResourceError) as excinfo:
                session.ping()
            assert excinfo.value.resource == "shutdown"
        finally:
            session.close()
            server.shutdown(drain=1.0)
        assert server.inflight == 0

    def test_stop_before_loop_starts_does_not_hang(self, store):
        # The signal-handler race: a stop that lands before
        # serve_forever runs must still win, and shutdown must not
        # block on a TCP loop that never started.
        server = CrimsonServer(store, port=0)
        server.stop_accepting()
        server.serve_forever()  # draining: returns immediately
        server.shutdown(drain=0.5)

    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT])
    def test_serve_cli_exits_cleanly_on_signal(self, tmp_path, signum):
        db = str(tmp_path / "serve.db")
        with CrimsonStore.open(db) as store:
            store.trees.store_tree(sample_tree(), f=2)
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [env.get("PYTHONPATH"), "src"])
        )
        process = subprocess.Popen(
            [
                sys.executable,
                "-c",
                "from repro.cli.main import main; import sys; "
                f"sys.exit(main(['--db', {db!r}, 'serve', "
                f"'--port', '{port}', '--drain-timeout', '2']))",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            banner = process.stdout.readline()
            assert "serving" in banner, banner
            process.send_signal(signum)
            output, _ = process.communicate(timeout=20)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate(timeout=10)
        assert process.returncode == 0, banner + output
        assert "Traceback" not in banner + output


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


class TestEstimateCli:
    def test_local_estimate_text_and_json(self, tmp_path, capsys):
        from repro.cli.main import main

        db = str(tmp_path / "cli.db")
        with CrimsonStore.open(db) as store:
            store.load_tree(caterpillar(40), name="cat", f=8)
        assert (
            main(["--db", db, "estimate", "lca", "cat",
                  "--taxa", "t1", "t40"])
            == 0
        )
        text = capsys.readouterr().out
        assert "lca over cat" in text and "cost" in text
        assert (
            main(["--db", db, "estimate", "consensus", "cat", "cat",
                  "--json"])
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["operation"] == "consensus"
        assert payload["cost"] > 0

    def test_match_estimate_prices_its_pattern_leaves(self, tmp_path, capsys):
        from repro.cli.main import main

        db = str(tmp_path / "cli.db")
        with CrimsonStore.open(db) as store:
            store.load_tree(caterpillar(40), name="cat", f=8)
        assert main(["--db", db, "estimate", "match", "cat"]) == 1
        assert "needs --pattern" in capsys.readouterr().err
        payloads = []
        for argv in (
            ["match", "cat", "--pattern", "(t1,(t7,t40));", "--unordered"],
            ["project", "cat", "--taxa", "t1", "t7", "t40"],
        ):
            assert main(["--db", db, "estimate", *argv, "--json"]) == 0
            payloads.append(json.loads(capsys.readouterr().out))
        match, project = payloads
        assert match["operation"] == "match"
        for key in ("statements", "rows", "warm_fraction", "cost"):
            assert match[key] == project[key]

    def test_query_estimate_needs_single_tree(self, tmp_path, capsys):
        from repro.cli.main import main

        db = str(tmp_path / "cli.db")
        with CrimsonStore.open(db) as store:
            store.load_tree(caterpillar(10), name="cat", f=8)
        assert (
            main(["--db", db, "estimate", "lca", "cat", "cat",
                  "--taxa", "t1", "t2"])
            == 1
        )
        assert "exactly one tree" in capsys.readouterr().err

    def test_serve_admission_flags_parse(self):
        from repro.cli.main import build_parser

        args = build_parser().parse_args(
            [
                "serve", "--max-cost", "25", "--quota", "400",
                "--quota-burst", "40", "--max-concurrent", "4",
                "--drain-timeout", "1.5",
            ]
        )
        limits = AdmissionLimits(
            max_cost=args.max_cost,
            quota_rate=args.quota,
            quota_burst=args.quota_burst,
            max_concurrent=args.max_concurrent,
        )
        assert not limits.unlimited
        assert limits.burst == 40.0
        assert args.drain_timeout == 1.5
