"""The RPC subsystem: CrimsonServer, RemoteSession, and session parity.

The load-bearing property: a :class:`RemoteSession` against a live
server is indistinguishable from a :class:`LocalSession` over the same
store — identical results for all five operations and the catalogue
verbs, the *same typed errors*, and (extending the stored-query
differential suite) LCA answers that agree with the naive walk, plain
Dewey, layered in-memory, and stored-SQL engines on random trees.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.core.lca import LcaService
from repro.errors import (
    CrimsonError,
    ProtocolError,
    QueryError,
    StorageError,
)
from repro.server import CrimsonServer, RemoteSession
from repro.server import protocol
from repro.storage import wire
from repro.storage.api import CrimsonSession, QueryRequest
from repro.storage.verbs import LocalSession
from repro.storage.store import CrimsonStore
from repro.trees.build import sample_tree
from repro.trees.newick import write_newick
from repro.trees.traversal import naive_lca


@pytest.fixture
def served(tmp_path):
    """A live server over a pooled file store holding the Figure-1 tree.

    Yields ``(store, host, port)``; the server runs on a background
    thread for the duration of the test.
    """
    path = str(tmp_path / "served.db")
    with CrimsonStore.open(path, readers=4) as store:
        store.trees.store_tree(sample_tree(), f=2)
        with CrimsonServer(store, port=0) as server:
            host, port = server.address
            yield store, host, port


@pytest.fixture
def remote(served):
    _, host, port = served
    with RemoteSession(host, port) as session:
        yield session


@pytest.fixture
def local(served):
    store, _, _ = served
    return store.session()


def result_signature(result):
    """A comparable, JSON-stable signature of a QueryResult's payload."""
    encoded = wire.encode_result(result)
    encoded["duration_ms"] = 0.0
    return json.dumps(encoded, sort_keys=True)


class TestSessionProtocol:
    def test_both_sessions_satisfy_the_protocol(self, local, remote):
        assert isinstance(local, CrimsonSession)
        assert isinstance(remote, CrimsonSession)

    def test_ping_reports_protocol_and_shape(self, local, remote):
        for session, transport in ((local, "local"), (remote, "tcp")):
            info = session.ping()
            assert info["protocol"] == wire.PROTOCOL_VERSION
            assert info["transport"] == transport
            assert info["shards"] == 1
            assert info["trees"] == 1

    def test_local_session_open_owns_its_store(self):
        with LocalSession.open() as session:
            session.store.trees.store_tree(sample_tree(), f=2)
            assert [info.name for info in session.list_trees()] == [
                "fig1-sample"
            ]
        assert session.store.is_closed

    def test_borrowed_local_session_leaves_store_open(self, served):
        store, _, _ = served
        store.session().close()
        assert not store.is_closed


class TestRemoteMatchesLocal:
    REQUESTS = [
        QueryRequest.lca("fig1-sample", "Lla", "Syn"),
        QueryRequest.lca_batch(
            "fig1-sample", [("Lla", "Spy"), ("Bha", "Syn"), ("Lla", "Lla")]
        ),
        QueryRequest.clade("fig1-sample", "Lla", "Spy", "Bha"),
        QueryRequest.project("fig1-sample", "Lla", "Syn", "Bha"),
        QueryRequest.match("fig1-sample", "(Lla,Spy);"),
        QueryRequest.match("fig1-sample", "((Lla,Spy),Bsu);", ordered=False),
    ]

    @pytest.mark.parametrize("request_", REQUESTS, ids=lambda r: r.operation)
    def test_identical_answers(self, local, remote, request_):
        assert result_signature(remote.query(request_)) == result_signature(
            local.query(request_)
        )

    def test_catalogue_verbs_agree(self, local, remote):
        assert remote.list_trees() == local.list_trees()
        assert remote.describe("fig1-sample") == local.describe("fig1-sample")
        local_reports = local.verify()
        remote_reports = remote.verify()
        assert [r.tree_name for r in remote_reports] == [
            r.tree_name for r in local_reports
        ]
        assert all(r.ok for r in remote_reports)
        assert [r.problems for r in remote.verify("fig1-sample")] == [
            r.problems for r in local.verify("fig1-sample")
        ]

    def test_recorded_remote_query_lands_in_history(self, served, remote):
        store, _, _ = served
        before = len(store.history.recent(limit=100))
        remote.query(
            QueryRequest.lca("fig1-sample", "Lla", "Spy"), record=True
        )
        entries = store.history.recent(limit=100)
        assert len(entries) == before + 1
        assert entries[0].operation == "lca"
        assert entries[0].params == {"taxa": ["Lla", "Spy"]}


class TestTypedErrorsCrossTheWire:
    def test_unknown_taxon_is_query_error(self, remote):
        with pytest.raises(QueryError, match="no node named"):
            remote.query(QueryRequest.lca("fig1-sample", "ghost", "Lla"))

    def test_unknown_tree_is_storage_error(self, remote):
        with pytest.raises(StorageError, match="no tree named"):
            remote.query(QueryRequest.lca("ghost", "a", "b"))
        with pytest.raises(StorageError, match="no tree named"):
            remote.describe("ghost")

    def test_connection_survives_an_error(self, remote):
        with pytest.raises(QueryError):
            remote.query(QueryRequest.lca("fig1-sample", "ghost", "Lla"))
        result = remote.query(QueryRequest.lca("fig1-sample", "Lla", "Spy"))
        assert result.node.name == "x"

    def test_unreachable_server_is_storage_error(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        with pytest.raises(StorageError, match="cannot reach"):
            RemoteSession("127.0.0.1", free_port, timeout=0.5)

    def test_closed_session_raises(self, served):
        _, host, port = served
        session = RemoteSession(host, port)
        session.close()
        session.close()  # idempotent
        with pytest.raises(StorageError, match="closed"):
            session.ping()


@pytest.fixture
def served_profile(tmp_path):
    """A live server over a store holding a same-leaf-set tree profile
    (plus the Figure-1 tree, whose leaf set is disjoint from it)."""
    import numpy as np

    from repro.reconstruction.random_tree import random_topology
    from repro.reconstruction.rearrange import perturb

    rng = np.random.default_rng(2006)
    names = [f"s{i:02d}" for i in range(14)]
    base = random_topology(names, rng)
    profile = [base] + [perturb(base, 2, rng) for _ in range(4)]
    path = str(tmp_path / "profile.db")
    with CrimsonStore.open(path, readers=4) as store:
        for index, tree in enumerate(profile):
            store.load_tree(tree, name=f"rep{index}", f=4)
        store.trees.store_tree(sample_tree(), f=2)
        with CrimsonServer(store, port=0) as server:
            host, port = server.address
            yield store, profile, host, port


class TestAnalyticsParity:
    """Local and remote sessions answer analytics identically."""

    NAMES = ["rep0", "rep1", "rep2", "rep3", "rep4"]

    def test_compare_identical(self, served_profile):
        store, _, host, port = served_profile
        local = store.session().compare("rep0", "rep1")
        with RemoteSession(host, port) as session:
            remote = session.compare("rep0", "rep1")
        assert remote.comparison == local.comparison
        assert remote.shared_clusters == local.shared_clusters
        assert remote.request == local.request

    def test_distance_matrix_identical(self, served_profile):
        store, _, host, port = served_profile
        local = store.session().distance_matrix(self.NAMES)
        with RemoteSession(host, port) as session:
            remote = session.distance_matrix(self.NAMES)
        assert remote.matrix == local.matrix

    def test_consensus_identical_and_matches_in_memory(self, served_profile):
        from repro.benchmark.consensus import majority_rule_consensus

        store, profile, host, port = served_profile
        local = store.session().consensus(self.NAMES)
        with RemoteSession(host, port) as session:
            remote = session.consensus(self.NAMES)
        memory_tree, memory_support = majority_rule_consensus(profile)
        assert (
            write_newick(remote.consensus)
            == write_newick(local.consensus)
            == write_newick(memory_tree)
        )
        assert dict(remote.support) == dict(local.support) == memory_support

    def test_strict_and_threshold_cross_the_wire(self, served_profile):
        store, _, host, port = served_profile
        with RemoteSession(host, port) as session:
            strict = session.consensus(self.NAMES, strict=True)
            assert strict.request.strict is True
            threshold = session.consensus(self.NAMES, threshold=0.75)
            assert threshold.request.threshold == 0.75

    def test_disjoint_leaf_sets_raise_query_error_remotely(
        self, served_profile
    ):
        _, _, host, port = served_profile
        with RemoteSession(host, port) as session:
            with pytest.raises(QueryError, match="different leaf sets"):
                session.compare("rep0", "fig1-sample")
            with pytest.raises(QueryError, match="different leaf sets"):
                session.consensus(["rep0", "fig1-sample"])
            # The connection survives the typed errors.
            assert session.ping()["trees"] == 6

    def test_unknown_tree_is_storage_error_remotely(self, served_profile):
        _, _, host, port = served_profile
        with RemoteSession(host, port) as session:
            with pytest.raises(StorageError, match="no tree named"):
                session.compare("rep0", "missing")

    def test_recorded_remote_analytics_land_in_history(self, served_profile):
        store, _, host, port = served_profile
        with RemoteSession(host, port) as session:
            session.consensus(self.NAMES, record=True)
        entry = store.history.recent(limit=1)[0]
        assert entry.operation == "consensus"
        assert entry.params["trees"] == self.NAMES


class TestRawProtocol:
    """Talk raw JSON lines to the server, bypassing RemoteSession."""

    def raw_call(self, host, port, line: bytes) -> dict:
        with socket.create_connection((host, port), timeout=5) as sock:
            stream = sock.makefile("rwb")
            stream.write(line + b"\n")
            stream.flush()
            return json.loads(stream.readline())

    def envelope(self, verb, payload=None, **overrides) -> bytes:
        envelope = protocol.request_envelope(verb, payload, request_id=9)
        envelope.update(overrides)
        return json.dumps(envelope).encode()

    def test_future_protocol_version_is_rejected(self, served):
        _, host, port = served
        response = self.raw_call(
            host,
            port,
            self.envelope("ping", protocol=wire.PROTOCOL_VERSION + 1),
        )
        assert response["ok"] is False
        error = wire.decode_error(response["error"])
        assert isinstance(error, ProtocolError)
        assert "speaks protocol" in str(error)

    def test_unknown_verb_is_protocol_error(self, served):
        _, host, port = served
        response = self.raw_call(host, port, self.envelope("drop_tables"))
        assert response["ok"] is False
        assert isinstance(
            wire.decode_error(response["error"]), ProtocolError
        )

    def test_junk_verbs_do_not_mint_metric_names(self, served):
        # Span and histogram names come from the registry; any other
        # verb is recorded under one fixed "unknown" label.
        store, host, port = served

        def histograms():
            return set(store.metrics.snapshot()["histograms"])

        def settle(requests):
            # The server observes a request just after writing its reply.
            deadline = time.monotonic() + 5
            while store.metrics.snapshot()["counters"].get(
                "server.requests", 0
            ) < requests and time.monotonic() < deadline:
                time.sleep(0.01)

        with socket.create_connection((host, port), timeout=5) as sock:
            stream = sock.makefile("rwb")
            stream.write(self.envelope("junk-0") + b"\n")
            stream.flush()
            assert json.loads(stream.readline())["ok"] is False
            settle(1)
            before = histograms()
            assert "server.latency.unknown" in before
            for index in range(1, 101):
                stream.write(self.envelope(f"junk-{index}") + b"\n")
                stream.write(
                    self.envelope(["unhashable", index]) + b"\n"
                )
                stream.flush()
                for _ in range(2):
                    assert json.loads(stream.readline())["ok"] is False
            settle(201)
        assert histograms() == before

    def test_unparseable_frame_gets_an_error_then_eof(self, served):
        _, host, port = served
        with socket.create_connection((host, port), timeout=5) as sock:
            stream = sock.makefile("rwb")
            stream.write(b"this is not json\n")
            stream.flush()
            response = json.loads(stream.readline())
            assert response["ok"] is False
            # The server hangs up after a framing error.
            assert stream.readline() == b""

    def test_non_object_verify_payload_is_protocol_error(self, served):
        _, host, port = served
        response = self.raw_call(host, port, self.envelope("verify", "gold"))
        assert response["ok"] is False
        assert isinstance(
            wire.decode_error(response["error"]), ProtocolError
        )

    def test_request_id_is_echoed(self, served):
        _, host, port = served
        response = self.raw_call(
            host, port, self.envelope("ping", request_id=None, id=12345)
        )
        assert response["id"] == 12345

    def test_unrecognized_op_is_typed_error_and_connection_survives(
        self, served
    ):
        """The pre/post-analytics compatibility guarantee, probed raw.

        A verb this build does not dispatch — exactly what ``analyze``
        is to a pre-analytics server, or what a future verb is to this
        one — must come back as a typed ProtocolError *reply* (the
        stream stays frame-aligned), and the same connection must keep
        answering afterwards.
        """
        _, host, port = served
        with socket.create_connection((host, port), timeout=5) as sock:
            stream = sock.makefile("rwb")
            for frame in (
                self.envelope("analyze_v2", {"trees": ["a", "b"]}),
                self.envelope("frobnicate"),
            ):
                stream.write(frame + b"\n")
                stream.flush()
                response = json.loads(stream.readline())
                assert response["ok"] is False
                error = wire.decode_error(response["error"])
                assert isinstance(error, ProtocolError)
                assert "unknown verb" in str(error)
            # Same connection, next request: still serving.
            stream.write(self.envelope("ping") + b"\n")
            stream.flush()
            response = json.loads(stream.readline())
            assert response["ok"] is True

    def test_malformed_analyze_payload_is_protocol_error(self, served):
        _, host, port = served
        with socket.create_connection((host, port), timeout=5) as sock:
            stream = sock.makefile("rwb")
            # Well-framed but unstamped/shapeless analytics payload.
            stream.write(
                self.envelope("analyze", {"trees": ["a", "b"]}) + b"\n"
            )
            stream.flush()
            response = json.loads(stream.readline())
            assert response["ok"] is False
            assert isinstance(
                wire.decode_error(response["error"]), ProtocolError
            )
            # The connection survives the malformed payload.
            stream.write(self.envelope("ping") + b"\n")
            stream.flush()
            assert json.loads(stream.readline())["ok"] is True

    def test_unknown_analytics_operation_is_query_error(self, served):
        _, host, port = served
        payload = wire.stamp({"operation": "blend", "trees": ["a", "b"]})
        response = self.raw_call(
            host, port, self.envelope("analyze", payload)
        )
        assert response["ok"] is False
        error = wire.decode_error(response["error"])
        assert isinstance(error, QueryError)
        assert "unknown analytics operation" in str(error)


class TestConnectionHygiene:
    """Framing failures and hung servers must not strand a session."""

    def test_oversize_result_streams_in_chunks_to_a_modern_client(
        self, served, monkeypatch
    ):
        _, host, port = served
        # Shrink the frame limit: the clade result no longer fits one
        # frame.  RemoteSession advertises chunked responses, so the
        # server streams it as bounded chunk frames instead of refusing.
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 700)
        with RemoteSession(host, port) as session:
            result = session.query(
                QueryRequest.clade("fig1-sample", "Lla", "Bsu")
            )
            assert len(list(result.nodes)) > 0
            # The stream stays frame-aligned afterwards.
            lca = session.query(
                QueryRequest.lca("fig1-sample", "Lla", "Spy")
            )
            assert lca.node.name == "x"

    def test_oversize_result_is_typed_error_for_legacy_clients(
        self, served, monkeypatch
    ):
        _, host, port = served
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 700)
        # A client that does NOT advertise chunks (an older build) still
        # gets the one-frame refusal, and the connection survives it.
        with socket.create_connection((host, port), timeout=5) as sock:
            stream = sock.makefile("rwb")
            request = QueryRequest.clade("fig1-sample", "Lla", "Bsu")
            protocol.write_frame(
                stream,
                protocol.request_envelope(
                    "query", wire.encode_request(request), request_id=1
                ),
            )
            response = protocol.read_frame(stream)
            assert response["ok"] is False
            error = wire.decode_error(response["error"])
            assert isinstance(error, ProtocolError)
            assert "byte limit" in str(error)
            # Nothing of the oversize frame hit the wire, so the same
            # connection keeps working.
            protocol.write_frame(
                stream, protocol.request_envelope("ping", request_id=2)
            )
            assert protocol.read_frame(stream)["ok"] is True

    def test_misaligned_stream_poisons_the_session(self, monkeypatch):
        # A fake server that answers any frame with unframeable garbage
        # longer than the (shrunken) frame limit.
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 256)
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)
            host, port = listener.getsockname()

            def fake_server():
                conn, _ = listener.accept()
                with conn:
                    conn.recv(4096)
                    conn.sendall(b"x" * 1024 + b"\n")

            thread = threading.Thread(target=fake_server, daemon=True)
            thread.start()
            session = RemoteSession(host, port, timeout=5)
            with pytest.raises(ProtocolError, match="not a Crimson peer"):
                session.ping()
            # The stream can't be re-aligned, so the session closed
            # itself; later calls fail fast instead of mispairing.
            with pytest.raises(StorageError, match="closed"):
                session.ping()
            thread.join(timeout=5)

    def test_timeout_mid_round_trip_poisons_the_session(self):
        # A late response after a timeout could mispair with the next
        # request, so a timed-out session must refuse further calls.
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)
            host, port = listener.getsockname()
            session = RemoteSession(host, port, timeout=0.3)
            with pytest.raises(StorageError, match="lost"):
                session.ping()
            with pytest.raises(StorageError, match="closed"):
                session.ping()

    def test_close_unblocks_a_call_hung_on_a_silent_server(self):
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)
            host, port = listener.getsockname()
            session = RemoteSession(host, port)
            failures: list[Exception] = []

            def hung_call():
                try:
                    session.ping()
                except Exception as error:  # noqa: BLE001 - asserted below
                    failures.append(error)

            thread = threading.Thread(target=hung_call)
            thread.start()
            time.sleep(0.2)  # let the call block on the silent server
            session.close()
            thread.join(timeout=5)
            assert not thread.is_alive()
            assert len(failures) == 1
            assert isinstance(failures[0], StorageError)


class TestDifferentialPropertyRemote:
    """Extend naive == dewey == layered == stored to RemoteSession."""

    @pytest.mark.parametrize("f", [1, 3])
    @pytest.mark.parametrize("seed", [3, 11])
    def test_all_strategies_agree_through_the_wire(
        self, tmp_path, f, seed, random_tree_factory
    ):
        tree = random_tree_factory(60, seed=seed)
        rank = {
            id(node): index for index, node in enumerate(tree.preorder())
        }
        path = str(tmp_path / f"diff-{f}-{seed}.db")
        with CrimsonStore.open(path, readers=2) as store:
            handle = store.trees.store_tree(tree, name="diff", f=f)
            naive = LcaService(tree, "naive")
            dewey = LcaService(tree, "dewey")
            layered = LcaService(tree, "layered", f=f)
            nodes = list(tree.preorder())
            pairs = [
                (nodes[i % len(nodes)], nodes[(i * 7 + 3) % len(nodes)])
                for i in range(20)
            ]
            with CrimsonServer(store, port=0) as server:
                host, port = server.address
                with RemoteSession(host, port) as remote:
                    batch = remote.query(
                        QueryRequest.lca_batch(
                            "diff",
                            [(rank[id(a)], rank[id(b)]) for a, b in pairs],
                        )
                    )
                    for (a, b), remote_row in zip(pairs, batch.nodes):
                        expected = naive_lca(a, b)
                        assert naive.lca(a, b) is expected
                        assert dewey.lca(a, b) is expected
                        assert layered.lca(a, b) is expected
                        stored_row = handle.lca(rank[id(a)], rank[id(b)])
                        assert stored_row.node_id == rank[id(expected)]
                        assert remote_row == stored_row
                        single = remote.query(
                            QueryRequest.lca(
                                "diff", rank[id(a)], rank[id(b)]
                            )
                        )
                        assert single.node == stored_row

    def test_remote_projection_equals_stored(
        self, tmp_path, random_tree_factory
    ):
        tree = random_tree_factory(60, seed=7)
        path = str(tmp_path / "proj.db")
        with CrimsonStore.open(path, readers=2) as store:
            store.trees.store_tree(tree, name="proj", f=3)
            names = [leaf.name for leaf in tree.root.leaves()][::2]
            local = store.query(QueryRequest.project("proj", *names))
            with CrimsonServer(store, port=0) as server:
                host, port = server.address
                with RemoteSession(host, port) as remote:
                    over_wire = remote.query(
                        QueryRequest.project("proj", *names)
                    )
            assert write_newick(over_wire.projection) == write_newick(
                local.projection
            )


class TestConcurrentClients:
    def test_many_sessions_agree_with_ground_truth(self, served):
        store, host, port = served
        truth = store.query(
            QueryRequest.lca_batch(
                "fig1-sample", [("Lla", "Spy"), ("Bha", "Syn")]
            )
        )
        expected = [row.node_id for row in truth.nodes]
        errors: list[str] = []
        mismatches = [0]
        lock = threading.Lock()

        def client():
            try:
                with RemoteSession(host, port) as session:
                    for _ in range(25):
                        result = session.query(
                            QueryRequest.lca_batch(
                                "fig1-sample",
                                [("Lla", "Spy"), ("Bha", "Syn")],
                            )
                        )
                        got = [row.node_id for row in result.nodes]
                        if got != expected:
                            with lock:
                                mismatches[0] += 1
            except Exception as error:  # noqa: BLE001 - recorded
                with lock:
                    errors.append(repr(error))

        threads = [threading.Thread(target=client) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert mismatches[0] == 0

    def test_shared_session_is_thread_safe(self, served):
        _, host, port = served
        errors: list[str] = []
        lock = threading.Lock()
        with RemoteSession(host, port) as session:

            def worker():
                try:
                    for _ in range(20):
                        result = session.query(
                            QueryRequest.lca("fig1-sample", "Lla", "Spy")
                        )
                        assert result.node.name == "x"
                except Exception as error:  # noqa: BLE001 - recorded
                    with lock:
                        errors.append(repr(error))

            threads = [threading.Thread(target=worker) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert errors == []


class TestServerAgainstShardedStore:
    def test_remote_queries_are_layout_agnostic(self, tmp_path):
        path = str(tmp_path / "sharded.db")
        with CrimsonStore.open(path, readers=2, shards=3) as store:
            for index in range(6):
                store.load_tree(sample_tree(), name=f"copy{index}", f=2)
            assert {info.shard for info in store.list_trees()} == {0, 1, 2}
            with CrimsonServer(store, port=0) as server:
                host, port = server.address
                with RemoteSession(host, port) as remote:
                    signatures = {
                        result_signature(
                            remote.query(
                                QueryRequest.lca(f"copy{i}", "Lla", "Syn")
                            )
                        ).replace(f"copy{i}", "copy")
                        for i in range(6)
                    }
                    assert len(signatures) == 1
                    assert remote.ping()["shards"] == 3


class TestCliServe:
    def test_serve_starts_and_prints_address(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli.main import main
        from repro.server.server import CrimsonServer as ServerClass

        monkeypatch.setattr(ServerClass, "serve_forever", lambda self: None)
        db = str(tmp_path / "serve.db")
        assert (
            main(
                ["--db", db, "--readers", "2", "serve", "--port", "29106"]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "serving" in output
        assert "29106" in output
        assert "2 pooled readers" in output
