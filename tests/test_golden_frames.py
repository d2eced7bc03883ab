"""Golden wire frames: the exact bytes every verb puts on the wire.

``tests/golden/frames.jsonl`` holds one recorded exchange per line: the
request line a :class:`RemoteSession` wrote, the response line a live
:class:`CrimsonServer` answered with, and the result the session
decoded from it.  Two checks replay the file:

* the raw request bytes go into a fresh in-process server, and its raw
  response bytes must match the recorded ones;
* a :class:`RemoteSession` talks to a capture socket that answers with
  the recorded responses; the bytes it sends and the results it
  decodes must match the recorded ones.

Only volatile values are normalised before comparing: timings
(``duration_ms``, ``server_ms``), trace ids, ``created_at`` stamps and
the store path.  ``stats`` and ``health`` answers depend on what the
process measured so far, so for them only the key structure counts.

The file is the protocol's contract with deployed peers: a codec
change that alters a single byte of a frame fails here.  Re-record it
only for a deliberate protocol change, with
``PYTHONPATH=src python tests/test_golden_frames.py --record``.
"""

from __future__ import annotations

import dataclasses
import json
import socket
import sys
import tempfile
import threading
from collections.abc import Mapping
from pathlib import Path
from typing import Any, Callable

from repro.admission import AdmissionLimits
from repro.errors import CrimsonError
from repro.server import CrimsonServer, RemoteSession
from repro.storage.api import AnalyticsRequest, QueryRequest
from repro.storage.store import CrimsonStore
from repro.trees.build import caterpillar, sample_tree
from repro.trees.newick import parse_newick, write_newick
from repro.trees.tree import PhyloTree

GOLDEN = Path(__file__).parent / "golden" / "frames.jsonl"

#: Keys whose values differ from run to run.
VOLATILE = frozenset({"duration_ms", "server_ms", "trace", "created_at"})

#: Every pair of the Figure-1 leaves, repeated: an lca_batch whose
#: estimate exceeds the store's cost budget.
_LEAVES = ("Syn", "Lla", "Spy", "Bha", "Bsu")
_COSTLY_PAIRS = [(a, b) for a in _LEAVES for b in _LEAVES] * 40

#: ``(name, call, structure_only)``, in wire order.  Each call runs on
#: one shared RemoteSession, so request ids are 1, 2, 3, ...
CASES: list[tuple[str, Callable[[Any], Any], bool]] = [
    ("ping", lambda s: s.ping(), False),
    ("list_trees", lambda s: s.list_trees(), False),
    ("describe", lambda s: s.describe("fig1-sample"), False),
    ("verify", lambda s: s.verify("fig1-sample"), False),
    ("query-lca", lambda s: s.query(
        QueryRequest.lca("fig1-sample", "Lla", "Syn"), record=True), False),
    ("query-lca_batch", lambda s: s.query(QueryRequest.lca_batch(
        "fig1-sample", [("Lla", "Spy"), ("Bha", "Syn")])), False),
    ("query-clade", lambda s: s.query(
        QueryRequest.clade("fig1-sample", "Lla", "Spy", "Bha")), False),
    ("query-project", lambda s: s.query(
        QueryRequest.project("fig1-sample", "Lla", "Syn", "Bha")), False),
    ("query-match", lambda s: s.query(QueryRequest.match(
        "fig1-sample", "((Lla,Spy),Bsu);", ordered=False)), False),
    ("analyze-compare", lambda s: s.analyze(
        AnalyticsRequest.compare("bush", "shuffled"), record=True), False),
    ("analyze-distance_matrix", lambda s: s.analyze(
        AnalyticsRequest.distance_matrix("ladder", "bush", "shuffled")),
     False),
    ("analyze-consensus", lambda s: s.analyze(AnalyticsRequest.consensus(
        "ladder", "bush", "shuffled", threshold=0.6)), False),
    ("estimate-query", lambda s: s.estimate(
        QueryRequest.clade("fig1-sample", "Lla", "Bsu")), False),
    ("estimate-analytics", lambda s: s.estimate(
        AnalyticsRequest.compare("ladder", "bush")), False),
    ("stats", lambda s: s.stats(), True),
    ("health", lambda s: s.health(), True),
    ("error-QueryError", lambda s: s.query(
        QueryRequest.lca("fig1-sample", "Lla", "nope")), False),
    ("error-StorageError", lambda s: s.describe("nope"), False),
    ("error-ResourceError", lambda s: s.query(
        QueryRequest.lca_batch("fig1-sample", _COSTLY_PAIRS)), False),
]

#: Frames no session would send, written raw after the session cases.
RAW_CASES: list[tuple[str, dict[str, Any]]] = [
    ("error-malformed-payload", {
        "protocol": 1, "id": 900, "verb": "query", "payload": "nope",
        "record": False,
    }),
]


def open_store(path: str) -> CrimsonStore:
    """The store every recording and replay starts from."""
    store = CrimsonStore.open(
        path, readers=2, limits=AdmissionLimits(max_cost=20.0)
    )
    store.trees.store_tree(sample_tree(), f=2)
    store.trees.store_tree(caterpillar(8), name="ladder", f=4)
    store.trees.store_tree(
        parse_newick("(((t1,t2),(t3,t4)),((t5,t6),(t7,t8)))r;"),
        name="bush", f=4,
    )
    store.trees.store_tree(
        parse_newick("(((t1,t3),(t2,t4)),((t5,t7),(t6,t8)))r;"),
        name="shuffled", f=4,
    )
    return store


# ----------------------------------------------------------------------
# Normalisation
# ----------------------------------------------------------------------

def _scrub(value: Any, store_path: str) -> Any:
    if isinstance(value, dict):
        return {
            key: "<volatile>" if key in VOLATILE else _scrub(item, store_path)
            for key, item in value.items()
        }
    if isinstance(value, list):
        return [_scrub(item, store_path) for item in value]
    if isinstance(value, str) and store_path and store_path in value:
        return value.replace(store_path, "<store>")
    return value


def canonical(line: str, store_path: str) -> str:
    """A frame with its volatile values masked, re-serialised exactly as
    the framing layer writes it (key order and number formats kept)."""
    return json.dumps(
        _scrub(json.loads(line), store_path),
        ensure_ascii=False,
        separators=(",", ":"),
    )


def structure(line: str) -> dict[str, Any]:
    """Key structure of a response frame: envelope keys, result keys and
    the JSON type of each result value."""
    frame = json.loads(line)
    result = frame.get("result")
    return {
        "envelope": list(frame),
        "result": {key: type(value).__name__ for key, value in result.items()},
    }


def plain(value: Any) -> Any:
    """A decoded session answer as JSON-plain data, transport-blind."""
    if isinstance(value, BaseException):
        return {
            "error": type(value).__name__,
            "message": str(value),
            "attributes": plain(vars(value)),
        }
    if isinstance(value, PhyloTree):
        return {"newick": write_newick(value), "name": value.name}
    if dataclasses.is_dataclass(value):
        return {
            field.name: plain(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, Mapping):
        return {
            (
                "|".join(sorted(key))
                if isinstance(key, frozenset)
                else str(key)
            ): plain(item)
            for key, item in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    return value


def decoded(call: Callable[[Any], Any], session: Any, shape: bool) -> Any:
    try:
        answer = plain(call(session))
    except CrimsonError as error:
        answer = plain(error)
    if shape:
        answer = sorted(answer)
    return json.loads(json.dumps(answer, sort_keys=True))


# ----------------------------------------------------------------------
# A capture socket standing in for the server
# ----------------------------------------------------------------------

class CaptureServer:
    """Accept one connection; record each request line and answer it
    with ``respond(line)``."""

    def __init__(self, respond: Callable[[bytes], bytes]) -> None:
        self.requests: list[bytes] = []
        self.responses: list[bytes] = []
        self._respond = respond
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address = self._listener.getsockname()[:2]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        connection, _ = self._listener.accept()
        with connection, connection.makefile("rwb") as stream:
            while True:
                line = stream.readline()
                if not line:
                    return
                self.requests.append(line.rstrip(b"\n"))
                response = self._respond(line).rstrip(b"\n")
                self.responses.append(response)
                stream.write(response + b"\n")
                stream.flush()

    def close(self) -> None:
        self._listener.close()
        self._thread.join(timeout=5)


def _exchange(stream, line: bytes) -> bytes:
    stream.write(line.rstrip(b"\n") + b"\n")
    stream.flush()
    return stream.readline().rstrip(b"\n")


def load_golden() -> list[dict[str, Any]]:
    with GOLDEN.open(encoding="utf-8") as lines:
        return [json.loads(line) for line in lines if line.strip()]


# ----------------------------------------------------------------------
# The checks
# ----------------------------------------------------------------------

def test_golden_file_covers_every_case():
    names = [entry["name"] for entry in load_golden()]
    assert names == [name for name, _, _ in CASES] + [
        name for name, _ in RAW_CASES
    ]


def test_server_answers_golden_requests_byte_for_byte(tmp_path):
    golden = load_golden()
    path = str(tmp_path / "golden.db")
    with open_store(path) as store:
        with CrimsonServer(store, port=0) as server:
            with socket.create_connection(server.address, timeout=10) as sock:
                stream = sock.makefile("rwb")
                for entry in golden:
                    response = _exchange(
                        stream, entry["request"].encode("utf-8")
                    ).decode("utf-8")
                    if entry["structure_only"]:
                        assert structure(response) == structure(
                            entry["response"]
                        ), entry["name"]
                    else:
                        assert canonical(response, path) == canonical(
                            entry["response"], entry["store"]
                        ), entry["name"]


def test_remote_session_sends_golden_requests_and_decodes_golden_responses():
    golden = {entry["name"]: entry for entry in load_golden()}
    replies = iter(
        golden[name]["response"].encode("utf-8") for name, _, _ in CASES
    )
    capture = CaptureServer(lambda line: next(replies))
    try:
        with RemoteSession(*capture.address, timeout=10) as session:
            for index, (name, call, shape) in enumerate(CASES):
                entry = golden[name]
                assert decoded(call, session, shape) == entry["decoded"], name
                sent = capture.requests[index].decode("utf-8")
                assert canonical(sent, "") == canonical(
                    entry["request"], ""
                ), name
    finally:
        capture.close()


# ----------------------------------------------------------------------
# Recording (deliberate protocol changes only)
# ----------------------------------------------------------------------

def record(target: Path = GOLDEN) -> None:
    """Re-record every exchange against a live server of this build."""
    with tempfile.TemporaryDirectory() as scratch:
        path = str(Path(scratch) / "golden.db")
        with open_store(path) as store, CrimsonServer(store, port=0) as server:
            with socket.create_connection(server.address, timeout=10) as sock:
                upstream = sock.makefile("rwb")
                capture = CaptureServer(
                    lambda line: _exchange(upstream, line)
                )
                entries: list[dict[str, Any]] = []
                try:
                    with RemoteSession(*capture.address, timeout=10) as session:
                        for index, (name, call, shape) in enumerate(CASES):
                            answer = decoded(call, session, shape)
                            entries.append({
                                "name": name,
                                "request": capture.requests[index].decode(),
                                "response": capture.responses[index].decode(),
                                "decoded": answer,
                                "structure_only": shape,
                            })
                finally:
                    capture.close()
                for name, frame in RAW_CASES:
                    line = json.dumps(
                        frame, ensure_ascii=False, separators=(",", ":")
                    ).encode("utf-8")
                    entries.append({
                        "name": name,
                        "request": line.decode(),
                        "decoded": None,
                        "structure_only": False,
                        "response": _exchange(upstream, line).decode(),
                    })
        # The temporary path means nothing outside this run.
        entries = json.loads(json.dumps(entries).replace(path, "<store>"))
        for entry in entries:
            entry["store"] = "<store>"
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", encoding="utf-8") as out:
        for entry in entries:
            out.write(json.dumps(entry, ensure_ascii=False) + "\n")


if __name__ == "__main__":  # pragma: no cover - maintenance entry point
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_golden_frames.py --record")
    record()
