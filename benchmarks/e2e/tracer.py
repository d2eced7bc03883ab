"""Span recording at layer boundaries, from outside the program.

Nothing under ``src/`` knows it is being traced: :class:`Recorder`
replaces the public functions at each layer boundary (module or class
attributes) with wrappers that time the call and note the span that
caused it, and :meth:`Recorder.uninstall` puts the originals back.
Spans stay in memory as tuples until the run ends.

A span is ``(id, parent, name, start_ns, end_ns, trace, extra)``:
``parent`` is the enclosing span on the same thread (0 at the top),
``trace`` names the request the span belongs to, and ``extra`` is a
per-boundary measurement (rows returned, rows written, the wire trace
id of a remote call) or, when the call raised, the exception's class
name.  :func:`ledger` turns the spans of every process of a run into
the per-layer metrics listed in :data:`measure.PER_LAYER`.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Iterable

Span = tuple[int, int, str, int, int, Any, Any]


class Recorder:
    """In-memory span store plus the patches that feed it."""

    def __init__(self) -> None:
        #: Whether :func:`install_server_roots` hooks open request spans.
        self.rooting = False
        self.spans: list[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple[Any, str, Any]] = []

    # -- request identity ------------------------------------------------

    def set_trace(self, trace: Any) -> None:
        """Attribute this thread's following spans to request ``trace``."""
        self._local.trace = trace

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- wrappers ----------------------------------------------------------

    def wrap(
        self,
        name: str,
        function: Callable,
        measure: Callable[[tuple, Any], Any] | None = None,
    ) -> Callable:
        """``function`` timed as span ``name``; ``measure(args, result)``
        fills the span's ``extra`` on success."""
        local, spans, ids = self._local, self.spans, self._ids
        stack_of, clock = self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else 0
            span_id = next(ids)
            stack.append(span_id)
            start = clock()
            try:
                result = function(*args, **kwargs)
            except BaseException as error:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, start, end,
                              getattr(local, "trace", None),
                              type(error).__name__))
                raise
            end = clock()
            stack.pop()
            spans.append((span_id, parent, name, start, end,
                          getattr(local, "trace", None),
                          measure(args, result) if measure else None))
            return result

        return traced

    def wrap_context(self, name: str, function: Callable) -> Callable:
        """A context-manager factory whose whole ``with`` body is a span."""

        def factory(*args, **kwargs):
            return _SpanContext(self, name, function(*args, **kwargs))

        return factory

    def open_root(self, name: str, trace: Any) -> None:
        """Start a span that a later :meth:`close_root` on this thread ends.

        The server's request span runs from the parsed frame to the
        written reply, two calls apart, so it cannot be one wrapper.
        """
        self.close_root()
        span_id = next(self._ids)
        self._stack().append(span_id)
        self._local.trace = trace
        self._local.root = (span_id, name, time.perf_counter_ns(), trace)

    def has_root(self) -> bool:
        return getattr(self._local, "root", None) is not None

    def close_root(self) -> None:
        root = getattr(self._local, "root", None)
        if root is None:
            return
        self._local.root = None
        self._local.trace = None
        span_id, name, start, trace = root
        stack = self._stack()
        if span_id in stack:
            del stack[stack.index(span_id):]
        self.spans.append(
            (span_id, 0, name, start, time.perf_counter_ns(), trace, None)
        )

    # -- patching ----------------------------------------------------------

    def patch(
        self,
        owner: Any,
        attribute: str,
        name: str,
        measure: Callable[[tuple, Any], Any] | None = None,
        *,
        context: bool = False,
    ) -> None:
        """Replace ``owner.attribute`` by its traced version; with
        ``context``, the attribute makes context managers and the span
        covers the whole ``with`` body."""
        original = (
            owner.__dict__[attribute]
            if isinstance(owner, type)
            else getattr(owner, attribute)
        )
        traced = (
            self.wrap_context(name, original)
            if context
            else self.wrap(name, original, measure)
        )
        setattr(owner, attribute, traced)
        self._patches.append((owner, attribute, original))

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def uninstall(self) -> None:
        """Restore every patched attribute (idempotent)."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- output ------------------------------------------------------------

    def dump(self, path: str, process: str) -> None:
        """Append this process's spans to ``path`` as JSON lines."""
        with open(path, "a", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(_as_record(span, process)) + "\n")


class _SpanContext:
    """Times a wrapped context manager from ``__enter__`` to ``__exit__``."""

    def __init__(self, recorder: Recorder, name: str, inner) -> None:
        self._recorder = recorder
        self._name = name
        self._inner = inner

    def __enter__(self):
        recorder = self._recorder
        stack = recorder._stack()
        self._parent = stack[-1] if stack else 0
        self._id = next(recorder._ids)
        stack.append(self._id)
        self._start = time.perf_counter_ns()
        try:
            return self._inner.__enter__()
        except BaseException:
            stack.pop()
            raise

    def __exit__(self, *exc_info):
        try:
            return self._inner.__exit__(*exc_info)
        finally:
            recorder = self._recorder
            stack = recorder._stack()
            if stack and stack[-1] == self._id:
                stack.pop()
            error = exc_info[0].__name__ if exc_info[0] else None
            recorder.spans.append((
                self._id, self._parent, self._name, self._start,
                time.perf_counter_ns(),
                getattr(recorder._local, "trace", None), error,
            ))


def _as_record(span: Span, process: str) -> dict[str, Any]:
    span_id, parent, name, start, end, trace, extra = span
    return {
        "process": process,
        "id": span_id,
        "parent": parent,
        "name": name,
        "start_ns": start,
        "end_ns": end,
        "trace": trace,
        "extra": extra,
    }


# ----------------------------------------------------------------------
# Patch sets, one per process role
# ----------------------------------------------------------------------

def install_store(recorder: Recorder) -> None:
    """Layers of the process that hosts the store: front end, admission,
    engine, database, loader, species data, core index and analytics."""
    import repro.analytics as analytics
    import repro.analytics.compare as analytics_compare
    import repro.analytics.consensus as analytics_consensus
    import repro.storage.projection as projection
    import repro.storage.tree_repository as tree_repository
    from repro.admission import AdmissionController
    from repro.storage.database import CrimsonDatabase
    from repro.storage.species_repository import SpeciesRepository
    from repro.storage.store import CrimsonStore

    patch = recorder.patch
    patch(CrimsonStore, "query", "store.query")
    patch(CrimsonStore, "analyze", "store.analyze")
    patch(AdmissionController, "admit", "admission.admit")
    StoredTree = tree_repository.StoredTree
    patch(StoredTree, "lca_many", "engine.lca")
    patch(StoredTree, "lca_batch", "engine.lca_batch")
    patch(StoredTree, "clade", "engine.clade")
    patch(projection, "project_stored", "engine.project")
    patch(CrimsonDatabase, "execute", "database.execute")
    patch(CrimsonDatabase, "query_one", "database.query_one",
          lambda args, row: int(row is not None))
    patch(CrimsonDatabase, "query_all", "database.query_all",
          lambda args, rows: len(rows))
    patch(CrimsonDatabase, "transaction", "database.transaction", context=True)
    patch(tree_repository.TreeRepository, "store_tree", "loader.store_tree",
          lambda args, handle: handle.info.n_nodes)
    patch(tree_repository, "HierarchicalIndex", "core.index",
          lambda args, index: index.n_inodes() + index.n_blocks())
    patch(SpeciesRepository, "attach_sequences", "species.attach")
    patch(analytics, "stored_consensus", "analytics.consensus")
    patch(analytics, "compare_stored", "analytics.compare")
    patch(analytics_consensus, "scan_tree", "analytics.scan")
    patch(analytics_compare, "scan_tree", "analytics.scan")


def install_server(recorder: Recorder) -> None:
    """The store's layers plus the server's dispatch and codec."""
    from repro.server.server import CrimsonServer
    from repro.storage import wire

    install_store(recorder)
    patch = recorder.patch
    # encode_result calls encode_request itself: wrapping only the
    # outer call keeps the codec at one span per direction.
    patch(CrimsonServer, "dispatch", "server.dispatch")
    patch(wire, "decode_request", "wire.decode_request")
    patch(wire, "encode_result", "wire.encode_result")


def install_server_roots(recorder: Recorder) -> None:
    """Hook the server's framing for the whole life of a traced server.

    ``server.request`` runs from the parsed request frame to the
    written reply, so ``transport.wait`` (client round trip minus it)
    is what neither process spends working on the request.  Connection
    threads sit inside ``read_frame`` between requests, so these hooks
    stay installed and :attr:`Recorder.rooting`, checked when a frame
    arrives, decides whether the request gets a span: tracing switched
    on while a thread waits still covers that thread's next request.
    """
    from repro.server import protocol

    read_frame = protocol.read_frame
    write_envelope = protocol.write_envelope
    traced_write = recorder.wrap("protocol.write_envelope", write_envelope)

    def read_and_open(stream):
        envelope = read_frame(stream)
        if envelope is not None and recorder.rooting:
            recorder.open_root("server.request", protocol.trace_of(envelope))
        return envelope

    def write_and_close(stream, envelope, *, chunked=False):
        if not recorder.has_root():
            return write_envelope(stream, envelope, chunked=chunked)
        try:
            return traced_write(stream, envelope, chunked=chunked)
        finally:
            recorder.close_root()

    protocol.read_frame = read_and_open
    protocol.write_envelope = write_and_close


def install_client(recorder: Recorder) -> None:
    """The remote client's layers: session call, codec, framing."""
    from repro.server import protocol
    from repro.server.client import RemoteSession
    from repro.storage import wire

    patch = recorder.patch
    patch(RemoteSession, "query", "client.query",
          lambda args, result: args[0].last_trace_id)
    # decode_result calls decode_request itself (see install_server).
    patch(wire, "encode_request", "wire.encode_request")
    patch(wire, "decode_result", "wire.decode_result")
    patch(protocol, "write_frame", "protocol.write_frame")
    patch(protocol, "read_envelope", "protocol.read_envelope")


# ----------------------------------------------------------------------
# The per-layer ledger
# ----------------------------------------------------------------------

def load_spans(path: str) -> list[dict[str, Any]]:
    with open(path, encoding="utf-8") as lines:
        return [json.loads(line) for line in lines if line.strip()]


def _layer(name: str) -> str:
    if name.startswith("wire.encode"):
        return "wire.encode"
    if name.startswith("wire.decode"):
        return "wire.decode"
    if name in ("protocol.write_frame", "protocol.write_envelope"):
        return "protocol.write"
    if name.startswith("protocol."):
        return "protocol.read"
    if name == "server.request":
        return "server.handler"
    if name == "server.dispatch":
        return "server.dispatch"
    return name.split(".", 1)[0]


def op_type(trace: Any) -> str | None:
    """The operation type a request's trace names (``"lca:3:17"``)."""
    if isinstance(trace, str) and ":" in trace:
        return trace.split(":", 1)[0]
    return None


def ledger(
    records: Iterable[dict[str, Any]],
    op_counts: dict[str, int],
    *,
    caches: dict[str, int],
    wire_bytes: int,
    window_ops: int,
) -> dict[str, float]:
    """Per-layer metrics from the spans of every process of one run.

    ``op_counts`` counts the traced requests by operation type.  A
    layer's time is the sum of its spans' self times (duration minus
    the child spans), so nested spans of one layer are not counted
    twice.  ``caches`` (hits, misses, evictions) and ``wire_bytes`` are
    deltas over the whole measured window of ``window_ops`` requests:
    tracing does not change what the caches or the wire see.
    """
    records = list(records)
    n_ops = sum(op_counts.values())
    children: dict[tuple[str, int], list[dict[str, Any]]] = defaultdict(list)
    for record in records:
        if record["parent"]:
            children[(record["process"], record["parent"])].append(record)

    def duration_ms(record: dict[str, Any]) -> float:
        return (record["end_ns"] - record["start_ns"]) / 1e6

    def self_ms(record: dict[str, Any]) -> float:
        inner = children.get((record["process"], record["id"]), ())
        return duration_ms(record) - sum(duration_ms(c) for c in inner)

    # A client span's extra is the wire trace id the server span
    # adopted; map it back to the request so server spans get an op.
    client_spans = [r for r in records if r["name"] == "client.query"]
    wire_to_request = {
        r["extra"]: r["trace"] for r in client_spans if isinstance(r["extra"], str)
    }

    layer_ms: dict[tuple[str, str], float] = defaultdict(float)
    scan_ms = 0.0
    statements: Counter[str] = Counter()
    rows = op_spans = refusals = 0
    loads = nodes_loaded = rows_written = attaches = 0
    loader_ms = index_ms = attach_ms = 0.0
    for record in records:
        name, extra = record["name"], record["extra"]
        # Loads are counted wherever they happen, set-up included:
        # the gold tree of a read workload is loaded only there.
        if name == "species.attach":
            attaches += 1
            attach_ms += duration_ms(record)
        elif name == "loader.store_tree":
            loads += 1
            loader_ms += self_ms(record)
            if isinstance(extra, int):
                nodes_loaded += extra
                rows_written += extra + 1  # node rows plus the catalogue row
        elif name == "core.index":
            index_ms += duration_ms(record)
            if isinstance(extra, int):
                rows_written += extra  # inode and block rows
        elif name == "admission.admit" and extra == "ResourceError":
            refusals += 1
        operation = op_type(wire_to_request.get(record["trace"], record["trace"]))
        if operation is None:
            continue
        op_spans += 1
        layer_ms[(_layer(name), operation)] += self_ms(record)
        if name == "analytics.scan":
            scan_ms += duration_ms(record)
        elif name == "database.execute":
            statements[operation] += 1
        elif name in ("database.query_one", "database.query_all") and isinstance(
            extra, int
        ):
            rows += extra

    def per_op(value: float, operation: str | None = None) -> float:
        count = n_ops if operation is None else op_counts.get(operation, 0)
        return value / count if count else 0.0

    def layer(name: str, operation: str | None = None) -> float:
        return per_op(
            sum(
                value
                for (layer_name, op), value in layer_ms.items()
                if layer_name == name and operation in (None, op)
            ),
            operation,
        )

    served: dict[str, list[float]] = defaultdict(list)
    for record in records:
        if record["name"] == "server.request" and record["trace"]:
            served[record["trace"]].append(duration_ms(record))
    joined = 0
    wait_ms = 0.0
    for record in client_spans:
        matches = served.get(record["extra"], [])
        if len(matches) != 1:
            continue
        joined += 1
        inner = children.get((record["process"], record["id"]), [])
        sent = [c["start_ns"] for c in inner if c["name"] == "protocol.write_frame"]
        read = [c["end_ns"] for c in inner if c["name"] == "protocol.read_envelope"]
        if sent and read:
            wait_ms += (max(read) - min(sent)) / 1e6 - matches[0]

    hits, misses = caches.get("hits", 0), caches.get("misses", 0)
    window = window_ops or 1
    metrics = {
        "store.self_ms_per_op": layer("store"),
        "admission.ms_per_op": layer("admission"),
        "admission.refusals": float(refusals),
        "engine.self_ms_per_op": layer("engine"),
        "engine.cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "engine.misses_per_op": misses / window,
        "engine.evictions_per_op": caches.get("evictions", 0) / window,
        "database.statements_per_op": per_op(sum(statements.values())),
        "database.ms_per_op": layer("database"),
        "database.rows_per_op": per_op(rows),
        "loader.self_ms_per_load": loader_ms / loads if loads else 0.0,
        "core.index_ms_per_load": index_ms / loads if loads else 0.0,
        "loader.rows_written_per_node": (
            rows_written / nodes_loaded if nodes_loaded else 0.0
        ),
        "species.attach_ms_per_load": attach_ms / attaches if attaches else 0.0,
        "analytics.self_ms_per_op": layer("analytics"),
        "analytics.scan_ms_per_op": per_op(scan_ms),
        "wire.encode_ms_per_op": layer("wire.encode"),
        "wire.decode_ms_per_op": layer("wire.decode"),
        "wire.bytes_per_op": wire_bytes / window,
        "protocol.write_ms_per_op": layer("protocol.write"),
        "server.handler_self_ms_per_op": layer("server.handler"),
        "server.dispatch_self_ms_per_op": layer("server.dispatch"),
        "client.self_ms_per_op": layer("client"),
        "transport.wait_ms_per_op": wait_ms / joined if joined else 0.0,
        "trace.remote_joined_pct": (
            100.0 * joined / len(client_spans) if client_spans else 0.0
        ),
        "trace.spans_per_op": per_op(op_spans),
    }
    for operation in ("lca", "lca_batch", "clade", "project"):
        metrics[f"engine.{operation}.self_ms_per_op"] = layer("engine", operation)
    for operation in (
        "lca", "lca_batch", "clade", "project", "sample", "sequences",
        "load", "delete", "consensus", "compare",
    ):
        metrics[f"database.{operation}.statements_per_op"] = per_op(
            statements[operation], operation
        )
    for operation in ("consensus", "compare"):
        metrics[f"analytics.{operation}.self_ms_per_op"] = layer(
            "analytics", operation
        )
    return metrics
