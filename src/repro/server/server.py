"""The Crimson RPC server: a threaded TCP front-end over one store.

The paper's Crimson is a shared repository serving many evaluation
clients; PR 2/3 made one *process* scale (reader pool, shards), and
this server makes the repository reachable from other processes.  Each
client connection is handled on its own thread speaking JSON lines
(:mod:`repro.server.protocol`); every verb executes through the exact
in-process code path — :meth:`CrimsonStore.query`,
:meth:`CrimsonStore.list_trees`, … — so a connection thread binds to
its own pooled read-only reader (and warm per-thread row caches) on
the store's shards, and N remote clients contend exactly as N local
threads would: not at all.

Run it from the CLI (``crimson --db crimson.db --readers 4 serve``) or
embed it::

    with CrimsonStore.open(path, readers=4) as store:
        with CrimsonServer(store) as server:     # port 0 = ephemeral
            host, port = server.address
            ...                                  # serving in background

Errors never tear down a connection: any :class:`CrimsonError` raised
while handling a request is encoded (:func:`repro.storage.wire.
encode_error`) and returned in a failure envelope, so the client
re-raises the same typed exception.  Only an unparseable frame ends
the conversation — after a best-effort error reply — because the
stream can no longer be trusted to be frame-aligned.
"""

from __future__ import annotations

import json
import socketserver
import threading
import time
from contextlib import nullcontext
from typing import Any

from repro.errors import CrimsonError, ProtocolError, ResourceError
from repro.obs import (
    Counter,
    Span,
    TimeSeriesSampler,
    activate,
    current_span,
    new_trace_id,
)
from repro.server import protocol
from repro.storage import wire
from repro.storage.verbs import Call

DEFAULT_PORT = 2006
"""The default ``crimson serve`` port (the paper's VLDB year)."""


class _MeteredStream:
    """Count the bytes crossing one direction of a connection.

    Wraps the handler's buffered ``rfile``/``wfile`` and feeds a
    shared counter; everything else (``close``, ``closed``, …)
    delegates to the wrapped stream.
    """

    def __init__(self, stream: Any, counter: Counter) -> None:
        self._stream = stream
        self._counter = counter

    def readline(self, limit: int = -1) -> bytes:
        data = self._stream.readline(limit)
        self._counter.inc(len(data))
        return data

    def write(self, data: bytes) -> int:
        self._counter.inc(len(data))
        return self._stream.write(data)

    def flush(self) -> None:
        self._stream.flush()

    def __getattr__(self, name: str) -> Any:
        return getattr(self._stream, name)


class _ThreadedTCPServer(socketserver.ThreadingTCPServer):
    # One daemon thread per connection; the listener socket reopens
    # promptly after a restart.
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, handler, crimson: "CrimsonServer") -> None:
        self.crimson = crimson
        super().__init__(address, handler)


class _ConnectionHandler(socketserver.StreamRequestHandler):
    """One client connection: a loop of frames until EOF."""

    # Frames are small and latency-bound; never wait for Nagle.
    disable_nagle_algorithm = True

    def handle(self) -> None:
        crimson: CrimsonServer = self.server.crimson
        metrics = crimson.store.metrics
        self.rfile = _MeteredStream(
            self.rfile, metrics.counter("server.bytes_in")
        )
        self.wfile = _MeteredStream(
            self.wfile, metrics.counter("server.bytes_out")
        )
        host, port = self.client_address[:2]
        session_key = f"{host}:{port}"
        while True:
            try:
                envelope = protocol.read_frame(self.rfile)
            except ProtocolError as error:
                # The stream is no longer frame-aligned; answer once
                # and hang up.
                self._reply(protocol.error_envelope(
                    None, wire.encode_error(error)
                ))
                return
            except OSError:
                return
            if envelope is None:
                return
            request_id = envelope.get("id")
            # Adopt the caller's trace id (old clients don't send one;
            # mint locally so every record still carries an id).  The
            # same id lands in the span → access log → slow log, and
            # is echoed on the reply for the client to verify.
            span = Span(
                protocol.verb_label(envelope),
                session_key=session_key,
                trace_id=protocol.trace_of(envelope) or new_trace_id(),
            )
            started = time.perf_counter()
            crimson._begin_request()
            try:
                with activate(span):
                    response = protocol.response_envelope(
                        request_id, crimson.dispatch(envelope)
                    )
            except CrimsonError as error:
                span.fail(type(error).__name__)
                response = protocol.error_envelope(
                    request_id, wire.encode_error(error)
                )
            # The server's last-resort backstop: an unexpected bug must
            # reach the client as an error envelope, not kill the
            # connection thread silently.
            except Exception as error:  # noqa: BLE001  # crimson: allow[errors-no-swallow] reported to client as an error envelope
                span.fail(type(error).__name__)
                response = protocol.error_envelope(
                    request_id, wire.encode_error(error)
                )
            finally:
                crimson._end_request()
            # Stamped before the write phase, so server_ms is the time
            # from parsed frame to response ready — the client
            # subtracts it from its round trip to see wire overhead.
            response["server_ms"] = round(
                (time.perf_counter() - started) * 1000.0, 3
            )
            response["trace"] = span.trace_id
            with span.phase("write"):
                delivered = self._reply(
                    response, chunked=envelope.get("chunks") is True
                )
            crimson._observe(span)
            if not delivered:
                return

    def _reply(
        self, response: dict[str, Any], *, chunked: bool = False
    ) -> bool:
        try:
            protocol.write_envelope(self.wfile, response, chunked=chunked)
            return True
        except ProtocolError as error:
            # The result itself was too large for one frame; nothing
            # was written, so a small typed error can take its place.
            try:
                protocol.write_frame(
                    self.wfile,
                    protocol.error_envelope(
                        response.get("id"), wire.encode_error(error)
                    ),
                )
                return True
            except OSError:
                return False
        except OSError:
            return False


class CrimsonServer:
    """Serve one store's :class:`CrimsonSession` verbs over TCP.

    Parameters
    ----------
    store:
        The :class:`~repro.storage.store.CrimsonStore` to serve.  Open
        it with ``readers=N`` so connection threads read on pooled
        read-only connections instead of the writer.  The server
        borrows the store; closing the server does not close it.
    host, port:
        Listen address.  ``port=0`` binds an ephemeral port — read the
        actual one from :attr:`address`.
    access_log:
        Path of a structured access log: one JSON line per handled
        request (verb, session key, phase timings, cost annotation,
        outcome), fed from the same spans the slow-query log sees.
        ``None`` (the default) logs nothing.

    The server shares the store's
    :class:`~repro.obs.MetricsRegistry`, so a ``stats`` snapshot taken
    over TCP carries the same counter names a local one does, plus the
    server-side series (``server.latency.<verb>``, ``server.bytes_in``
    / ``server.bytes_out``, ``server.inflight``,
    ``server.errors.<Kind>``).
    """

    def __init__(
        self,
        store,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        *,
        access_log: str | None = None,
    ) -> None:
        self.store = store
        self._access_lock = threading.Lock()
        self._access_log = (
            open(access_log, "a", encoding="utf-8")
            if access_log is not None
            else None
        )
        self._tcp = _ThreadedTCPServer((host, port), _ConnectionHandler, self)
        self._thread: threading.Thread | None = None
        # Whether the TCP accept loop is actually inside serve_forever;
        # BaseServer.shutdown() deadlocks when the loop never started,
        # so stoppers must consult this under the same lock that
        # _serve_loop uses to enter.
        self._loop_lock = threading.Lock()
        self._loop_running = False
        # Graceful-shutdown state: while draining, new requests are
        # refused with a typed ResourceError and shutdown(drain=...)
        # waits for the in-flight count to hit zero.
        self._draining = False
        self._inflight = 0
        self._inflight_cond = threading.Condition()
        # Continuous 1 Hz history sampling while serving, so a remote
        # `stats --sections history` sees rolling windows even between
        # polls; started with the accept loop, stopped by shutdown.
        self._sampler = TimeSeriesSampler(store.timeseries)
        self._sampler_started = False

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` the server accepts connections on."""
        host, port = self._tcp.server_address[:2]
        return host, port

    # ------------------------------------------------------------------
    # Verb dispatch (shared by every connection thread)
    # ------------------------------------------------------------------

    def dispatch(self, envelope: dict[str, Any]) -> Any:
        """Execute one request envelope; return the result payload.

        Every verb takes the same path through its registry entry:
        decode the argument, run the store handler, encode the answer.
        Raises whatever the store raises — the connection handler turns
        exceptions into failure envelopes.
        """
        verb, payload, record = protocol.parse_request(envelope)
        # A draining server still answers the drain-exempt health verb
        # (status "draining"), so a load balancer can observe the drain
        # instead of being refused mid-poll.
        if self._draining and not verb.drain_exempt:
            raise ResourceError(
                "server is draining for shutdown; no new requests are "
                "admitted",
                resource="shutdown",
            )
        request = wire.decode_request(payload, verb.request)
        result = verb.handler(
            self.store, request, Call("tcp", record, self._draining)
        )
        with self._phase("encode"):
            return wire.encode_result(result, verb.result)

    @staticmethod
    def _phase(label: str):
        """The active span's phase timer, or a no-op without a span."""
        span = current_span()
        if span is None:
            return nullcontext()
        return span.phase(label)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _begin_request(self) -> None:
        with self._inflight_cond:
            self._inflight += 1
        self.store.metrics.gauge("server.inflight").inc()

    def _end_request(self) -> None:
        with self._inflight_cond:
            self._inflight -= 1
            self._inflight_cond.notify_all()
        self.store.metrics.gauge("server.inflight").dec()

    def _observe(self, span: Span) -> None:
        """Record one finished request: metrics, slow log, access log."""
        duration_ms = span.finish()
        metrics = self.store.metrics
        metrics.histogram(f"server.latency.{span.verb}").record(
            duration_ms / 1000.0
        )
        metrics.counter("server.requests").inc()
        if span.error_kind is not None:
            metrics.counter(f"server.errors.{span.error_kind}").inc()
        self.store.slow_log.observe(span)
        self._log_access(span)

    def _log_access(self, span: Span) -> None:
        stream = self._access_log
        if stream is None:
            return
        line = json.dumps(span.as_dict(), ensure_ascii=False)
        try:
            with self._access_lock:
                stream.write(line + "\n")
                stream.flush()
        except (OSError, ValueError):
            # A full disk or a log closed mid-shutdown must not kill
            # the connection thread; the request itself succeeded.
            pass

    @property
    def inflight(self) -> int:
        """Requests currently executing (for drains and diagnostics)."""
        with self._inflight_cond:
            return self._inflight

    def stop_accepting(self) -> None:
        """Start draining: refuse new requests, stop the accept loop.

        Safe to call from any thread *except* the one running
        :meth:`serve_forever` (stopping the loop waits for it to
        exit) — a signal handler should hand this to a helper thread.
        In-flight requests keep running; finish the shutdown with
        :meth:`shutdown`.
        """
        self._draining = True
        self._stop_tcp_loop()

    def _stop_tcp_loop(self) -> None:
        # BaseServer.shutdown() waits on an event that only its
        # serve_forever sets, so signalling a loop that never started
        # would block forever.  A loop that exits after the check is
        # fine: the event is then already set and shutdown() returns.
        with self._loop_lock:
            if not self._loop_running:
                return
        self._tcp.shutdown()

    def _serve_loop(self) -> None:
        # Entering under _loop_lock closes the race with stoppers: a
        # stop that lands before the loop starts sets _draining first
        # and is honoured here instead of being lost.
        with self._loop_lock:
            if self._draining:
                return
            self._loop_running = True
            if not self._sampler_started:
                self._sampler.start()
                self._sampler_started = True
        try:
            self._tcp.serve_forever(poll_interval=0.1)
        finally:
            with self._loop_lock:
                self._loop_running = False

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown` (blocking)."""
        try:
            self._serve_loop()
        finally:
            self._tcp.server_close()

    def start(self) -> tuple[str, int]:
        """Serve on a background daemon thread; return the bound address."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._serve_loop,
                name="crimson-server",
                daemon=True,
            )
            self._thread.start()
        return self.address

    def shutdown(self, drain: float | None = None) -> None:
        """Stop accepting connections and release the socket (idempotent).

        Safe to call whether the server is running in the background,
        on another thread via :meth:`serve_forever`, or not at all.

        ``drain`` waits up to that many seconds for in-flight requests
        to finish before the socket closes; while draining, new
        requests are answered with a typed
        :class:`~repro.errors.ResourceError` instead of executing.
        ``None`` (the default) keeps the historical immediate shutdown.
        """
        # Draining also bars a not-yet-started loop thread from ever
        # entering serve_forever, so server_close() below cannot pull
        # the socket out from under a live accept loop.
        self._draining = True
        if drain is not None:
            self._stop_tcp_loop()
            with self._inflight_cond:
                deadline = time.monotonic() + drain
                while self._inflight:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._inflight_cond.wait(
                        remaining
                    ):
                        break
        self._stop_tcp_loop()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        if self._sampler_started:
            self._sampler.stop()
        self._tcp.server_close()
        if self._access_log is not None:
            try:
                self._access_log.close()
            except OSError:
                pass

    def __enter__(self) -> "CrimsonServer":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        host, port = self.address
        return f"CrimsonServer({self.store!r}, {host}:{port})"
