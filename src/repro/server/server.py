"""The Crimson RPC server: one event loop in front of one store.

The paper's Crimson is a shared repository serving many evaluation
clients; the reader pool and shards make one *process* scale, and
this server makes the repository reachable from other processes.
Clients speak JSON lines (:mod:`repro.server.protocol`), and every verb
executes through the exact in-process code path —
:meth:`CrimsonStore.query`, :meth:`CrimsonStore.list_trees`, … — so a
remote caller gets the answers, errors and metrics a local one does.

Thread model
------------
One loop thread (``crimson-server``) owns the listening socket and
every connection socket.  The sockets are non-blocking and a
:class:`selectors.DefaultSelector` watches them:

* **Input.** Received bytes go to the connection's input buffer, where
  ``server.bytes_in`` counts them.  Each complete line is parsed by
  :func:`protocol.read_frame` and answered on the loop thread.
* **Output.** The reply is framed by :func:`protocol.write_envelope`
  into the connection's output buffer, where ``server.bytes_out``
  counts it, and sent at once; in the common case the socket takes all
  of it.  If bytes are left, the loop watches the socket for writing
  and stops reading that connection until its output drains, so a
  client that never reads costs one response of memory and never
  blocks the loop.  A send error closes only that connection.
* **Fairness.** Each pass over the ready connections answers at most
  one frame per connection, so a client pipelining many frames cannot
  starve the others; its own frames are answered in order.

The trade-off: requests from different connections no longer overlap.
Their Python never ran in parallel under the GIL anyway, and one
thread that owns every socket no longer pays for handing the GIL
between connection threads at every ``recv`` and ``send``.  But their
SQLite calls used to overlap and now do not, and a long request —
``verify`` over a big store, ``analyze`` over many large trees —
delays every other connection by its whole duration rather than by
GIL slices, ``health`` probes included: a health check's timeout must
outlast the longest request.  The served store runs on the loop
thread's single pooled reader, and an admission ``max_concurrent`` cap
never binds for it.
Scaling out is a matter of more server processes, not more threads.

Run it from the CLI (``crimson --db crimson.db --readers 4 serve``) or
embed it::

    with CrimsonStore.open(path, readers=4) as store:
        with CrimsonServer(store) as server:     # port 0 = ephemeral
            host, port = server.address
            ...                                  # serving in background

Errors never tear down a connection: any :class:`CrimsonError` raised
while handling a request is encoded (:func:`repro.storage.wire.
encode_error`) and returned in a failure envelope, so the client
re-raises the same typed exception.  Only an unframeable input — an
unparseable or non-object line, a line past
:data:`~repro.server.protocol.MAX_FRAME_BYTES`, or a hangup in the
middle of a frame — ends the conversation, after a best-effort error
reply, because the stream can no longer be trusted to be frame-aligned.
A bug outside the request's dispatch (in writing its reply, say) is
reported on stderr and closes that one connection; the loop goes on
serving the others.
"""

from __future__ import annotations

import io
import json
import selectors
import socket
import sys
import threading
import time
import traceback
from collections.abc import Callable
from contextlib import nullcontext
from typing import Any, TypeVar

from repro.errors import ProtocolError, ResourceError
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

T = TypeVar("T")

DEFAULT_PORT = 2006
"""The default ``crimson serve`` port (the paper's VLDB year)."""

_RECV_BYTES = 64 * 1024
"""Bytes asked of one ``recv``."""

_READ_AHEAD_BYTES = 1024 * 1024
"""Buffered input past which a connection that already holds a
complete frame is not read until its frames are answered — a client
that pipelines faster than it is served cannot grow the buffer
without bound."""


def _attempt(
    step: Callable[..., T], *args: Any
) -> tuple[T | None, Exception | None]:
    """Run ``step(*args)``; return its result, or the exception it raised.

    The server's one backstop: a bug must reach the client as an error
    envelope, or close that client's connection, never end the loop
    thread and every connection with it.  Every caller reports the
    exception it gets back.
    """
    try:
        return step(*args), None
    except Exception as error:  # noqa: BLE001  # crimson: allow[errors-no-swallow] returned to the caller, which reports it
        return None, error


class _Connection:
    """One client socket and its buffers, owned by the loop thread.

    It is also the ``stream`` the framing functions write replies to:
    :meth:`write` appends to the output buffer (counting
    ``server.bytes_out``) and :meth:`flush` sends what the socket takes.
    """

    __slots__ = (
        "sock", "session_key", "inbuf", "outbuf", "bytes_out",
        "line_end", "scanned", "events", "eof", "hangup", "closed",
    )

    def __init__(
        self, sock: socket.socket, session_key: str, bytes_out: Counter
    ) -> None:
        self.sock = sock
        self.session_key = session_key
        self.inbuf = bytearray()
        self.outbuf = bytearray()
        self.bytes_out = bytes_out
        # Index of the first newline in inbuf (-1: none found yet), and
        # how far inbuf is known to hold none, so a frame arriving in
        # many pieces is scanned once.
        self.line_end = -1
        self.scanned = 0
        self.events = 0         # selector interest currently registered
        self.eof = False        # the peer sent its last byte
        self.hangup = False     # close once the output drains
        self.closed = False

    def write(self, data: bytes) -> int:
        self.outbuf += data
        self.bytes_out.inc(len(data))
        return len(data)

    def flush(self) -> None:
        if not self.outbuf:
            return
        try:
            sent = self.sock.send(self.outbuf)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            # The peer is gone: drop what it will never read.
            self.outbuf.clear()
            self.hangup = True
            return
        del self.outbuf[:sent]

    def has_frame(self) -> bool:
        """Whether a frame — or an unframeable input — is ready."""
        if self.line_end < 0:
            self.line_end = self.inbuf.find(b"\n", self.scanned)
            if self.line_end < 0:
                self.scanned = len(self.inbuf)
                # A trailing partial frame at EOF and an over-long
                # unterminated one are handed over whole: read_frame
                # turns them into the usual ProtocolError.
                return bool(self.inbuf) and (
                    self.eof or len(self.inbuf) > protocol.MAX_FRAME_BYTES
                )
        return True

    def take_frame(self) -> bytes:
        """Remove and return the frame :meth:`has_frame` found."""
        end = len(self.inbuf) if self.line_end < 0 else self.line_end + 1
        line = bytes(self.inbuf[:end])
        del self.inbuf[:end]
        self.line_end = -1
        self.scanned = 0
        return line


class CrimsonServer:
    """Serve one store's :class:`CrimsonSession` verbs over TCP.

    Parameters
    ----------
    store:
        The :class:`~repro.storage.store.CrimsonStore` to serve.  Every
        request runs on the server's one loop thread, so with
        ``readers=N`` it reads on one pooled read-only connection
        instead of the writer.  The server borrows the store; closing
        the server does not close it.
    host, port:
        Listen address.  ``port=0`` binds an ephemeral port — read the
        actual one from :attr:`address`.
    access_log:
        Path of a structured access log: one JSON line per handled
        request (verb, session key, phase timings, cost annotation,
        outcome), fed from the same spans the slow-query log sees.
        ``None`` (the default) logs nothing.

    One ``crimson-server`` thread runs a :mod:`selectors` loop over
    the listener and every connection (see the module docstring for
    the trade-off).  ``server.bytes_in`` is counted as bytes are
    received into a connection's input buffer and ``server.bytes_out``
    as replies are framed into its output buffer.

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
        self._access_log = (
            open(access_log, "a", encoding="utf-8")
            if access_log is not None
            else None
        )
        self._listener: socket.socket | None = socket.socket()
        try:
            self._listener.setsockopt(
                socket.SOL_SOCKET, socket.SO_REUSEADDR, 1
            )
            self._listener.bind((host, port))
            self._listener.listen(socket.SOMAXCONN)
            self._listener.setblocking(False)
        except OSError:
            self._listener.close()
            raise
        bound_host, bound_port = self._listener.getsockname()[:2]
        self._address = (bound_host, bound_port)
        # stop_accepting() and shutdown() wake a selecting loop by
        # writing a byte here; neither takes a lock, so a signal
        # handler may call stop_accepting() directly.
        self._wake_reader, self._wake_writer = socket.socketpair()
        self._wake_reader.setblocking(False)
        self._wake_writer.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ)
        self._selector.register(self._wake_reader, selectors.EVENT_READ)
        self._connections: set[_Connection] = set()
        # Connections holding a frame to answer, in arrival order; one
        # frame each per pass.
        self._ready: dict[_Connection, None] = {}
        self._bytes_in = store.metrics.counter("server.bytes_in")
        self._bytes_out = store.metrics.counter("server.bytes_out")
        self._thread: threading.Thread | None = None
        # Graceful-shutdown state: while draining, the listener is
        # closed and new requests are refused with a typed
        # ResourceError; shutdown(drain=...) waits for the in-flight
        # count to hit zero, then stops the loop (_closing).
        self._draining = False
        self._closing = False
        self._not_accepting = threading.Event()
        self._inflight = 0
        self._inflight_cond = threading.Condition()
        # Continuous 1 Hz history sampling while serving, so a remote
        # `stats --sections history` sees rolling windows even between
        # polls; started with the loop, stopped by shutdown.
        self._sampler = TimeSeriesSampler(store.timeseries)
        self._sampler_started = False

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` the server accepts connections on."""
        return self._address

    # ------------------------------------------------------------------
    # Verb dispatch (on the loop thread)
    # ------------------------------------------------------------------

    def dispatch(self, envelope: dict[str, Any]) -> Any:
        """Execute one request envelope; return the result payload.

        Every verb takes the same path through its registry entry:
        decode the argument, run the store handler, encode the answer.
        Raises whatever the store raises — :meth:`_answer` turns
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

    def _answer(self, conn: _Connection, line: bytes) -> None:
        """Answer one frame of ``conn``: parse, dispatch, reply, observe."""
        try:
            envelope = protocol.read_frame(io.BytesIO(line))
        except ProtocolError as error:
            # The stream is no longer frame-aligned; answer once and
            # hang up.
            self._reply(conn, protocol.error_envelope(
                None, wire.encode_error(error)
            ))
            conn.hangup = True
            conn.inbuf.clear()
            return
        if envelope is None:
            return
        request_id = envelope.get("id")
        # Adopt the caller's trace id (old clients don't send one; mint
        # locally so every record still carries an id).  The same id
        # lands in the span → access log → slow log, and is echoed on
        # the reply for the client to verify.
        span = Span(
            protocol.verb_label(envelope),
            session_key=conn.session_key,
            trace_id=protocol.trace_of(envelope) or new_trace_id(),
        )
        started = time.perf_counter()
        self._begin_request()
        try:
            with activate(span):
                # A typed CrimsonError and an unexpected bug alike reach
                # the client as an error envelope.
                result, error = _attempt(self.dispatch, envelope)
        finally:
            self._end_request()
        if error is None:
            response = protocol.response_envelope(request_id, result)
        else:
            span.fail(type(error).__name__)
            response = protocol.error_envelope(
                request_id, wire.encode_error(error)
            )
        # Stamped before the write phase, so server_ms is the time from
        # parsed frame to response ready — the client subtracts it from
        # its round trip to see wire overhead.
        response["server_ms"] = round(
            (time.perf_counter() - started) * 1000.0, 3
        )
        response["trace"] = span.trace_id
        with span.phase("write"):
            self._reply(conn, response, chunked=envelope.get("chunks") is True)
        self._observe(span)

    @staticmethod
    def _reply(
        conn: _Connection, response: dict[str, Any], *, chunked: bool = False
    ) -> None:
        try:
            protocol.write_envelope(conn, response, chunked=chunked)
        except (ProtocolError, ValueError) as error:
            # The result was too large for one frame, or would not
            # encode (JSON parses an echoed id holding a lone surrogate
            # that UTF-8 cannot carry).  Nothing was written, so a small
            # typed error takes its place, under the request's id if
            # that encodes.
            fallback = protocol.error_envelope(
                response.get("id"), wire.encode_error(error)
            )
            try:
                protocol.write_frame(conn, fallback)
            except ValueError:
                fallback["id"] = None
                protocol.write_frame(conn, fallback)

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------

    def _run(self) -> None:
        try:
            while not self._closing:
                if self._draining and self._listener is not None:
                    self._close_listener()
                # With frames waiting, only poll: they are answered
                # right after, and the sockets are read again next pass.
                self._poll(0 if self._ready else None)
                ready, self._ready = self._ready, {}
                for conn in ready:
                    if not conn.closed:
                        self._contained(conn, self._answer_next, conn)
        finally:
            self._close_sockets()

    def _answer_next(self, conn: _Connection) -> None:
        self._answer(conn, conn.take_frame())
        self._settle(conn)

    def _poll(self, timeout: float | None) -> None:
        for key, events in self._selector.select(timeout):
            conn = key.data
            if conn is None:
                if key.fileobj is self._listener:
                    self._accept()
                else:
                    self._drain_wakeups()
                continue
            self._contained(conn, self._on_event, conn, events)

    def _on_event(self, conn: _Connection, events: int) -> None:
        if events & selectors.EVENT_WRITE:
            conn.flush()
        elif events & selectors.EVENT_READ:
            self._receive(conn)
        self._settle(conn)

    def _contained(
        self, conn: _Connection, step: Callable[..., None], *args: Any
    ) -> None:
        """Run one step of serving ``conn``; confine a bug in it to ``conn``.

        Anything escaping the step — a reply that cannot be written, an
        observer that fails — is reported on stderr and counted in
        ``server.errors.<Kind>``, and closes that connection only; the
        loop, and every other connection, keeps serving.
        """
        _, error = _attempt(step, *args)
        if error is None:
            return
        self.store.metrics.counter(f"server.errors.{type(error).__name__}").inc()
        print(
            f"crimson-server: closing {conn.session_key} after an "
            "unexpected error:",
            file=sys.stderr,
        )
        traceback.print_exception(error)
        self._close(conn)

    def _accept(self) -> None:
        listener = self._listener
        while listener is not None:
            try:
                sock, peer = listener.accept()
            except OSError:
                # Nothing left to accept, out of descriptors, or the
                # peer gave up first: the listener stays watched.
                return
            try:
                sock.setblocking(False)
                # Frames are small and latency-bound; never wait for
                # Nagle.
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                sock.close()  # the peer is already gone
                continue
            host, port = peer[:2]
            conn = _Connection(sock, f"{host}:{port}", self._bytes_out)
            self._connections.add(conn)
            self._watch(conn, selectors.EVENT_READ)

    def _receive(self, conn: _Connection) -> None:
        try:
            data = conn.sock.recv(_RECV_BYTES)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            conn.eof = conn.hangup = True
            conn.inbuf.clear()
            return
        if data:
            self._bytes_in.inc(len(data))
            conn.inbuf += data
        else:
            conn.eof = True

    def _settle(self, conn: _Connection) -> None:
        """Queue ``conn``'s next frame and set what the loop waits for."""
        if conn.closed:
            return
        if conn.outbuf:
            # Backpressure: neither read nor answer until it drains.
            self._watch(conn, selectors.EVENT_WRITE)
            return
        if conn.hangup or conn.eof and not conn.inbuf:
            self._close(conn)
            return
        ready = conn.has_frame()
        if ready:
            self._ready[conn] = None
        # Past EOF (always with a frame left, else closed above) or the
        # read-ahead there is nothing to read until frames are answered.
        full = ready and (conn.eof or len(conn.inbuf) >= _READ_AHEAD_BYTES)
        self._watch(conn, 0 if full else selectors.EVENT_READ)

    def _watch(self, conn: _Connection, events: int) -> None:
        if events == conn.events:
            return
        if not conn.events:
            self._selector.register(conn.sock, events, conn)
        elif not events:
            self._selector.unregister(conn.sock)
        else:
            self._selector.modify(conn.sock, events, conn)
        conn.events = events

    def _close(self, conn: _Connection) -> None:
        if conn.closed:
            return
        if conn.events:
            conn.events = 0
            try:
                self._selector.unregister(conn.sock)
            except (KeyError, ValueError):
                pass  # not registered after all, or its fd is gone
        conn.closed = True
        self._connections.discard(conn)
        self._ready.pop(conn, None)
        try:
            # A FIN before the close: a peer whose further input goes
            # unread sees the end of the stream, not only a reset.
            conn.sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # the peer is already gone
        conn.sock.close()

    def _wake(self) -> None:
        try:
            self._wake_writer.send(b"\0")
        except OSError:
            # Full (a wakeup is already pending) or closed (the loop
            # is gone): either way there is nothing left to wake.
            pass

    def _drain_wakeups(self) -> None:
        try:
            while self._wake_reader.recv(_RECV_BYTES):
                pass
        except OSError:
            pass  # drained

    def _close_listener(self) -> None:
        listener, self._listener = self._listener, None
        if listener is not None:
            self._selector.unregister(listener)
            listener.close()
        self._not_accepting.set()

    def _close_sockets(self) -> None:
        """Close the listener, every connection and the wakeup pair."""
        if self._selector.get_map() is None:
            return  # already closed
        self._close_listener()
        for conn in list(self._connections):
            self._close(conn)
        self._ready.clear()
        self._selector.close()
        self._wake_reader.close()
        self._wake_writer.close()

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
            stream.write(line + "\n")
            stream.flush()
        except (OSError, ValueError):
            # A full disk or a log closed mid-shutdown must not kill
            # the loop; the request itself succeeded.
            pass

    @property
    def inflight(self) -> int:
        """Requests currently executing (for drains and diagnostics)."""
        with self._inflight_cond:
            return self._inflight

    def stop_accepting(self) -> None:
        """Start draining: refuse new requests, close the listener.

        Never blocks and takes no lock, so it is safe from any thread
        and from a signal handler.  The loop goes on answering open
        connections — refusals, and ``health`` with status
        ``draining`` — until :meth:`shutdown`.
        """
        self._draining = True
        self._wake()

    def start(self) -> tuple[str, int]:
        """Serve on the ``crimson-server`` daemon thread; return the
        bound address."""
        if self._thread is None and not self._closing:
            if not self._sampler_started:
                self._sampler.start()
                self._sampler_started = True
            self._thread = threading.Thread(
                target=self._run, name="crimson-server", daemon=True
            )
            self._thread.start()
        return self.address

    def serve_forever(self) -> None:
        """Serve until :meth:`stop_accepting` or :meth:`shutdown`.

        Starts the loop thread and blocks until the listener closes;
        connections already open are still answered (draining) until
        :meth:`shutdown` stops the loop.
        """
        self.start()
        self._not_accepting.wait()

    def shutdown(self, drain: float | None = None) -> None:
        """Stop serving and release every socket (idempotent).

        Safe to call whether the server is running in the background,
        behind :meth:`serve_forever`, or not at all.

        ``drain`` waits up to that many seconds for in-flight requests
        to finish before the loop stops; while draining, new requests
        are answered with a typed :class:`~repro.errors.ResourceError`
        instead of executing.  ``None`` (the default) keeps the
        historical immediate shutdown.
        """
        self.stop_accepting()
        if drain is not None:
            with self._inflight_cond:
                deadline = time.monotonic() + drain
                while self._inflight:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._inflight_cond.wait(
                        remaining
                    ):
                        break
        self._closing = True
        self._wake()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=5.0)
        if thread is None:
            # No loop ever ran to close the sockets on its way out.
            self._close_sockets()
        if self._sampler_started:
            self._sampler.stop()
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
