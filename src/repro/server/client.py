"""`RemoteSession`: the :class:`CrimsonSession` protocol over TCP.

A remote session is the client half of ``crimson serve``: the same
query interface as :class:`~repro.storage.verbs.LocalSession`, but every
verb is one JSON-line round trip to a server process.  Results decode
back into the in-process types (:class:`QueryResult`,
:class:`NodeRow`, :class:`PhyloTree` projections, :class:`TreeInfo`,
:class:`IntegrityReport`), and a failure response re-raises the *same
typed* :class:`~repro.errors.CrimsonError` subclass the store raised
server-side — so code written against a session, including the
differential test suites, runs unchanged against a live server::

    with RemoteSession("127.0.0.1", 2006) as session:
        result = session.query(QueryRequest.lca("gold", "Lla", "Syn"))
        print(result.node.name, result.duration_ms)

A session owns one connection and serializes its round trips behind a
lock, so sharing one across threads is safe but won't parallelize;
open one session per worker thread or process to fan out (the server
gives each connection its own thread and pooled reader).
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Any

from repro.errors import ProtocolError, StorageError
from repro.obs import Span, new_trace_id
from repro.server import protocol
from repro.server.server import DEFAULT_PORT
from repro.storage import wire
from repro.storage.api import AnalyticsVerbs
from repro.storage.verbs import Verb, session_verbs


@session_verbs
class RemoteSession(AnalyticsVerbs):
    """A client connection to a ``crimson serve`` process.

    Its verb methods come from the registry
    (:func:`~repro.storage.verbs.session_verbs`); each is one round
    trip through :meth:`_run`.  ``analyze`` against a pre-analytics
    server re-raises the server's typed
    :class:`~repro.errors.ProtocolError` (unknown verb), and the
    connection survives.

    Parameters
    ----------
    host, port:
        The server's listen address.
    timeout:
        Socket timeout in seconds for connecting and for each round
        trip; ``None`` (the default) waits indefinitely.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        *,
        timeout: float | None = None,
    ) -> None:
        self.address = (host, port)
        try:
            self._socket = socket.create_connection((host, port), timeout)
        except OSError as error:
            raise StorageError(
                f"cannot reach a Crimson server at {host}:{port}: {error}"
            ) from None
        # Frames are small and latency-bound; never wait for Nagle.
        self._socket.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._stream = self._socket.makefile("rwb")
        self._lock = threading.Lock()
        # close() must never wait on the round-trip lock (a hung call
        # holds it), so the closed flag has its own tiny lock.
        self._close_lock = threading.Lock()
        self._next_id = 0
        self._closed = False
        #: Client-observed duration of the last round trip (ms).
        self.last_round_trip_ms: float | None = None
        #: Server-reported handling time of the last call (ms), from
        #: the response envelope's ``server_ms`` stamp; ``None``
        #: against a server too old to stamp it.
        self.last_server_ms: float | None = None
        #: Trace id of the last call — the same id the server stamped
        #: into its span, access log, and slow-query log.
        self.last_trace_id: str | None = None
        #: Per-trace decomposition of the last call: trace id, verb,
        #: round trip, server time, wire overhead, and the client
        #: span's write/read phase split.  ``None`` before any call.
        self.last_trace: dict[str, Any] | None = None

    # ------------------------------------------------------------------
    # One round trip
    # ------------------------------------------------------------------

    def _call(self, verb: str, payload: Any = None, *, record: bool = False):
        host, port = self.address
        with self._lock:
            if self._closed:
                raise StorageError(
                    f"session to {host}:{port} is closed"
                )
            self._next_id += 1
            request_id = self._next_id
            # The client half of the trace: a fresh id rides the
            # request envelope, the server adopts it, and the span's
            # write/read phases decompose this side of the round trip.
            span = Span(
                verb,
                session_key=f"{host}:{port}",
                trace_id=new_trace_id(),
            )
            started = time.perf_counter()
            try:
                with span.phase("write"):
                    protocol.write_frame(
                        self._stream,
                        protocol.request_envelope(
                            verb,
                            payload,
                            request_id=request_id,
                            record=record,
                            chunks=True,
                            trace=span.trace_id,
                        ),
                    )
                with span.phase("read"):
                    envelope = protocol.read_envelope(self._stream)
            except ProtocolError:
                # The stream is no longer frame-aligned; the next call
                # would pair stale bytes with the wrong request.
                self.close()
                raise
            except (OSError, ValueError) as error:
                # ValueError: the stream was closed under a blocked
                # read by close() from another thread.  Either way the
                # round trip died mid-flight — a late response could
                # still arrive and mispair with the next request, so
                # the session is done.
                self.close()
                raise StorageError(
                    f"connection to {host}:{port} lost: {error}"
                ) from None
        round_trip_ms = (time.perf_counter() - started) * 1000.0
        if envelope is None:
            raise StorageError(
                f"server at {host}:{port} closed the connection"
            )
        try:
            kind, body = protocol.parse_response(envelope)
            if envelope.get("id") != request_id:
                raise ProtocolError(
                    f"response names request {envelope.get('id')!r}, "
                    f"expected {request_id}"
                )
        except ProtocolError:
            # Request/response pairing can no longer be trusted.
            self.close()
            raise
        self.last_round_trip_ms = round(round_trip_ms, 3)
        server_ms = envelope.get("server_ms")
        self.last_server_ms = (
            float(server_ms)
            if isinstance(server_ms, (int, float))
            and not isinstance(server_ms, bool)
            else None
        )
        # A new server echoes the adopted trace id; trust its word (an
        # old server echoes nothing and the client-minted id stands).
        echoed = protocol.trace_of(envelope)
        if echoed is not None:
            span.trace_id = echoed
        if kind == "error":
            span.fail(str(body.get("kind", "error")))
        span.finish()
        self.last_trace_id = span.trace_id
        self.last_trace = {
            "trace_id": span.trace_id,
            "verb": verb,
            "round_trip_ms": self.last_round_trip_ms,
            "server_ms": self.last_server_ms,
            "wire_overhead_ms": self.last_wire_overhead_ms,
            "phases": {
                label: round(ms, 4) for label, ms in span.phases.items()
            },
            "outcome": "error" if span.error_kind else "ok",
        }
        if kind == "error":
            raise wire.decode_error(body)
        return body

    @property
    def last_wire_overhead_ms(self) -> float | None:
        """Wire cost of the last call: client-observed round trip minus
        the server-reported handling time (``None`` before any call, or
        against a server too old to stamp ``server_ms``).  Clamped at
        zero: the two clocks are different ``perf_counter`` processes,
        so a fast reply can put the raw difference microseconds below
        zero — that is skew, not negative wire time."""
        if self.last_round_trip_ms is None or self.last_server_ms is None:
            return None
        return max(
            0.0, round(self.last_round_trip_ms - self.last_server_ms, 3)
        )

    def _run(self, verb: Verb, request: Any, record: bool) -> Any:
        """One registry verb as one round trip: encode its argument,
        call, decode its answer with the verb's wire types."""
        payload = wire.encode_request(request, verb.request)
        body = self._call(verb.name, payload, record=record)
        return wire.decode_result(body, verb.result)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Close the connection (idempotent, safe from any thread).

        Never waits on an in-flight round trip: shutting the socket
        down unblocks a reader stuck on a hung server, which then
        surfaces :class:`StorageError` to its caller.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        try:
            self._socket.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._stream.close()
        except (OSError, ValueError):
            pass
        try:
            self._socket.close()
        except OSError:
            pass

    def __enter__(self) -> "RemoteSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        host, port = self.address
        state = "closed" if self._closed else "open"
        return f"RemoteSession({host}:{port}, {state})"
