"""JSON-lines framing for the Crimson RPC protocol.

One request, one response, each a single JSON object on its own
``\\n``-terminated UTF-8 line.  The *content* of every payload is
defined by :mod:`repro.storage.wire`; this module only defines the
envelopes around them and the line framing:

Request envelope::

    {"protocol": 1, "id": 7, "verb": "query",
     "payload": {...}, "record": false}

Response envelope (one of)::

    {"protocol": 1, "id": 7, "ok": true,  "result": ...}
    {"protocol": 1, "id": 7, "ok": false, "error": {"kind": ..., ...}}

``id`` is an opaque client-chosen integer echoed back verbatim, so a
client can pipeline requests on one connection and still pair answers.
The verbs are the entries of :data:`repro.storage.verbs.REGISTRY`
(:data:`VERBS` lists their names).  A response envelope may also
carry ``server_ms`` — the server-side handling time in milliseconds —
which clients use to separate wire overhead from server work, and a
request envelope may carry ``trace`` — the caller's trace id, echoed
back on the response and stamped into the server's span, access log,
and slow-query log so one id joins all three records.  Peers that
don't know a field ignore it.

Chunked responses
-----------------
A client that sets ``"chunks": true`` in its request envelope opts in
to **multi-frame continuation**: a response whose serialized form
reaches :data:`STREAM_CHUNK_BYTES` is split into chunk frames ::

    {"protocol": 1, "id": 7, "chunk": 0, "more": true,  "data": "..."}
    {"protocol": 1, "id": 7, "chunk": 1, "more": false, "data": "..."}

where the concatenated ``data`` pieces are the JSON text of the
ordinary response envelope.  Each chunk frame is bounded, so big
answers stream in pieces instead of being refused by the
:data:`MAX_FRAME_BYTES` guard or buffered whole past it.  The field
rides the existing :data:`PROTOCOL_VERSION` negotiation point: old
servers ignore unknown envelope fields and keep answering in single
frames, and old clients never advertise, so they never see a chunk
frame — both directions stay compatible.
"""

from __future__ import annotations

import json
from typing import Any, BinaryIO, Mapping

from repro.errors import ProtocolError
from repro.storage.verbs import REGISTRY, Verb
from repro.storage.wire import PROTOCOL_VERSION, check_protocol, stamp

VERBS: tuple[str, ...] = tuple(REGISTRY)
"""Verbs the server dispatches: the registry's names (the session
protocol, minus ``close``; the named analytics operations all travel
as one ``analyze`` verb).

An unknown verb — including ``analyze`` sent to a pre-analytics build —
is answered with a typed :class:`~repro.errors.ProtocolError` envelope
and the connection stays usable; only unframeable bytes end it."""

UNKNOWN_VERB = "unknown"
"""The label spans and metrics use for a verb the registry lacks, so a
client cannot mint metric names by sending junk verbs."""

MAX_FRAME_BYTES = 64 * 1024 * 1024
"""Upper bound on one frame — a guard against unframed garbage."""

STREAM_CHUNK_BYTES = 4 * 1024 * 1024
"""Serialized responses at least this large stream as chunk frames
(when the client advertised ``chunks``) instead of one giant frame."""

MAX_STREAM_BYTES = 1024 * 1024 * 1024
"""Upper bound on a reassembled chunked response — a guard against a
hostile peer streaming forever."""


MAX_TRACE_CHARS = 64
"""Upper bound on a trace id carried in an envelope — ids past it are
treated as absent rather than trusted into logs verbatim."""


def request_envelope(
    verb: str,
    payload: Any = None,
    *,
    request_id: int = 0,
    record: bool = False,
    chunks: bool = False,
    trace: str | None = None,
) -> dict[str, Any]:
    """Build one request envelope (stamped with the protocol version).

    ``chunks=True`` advertises that the sender understands chunked
    responses; ``trace`` carries the caller's trace id so the server
    can stamp the same id into its span, access log, and slow-query
    log.  Both ride the existing :data:`PROTOCOL_VERSION` negotiation
    point: peers that don't know a field ignore it.
    """
    envelope = {
        "id": request_id, "verb": verb, "payload": payload, "record": record
    }
    if chunks:
        envelope["chunks"] = True
    if trace:
        envelope["trace"] = trace
    return stamp(envelope)


def trace_of(envelope: Mapping[str, Any]) -> str | None:
    """The envelope's trace id, or ``None`` if absent or malformed.

    Deliberately forgiving: a missing, non-string, empty, or oversized
    ``trace`` field means "no id travelled" — old peers interop and a
    hostile peer cannot push arbitrary blobs into the access log.
    """
    trace = envelope.get("trace")
    if (
        isinstance(trace, str)
        and 0 < len(trace) <= MAX_TRACE_CHARS
        and trace.isprintable()
    ):
        return trace
    return None


def response_envelope(request_id: Any, result: Any) -> dict[str, Any]:
    """Build one success response."""
    return stamp({"id": request_id, "ok": True, "result": result})


def error_envelope(request_id: Any, error: Mapping[str, Any]) -> dict[str, Any]:
    """Build one failure response around an encoded error payload."""
    return stamp({"id": request_id, "ok": False, "error": dict(error)})


def verb_label(envelope: Mapping[str, Any]) -> str:
    """The envelope's verb if the registry knows it, else
    :data:`UNKNOWN_VERB` — the only names spans and metrics take."""
    verb = envelope.get("verb")
    return verb if isinstance(verb, str) and verb in REGISTRY else UNKNOWN_VERB


def parse_request(envelope: Mapping[str, Any]) -> tuple[Verb, Any, bool]:
    """Validate a request envelope; return ``(verb, payload, record)``.

    Raises
    ------
    ProtocolError
        On a version mismatch, an unknown verb, or a malformed shape.
    """
    check_protocol(envelope, "a request envelope")
    verb = envelope.get("verb")
    if not isinstance(verb, str) or verb not in REGISTRY:
        raise ProtocolError(
            f"unknown verb {verb!r}; expected one of {', '.join(VERBS)}"
        )
    return (
        REGISTRY[verb],
        envelope.get("payload"),
        bool(envelope.get("record", False)),
    )


def parse_response(envelope: Mapping[str, Any]) -> Any:
    """Validate a response envelope; return its result payload.

    A failure response is *returned* as ``("error", payload)`` rather
    than raised — the client decides how to surface the decoded error.
    """
    check_protocol(envelope, "a response envelope")
    if "ok" not in envelope:
        raise ProtocolError("a response envelope needs an 'ok' field")
    if envelope["ok"]:
        return "result", envelope.get("result")
    error = envelope.get("error")
    if not isinstance(error, Mapping):
        raise ProtocolError("a failure response needs an 'error' object")
    return "error", error


def write_frame(stream: BinaryIO, envelope: Mapping[str, Any]) -> None:
    """Serialize one envelope as a JSON line and flush it.

    Raises
    ------
    ProtocolError
        If the serialized frame exceeds :data:`MAX_FRAME_BYTES` —
        raised *before* anything is written, so the stream stays
        frame-aligned and the connection remains usable.
    """
    line = json.dumps(envelope, ensure_ascii=False, separators=(",", ":"))
    encoded = line.encode("utf-8")
    if len(encoded) >= MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(encoded)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit; narrow the request "
            "(fewer taxa or pairs per call)"
        )
    stream.write(encoded + b"\n")
    stream.flush()


def read_frame(stream: BinaryIO) -> dict[str, Any] | None:
    """Read one JSON-line envelope; ``None`` on a clean EOF.

    Raises
    ------
    ProtocolError
        On unparseable JSON, a non-object frame, or a frame longer than
        :data:`MAX_FRAME_BYTES`.
    """
    line = stream.readline(MAX_FRAME_BYTES + 1)
    if not line:
        return None
    if len(line) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame exceeds {MAX_FRAME_BYTES} bytes; not a Crimson peer?"
        )
    try:
        envelope = json.loads(line)
    except ValueError as error:
        raise ProtocolError(f"unparseable frame: {error}") from None
    if not isinstance(envelope, dict):
        raise ProtocolError(
            f"a frame must be a JSON object, got {type(envelope).__name__}"
        )
    return envelope


# ----------------------------------------------------------------------
# Chunked continuation (negotiated via the request's "chunks" field)
# ----------------------------------------------------------------------

def _chunk_piece_chars() -> int:
    """Characters of envelope text per chunk frame.

    Derived from the *current* limits so a test (or deployment) that
    shrinks :data:`MAX_FRAME_BYTES` still gets in-bound chunk frames.
    The budget of 8 bytes per character covers the worst of UTF-8
    width and JSON re-escaping of the embedded text, plus the chunk
    envelope's own overhead.
    """
    return max(1, min(STREAM_CHUNK_BYTES, MAX_FRAME_BYTES) // 8)


def write_envelope(
    stream: BinaryIO, envelope: Mapping[str, Any], *, chunked: bool = False
) -> None:
    """Write one response envelope, chunking large ones if negotiated.

    With ``chunked=False`` this is exactly :func:`write_frame` — one
    frame or a :class:`ProtocolError` past :data:`MAX_FRAME_BYTES`.
    With ``chunked=True`` a response whose serialized form reaches the
    streaming threshold is split into bounded chunk frames carrying
    consecutive pieces of the envelope's JSON text; the split is by
    *character*, so multi-byte text never tears across frames.
    """
    line = json.dumps(envelope, ensure_ascii=False, separators=(",", ":"))
    encoded = line.encode("utf-8")
    threshold = min(STREAM_CHUNK_BYTES, MAX_FRAME_BYTES)
    if not chunked or len(encoded) < threshold:
        if len(encoded) >= MAX_FRAME_BYTES:
            raise ProtocolError(
                f"frame of {len(encoded)} bytes exceeds the "
                f"{MAX_FRAME_BYTES}-byte limit; narrow the request "
                "(fewer taxa or pairs per call)"
            )
        stream.write(encoded + b"\n")
        stream.flush()
        return
    piece = _chunk_piece_chars()
    request_id = envelope.get("id")
    total = len(line)
    for index, start in enumerate(range(0, total, piece)):
        write_frame(
            stream,
            stamp(
                {
                    "id": request_id,
                    "chunk": index,
                    "more": start + piece < total,
                    "data": line[start : start + piece],
                }
            ),
        )


def read_envelope(stream: BinaryIO) -> dict[str, Any] | None:
    """Read one response envelope, reassembling chunk frames.

    A frame without a ``chunk`` field is returned as-is (``None`` on a
    clean EOF).  Chunk frames are validated — protocol stamp, matching
    request id, consecutive indexes, bounded total size — concatenated,
    and parsed back into the ordinary response envelope.

    Raises
    ------
    ProtocolError
        On a malformed or out-of-order chunk frame, a stream that ends
        mid-chunk, a reassembled response past :data:`MAX_STREAM_BYTES`,
        or any :func:`read_frame` failure.
    """
    envelope = read_frame(stream)
    if envelope is None or "chunk" not in envelope:
        return envelope
    request_id = envelope.get("id")
    pieces: list[str] = []
    received = 0
    index = 0
    while True:
        check_protocol(envelope, "a chunk frame")
        if envelope.get("chunk") != index:
            raise ProtocolError(
                f"chunk {envelope.get('chunk')!r} arrived out of order "
                f"(expected {index})"
            )
        if envelope.get("id") != request_id:
            raise ProtocolError(
                f"chunk frame names request {envelope.get('id')!r}, "
                f"expected {request_id!r}"
            )
        data = envelope.get("data")
        if not isinstance(data, str):
            raise ProtocolError("a chunk frame's 'data' must be a string")
        received += len(data)
        if received > MAX_STREAM_BYTES:
            raise ProtocolError(
                f"chunked response exceeds {MAX_STREAM_BYTES} bytes; "
                "refusing to buffer further"
            )
        pieces.append(data)
        if not envelope.get("more"):
            break
        index += 1
        envelope = read_frame(stream)
        if envelope is None:
            raise ProtocolError(
                "stream ended mid-chunk (peer hung up between chunk frames)"
            )
        if "chunk" not in envelope:
            raise ProtocolError(
                "peer interleaved a non-chunk frame into a chunked response"
            )
    try:
        assembled = json.loads("".join(pieces))
    except ValueError as error:
        raise ProtocolError(
            f"unparseable chunked response: {error}"
        ) from None
    if not isinstance(assembled, dict):
        raise ProtocolError(
            "a chunked response must reassemble to a JSON object, got "
            f"{type(assembled).__name__}"
        )
    return assembled


__all__ = [
    "MAX_FRAME_BYTES",
    "MAX_STREAM_BYTES",
    "MAX_TRACE_CHARS",
    "PROTOCOL_VERSION",
    "STREAM_CHUNK_BYTES",
    "UNKNOWN_VERB",
    "VERBS",
    "error_envelope",
    "parse_request",
    "parse_response",
    "read_envelope",
    "read_frame",
    "request_envelope",
    "response_envelope",
    "trace_of",
    "verb_label",
    "write_envelope",
    "write_frame",
]
