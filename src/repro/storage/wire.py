"""Versioned wire codec for the Crimson query surface.

Everything a :class:`~repro.storage.api.CrimsonSession` exchanges with
a remote store round-trips through this module as plain JSON-friendly
data.  One codec serves every verb of the registry
(:mod:`repro.storage.verbs`): :func:`codec` compiles a plan for a wire
type from its annotations (``typing.get_type_hints`` on a dataclass,
recursively through tuples, lists, mappings and optionals) once, on
first use, and keeps it.  Dataclass fields cross in declaration order
under their own names.  Hand-written hooks remain only where the
generic shape does not fit:

* :class:`~repro.trees.tree.PhyloTree` crosses as quoted Newick plus
  its name (projections and consensus trees);
* :class:`~repro.storage.rows.NodeRow` — the hot path of every query
  result — has a literal encoder;
* :attr:`AnalyticsResult.support <repro.storage.api.AnalyticsResult>`
  crosses as sorted ``[[name, ...], fraction]`` rows;
* the ``estimate`` verb's request is either kind of request, tagged
  with a ``kind`` discriminator;
* :class:`~repro.errors.CrimsonError` payloads go through the
  :data:`ERROR_KINDS` registry (:func:`encode_error` /
  :func:`decode_error`); a kind's ``wire_fields`` declare the context
  it carries beside the message, each field crossing through the codec
  of its declared wire type, and a malformed field decodes as absent.

The RPC server and client (:mod:`repro.server`) frame the encoded data
as JSON lines and never reach into its fields.

Every encoded message carries ``"protocol": PROTOCOL_VERSION``, except
catalogue rows and the ``describe``/``verify`` arguments, which have
always crossed unstamped.  Decoders reject messages stamped with a
different version (or none) with :class:`~repro.errors.ProtocolError`,
so a future incompatible codec can bump the constant and old peers
fail loudly instead of misreading fields.  Malformed payloads —
missing keys, mistyped fields or elements — also raise
:class:`~repro.errors.ProtocolError` naming the field; *semantic*
errors inside a well-formed message (an unknown operation, an empty
taxon list) surface as the usual :class:`~repro.errors.QueryError`
because decoding a request re-runs its constructor's validation.
Optional fields a peer leaves out take their dataclass defaults.
"""

from __future__ import annotations

import dataclasses
import re
import types
import typing
from collections.abc import Mapping
from typing import Any, Callable, NamedTuple, Union

import repro.errors as _errors
from repro.admission.estimator import CostEstimate
from repro.errors import CrimsonError, ProtocolError
from repro.storage.api import (
    AnalyticsRequest,
    AnalyticsResult,
    HealthReport,
    QueryRequest,
    QueryResult,
    StatsRequest,
    StatsSnapshot,
    support_rows,
)
from repro.storage.rows import NodeRow
from repro.trees.newick import parse_newick, write_newick
from repro.trees.tree import PhyloTree

PROTOCOL_VERSION = 1
"""The wire protocol this build speaks (bump on incompatible change)."""

#: Error kinds the codec round-trips by name; anything unlisted decodes
#: as the base CrimsonError so callers can still catch it.
ERROR_KINDS: dict[str, type[CrimsonError]] = {
    cls.__name__: cls
    for cls in vars(_errors).values()
    if isinstance(cls, type) and issubclass(cls, CrimsonError)
}

ESTIMATE_REQUEST = QueryRequest | AnalyticsRequest
"""Wire type of the ``estimate`` verb's argument."""


def stamp(payload: dict[str, Any]) -> dict[str, Any]:
    """Return ``payload`` with the protocol version stamped in."""
    payload["protocol"] = PROTOCOL_VERSION
    return payload


def check_protocol(payload: Mapping[str, Any], what: str) -> None:
    """Reject a payload this codec does not speak.

    Raises
    ------
    ProtocolError
        If ``payload`` is not a mapping, carries no ``protocol`` stamp,
        or is stamped with a version other than :data:`PROTOCOL_VERSION`.
    """
    if not isinstance(payload, Mapping):
        raise ProtocolError(f"{what} must be a JSON object, got {payload!r}")
    version = payload.get("protocol")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"{what} speaks protocol {version!r}; this build speaks "
            f"{PROTOCOL_VERSION}"
        )


# ----------------------------------------------------------------------
# The verb boundary: what the server and the client call
# ----------------------------------------------------------------------

def encode_request(request: Any, kind: Any = QueryRequest) -> Any:
    """Encode a verb's argument of wire type ``kind``."""
    return codec(kind).encode(request)


def decode_request(payload: Any, kind: Any = QueryRequest) -> Any:
    """Decode and *re-validate* a verb's argument of wire type ``kind``.

    Shape problems raise :class:`ProtocolError`; a well-formed payload
    describing an invalid request (unknown operation, empty taxa)
    raises :class:`~repro.errors.QueryError` from the request's
    constructor — the same error an in-process caller would see.
    """
    return codec(kind).decode(payload, "payload")


def encode_result(result: Any, kind: Any = QueryResult) -> Any:
    """Encode a verb's answer of wire type ``kind`` (results embed
    their request, for replay and audit)."""
    return codec(kind).encode(result)


def decode_result(payload: Any, kind: Any = QueryResult) -> Any:
    """Decode a verb's answer of wire type ``kind``."""
    return codec(kind).decode(payload, "payload")


# ----------------------------------------------------------------------
# Compiled plans
# ----------------------------------------------------------------------

class Codec(NamedTuple):
    """Both directions of one wire type.

    ``decode(payload, where)`` names ``where`` — the field being read —
    in the :class:`ProtocolError` it raises on a malformed payload.
    ``exact`` lists the types a scalar decodes unchanged, so a
    container can check all its items in one pass.
    """

    encode: Callable[[Any], Any]
    decode: Callable[[Any, str], Any]
    exact: frozenset[type] = frozenset()


#: Compiled codecs by wire type.  Two threads that miss at once both
#: compile the same codec; either result may stay.
_CODECS: dict[Any, Codec] = {}


def codec(kind: Any) -> Codec:
    """The codec of wire type ``kind``, compiled on first use."""
    found = _CODECS.get(kind)
    if found is None:
        found = _CODECS[kind] = _compile(kind)
    return found


def as_dict(message: Any) -> dict[str, Any]:
    """A message's wire payload without the protocol stamp."""
    payload = codec(type(message)).encode(message)
    del payload["protocol"]
    return payload


def _same(value: Any) -> Any:
    return value


def _mistyped(where: str, expected: str, value: Any) -> str:
    return f"malformed {where} must be {expected}, got {value!r}"


_EXPECTED = {str: "a string", int: "an int", float: "a number", bool: "a bool"}


def _scalar(kinds: tuple[type, ...]) -> Codec:
    expected = " or ".join(_EXPECTED[kind] for kind in kinds)
    exact = frozenset(kinds)
    # bool is an int subclass, but True is never a count or a number.
    no_bool = bool not in kinds
    # JSON writes 2.0 as 2.0 but a peer may send 2: a number is a float.
    to_float = float in kinds
    if to_float:
        kinds += (int,)

    def decode(value: Any, where: str) -> Any:
        if not isinstance(value, kinds) or (
            no_bool and isinstance(value, bool)
        ):
            raise ProtocolError(_mistyped(where, expected, value))
        return float(value) if to_float and type(value) is int else value

    return Codec(_same, decode, exact)


def _optional(inner: Codec) -> Codec:
    encode, decode, _ = inner
    return Codec(
        _same if encode is _same
        else lambda value: None if value is None else encode(value),
        lambda value, where: None if value is None else decode(value, where),
    )


def _sequence(items: Codec, build: type) -> Codec:
    encode, decode, exact = items

    def decode_sequence(value: Any, where: str) -> Any:
        if not isinstance(value, (list, tuple)):
            raise ProtocolError(_mistyped(where, "a list", value))
        if exact.issuperset(map(type, value)):
            return build(value)
        where = f"{where} items"
        return build([decode(entry, where) for entry in value])

    return Codec(
        list if encode is _same
        else lambda value: [encode(entry) for entry in value],
        decode_sequence,
    )


def _fixed_tuple(items: tuple[Codec, ...]) -> Codec:
    # The types every position takes unchanged.
    exact = frozenset.intersection(*(item.exact for item in items))

    def decode(value: Any, where: str) -> Any:
        if not isinstance(value, (list, tuple)) or len(value) != len(items):
            raise ProtocolError(
                _mistyped(where, f"a list of {len(items)}", value)
            )
        if exact.issuperset(map(type, value)):
            return tuple(value)
        return tuple([item.decode(v, where) for item, v in zip(items, value)])

    return Codec(
        list if all(item.encode is _same for item in items)
        else lambda value: [item.encode(v) for item, v in zip(items, value)],
        decode,
    )


def _mapping(values: Codec) -> Codec:
    encode, decode, _ = values
    decode_key = _scalar((str,)).decode

    def decode_mapping(value: Any, where: str) -> Any:
        if not isinstance(value, Mapping):
            raise ProtocolError(_mistyped(where, "an object", value))
        where = f"{where} entries"
        return {
            decode_key(key, where): decode(entry, where)
            for key, entry in value.items()
        }

    return Codec(
        dict if encode is _same
        else lambda value: {key: encode(v) for key, v in value.items()},
        decode_mapping,
    )


def _compile(kind: Any) -> Codec:
    if kind in _HOOKS:
        return _HOOKS[kind]
    if kind is Any:
        return Codec(_same, lambda value, where: value)
    if kind is None:
        # A verb without an argument: nothing to send, nothing to read.
        return Codec(lambda value: None, lambda value, where: None)
    if kind in _EXPECTED:
        return _scalar((kind,))
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin in (Union, types.UnionType):
        members = tuple(arg for arg in args if arg is not type(None))
        if len(members) < len(args):
            return _optional(codec(Union[members]))
        if all(member in _EXPECTED for member in members):
            return _scalar(members)
    elif origin is tuple and args[-1] is Ellipsis:
        return _sequence(codec(args[0]), tuple)
    elif origin is tuple:
        return _fixed_tuple(tuple(codec(arg) for arg in args))
    elif origin is list:
        return _sequence(codec(args[0]), list)
    elif origin in (dict, Mapping):
        return _mapping(codec(args[1]))
    elif dataclasses.is_dataclass(kind):
        return _dataclass(kind)
    raise ProtocolError(f"no wire codec for {kind!r}")


#: The protocol messages carry the stamp.  The rows nested in them and
#: the describe and verify arguments have always crossed unstamped.
_STAMPED = {
    QueryRequest, QueryResult, AnalyticsRequest, AnalyticsResult,
    StatsRequest, StatsSnapshot, HealthReport, CostEstimate,
}


def _literal_encoder(
    encoders: dict[str, Callable[[Any], Any]], stamped: bool
) -> Callable[[Any], dict[str, Any]]:
    """``lambda value: {"field": encode(value.field), ...}``, compiled
    from source the way :mod:`dataclasses` builds ``__init__``.

    Encoding runs once per message and once per result row; a literal
    dict is about 2.5x faster than filling one field by field.  Field
    names are identifiers, so the source cannot be anything else.
    """
    namespace: dict[str, Any] = {}
    items = []
    for name, encode in encoders.items():
        if encode is _same:
            items.append(f"{name!r}: value.{name}")
        else:
            namespace[f"encode_{name}"] = encode
            items.append(f"{name!r}: encode_{name}(value.{name})")
    if stamped:
        items.append(f"'protocol': {PROTOCOL_VERSION}")
    exec(f"def encode(value):\n    return {{{', '.join(items)}}}", namespace)
    return namespace["encode"]


def _hints(cls: type) -> dict[str, Any]:
    """Resolved field annotations of ``cls``; ``storage/api.py`` names
    :class:`CostEstimate` for type checkers only."""
    return typing.get_type_hints(cls, localns={"CostEstimate": CostEstimate})


def _dataclass(cls: type) -> Codec:
    """Fields in declaration order under their own names; absent
    fields with a default take it."""
    noun = re.sub(r"(?<!^)(?=[A-Z])", " ", cls.__name__).lower()
    described = f"{'an' if noun[0] in 'aeiou' else 'a'} {noun}"
    stamped = cls in _STAMPED
    hints = _hints(cls)
    encoders: dict[str, Callable[[Any], Any]] = {}
    reads: list[tuple[str, Callable[[Any, str], Any], str, bool]] = []
    for field in dataclasses.fields(cls):
        name = field.name
        encode, decode, _ = (
            _FIELD_HOOKS.get((cls, name)) or codec(hints[name])
        )
        encoders[name] = encode
        required = (
            field.default is dataclasses.MISSING
            and field.default_factory is dataclasses.MISSING
        )
        reads.append((name, decode, f"{noun}: {name!r}", required))
    encode_dataclass = _literal_encoder(encoders, stamped)

    def decode_dataclass(payload: Any, where: str) -> Any:
        if stamped:
            check_protocol(payload, described)
        elif not isinstance(payload, Mapping):
            raise ProtocolError(
                f"{described} must be a JSON object, got {payload!r}"
            )
        values = {}
        for name, decode, field_where, required in reads:
            if name in payload:
                values[name] = decode(payload[name], field_where)
            elif required:
                raise ProtocolError(
                    f"malformed {noun}: missing the {name!r} field"
                )
        return cls(**values)

    return Codec(encode_dataclass, decode_dataclass)


# ----------------------------------------------------------------------
# Hooks: the shapes the generic plan does not produce
# ----------------------------------------------------------------------

_NODE_FIELDS = tuple(field.name for field in dataclasses.fields(NodeRow))


def _decode_node_row(payload: Any, where: str) -> NodeRow:
    # The hot path: every query result carries its rows, so they skip
    # the per-field type checks.
    try:
        values = [payload[name] for name in _NODE_FIELDS]
    except (KeyError, TypeError) as error:
        raise ProtocolError(
            f"malformed {where}: not a node row ({error})"
        ) from None
    values[-1] = bool(values[-1])  # is_leaf
    return NodeRow(*values)


def _encode_tree(tree: PhyloTree) -> dict[str, Any]:
    # write_newick emits shortest-round-trip floats, so branch lengths
    # survive bit-for-bit; quoted labels cover names with spaces,
    # quotes, or Newick structure characters.
    return {"newick": write_newick(tree), "name": tree.name}


def _decode_tree(payload: Any, where: str) -> PhyloTree:
    if not isinstance(payload, Mapping):
        raise ProtocolError(_mistyped(where, "an encoded tree", payload))
    newick = _TEXT.decode(payload.get("newick"), f"{where} 'newick'")
    tree = parse_newick(newick)
    tree.name = _NAME.decode(payload.get("name"), f"{where} 'name'")
    return tree


_TEXT = _scalar((str,))
_NAME = _optional(_TEXT)

#: Support crosses as ``[[name, ...], fraction]`` rows, best first.
_SUPPORT_ROWS = _optional(_sequence(
    _fixed_tuple((_sequence(_TEXT, list), _scalar((float,)))), list
))


def _encode_support(support: Any) -> Any:
    return _SUPPORT_ROWS.encode(
        None if support is None else support_rows(support)
    )


def _decode_support(rows: Any, where: str) -> Any:
    rows = _SUPPORT_ROWS.decode(rows, where)
    if rows is None:
        return None
    return {frozenset(cluster): fraction for cluster, fraction in rows}


#: The estimate verb's argument is either request, tagged by kind.
_ESTIMATE_KINDS = {"query": QueryRequest, "analytics": AnalyticsRequest}


def _encode_estimate_request(request: Any) -> dict[str, Any]:
    for kind, cls in _ESTIMATE_KINDS.items():
        if isinstance(request, cls):
            return stamp(
                {"kind": kind, "request": codec(cls).encode(request)}
            )
    raise ProtocolError(
        f"an estimate request wraps a QueryRequest or AnalyticsRequest, "
        f"got {type(request).__name__}"
    )


def _decode_estimate_request(payload: Any, where: str) -> Any:
    check_protocol(payload, "an estimate request")
    kind = payload.get("kind")
    if kind not in _ESTIMATE_KINDS:
        raise ProtocolError(
            f"an estimate request's 'kind' must be 'query' or "
            f"'analytics', got {kind!r}"
        )
    return codec(_ESTIMATE_KINDS[kind]).decode(
        payload.get("request"), "estimate request: 'request'"
    )


_HOOKS: dict[Any, Codec] = {
    PhyloTree: Codec(_encode_tree, _decode_tree),
    ESTIMATE_REQUEST: Codec(
        _encode_estimate_request, _decode_estimate_request
    ),
}

_FIELD_HOOKS: dict[tuple[type, str], Codec] = {
    (AnalyticsResult, "support"): Codec(_encode_support, _decode_support),
}

# Rows encode with the generic plan (all scalars) but decode unchecked.
_HOOKS[NodeRow] = Codec(_dataclass(NodeRow).encode, _decode_node_row)


# ----------------------------------------------------------------------
# Typed errors
# ----------------------------------------------------------------------

def encode_error(error: BaseException) -> dict[str, Any]:
    """Encode an exception as ``{"kind": ..., "message": ...}``.

    Crimson errors keep their class name so the far side re-raises the
    same type, plus a ``details`` object holding each of the kind's
    ``wire_fields`` that is set, in declared order; anything else is
    reported as the base ``CrimsonError`` (the message still names the
    original class).
    """
    if isinstance(error, CrimsonError):
        payload: dict[str, Any] = {"kind": type(error).__name__, "message": str(error)}
        details = {
            name: codec(wire_type).encode(value)
            for name, wire_type in error.wire_fields.items()
            if (value := getattr(error, name)) is not None
        }
        if details:
            payload["details"] = details
        return stamp(payload)
    return stamp(
        {
            "kind": "CrimsonError",
            "message": f"{type(error).__name__}: {error}",
        }
    )


def decode_error(payload: Mapping[str, Any]) -> CrimsonError:
    """Rebuild the typed exception an error payload describes."""
    check_protocol(payload, "an error payload")
    if "kind" not in payload or "message" not in payload:
        raise ProtocolError(
            "an error payload needs 'kind' and 'message' fields"
        )
    kind = payload["kind"]
    if not isinstance(kind, str):
        raise ProtocolError(
            f"an error payload's 'kind' must be a string, got {kind!r}"
        )
    error = ERROR_KINDS.get(kind, CrimsonError)(payload["message"])
    details = payload.get("details")
    if isinstance(details, Mapping):
        for name, wire_type in error.wire_fields.items():
            if name not in details:
                continue
            # Lenient: a peer built from other source may malform its
            # optional context, and that never fails the decode.
            try:
                value = codec(wire_type).decode(details[name], name)
            except ProtocolError:
                continue
            setattr(error, name, value)
    return error
