"""The wire codec: JSON round-trips of requests, results, and errors.

Every payload crosses a real ``json.dumps``/``json.loads`` boundary in
these tests, so nothing non-serializable or lossy (tuples, floats,
unicode, quoted Newick labels) can hide in the encoded dicts.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import types
import typing
from collections.abc import Mapping
from typing import Any

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.errors as errors_module
from repro.errors import (
    CrimsonError,
    ProtocolError,
    QueryError,
    ResourceError,
    StorageError,
)
from repro.storage import wire
from repro.storage.api import (
    OPERATIONS,
    STATS_SECTIONS,
    AnalyticsRequest,
    AnalyticsResult,
    QueryRequest,
    QueryResult,
    StatsRequest,
)
from repro.storage.maintenance import IntegrityReport
from repro.storage.tree_repository import TreeInfo
from repro.storage.verbs import REGISTRY
from repro.storage.store import CrimsonStore
from repro.trees.build import sample_tree
from repro.trees.newick import parse_newick, write_newick
from repro.trees.tree import PhyloTree


def over_json(payload):
    """Force a payload through an actual JSON byte boundary."""
    return json.loads(json.dumps(payload, ensure_ascii=False))


# Taxon names exercising unicode, Newick metacharacters, quotes, and
# the underscore-for-space convention.
TRICKY_NAMES = st.text(
    alphabet=st.characters(
        codec="utf-8", exclude_characters="\x00", exclude_categories=("Cs",)
    ),
    min_size=1,
    max_size=12,
).filter(lambda s: s.strip() == s and s != "")

taxon_refs = st.one_of(st.integers(min_value=0, max_value=10**6), TRICKY_NAMES)


def requests_for(operation: str):
    """A hypothesis strategy of valid requests for one operation."""
    tree = TRICKY_NAMES
    if operation == "lca_batch":
        return st.builds(
            QueryRequest.lca_batch,
            tree,
            st.lists(st.tuples(taxon_refs, taxon_refs), min_size=1, max_size=5),
        )
    if operation == "match":
        return st.builds(
            QueryRequest.match,
            tree,
            st.just("((a,b),c);"),
            ordered=st.booleans(),
        )
    taxa = (
        st.lists(TRICKY_NAMES, min_size=1, max_size=5)
        if operation == "project"
        else st.lists(taxon_refs, min_size=1, max_size=5)
    )
    constructor = getattr(QueryRequest, operation)
    return st.builds(lambda t, xs: constructor(t, *xs), tree, taxa)


SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestRequestRoundTrip:
    @pytest.mark.parametrize(
        "operation", ["lca", "lca_batch", "clade", "project", "match"]
    )
    def test_every_operation_round_trips(self, operation):
        @SETTINGS
        @given(request=requests_for(operation))
        def check(request):
            decoded = wire.decode_request(
                over_json(wire.encode_request(request))
            )
            assert decoded == request

        check()

    def test_unicode_taxa_survive(self):
        request = QueryRequest.lca("gold", "Δrosophila", "果蝇", "Δ'quoted'")
        assert (
            wire.decode_request(over_json(wire.encode_request(request)))
            == request
        )

    def test_decoded_request_is_revalidated(self):
        payload = over_json(
            wire.encode_request(QueryRequest.lca("gold", "a", "b"))
        )
        payload["taxa"] = []
        with pytest.raises(QueryError):
            wire.decode_request(payload)
        # A list is no taxon: a shape error, caught before validation.
        payload["taxa"] = [["not", "a"], "taxon"]
        with pytest.raises(ProtocolError, match="'taxa'"):
            wire.decode_request(payload)

    def test_bad_duration_is_protocol_error(self):
        result = QueryResult(
            request=QueryRequest.lca("t", "a", "b"), duration_ms=1.5
        )
        payload = over_json(wire.encode_result(result))
        for bad in (None, "fast", True):
            payload["duration_ms"] = bad
            with pytest.raises(ProtocolError, match="duration_ms"):
                wire.decode_result(payload)

    def test_malformed_shape_is_protocol_error(self):
        with pytest.raises(ProtocolError):
            wire.decode_request(
                wire.stamp({"operation": "lca"})  # no tree field
            )
        with pytest.raises(ProtocolError):
            wire.decode_request(wire.stamp({"operation": 3, "tree": "t"}))
        with pytest.raises(ProtocolError):
            wire.decode_request("not a mapping")


@pytest.fixture
def stored_store():
    with CrimsonStore.open() as store:
        store.trees.store_tree(sample_tree(), f=2)
        yield store


class TestResultRoundTrip:
    REQUESTS = {
        "lca": lambda t: QueryRequest.lca(t, "Lla", "Syn"),
        "lca_batch": lambda t: QueryRequest.lca_batch(
            t, [("Lla", "Spy"), ("Bha", "Syn")]
        ),
        "clade": lambda t: QueryRequest.clade(t, "Lla", "Spy"),
        "project": lambda t: QueryRequest.project(t, "Lla", "Syn", "Bha"),
        "match": lambda t: QueryRequest.match(t, "(Lla,Spy);"),
    }

    @pytest.mark.parametrize("operation", sorted(REQUESTS))
    def test_every_operation_result_round_trips(
        self, stored_store, operation
    ):
        request = self.REQUESTS[operation]("fig1-sample")
        result = stored_store.query(request)
        decoded = wire.decode_result(over_json(wire.encode_result(result)))
        assert decoded.request == request
        assert decoded.duration_ms == result.duration_ms
        assert decoded.nodes == result.nodes
        assert decoded.matched == result.matched
        assert decoded.similarity == result.similarity
        if result.projection is None:
            assert decoded.projection is None
        else:
            assert write_newick(decoded.projection) == write_newick(
                result.projection
            )
            assert decoded.projection.name == result.projection.name

    def test_quoted_newick_names_survive(self):
        from repro.trees.newick import parse_newick

        tree = parse_newick("('it''s a leaf':1.5,'with space':2.25)root;")
        tree.name = "quoted"
        result = QueryResult(
            request=QueryRequest.project("t", "x"),
            duration_ms=1.0,
            projection=tree,
        )
        decoded = wire.decode_result(over_json(wire.encode_result(result)))
        assert decoded.projection.leaf_names() == ["it's a leaf", "with space"]
        assert decoded.projection.name == "quoted"
        assert write_newick(decoded.projection) == write_newick(tree)

    def test_node_rows_survive_bit_for_bit(self, stored_store):
        result = stored_store.query(
            QueryRequest.clade("fig1-sample", "Lla", "Syn")
        )
        decoded = wire.decode_result(over_json(wire.encode_result(result)))
        assert decoded.nodes == result.nodes
        assert all(
            type(row.dist_from_root) is float for row in decoded.nodes
        )


@pytest.fixture
def analytics_store():
    from repro.trees.build import caterpillar
    from repro.trees.newick import parse_newick

    with CrimsonStore.open() as store:
        store.trees.store_tree(caterpillar(8), name="ladder", f=4)
        store.trees.store_tree(
            parse_newick("(((t1,t2),(t3,t4)),((t5,t6),(t7,t8)))r;"),
            name="bush",
            f=4,
        )
        store.trees.store_tree(
            parse_newick("(((t1,t3),(t2,t4)),((t5,t7),(t6,t8)))r;"),
            name="shuffled",
            f=4,
        )
        yield store


class TestAnalyticsRoundTrip:
    def test_request_round_trips(self):
        for request in (
            AnalyticsRequest.compare("a", "b"),
            AnalyticsRequest.distance_matrix("a", "b", "c"),
            AnalyticsRequest.consensus("α", "b", threshold=0.75),
            AnalyticsRequest.consensus("a", strict=True, threshold=0.0),
        ):
            decoded = wire.decode_request(
                over_json(wire.encode_request(request, AnalyticsRequest)),
                AnalyticsRequest,
            )
            assert decoded == request

    def test_decoded_request_is_revalidated(self):
        payload = over_json(
            wire.encode_request(
                AnalyticsRequest.compare("a", "b"), AnalyticsRequest
            )
        )
        payload["trees"] = ["only"]
        with pytest.raises(QueryError):
            wire.decode_request(payload, AnalyticsRequest)
        payload["operation"] = "blend"
        with pytest.raises(QueryError):
            wire.decode_request(payload, AnalyticsRequest)

    def test_request_shape_errors_are_protocol_errors(self):
        good = over_json(
            wire.encode_request(
                AnalyticsRequest.compare("a", "b"), AnalyticsRequest
            )
        )
        for key, bad in (("operation", 3), ("threshold", "half"),
                         ("threshold", True)):
            payload = dict(good)
            payload[key] = bad
            with pytest.raises(ProtocolError):
                wire.decode_request(payload, AnalyticsRequest)
        with pytest.raises(ProtocolError):
            wire.decode_request("not a mapping", AnalyticsRequest)

    def test_compare_result_round_trips(self, analytics_store):
        result = analytics_store.analyze(
            AnalyticsRequest.compare("bush", "shuffled")
        )
        decoded = wire.decode_result(
            over_json(wire.encode_result(result, AnalyticsResult)),
            AnalyticsResult,
        )
        assert decoded.request == result.request
        assert decoded.comparison == result.comparison
        assert decoded.shared_clusters == result.shared_clusters
        assert decoded.matrix is None and decoded.consensus is None

    def test_matrix_result_round_trips(self, analytics_store):
        result = analytics_store.analyze(
            AnalyticsRequest.distance_matrix("ladder", "bush", "shuffled")
        )
        decoded = wire.decode_result(
            over_json(wire.encode_result(result, AnalyticsResult)),
            AnalyticsResult,
        )
        assert decoded.matrix == result.matrix
        assert all(
            type(cell) is int for row in decoded.matrix for cell in row
        )

    def test_consensus_result_round_trips(self, analytics_store):
        result = analytics_store.analyze(
            AnalyticsRequest.consensus("ladder", "bush", "shuffled")
        )
        decoded = wire.decode_result(
            over_json(wire.encode_result(result, AnalyticsResult)),
            AnalyticsResult,
        )
        assert write_newick(decoded.consensus) == write_newick(
            result.consensus
        )
        assert decoded.support == dict(result.support)

    def test_malformed_result_fields_are_protocol_errors(
        self, analytics_store
    ):
        result = analytics_store.analyze(
            AnalyticsRequest.consensus("ladder", "bush")
        )
        good = over_json(wire.encode_result(result, AnalyticsResult))
        for key, bad in (
            ("duration_ms", "fast"),
            ("support", [["cluster", "not-a-list"], 0.5]),
            ("support", [[["a"], "half"]]),
            ("matrix", [["1"]]),
            ("matrix", [[True]]),
            ("shared_clusters", True),
        ):
            payload = over_json(good)
            payload[key] = bad
            with pytest.raises(ProtocolError):
                wire.decode_result(payload, AnalyticsResult)

    def test_future_analytics_payloads_rejected(self):
        request = AnalyticsRequest.compare("a", "b")
        payload = over_json(wire.encode_request(request, AnalyticsRequest))
        payload["protocol"] = wire.PROTOCOL_VERSION + 1
        with pytest.raises(ProtocolError):
            wire.decode_request(payload, AnalyticsRequest)


class TestCatalogueAndReports:
    def test_tree_info_round_trips(self, stored_store):
        info = stored_store.describe("fig1-sample")
        assert wire.decode_result(
            over_json(wire.encode_result(info, TreeInfo)), TreeInfo
        ) == info

    def test_report_round_trips(self):
        report = IntegrityReport("gold", problems=["block 3 broke", "läuft"])
        decoded = wire.decode_result(
            over_json(wire.encode_result(report, IntegrityReport)),
            IntegrityReport,
        )
        assert decoded.tree_name == report.tree_name
        assert decoded.problems == report.problems
        assert not decoded.ok


class TestMistypedFields:
    """Every field is checked against its annotation while decoding, and
    the ProtocolError names the field."""

    SAMPLES = {
        QueryResult: QueryResult(
            request=QueryRequest.lca("t", "a", "b"), duration_ms=1.0
        ),
        IntegrityReport: IntegrityReport("gold", ["broken"]),
        TreeInfo: TreeInfo(1, "gold", 8, 5, 3, 2, 2, 3, "2026-10-17", ""),
    }

    @pytest.mark.parametrize("kind, field, bad", [
        (QueryResult, "matched", "yes"),
        (QueryResult, "similarity", "high"),
        (QueryResult, "nodes", {"not": "a list"}),
        (IntegrityReport, "tree_name", 42),
        (IntegrityReport, "problems", [1, 2]),
        (IntegrityReport, "problems", "not a list"),
        (TreeInfo, "tree_id", "1"),
        (TreeInfo, "name", 3),
        (TreeInfo, "n_nodes", 8.5),
        (TreeInfo, "n_leaves", True),
        (TreeInfo, "created_at", None),
        (TreeInfo, "shard", "0"),
    ])
    def test_mistyped_field_is_named(self, kind, field, bad):
        payload = over_json(wire.encode_result(self.SAMPLES[kind], kind))
        payload[field] = bad
        with pytest.raises(ProtocolError, match=f"'{field}'"):
            wire.decode_result(payload, kind)

    def test_projection_name_must_be_a_string(self):
        payload = over_json(wire.encode_result(QueryResult(
            request=QueryRequest.project("t", "a"),
            duration_ms=1.0,
            projection=parse_newick("(a,b)r;"),
        )))
        payload["projection"]["name"] = ["a", "list"]
        with pytest.raises(ProtocolError, match="'projection' 'name'"):
            wire.decode_result(payload)

    def test_absent_fields_take_defaults_or_are_named(self):
        info = self.SAMPLES[TreeInfo]
        payload = over_json(wire.encode_result(info, TreeInfo))
        del payload["shard"]
        assert wire.decode_result(payload, TreeInfo).shard == 0
        request = wire.decode_request(wire.stamp(
            {"operation": "lca", "tree": "t", "taxa": ["a", "b"]}
        ))
        assert request == QueryRequest.lca("t", "a", "b")
        payload = over_json(wire.encode_result(self.SAMPLES[QueryResult]))
        del payload["duration_ms"]
        with pytest.raises(ProtocolError, match="missing the 'duration_ms'"):
            wire.decode_result(payload)


class TestErrorRoundTrip:
    ALL_ERRORS = sorted(wire.ERROR_KINDS)

    def test_registry_covers_the_hierarchy(self):
        assert set(self.ALL_ERRORS) == {
            name
            for name, cls in vars(errors_module).items()
            if isinstance(cls, type) and issubclass(cls, CrimsonError)
        }

    @pytest.mark.parametrize("kind", ALL_ERRORS)
    def test_every_kind_round_trips(self, kind):
        error = wire.ERROR_KINDS[kind]("something Δroke")
        decoded = wire.decode_error(over_json(wire.encode_error(error)))
        assert type(decoded) is wire.ERROR_KINDS[kind]
        assert str(decoded) == "something Δroke"

    def test_unhashable_kind_is_protocol_error(self):
        payload = wire.stamp({"kind": ["QueryError"], "message": "x"})
        with pytest.raises(ProtocolError, match="'kind' must be a string"):
            wire.decode_error(payload)

    def test_unknown_kind_decodes_as_base_error(self):
        payload = wire.stamp({"kind": "FutureError", "message": "hm"})
        decoded = wire.decode_error(payload)
        assert type(decoded) is CrimsonError

    def test_foreign_exception_encodes_as_base_error(self):
        payload = wire.encode_error(ValueError("out of range"))
        assert payload["kind"] == "CrimsonError"
        assert "ValueError" in payload["message"]
        assert "out of range" in payload["message"]


ESTIMATE = {"statements": 12, "rows": 3.5}

#: ``details`` a peer might send with a ResourceError, and the
#: ``(estimate, limit, resource)`` the decode keeps: a malformed field
#: is dropped, the rest survive, and the decode never fails.
LENIENT_DETAILS = [
    (None, (None, None, None)),
    ([], (None, None, None)),
    ("x", (None, None, None)),
    ({}, (None, None, None)),
    ({"limit": True}, (None, None, None)),
    ({"limit": 5}, (None, 5.0, None)),
    ({"limit": "5"}, (None, None, None)),
    ({"limit": 2.5}, (None, 2.5, None)),
    ({"estimate": [1]}, (None, None, None)),
    ({"estimate": ESTIMATE}, (ESTIMATE, None, None)),
    ({"resource": 3}, (None, None, None)),
    ({"resource": "cost"}, (None, None, "cost")),
    ({"retry_after": 2, "limit": 1.0}, (None, 1.0, None)),
    (
        {"estimate": None, "limit": None, "resource": None},
        (None, None, None),
    ),
]


class TestErrorDetails:
    @pytest.mark.parametrize("details, expected", LENIENT_DETAILS, ids=repr)
    def test_malformed_details_decode_leniently(self, details, expected):
        payload = wire.stamp(
            {"kind": "ResourceError", "message": "refused", "details": details}
        )
        error = wire.decode_error(payload)
        assert type(error) is ResourceError
        assert str(error) == "refused"
        decoded = (error.estimate, error.limit, error.resource)
        assert decoded == expected
        assert [type(value) for value in decoded] == [
            type(value) for value in expected
        ]

    @pytest.mark.parametrize(
        "fields",
        [
            subset
            for size in range(4)
            for subset in itertools.combinations(
                ("estimate", "limit", "resource"), size
            )
        ],
        ids=lambda fields: "+".join(fields) or "none",
    )
    def test_set_fields_round_trip_in_declared_order(self, fields):
        values = {"estimate": ESTIMATE, "limit": 100.0, "resource": "quota"}
        error = ResourceError(
            "refused", **{name: values[name] for name in fields}
        )
        payload = over_json(wire.encode_error(error))
        if fields:
            assert list(payload["details"]) == list(fields)
        else:
            assert "details" not in payload
        decoded = wire.decode_error(payload)
        assert {name: getattr(decoded, name) for name in values} == {
            name: values[name] if name in fields else None for name in values
        }


class TestProtocolVersionGate:
    def future(self, payload):
        payload = dict(payload)
        payload["protocol"] = wire.PROTOCOL_VERSION + 1
        return payload

    def test_future_request_rejected(self):
        payload = self.future(
            wire.encode_request(QueryRequest.lca("t", "a", "b"))
        )
        with pytest.raises(ProtocolError, match="speaks protocol"):
            wire.decode_request(payload)

    def test_future_result_rejected(self, ):
        result = QueryResult(
            request=QueryRequest.lca("t", "a", "b"), duration_ms=0.0
        )
        with pytest.raises(ProtocolError, match="speaks protocol"):
            wire.decode_result(self.future(wire.encode_result(result)))

    def test_future_error_rejected(self):
        payload = self.future(wire.encode_error(StorageError("x")))
        with pytest.raises(ProtocolError):
            wire.decode_error(payload)

    def test_missing_stamp_rejected(self):
        with pytest.raises(ProtocolError):
            wire.decode_request(
                {"operation": "lca", "tree": "t", "taxa": ["a", "b"]}
            )

    def test_protocol_error_is_a_crimson_error(self):
        # The CLI and clients catch CrimsonError; version skew must land
        # in the same net.
        assert issubclass(ProtocolError, CrimsonError)


# ----------------------------------------------------------------------
# Every registry verb's request and result types, through real JSON
# ----------------------------------------------------------------------

FLOATS = st.floats(allow_nan=False, allow_infinity=False)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | FLOATS | TRICKY_NAMES,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(TRICKY_NAMES, inner, max_size=3),
    max_leaves=8,
)
NAME_LISTS = st.lists(TRICKY_NAMES, min_size=1, max_size=4)


def _tree(newick: str, name: str | None) -> PhyloTree:
    tree = parse_newick(newick)
    tree.name = name
    return tree


SPECIAL = {
    QueryRequest: st.one_of(*map(requests_for, OPERATIONS)),
    AnalyticsRequest: st.one_of(
        st.builds(AnalyticsRequest.compare, TRICKY_NAMES, TRICKY_NAMES),
        st.builds(
            lambda trees, threshold, strict: AnalyticsRequest.consensus(
                *trees, threshold=threshold, strict=strict
            ),
            NAME_LISTS, st.floats(min_value=0.5, max_value=1.0),
            st.booleans(),
        ),
        NAME_LISTS.filter(lambda trees: len(trees) > 1).map(
            lambda trees: AnalyticsRequest.distance_matrix(*trees)
        ),
    ),
    StatsRequest: st.lists(st.sampled_from(STATS_SECTIONS), unique=True).map(
        lambda sections: StatsRequest(tuple(sections))
    ),
    PhyloTree: st.builds(_tree, st.sampled_from([
        "(a,b);",
        "('it''s a leaf':1.5,'with space':2.25)root;",
        "((Δ:0.1,果蝇:0.2)x:0.3,c:1e-9);",
    ]), st.none() | TRICKY_NAMES),
    frozenset[str]: st.frozensets(TRICKY_NAMES, min_size=1, max_size=3),
    Any: JSON_VALUES,
    None: st.none(),
    str: TRICKY_NAMES,
    float: FLOATS,
}


def strategy(kind: Any):
    """A hypothesis strategy of valid values of wire type ``kind``."""
    if kind in SPECIAL:
        return SPECIAL[kind]
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin in (typing.Union, types.UnionType):
        return st.one_of(*map(strategy, args))
    if origin is tuple and args[-1] is Ellipsis:
        return st.lists(strategy(args[0]), max_size=3).map(tuple)
    if origin is tuple:
        return st.tuples(*map(strategy, args))
    if origin is list:
        return st.lists(strategy(args[0]), max_size=3)
    if origin in (dict, Mapping):
        return st.dictionaries(
            strategy(args[0]), strategy(args[1]), max_size=3
        )
    if not dataclasses.is_dataclass(kind):
        return st.from_type(kind)  # int, bool
    hints = wire._hints(kind)
    return st.builds(kind, **{
        field.name: strategy(hints[field.name])
        for field in dataclasses.fields(kind)
    })


SIDES = [
    (verb, side) for side in ("request", "result")
    for verb in REGISTRY.values()
]
CODECS = {
    "request": (wire.encode_request, wire.decode_request),
    "result": (wire.encode_result, wire.decode_result),
}


@pytest.mark.parametrize(
    "verb, side", SIDES, ids=[f"{verb.name}-{side}" for verb, side in SIDES]
)
def test_every_registry_type_round_trips_through_json(verb, side):
    kind = getattr(verb, side)
    encode, decode = CODECS[side]

    @SETTINGS
    @given(value=strategy(kind))
    def check(value):
        # Decoding loses nothing the encoder wrote: re-encoding the
        # decoded value gives the same JSON.
        payload = over_json(encode(value, kind))
        assert over_json(encode(decode(payload, kind), kind)) == payload

    check()
