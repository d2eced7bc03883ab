"""The typed query surface of the Crimson store.

Callers — the CLI, the benchmarks, the RPC front-end — describe a
query as a :class:`QueryRequest` and get a :class:`QueryResult` back from
:meth:`repro.storage.store.CrimsonStore.query`.  The request is a plain
frozen dataclass, so it can be built programmatically, serialized into
the Query Repository's history or onto the wire
(:mod:`repro.storage.wire`), and validated once at construction
instead of at every dispatch site.

Callers that only *query* should program against the
:class:`CrimsonSession` protocol — the five operations plus the
catalogue verbs (``list_trees``, ``describe``, ``verify``, ``ping``) —
rather than the store itself.
:class:`~repro.storage.verbs.LocalSession` adapts an in-process store;
:class:`repro.server.RemoteSession` speaks the same protocol to a
``crimson serve`` process over TCP, so code (and tests) written against
a session run unchanged either way.  Both take their verb methods from
the registry in :mod:`repro.storage.verbs`.

Supported operations
--------------------
``lca``
    LCA of two or more taxa (``taxa``); one result row.
``lca_batch``
    LCA of many pairs (``pairs``); one result row per pair.
``clade``
    Minimal spanning clade of a taxon set (``taxa``); the clade rows in
    pre-order.
``project``
    Projection of the stored tree over a leaf sample (``taxa``,
    names only); computed entirely over SQL (:func:`project_stored`).
``match``
    Structural pattern match of a Newick ``pattern`` against the stored
    tree; ``ordered`` picks ordered or unordered child matching.

Cross-tree analytics follow the same pattern one level up: an
:class:`AnalyticsRequest` names *several* stored trees and one of the
:data:`ANALYTICS_OPERATIONS` (``compare``, ``distance_matrix``,
``consensus``), and :meth:`CrimsonSession.analyze` — or the named
wrappers :meth:`~CrimsonSession.compare` /
:meth:`~CrimsonSession.distance_matrix` /
:meth:`~CrimsonSession.consensus` — answers with an
:class:`AnalyticsResult` computed by :mod:`repro.analytics` straight
from stored rows.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence as SequenceABC
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Protocol, Sequence, runtime_checkable

from repro.errors import QueryError
from repro.storage.maintenance import IntegrityReport
from repro.storage.tree_repository import NodeRow, TreeInfo
from repro.trees.splits import SplitComparison
from repro.trees.tree import PhyloTree

if TYPE_CHECKING:  # imported lazily at runtime to avoid an import cycle
    from repro.admission.estimator import CostEstimate

OPERATIONS: tuple[str, ...] = ("lca", "lca_batch", "clade", "project", "match")
"""Operations the store's query dispatcher understands."""

ANALYTICS_OPERATIONS: tuple[str, ...] = (
    "compare",
    "distance_matrix",
    "consensus",
)
"""Cross-tree operations the store's analytics dispatcher understands."""

TaxonRef = int | str
"""A node referenced by taxon name or pre-order id."""


def _checked_taxon(value: object, what: str) -> TaxonRef:
    """Validate one taxon reference (name or pre-order id)."""
    # bool is an int subclass, but True as "node 1" is never intended.
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise QueryError(
            f"{what} must be a species name or pre-order id, got {value!r}"
        )
    return value


def _checked_taxa(values: object) -> tuple[TaxonRef, ...]:
    """Validate the ``taxa`` field shape: an iterable of taxon refs."""
    if isinstance(values, (str, bytes)) or not isinstance(values, Iterable):
        raise QueryError(
            f"taxa must be a sequence of names or ids, got {values!r}"
        )
    return tuple(_checked_taxon(value, "a taxon") for value in values)


def _checked_pairs(values: object) -> tuple[tuple[TaxonRef, TaxonRef], ...]:
    """Validate the ``pairs`` field shape: an iterable of 2-sequences."""
    if isinstance(values, (str, bytes)) or not isinstance(values, Iterable):
        raise QueryError(
            f"pairs must be a sequence of (a, b) pairs, got {values!r}"
        )
    checked: list[tuple[TaxonRef, TaxonRef]] = []
    for pair in values:
        if isinstance(pair, (str, bytes)) or not isinstance(
            pair, SequenceABC
        ):
            raise QueryError(f"each pair must be two taxa, got {pair!r}")
        if len(pair) != 2:
            raise QueryError(
                f"each pair must be exactly two taxa, got {len(pair)} "
                f"in {tuple(pair)!r}"
            )
        checked.append(
            (
                _checked_taxon(pair[0], "a pair member"),
                _checked_taxon(pair[1], "a pair member"),
            )
        )
    return tuple(checked)


@dataclass(frozen=True)
class QueryRequest:
    """One typed query against a stored tree.

    Build requests with the per-operation constructors (:meth:`lca`,
    :meth:`lca_batch`, :meth:`clade`, :meth:`project`, :meth:`match`);
    the bare constructor validates the field combination and raises
    :class:`~repro.errors.QueryError` on a malformed request.
    """

    operation: str
    tree: str
    taxa: tuple[TaxonRef, ...] = ()
    pairs: tuple[tuple[TaxonRef, TaxonRef], ...] = ()
    pattern: str | None = None
    ordered: bool = True

    def __post_init__(self) -> None:
        if self.operation not in OPERATIONS:
            raise QueryError(
                f"unknown operation {self.operation!r}; "
                f"expected one of {', '.join(OPERATIONS)}"
            )
        if not self.tree:
            raise QueryError("a query request needs a tree name")
        object.__setattr__(self, "taxa", _checked_taxa(self.taxa))
        object.__setattr__(self, "pairs", _checked_pairs(self.pairs))
        if self.operation in ("lca", "clade", "project") and not self.taxa:
            raise QueryError(f"{self.operation!r} needs at least one taxon")
        if self.operation == "lca_batch" and not self.pairs:
            raise QueryError("'lca_batch' needs at least one pair")
        if self.operation == "project" and any(
            not isinstance(taxon, str) for taxon in self.taxa
        ):
            raise QueryError("'project' taxa must be leaf names")
        if self.operation == "match" and not self.pattern:
            raise QueryError("'match' needs a Newick pattern")

    # ------------------------------------------------------------------
    # Per-operation constructors
    # ------------------------------------------------------------------

    @classmethod
    def lca(cls, tree: str, *taxa: TaxonRef) -> "QueryRequest":
        """LCA of two or more taxa (names or pre-order ids)."""
        return cls(operation="lca", tree=tree, taxa=taxa)

    @classmethod
    def lca_batch(
        cls, tree: str, pairs: Sequence[tuple[TaxonRef, TaxonRef]]
    ) -> "QueryRequest":
        """LCA of many pairs in one engine round trip."""
        return cls(operation="lca_batch", tree=tree, pairs=tuple(pairs))

    @classmethod
    def clade(cls, tree: str, *taxa: TaxonRef) -> "QueryRequest":
        """Minimal spanning clade of a taxon set."""
        return cls(operation="clade", tree=tree, taxa=taxa)

    @classmethod
    def project(cls, tree: str, *taxa: str) -> "QueryRequest":
        """Projection of the stored tree over named leaves."""
        return cls(operation="project", tree=tree, taxa=taxa)

    @classmethod
    def match(
        cls, tree: str, pattern: str, ordered: bool = True
    ) -> "QueryRequest":
        """Newick pattern match against the stored tree: a ``project``
        over the pattern's leaves, compared with the pattern
        (:func:`repro.core.pattern.compare_projection`)."""
        return cls(operation="match", tree=tree, pattern=pattern, ordered=ordered)

    def params(self) -> dict[str, Any]:
        """JSON-friendly parameter dict (the Query Repository's record)."""
        if self.operation == "lca_batch":
            return {"pairs": [list(pair) for pair in self.pairs]}
        if self.operation == "match":
            return {"pattern": self.pattern, "ordered": self.ordered}
        return {"taxa": list(self.taxa)}


@dataclass(frozen=True)
class QueryResult:
    """The answer to one :class:`QueryRequest`, with its timing.

    Which fields are populated depends on the operation:

    * ``lca`` / ``lca_batch`` / ``clade`` fill :attr:`nodes`,
    * ``project`` fills :attr:`projection`,
    * ``match`` fills :attr:`projection`, :attr:`matched`, and
      :attr:`similarity`.
    """

    request: QueryRequest
    duration_ms: float
    nodes: tuple[NodeRow, ...] = ()
    projection: PhyloTree | None = None
    matched: bool | None = None
    similarity: float | None = None

    @property
    def node(self) -> NodeRow:
        """The single result row of an ``lca`` request.

        Raises
        ------
        QueryError
            If the result does not carry exactly one row.
        """
        if len(self.nodes) != 1:
            raise QueryError(
                f"{self.request.operation!r} result carries "
                f"{len(self.nodes)} rows, not one"
            )
        return self.nodes[0]

    def summary(self) -> str:
        """One-line result description (recorded in the query history)."""
        operation = self.request.operation
        if operation == "lca":
            # Through the accessor: an empty result raises QueryError
            # instead of IndexError.
            row = self.node
            return str(row.name or row.node_id)
        if operation == "lca_batch":
            return f"{len(self.nodes)} pairs"
        if operation == "clade":
            return f"{len(self.nodes)} nodes"
        if operation == "project":
            assert self.projection is not None
            return f"{self.projection.size()} nodes"
        assert operation == "match"
        return f"matched={self.matched}"


def _checked_tree_names(values: object) -> tuple[str, ...]:
    """Validate the ``trees`` field shape: an iterable of tree names."""
    if isinstance(values, (str, bytes)) or not isinstance(values, Iterable):
        raise QueryError(
            f"trees must be a sequence of stored-tree names, got {values!r}"
        )
    checked: list[str] = []
    for value in values:
        if not isinstance(value, str) or not value:
            raise QueryError(
                f"each tree must be a stored-tree name, got {value!r}"
            )
        checked.append(value)
    return tuple(checked)


@dataclass(frozen=True)
class AnalyticsRequest:
    """One typed cross-tree computation over stored trees.

    Build requests with the per-operation constructors
    (:meth:`compare`, :meth:`distance_matrix`, :meth:`consensus`); the
    bare constructor validates the field combination and raises
    :class:`~repro.errors.QueryError` on a malformed request.

    ``threshold`` and ``strict`` only matter to ``consensus``:
    a cluster is kept when it appears in strictly more than
    ``threshold`` of the trees (0.5 is the classical majority rule),
    and ``strict`` keeps only clusters present in *every* tree instead.
    """

    operation: str
    trees: tuple[str, ...] = ()
    threshold: float = 0.5
    strict: bool = False

    def __post_init__(self) -> None:
        if self.operation not in ANALYTICS_OPERATIONS:
            raise QueryError(
                f"unknown analytics operation {self.operation!r}; "
                f"expected one of {', '.join(ANALYTICS_OPERATIONS)}"
            )
        object.__setattr__(self, "trees", _checked_tree_names(self.trees))
        if self.operation == "compare" and len(self.trees) != 2:
            raise QueryError(
                f"'compare' needs exactly two trees, got {len(self.trees)}"
            )
        if self.operation == "distance_matrix" and len(self.trees) < 2:
            raise QueryError("'distance_matrix' needs at least two trees")
        if self.operation == "consensus" and not self.trees:
            raise QueryError("'consensus' needs at least one tree")
        if isinstance(self.threshold, bool) or not isinstance(
            self.threshold, (int, float)
        ):
            raise QueryError(
                f"threshold must be a number, got {self.threshold!r}"
            )
        if not self.strict and not (
            0.5 <= self.threshold < 1.0 + 1e-12
        ):
            raise QueryError(
                f"threshold must be in [0.5, 1.0], got {self.threshold}"
            )
        object.__setattr__(self, "threshold", float(self.threshold))
        object.__setattr__(self, "strict", bool(self.strict))

    # ------------------------------------------------------------------
    # Per-operation constructors
    # ------------------------------------------------------------------

    @classmethod
    def compare(cls, a: str, b: str) -> "AnalyticsRequest":
        """Robinson–Foulds + shared-cluster comparison of two trees."""
        return cls(operation="compare", trees=(a, b))

    @classmethod
    def distance_matrix(cls, *trees: str) -> "AnalyticsRequest":
        """All-pairs RF distance matrix over a catalogue subset."""
        return cls(operation="distance_matrix", trees=trees)

    @classmethod
    def consensus(
        cls, *trees: str, threshold: float = 0.5, strict: bool = False
    ) -> "AnalyticsRequest":
        """Majority-rule (or strict) consensus across stored trees."""
        return cls(
            operation="consensus",
            trees=trees,
            threshold=threshold,
            strict=strict,
        )

    def params(self) -> dict[str, Any]:
        """JSON-friendly parameter dict (the Query Repository's record)."""
        if self.operation == "consensus":
            return {
                "trees": list(self.trees),
                "threshold": self.threshold,
                "strict": self.strict,
            }
        return {"trees": list(self.trees)}


def support_rows(
    support: Mapping[frozenset[str], float],
) -> list[tuple[tuple[str, ...], float]]:
    """Support clusters as ``(sorted cluster, fraction)``, best first.

    Deterministically ordered (fraction descending, then cluster
    names), so the CLI and the wire codec render identically.
    """
    return sorted(
        (
            (tuple(sorted(cluster)), fraction)
            for cluster, fraction in support.items()
        ),
        key=lambda row: (-row[1], row[0]),
    )


@dataclass(frozen=True)
class AnalyticsResult:
    """The answer to one :class:`AnalyticsRequest`, with its timing.

    Which fields are populated depends on the operation:

    * ``compare`` fills :attr:`comparison` and :attr:`shared_clusters`,
    * ``distance_matrix`` fills :attr:`matrix` (rows/columns in
      ``request.trees`` order),
    * ``consensus`` fills :attr:`consensus` and :attr:`support`.
    """

    request: AnalyticsRequest
    duration_ms: float
    comparison: "SplitComparison | None" = None
    shared_clusters: int | None = None
    matrix: tuple[tuple[int, ...], ...] | None = None
    consensus: PhyloTree | None = None
    support: Mapping[frozenset[str], float] | None = None

    def support_table(self) -> list[tuple[tuple[str, ...], float]]:
        """Support rows as ``(sorted cluster, fraction)``, best first
        (see :func:`support_rows`)."""
        if self.support is None:
            return []
        return support_rows(self.support)

    def summary(self) -> str:
        """One-line result description (recorded in the query history)."""
        operation = self.request.operation
        if operation == "compare":
            if self.comparison is None:
                raise QueryError("'compare' result carries no comparison")
            return (
                f"RF={self.comparison.rf_distance} "
                f"shared_clusters={self.shared_clusters}"
            )
        if operation == "distance_matrix":
            if self.matrix is None:
                raise QueryError(
                    "'distance_matrix' result carries no matrix"
                )
            return f"{len(self.matrix)}x{len(self.matrix)} RF matrix"
        assert operation == "consensus"
        if self.consensus is None:
            raise QueryError("'consensus' result carries no tree")
        kept = len(self.support) if self.support is not None else 0
        return f"{self.consensus.size()} nodes, {kept} clusters"


STATS_SECTIONS: tuple[str, ...] = (
    "metrics",
    "caches",
    "pool",
    "admission",
    "slow_queries",
    "history",
)
"""Sections a :class:`StatsRequest` may select (empty selects all)."""


@dataclass(frozen=True)
class StatsRequest:
    """A request for a service's observability snapshot.

    ``sections`` narrows the answer to the named parts of the
    snapshot; the default empty tuple asks for everything.  Unknown
    section names raise :class:`~repro.errors.QueryError` at
    construction, exactly like a malformed :class:`QueryRequest`.
    """

    sections: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if isinstance(self.sections, str) or not isinstance(
            self.sections, Iterable
        ):
            raise QueryError(
                f"sections must be a sequence of section names, "
                f"got {self.sections!r}"
            )
        checked = tuple(self.sections)
        for section in checked:
            if section not in STATS_SECTIONS:
                raise QueryError(
                    f"unknown stats section {section!r}; expected one "
                    f"of {', '.join(STATS_SECTIONS)}"
                )
        object.__setattr__(self, "sections", checked)

    def wants(self, section: str) -> bool:
        """Is ``section`` selected by this request?"""
        return not self.sections or section in self.sections


@dataclass(frozen=True)
class DescribeRequest:
    """The ``describe`` verb's argument: one stored tree's name."""

    name: str


@dataclass(frozen=True)
class VerifyRequest:
    """The ``verify`` verb's argument: one tree, or ``None`` for all."""

    tree: str | None = None


@dataclass(frozen=True)
class StatsSnapshot:
    """One service's observability snapshot, transport-agnostic.

    The shape is identical from a
    :class:`~repro.storage.verbs.LocalSession` and a running
    ``crimson serve`` (the differential tests assert it): the metrics
    registry's counters/gauges/histograms, aggregated cache and reader
    pool figures, the admission controller's view, the slow-query ring,
    and the same ``service`` identity dict ``ping`` answers with.
    All values are JSON-plain so the snapshot crosses the wire and
    renders (table / json / prom) without further translation.
    """

    counters: Mapping[str, int]
    gauges: Mapping[str, float]
    histograms: Mapping[str, Mapping[str, Any]]
    caches: Mapping[str, Any]
    pool: Mapping[str, Any]
    admission: Mapping[str, Any]
    slow_queries: tuple[Mapping[str, Any], ...]
    # Absent from pre-history peers; the default lets a new client
    # still decode an old server's snapshot.
    history: Mapping[str, Any] = field(default_factory=dict, kw_only=True)
    service: Mapping[str, Any]

    def as_dict(self) -> dict[str, Any]:
        """JSON-friendly dict (the wire payload, minus the stamp)."""
        from repro.storage.wire import as_dict

        return as_dict(self)


def service_info(store, transport: str) -> dict[str, Any]:
    """The ``ping`` payload of a session over ``store``.

    One definition for every transport, so the shape cannot drift
    between :class:`~repro.storage.verbs.LocalSession` and the RPC
    server.
    """
    from repro.storage.wire import PROTOCOL_VERSION

    return {
        "protocol": PROTOCOL_VERSION,
        "transport": transport,
        "store": str(store.db.path),
        "shards": store.shards,
        "trees": store.tree_count(),
    }


@dataclass(frozen=True)
class HealthReport:
    """The answer of the ``health`` verb, transport-agnostic.

    ``status`` is one of ``ok`` / ``degraded`` / ``unhealthy`` /
    ``draining`` (the worst individual check, except draining which
    overrides); ``checks`` carries the per-check detail (name, status,
    value, thresholds) from :func:`repro.obs.health.evaluate`; and
    ``service`` is the same identity dict ``ping`` answers with, so a
    poller knows *which* service said it was degraded.
    """

    status: str
    checks: tuple[Mapping[str, Any], ...]
    draining: bool
    service: Mapping[str, Any]

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def as_dict(self) -> dict[str, Any]:
        """JSON-friendly dict (the wire payload, minus the stamp)."""
        from repro.storage.wire import as_dict

        return as_dict(self)


@runtime_checkable
class CrimsonSession(Protocol):
    """The one query interface of a Crimson service, local or remote.

    Callers program against this protocol instead of
    :class:`~repro.storage.store.CrimsonStore` directly: the same five
    query operations plus the catalogue verbs, whether the store lives
    in this process (:class:`~repro.storage.verbs.LocalSession`) or
    behind a TCP server (:class:`repro.server.RemoteSession`).  Both
    implementations raise the same typed
    :class:`~repro.errors.CrimsonError` subclasses, so call sites — and
    the differential test suites — run unchanged against either.
    """

    def query(
        self, request: QueryRequest, *, record: bool = False
    ) -> QueryResult:
        """Execute one typed query and return its timed result."""
        ...

    def analyze(
        self, request: AnalyticsRequest, *, record: bool = False
    ) -> AnalyticsResult:
        """Execute one cross-tree analytics request."""
        ...

    def compare(
        self, a: str, b: str, *, record: bool = False
    ) -> AnalyticsResult:
        """RF distance and shared clusters of two stored trees."""
        ...

    def distance_matrix(
        self, trees: Sequence[str], *, record: bool = False
    ) -> AnalyticsResult:
        """All-pairs RF distance matrix over stored trees."""
        ...

    def consensus(
        self,
        trees: Sequence[str],
        *,
        threshold: float = 0.5,
        strict: bool = False,
        record: bool = False,
    ) -> AnalyticsResult:
        """Majority-rule (or strict) consensus across stored trees."""
        ...

    def estimate(
        self, request: QueryRequest | AnalyticsRequest
    ) -> "CostEstimate":
        """Pre-flight cost estimate of one request, without running it."""
        ...

    def list_trees(self) -> list[TreeInfo]:
        """Catalogue rows of every stored tree."""
        ...

    def describe(self, name: str) -> TreeInfo:
        """Catalogue row of one stored tree."""
        ...

    def verify(self, tree: str | None = None) -> list[IntegrityReport]:
        """Integrity reports for one tree, or for every stored tree."""
        ...

    def ping(self) -> dict[str, Any]:
        """Liveness / identity check (protocol version, store shape)."""
        ...

    def stats(self, request: StatsRequest | None = None) -> StatsSnapshot:
        """Observability snapshot: metrics, caches, pool, admission."""
        ...

    def health(self) -> HealthReport:
        """Threshold-evaluated service health (ok/degraded/unhealthy)."""
        ...

    def close(self) -> None:
        """Release the session's resources (idempotent)."""
        ...


class AnalyticsVerbs:
    """The named analytics operations, shared by every session kind.

    Implementers provide :meth:`analyze`; these wrappers only build
    the typed :class:`AnalyticsRequest`, so the local and the remote
    session cannot drift in how the verbs map to requests.
    """

    def compare(
        self, a: str, b: str, *, record: bool = False
    ) -> AnalyticsResult:
        """RF distance and shared clusters of two stored trees."""
        return self.analyze(AnalyticsRequest.compare(a, b), record=record)

    @staticmethod
    def _checked_sequence(trees: Sequence[str], what: str) -> Sequence[str]:
        # A bare string is a Sequence[str] the splat below would explode
        # into per-character "tree names"; refuse it before it can turn
        # into a baffling unknown-tree error.
        if isinstance(trees, (str, bytes)):
            raise QueryError(
                f"{what} takes a sequence of tree names, not a single "
                f"string; did you mean [{trees!r}]?"
            )
        return trees

    def distance_matrix(
        self, trees: Sequence[str], *, record: bool = False
    ) -> AnalyticsResult:
        """All-pairs RF distance matrix over stored trees."""
        trees = self._checked_sequence(trees, "'distance_matrix'")
        return self.analyze(
            AnalyticsRequest.distance_matrix(*trees), record=record
        )

    def consensus(
        self,
        trees: Sequence[str],
        *,
        threshold: float = 0.5,
        strict: bool = False,
        record: bool = False,
    ) -> AnalyticsResult:
        """Majority-rule (or strict) consensus across stored trees."""
        trees = self._checked_sequence(trees, "'consensus'")
        return self.analyze(
            AnalyticsRequest.consensus(
                *trees, threshold=threshold, strict=strict
            ),
            record=record,
        )
