"""Pre-flight cost estimation for Crimson requests.

A public service cannot dispatch a request before asking what it will
cost: one ``rf_matrix`` over a large catalogue or a ``project`` of a
million taxa would starve every warm point query behind it.  This
module predicts a request's cost *before* execution, from catalogue
stats the store already has — tree sizes from :class:`TreeInfo` rows,
index shape (``n_layers`` / ``n_blocks``), and the live residency of
the per-handle row caches (:meth:`StoredQueryEngine.resident_fraction`
and the pinned-segment counters).  Warm repeat queries estimate
near-zero statements, cold full-catalogue analytics estimate high —
the cold/warm split that changes disk-based query cost by orders of
magnitude.

The estimate is deliberately a **worst-case bound**, not an
expectation: a ``clade`` request is costed as if the spanning clade
were the whole tree, a ``match`` as a full materialization, because
admission control must refuse what *could* starve the service, not
what probably won't.  Warmth only ever lowers the bound through
observed cache residency, never through optimism about data the
estimator has not seen.

The scalar :attr:`CostEstimate.cost` folds the three raw predictions
(SQL statements, rows touched, result bytes) into one unit so budgets
and token buckets have a single currency:

``cost = statements + rows * ROW_WEIGHT + result_bytes * BYTE_WEIGHT``

One cost unit is roughly one SQL statement of work; :data:`ROW_WEIGHT`
prices 500 fetched rows and :data:`BYTE_WEIGHT` prices 64 KiB of
result at one statement each.

Residency probes use cache *membership only* — never lookups — so
estimating a request cannot perturb the hit/miss counters or the LRU
recency order that later estimates (and the benchmarks) read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.errors import ProtocolError, QueryError

if TYPE_CHECKING:  # type-only: keeps repro.admission importable alone
    from repro.storage.api import AnalyticsRequest, QueryRequest

ROW_WEIGHT = 1.0 / 500.0
"""Cost units per row touched (500 rows ≈ one statement of work)."""

BYTE_WEIGHT = 1.0 / 65536.0
"""Cost units per result byte (64 KiB ≈ one statement of work)."""

BATCH_CHUNK = 400
"""Keys per batched ``IN (...)`` statement — mirrors
:data:`repro.storage.engine._IN_CHUNK`, asserted in the test suite so
the two cannot drift."""

NODE_ROW_JSON_BYTES = 170
"""Approximate wire size of one encoded :class:`NodeRow`."""

NEWICK_NODE_BYTES = 24
"""Approximate Newick bytes per node of an encoded projection."""


@dataclass(frozen=True)
class CostEstimate:
    """The predicted cost of one request, before execution.

    ``statements`` / ``rows`` / ``result_bytes`` are the raw worst-case
    predictions; :attr:`cost` is their weighted scalar (the admission
    currency), and ``warm_fraction`` reports how much observed cache
    residency discounted the cold bound (``0.0`` = fully cold).
    """

    operation: str
    trees: tuple[str, ...]
    statements: int
    rows: int
    result_bytes: int
    warm_fraction: float
    cost: float

    def as_dict(self) -> dict[str, Any]:
        """JSON-friendly form (wire payloads, ResourceError context)."""
        return {
            "operation": self.operation,
            "trees": list(self.trees),
            "statements": self.statements,
            "rows": self.rows,
            "result_bytes": self.result_bytes,
            "warm_fraction": self.warm_fraction,
            "cost": self.cost,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CostEstimate":
        """Rebuild an estimate from :meth:`as_dict` output.

        Raises
        ------
        ProtocolError
            On a missing or mistyped field.
        """
        try:
            trees = payload["trees"]
            if isinstance(trees, (str, bytes)) or not isinstance(
                trees, (list, tuple)
            ):
                raise ProtocolError(
                    f"malformed cost estimate: 'trees' must be a list, "
                    f"got {trees!r}"
                )
            return cls(
                operation=str(payload["operation"]),
                trees=tuple(str(name) for name in trees),
                statements=int(payload["statements"]),
                rows=int(payload["rows"]),
                result_bytes=int(payload["result_bytes"]),
                warm_fraction=float(payload["warm_fraction"]),
                cost=float(payload["cost"]),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ProtocolError(f"malformed cost estimate: {error}") from None

    def summary(self) -> str:
        """One-line human form (the CLI's ``crimson estimate`` output)."""
        return (
            f"{self.operation} over {', '.join(self.trees)}: "
            f"cost {self.cost:.2f} "
            f"({self.statements} statements, {self.rows} rows, "
            f"{self.result_bytes} result bytes, "
            f"{self.warm_fraction * 100:.0f}% warm)"
        )


def _scalar_cost(statements: float, rows: float, result_bytes: float) -> float:
    return statements + rows * ROW_WEIGHT + result_bytes * BYTE_WEIGHT


def _batches(keys: float) -> int:
    """Batched ``IN (...)`` statements needed for ``keys`` cold keys."""
    return math.ceil(keys / BATCH_CHUNK) if keys > 0 else 0


def _skeleton_residency(handle) -> float:
    """Observed residency of the pinned index skeleton of one handle.

    The layered-LCA walk climbs inode and block rows that the engine
    pins (roughly two skeleton rows per block); the pinned-segment
    sizes over that bound say how much of a cold walk is already paid.
    """
    stats = handle.cache_stats()
    pinned = stats["inodes"].pinned + stats["blocks"].pinned
    bound = max(1, 2 * handle.info.n_blocks)
    return min(1.0, pinned / bound)


def _scan_residency(handle) -> float:
    """``1.0`` when the handle's engine has the tree's scan memoised
    (a warm analytics scan runs no SQL), else ``0.0``."""
    return 1.0 if handle.engine.scan_resident else 0.0


def _walk_statements(handle) -> int:
    """Worst-case statement bound of one cold layered-LCA fold step.

    Each recursion level of the layered algorithm resolves at most two
    block rows and two inodes (rep/source chains), plus the label-hop
    lookup — about four statements per layer, plus the final
    ``inode_at`` and the original-node fetch.
    """
    return 4 * max(1, handle.info.n_layers) + 2


def _estimate(
    request_operation: str,
    trees: Sequence[str],
    statements: float,
    rows: float,
    result_bytes: float,
    warm_fraction: float,
) -> CostEstimate:
    statements_i = int(math.ceil(max(0.0, statements)))
    rows_i = int(math.ceil(max(0.0, rows)))
    bytes_i = int(math.ceil(max(0.0, result_bytes)))
    return CostEstimate(
        operation=request_operation,
        trees=tuple(trees),
        statements=statements_i,
        rows=rows_i,
        result_bytes=bytes_i,
        warm_fraction=max(0.0, min(1.0, warm_fraction)),
        cost=_scalar_cost(statements_i, rows_i, bytes_i),
    )


def estimate_query(request: QueryRequest, handle) -> CostEstimate:
    """Predict the cost of one :class:`QueryRequest` on ``handle``.

    ``handle`` is the :class:`~repro.storage.tree_repository.StoredTree`
    the request would run on — the estimate reads its catalogue row and
    its live cache state, and executes **zero** SQL.
    """
    info = handle.info
    n = info.n_nodes
    skeleton = _skeleton_residency(handle)

    if request.operation in ("lca", "lca_batch", "clade"):
        if request.operation == "lca_batch":
            args = [item for pair in request.pairs for item in pair]
            folds = len(request.pairs)
        else:
            args = list(request.taxa)
            folds = max(1, len(request.taxa) - 1)
        arg_res = handle.engine.resident_fraction(args)
        cold_args = len(args) * (1.0 - arg_res)
        # Argument rows and their canonical inodes arrive in batched
        # IN (...) fills; each cold fold then climbs the index skeleton.
        statements = 2.0 * _batches(cold_args)
        statements += folds * _walk_statements(handle) * (1.0 - skeleton)
        rows = cold_args * 2.0 + folds * 4.0 * info.n_layers * (1.0 - skeleton)
        warm = (arg_res + skeleton) / 2.0
        if request.operation == "lca":
            result_bytes = NODE_ROW_JSON_BYTES
        elif request.operation == "lca_batch":
            result_bytes = len(request.pairs) * NODE_ROW_JSON_BYTES
        else:
            # Worst case: the spanning clade is the whole tree, fetched
            # with one range scan and shipped row by row.
            statements += 1
            rows += n
            result_bytes = n * NODE_ROW_JSON_BYTES
            warm = (arg_res + skeleton) / 2.0
        return _estimate(
            request.operation,
            (request.tree,),
            statements,
            rows,
            result_bytes,
            warm,
        )

    if request.operation == "project":
        k = len(request.taxa)
        arg_res = handle.engine.resident_fraction(list(request.taxa))
        cold = k * (1.0 - arg_res)
        # project_stored: leaf rows + canonical inodes + interior rows
        # in batched fills, then one skeleton climb to anchor the walk.
        statements = 3.0 * _batches(cold) + info.n_layers * (1.0 - skeleton)
        rows = 3.0 * cold
        result_bytes = max(1, 2 * k) * NEWICK_NODE_BYTES
        return _estimate(
            request.operation,
            (request.tree,),
            statements,
            rows,
            result_bytes,
            (arg_res + skeleton) / 2.0,
        )

    if request.operation == "match":
        # fetch_tree() reads every node row with one direct statement,
        # bypassing the row cache entirely — warmth never discounts it.
        statements = 1.0
        rows = float(n)
        result_bytes = n * NEWICK_NODE_BYTES
        return _estimate(
            request.operation, (request.tree,), statements, rows,
            result_bytes, 0.0,
        )

    raise QueryError(
        f"no cost model for operation {request.operation!r}"
    )


def estimate_analytics(
    request: AnalyticsRequest, handles: Sequence
) -> CostEstimate:
    """Predict the cost of one :class:`AnalyticsRequest`.

    ``handles`` are the :class:`StoredTree` handles of
    ``request.trees`` in order.  Every analytics operation reads each
    tree once through the engine's narrow range scan, so a tree costs
    one statement and ``n_nodes`` rows cold, and nothing when its
    handle has the scan memoised.
    """
    statements = 0.0
    rows = 0.0
    warm_total = 0.0
    for handle in handles:
        scan = _scan_residency(handle)
        statements += 1.0 - scan
        rows += handle.info.n_nodes * (1.0 - scan)
        warm_total += scan
    warm = warm_total / len(handles) if handles else 1.0

    if request.operation == "compare":
        result_bytes = 512.0
    elif request.operation == "distance_matrix":
        result_bytes = 16.0 * len(handles) * len(handles) + 256.0
    else:  # consensus
        max_leaves = max(
            (handle.info.n_leaves for handle in handles), default=0
        )
        # The consensus tree plus its per-cluster support table, both
        # bounded by the leaf count of the widest input tree.
        result_bytes = 2.0 * max_leaves * NEWICK_NODE_BYTES
        result_bytes += max_leaves * max_leaves * 2.0
    return _estimate(
        request.operation,
        tuple(request.trees),
        statements,
        rows,
        result_bytes,
        warm,
    )
