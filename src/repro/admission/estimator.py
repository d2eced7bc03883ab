"""Pre-flight cost estimation for Crimson requests.

A public service cannot dispatch a request before asking what it will
cost: one ``rf_matrix`` over a large catalogue or a ``project`` of a
million taxa would starve every warm point query behind it.  This
module predicts a request's cost *before* execution, from catalogue
stats the store already has — tree sizes from :class:`TreeInfo` rows,
index shape (``n_layers`` / ``n_blocks``), and the live residency of
the per-handle row caches (:meth:`StoredQueryEngine.resident_fraction`)
and whether the tree's shared index skeleton, which every handle of the
tree fills and reads, already holds a layered walk's whole climb.  Warm
repeat queries estimate near-zero statements, cold full-catalogue
analytics estimate high — the cold/warm split that changes disk-based
query cost by orders of magnitude.

The estimate is deliberately a **worst-case bound**, not an
expectation: a ``clade`` request is costed as if the spanning clade
were the whole tree, a ``match`` as a full materialization, because
admission control must refuse what *could* starve the service, not
what probably won't.  Warmth only ever lowers the bound through
observed cache residency, never through optimism about data the
estimator has not seen: a skeleton that holds every row a walk can
climb waives only the skeleton climb of a layered-LCA walk, while its
canonical inodes, label lookups and result rows stay priced cold, and
a partly filled skeleton waives nothing.  The walk's cold price
follows its real structure — one recursive pair walk for ``lca`` and
``clade``, the level-synchronous rounds of ``lca_batch`` and
``project`` — with source chains bounded by the index shape
(:func:`_chain_hops`), and ``tests/test_admission.py`` checks that no
request runs more statements than its estimate.

The scalar :attr:`CostEstimate.cost` combines the three raw predictions
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
from typing import TYPE_CHECKING, Any, Sequence

from repro.errors import QueryError

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
        from repro.storage.wire import as_dict

        return as_dict(self)

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
    """``1.0`` when the tree's shared
    :class:`~repro.storage.engine.IndexSkeleton` holds every row a
    layered walk climbs
    (:meth:`~repro.storage.engine.IndexSkeleton.holds_climb`), else
    ``0.0``.

    A partly filled skeleton is priced cold: rows resident in one
    region of the tree say nothing of the rows a walk through another
    region needs, and any handle of the store may have filled them.
    """
    info = handle.info
    holds = handle.engine.skeleton.holds_climb(info.n_blocks, info.n_layers)
    return 1.0 if holds else 0.0


def _scan_residency(handle) -> float:
    """``1.0`` when the handle's engine has the tree's scan memoised
    (a warm analytics scan runs no SQL), else ``0.0``."""
    return 1.0 if handle.engine.scan_resident else 0.0


def _chain_hops(info) -> int:
    """Most source-chain hops one side of a layered walk can take,
    summed over every layer.

    Blocks are cut every ``f`` levels, so the tree one layer up (one
    node per block) has depth at most ``(d - 1) // f`` when the layer
    below has depth ``d``, and a side's chain on a layer climbs at most
    that many blocks.  A chain visits each block at most once, so
    ``n_blocks`` caps the sum too.  For ``f >= 2`` the result is at
    most ``min(max_depth, n_blocks)``: each hop climbs at least one
    tree level.
    """
    hops, depth = 0, info.max_depth
    while depth > 0 and hops < info.n_blocks:
        depth = (depth - 1) // max(1, info.f)
        hops += depth
    return min(hops, info.n_blocks)


def _pair_statements(info, skeleton: float) -> float:
    """Worst-case statements of one cold recursive walk over one pair
    (``lca`` and ``clade`` reduce their set to its pre-order extremes).

    Two canonical inodes, one label lookup per layer and the result's
    node row; then the skeleton climb, waived when ``skeleton`` is
    ``1.0`` (the skeleton holds the whole climb): two blocks and two
    rep inodes on every layer below the top, and a block and a source
    inode per chain hop of either side.
    """
    climbing = max(0, info.n_layers - 1)
    climb = 4 * climbing + 4 * _chain_hops(info)
    return 3 + max(1, info.n_layers) + climb * (1.0 - skeleton)


def _batch_statements(info, pairs: int, skeleton: float) -> float:
    """Worst-case statements of one cold level-synchronous walk over
    ``pairs`` pairs (``lca_batch``, and ``project``'s one batch).

    One canonical fill, a label lookup per distinct block of each
    layer (at most ``pairs`` per layer, and every block at most once)
    and one fill of result rows; then the skeleton climb, waived when
    ``skeleton`` is ``1.0``: a block fill and a rep fill on
    every layer below the top, and a block fill and a source fill per
    hop round.  Fills are chunked ``IN (...)`` statements over their
    keys.
    """
    if pairs <= 0:
        return 0.0
    fill = _batches(2 * pairs)
    climbing = max(0, info.n_layers - 1)
    layers = max(1, info.n_layers)
    labels = min(layers * pairs, info.n_blocks) + layers * (pairs // BATCH_CHUNK)
    climb = fill * 2 * (climbing + _chain_hops(info))
    return fill + labels + _batches(pairs) + climb * (1.0 - skeleton)


def _walk_rows(info, pairs: int, skeleton: float) -> float:
    """Rows a cold walk over ``pairs`` pairs can fetch: per pair two
    canonical inodes, a label inode per layer and the result row, plus
    the skeleton rows it climbs (a block, its rep and a source inode,
    each fetched at most once per handle), waived with the climb."""
    layers = max(1, info.n_layers)
    climbed = 2 * pairs * (layers + _chain_hops(info))
    return pairs * (3 + layers) + 3 * min(info.n_blocks, climbed) * (1.0 - skeleton)


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
            walk = _batch_statements(info, len(request.pairs), skeleton)
            walk_rows = _walk_rows(info, len(request.pairs), skeleton)
        else:
            args = list(request.taxa)
            walk = _pair_statements(info, skeleton)
            walk_rows = _walk_rows(info, 1, skeleton)
        arg_res = handle.engine.resident_fraction(args)
        cold_args = len(args) * (1.0 - arg_res)
        # Argument rows arrive in one batched fill by name and one by
        # id; the walk then climbs the index skeleton.
        statements = 2.0 * _batches(cold_args) + walk
        rows = cold_args + walk_rows
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
        # project_stored: the leaf rows in one batched fill, then one
        # lca_batch over the k - 1 pre-order neighbours.
        statements = _batches(cold) + _batch_statements(info, k - 1, skeleton)
        rows = cold + _walk_rows(info, max(0, k - 1), skeleton)
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
