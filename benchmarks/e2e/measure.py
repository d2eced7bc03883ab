"""Metric names, units and order statistics shared by the whole suite.

The runner (``run.py``), the workload processes (``workload.py``), the
pairs comparison (``compare.py``) and the tests all read the metric
table from here, so a metric cannot be printed under one name and
compared under another.  ``BENCHMARK.json`` carries the same names plus
each end-to-end metric's regression bound; ``test_e2e.py`` checks that
the two agree.
"""

from __future__ import annotations

import math
import sqlite3
import statistics
import time
from typing import Sequence

#: End-to-end metrics: name -> (unit, which direction is better).
#: Every workload reports every one of them, so each is defined for a
#: closed loop of any request mix.  A "request" is one session call;
#: on sample-large it is one trial (sample, project, fetch sequences)
#: and on profile one step (replace two replicates, then consensus and
#: compare), the unit a researcher waits for.  A mix-level p50 falls
#: among the calls of the mix's most common operation and hides the
#: others, so the per-operation p50s are gated too, by ``compare.py``
#: with :data:`OPERATION_BOUNDS`.
#: Tail latencies are reported per operation but not gated: on a shared
#: 2-core host their run-to-run spread is wider than any bound that
#: would still catch a regression.
END_TO_END: dict[str, tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "p50_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "db_bytes_per_node": ("B/node", "lower"),
}

#: Per-layer metrics from the traced run: name -> unit.  ``_per_op``
#: divides by the calls of the traced window (all of them, or one
#: operation type for the ``<layer>.<op>.`` variants); a layer that a
#: workload never enters reports 0.
PER_LAYER: dict[str, str] = {
    "store.self_ms_per_op": "ms",
    "admission.ms_per_op": "ms",
    "admission.refusals": "count",
    "engine.self_ms_per_op": "ms",
    "engine.lca.self_ms_per_op": "ms",
    "engine.lca_batch.self_ms_per_op": "ms",
    "engine.clade.self_ms_per_op": "ms",
    "engine.project.self_ms_per_op": "ms",
    "engine.cache_hit_rate": "ratio",
    "engine.misses_per_op": "count",
    "engine.evictions_per_op": "count",
    "database.statements_per_op": "count",
    "database.ms_per_op": "ms",
    "database.rows_per_op": "count",
    "database.lca.statements_per_op": "count",
    "database.lca_batch.statements_per_op": "count",
    "database.clade.statements_per_op": "count",
    "database.project.statements_per_op": "count",
    "database.sample.statements_per_op": "count",
    "database.sequences.statements_per_op": "count",
    "database.load.statements_per_op": "count",
    "database.delete.statements_per_op": "count",
    "database.consensus.statements_per_op": "count",
    "database.compare.statements_per_op": "count",
    "loader.self_ms_per_load": "ms",
    "core.index_ms_per_load": "ms",
    "loader.rows_written_per_node": "count",
    "species.attach_ms_per_load": "ms",
    "analytics.self_ms_per_op": "ms",
    "analytics.scan_ms_per_op": "ms",
    "analytics.consensus.self_ms_per_op": "ms",
    "analytics.compare.self_ms_per_op": "ms",
    "wire.encode_ms_per_op": "ms",
    "wire.decode_ms_per_op": "ms",
    "wire.bytes_per_op": "B",
    "protocol.write_ms_per_op": "ms",
    "server.handler_self_ms_per_op": "ms",
    "server.dispatch_self_ms_per_op": "ms",
    "client.self_ms_per_op": "ms",
    "transport.wait_ms_per_op": "ms",
    "trace.remote_joined_pct": "%",
    "trace.spans_per_op": "count",
    "trace.ops_per_s_untraced": "1/s",
    "trace.ops_per_s_traced": "1/s",
    "trace.overhead_pct": "%",
}

#: A traced run fails when tracing costs more throughput than this:
#: the wrappers would then be too fine-grained to trust the ledger.
MAX_TRACE_OVERHEAD_PCT = 15.0

#: Regression bounds of each operation's p50 (``<operation>.p50_ms``),
#: per workload: three times its widest quartile spread over four sweeps
#: of ten seeds, rounded up to a whole percent.
OPERATION_BOUNDS: dict[str, dict[str, float]] = {
    "warm-small": {"lca": 0.16, "lca_batch": 0.21, "clade": 0.13, "project": 0.17},
    "sample-large": {"sample": 0.08, "project": 0.10, "sequences": 0.14},
    "remote": {"lca": 0.23, "lca_batch": 0.12, "clade": 0.18, "project": 0.14},
    "profile": {"delete": 0.08, "load": 0.11, "consensus": 0.09, "compare": 0.15},
}

#: Candidate tail percentiles, highest first.
_TAILS = (0.999, 0.99, 0.95, 0.9, 0.75, 0.5)


def _rank(fraction: float, count: int) -> int:
    # The slack keeps 0.9 * 100 (90.00000000000001) at rank 90.
    return max(1, math.ceil(fraction * count - 1e-9))


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (sorted or not).

    The smallest sample with at least ``fraction`` of all samples at or
    below it; raises ``ValueError`` on an empty sequence.
    """
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[_rank(fraction, len(values)) - 1]


def tail_fraction(count: int) -> float:
    """The highest percentile with at least ten samples beyond it.

    Falls back to the median when even that has fewer than ten beyond.
    """
    for fraction in _TAILS:
        if count - _rank(fraction, count) >= 10:
            return fraction
    return 0.5


def latency_summary(seconds: Sequence[float]) -> dict[str, float]:
    """p50 and the supported tail of per-call latencies, in ms."""
    count = len(seconds)
    tail = tail_fraction(count)
    return {
        "count": count,
        "p50_ms": percentile(seconds, 0.5) * 1e3,
        "tail": f"p{tail * 100:g}",
        "tail_ms": percentile(seconds, tail) * 1e3,
    }


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile of two or more values.

    From four values on, ``statistics.quantiles(values, n=4)``, the
    definition the bounds in ``BENCHMARK.json`` were set with.  Below
    that its default method extrapolates past the smallest and largest
    value, so the quartiles are interpolated between values instead.
    """
    method = "exclusive" if len(values) >= 4 else "inclusive"
    q1, median, q3 = statistics.quantiles(values, n=4, method=method)
    return q1, median, q3


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of
    the median (see :func:`quartiles`)."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else math.inf


class SpeedProbe:
    """How fast this host runs a fixed slice of work, sampled over time.

    The sandbox shares its cores with other tenants.  Their load slows
    the same instructions by up to twofold, in bursts shorter than a
    second and in stretches of minutes, and the slowdown shows in
    thread CPU time too, so it cannot be subtracted as waiting.  A
    workload process therefore times this probe (interpreter work plus
    SQLite point reads, the two things every request spends its time
    on) after every 50 ms slice of its timed window.  Each second of
    the window is then scaled by :meth:`factor` over its own samples: a
    second on a host slowed by a tenth reads as it would at
    :data:`REFERENCE_S`, while a slower or faster program still shows,
    because the probe runs no repository code.
    """

    #: The probe time that defines reference speed: about the probe's
    #: mean on the 2-core sandbox the committed baseline was measured
    #: on, in a busy hour.  In a quiet hour the probe takes 0.70-0.80 ms
    #: there, so scaled times read 12-29% above clock time.
    REFERENCE_S = 0.0009

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._db = sqlite3.connect(":memory:")
        self._db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
        self._db.executemany(
            "INSERT INTO t VALUES (?, ?)", ((k, str(k)) for k in range(20_000))
        )

    def sample(self) -> None:
        start = time.perf_counter()
        table: dict[int, tuple[int, str]] = {}
        for i in range(3_000):
            table[i % 977] = (i, str(i))
        for k in range(0, 20_000, 200):
            self._db.execute("SELECT v FROM t WHERE k = ?", (k,)).fetchone()
        self.samples.append(time.perf_counter() - start)

    def factor(self, first: int = 0) -> float:
        """Multiply a duration timed while samples ``first`` onward
        were taken by this (divide a rate) to undo drift."""
        return self.REFERENCE_S / statistics.fmean(self.samples[first:])

    def close(self) -> None:
        self._db.close()
