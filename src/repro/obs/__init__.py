"""Observability: metrics registry, request tracing, slow-query log.

The subsystem every perf PR is judged with.  Three small modules:

* :mod:`repro.obs.metrics` — a lock-cheap :class:`MetricsRegistry` of
  named counters, gauges, and bounded log2-bucket latency histograms
  (p50/p95/p99 readout without storing samples).
* :mod:`repro.obs.trace` — a :class:`Span` per request with per-phase
  timings (admission → engine → encode → socket write), activated via
  a thread-local so instrumented layers can annotate the current
  request without plumbing, plus a fixed-size ring-buffer
  :class:`SlowQueryLog`.
* :mod:`repro.obs.timeseries` — a :class:`TimeSeries` that samples the
  registry's cumulative instruments into bounded ring windows of
  derived rates (qps, error rate, windowed p95/p99) — the "what is
  happening *now*" companion to the lifetime totals.
* :mod:`repro.obs.health` — a pure evaluator turning history windows
  and thresholds into ok/degraded/unhealthy/draining plus per-check
  detail.
* :mod:`repro.obs.render` — pure renderers over snapshot dicts:
  aligned tables for humans and Prometheus text exposition for
  scrapers.

Nothing in here imports the storage or server layers; the layers
import *this* and feed it.  The registry is always on, so its hot path
is kept to a dict hit and a few integer ops under a per-instrument
lock.
"""

from repro.obs.health import HealthThresholds, evaluate as evaluate_health
from repro.obs.metrics import (
    Counter,
    Gauge,
    LatencyHistogram,
    MetricsRegistry,
)
from repro.obs.render import render_health, render_prometheus, render_table
from repro.obs.timeseries import TimeSeries, TimeSeriesSampler
from repro.obs.trace import (
    SlowQueryLog,
    Span,
    activate,
    current_span,
    new_trace_id,
)

__all__ = [
    "Counter",
    "Gauge",
    "HealthThresholds",
    "LatencyHistogram",
    "MetricsRegistry",
    "SlowQueryLog",
    "Span",
    "TimeSeries",
    "TimeSeriesSampler",
    "activate",
    "current_span",
    "evaluate_health",
    "new_trace_id",
    "render_health",
    "render_prometheus",
    "render_table",
]
