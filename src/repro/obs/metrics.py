"""Lock-cheap named counters, gauges, and log2-bucket histograms.

Design constraints, in order:

1. **The warm path cannot allocate.**  A histogram is a fixed list of
   integer bucket counts sized at construction; recording a latency is
   integer arithmetic plus one list-index increment under a per-
   instrument lock.  No sample is ever stored, so a histogram's memory
   is constant no matter how many requests it sees.
2. **Reads don't block writers for long.**  Every instrument has its
   own ``threading.Lock`` held for a few integer ops; the registry
   lock is only taken when an instrument is *created* (lookups hit a
   plain dict ``get`` first).
3. **Always on, so it must stay cheap.**  There is no off switch:
   every layer records into a live registry, which is what makes the
   first two constraints binding rather than nice-to-have.

Buckets are powers of two in microseconds: bucket ``i`` counts
latencies whose microsecond value has bit length ``i`` (i.e. values in
``[2**(i-1), 2**i)``), clamped into the last bucket.  40 buckets cover
1 µs to ~6 days, which bounds the relative quantile error at 2× — the
right trade for a registry that must never grow.
"""

from __future__ import annotations

import threading
from typing import Any, Dict

HISTOGRAM_BUCKETS = 40


def quantile_from_buckets(counts: list, fraction: float) -> float:
    """Quantile in ms from raw log2-µs bucket counts (delta-friendly).

    Works on *any* count vector shaped like a histogram's buckets —
    in particular on the bucketwise difference of two snapshots, which
    is how :class:`~repro.obs.timeseries.TimeSeries` derives windowed
    p95/p99 without storing samples.  Returns the upper bound of the
    bucket holding the requested rank.
    """
    total = sum(counts)
    if total <= 0:
        return 0.0
    rank = max(1, int(fraction * total + 0.999999))
    seen = 0
    for index, bucket in enumerate(counts):
        seen += bucket
        if seen >= rank:
            upper_us = (1 << index) if index else 1
            return upper_us / 1000.0
    return 0.0


class Counter:
    """A monotonically increasing named integer."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """A named float that goes up and down (in-flight, depth, levels)."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class LatencyHistogram:
    """Bounded log2-bucket latency histogram with quantile readout.

    ``record`` takes seconds (what ``time.perf_counter`` differences
    give you); readout is in milliseconds (what humans and benchmarks
    want).  The bucket array is allocated once and never resized.
    """

    __slots__ = ("name", "_lock", "_counts", "_count", "_sum_us", "_max_us")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._counts = [0] * HISTOGRAM_BUCKETS
        self._count = 0
        self._sum_us = 0
        self._max_us = 0

    def record(self, seconds: float) -> None:
        micros = int(seconds * 1e6)
        if micros < 0:
            micros = 0
        index = micros.bit_length()
        if index >= HISTOGRAM_BUCKETS:
            index = HISTOGRAM_BUCKETS - 1
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum_us += micros
            if micros > self._max_us:
                self._max_us = micros

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def bucket_counts(self) -> list:
        """Copy of the raw bucket counts, for delta-window quantiles."""
        with self._lock:
            return list(self._counts)

    def quantile_ms(self, fraction: float) -> float:
        """Upper bound of the bucket holding the ``fraction`` quantile."""
        with self._lock:
            total = self._count
            counts = list(self._counts)
            max_us = self._max_us
        if total == 0:
            return 0.0
        rank = max(1, int(fraction * total + 0.999999))
        seen = 0
        for index, bucket in enumerate(counts):
            seen += bucket
            if seen >= rank:
                upper_us = (1 << index) if index else 1
                return min(upper_us, max_us) / 1000.0 if max_us else 0.0
        return max_us / 1000.0

    def as_dict(self) -> Dict[str, Any]:
        with self._lock:
            total = self._count
            sum_us = self._sum_us
            max_us = self._max_us
        mean_ms = (sum_us / total / 1000.0) if total else 0.0
        return {
            "count": total,
            "p50_ms": round(self.quantile_ms(0.50), 4),
            "p95_ms": round(self.quantile_ms(0.95), 4),
            "p99_ms": round(self.quantile_ms(0.99), 4),
            "mean_ms": round(mean_ms, 4),
            "max_ms": round(max_us / 1000.0, 4),
        }


class MetricsRegistry:
    """Named instruments, created on first use, snapshotted as dicts.

    The fast path — fetching an instrument that already exists — is a
    single dict ``get`` with no lock; the registry lock only guards
    creation.  Instrument names are free-form dotted strings
    (``server.latency.query``); the Prometheus renderer sanitizes them.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, LatencyHistogram] = {}

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._counters.setdefault(name, Counter(name))
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._gauges.setdefault(name, Gauge(name))
        return instrument

    def histogram(self, name: str) -> LatencyHistogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._histograms.setdefault(
                    name, LatencyHistogram(name)
                )
        return instrument

    def counters(self) -> Dict[str, Counter]:
        """Live view (copy of the map) of all counters by name."""
        with self._lock:
            return dict(self._counters)

    def gauges(self) -> Dict[str, Gauge]:
        """Live view (copy of the map) of all gauges by name."""
        with self._lock:
            return dict(self._gauges)

    def histograms(self) -> Dict[str, LatencyHistogram]:
        """Live view (copy of the map) of all histograms by name."""
        with self._lock:
            return dict(self._histograms)

    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict view of every instrument, sorted by name."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {
                name: counters[name].value for name in sorted(counters)
            },
            "gauges": {
                name: gauges[name].value for name in sorted(gauges)
            },
            "histograms": {
                name: histograms[name].as_dict()
                for name in sorted(histograms)
            },
        }
