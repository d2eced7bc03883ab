"""Admission control: budgets, quotas, and bounded backpressure.

:class:`AdmissionController` sits between a request's pre-flight
:class:`~repro.admission.estimator.CostEstimate` and its execution,
and enforces three independent limits:

1. **Per-request budget** (``max_cost``): an estimate above the budget
   is refused outright — no single request may be large enough to
   starve the service, whoever sent it.
2. **Per-session quota** (``quota_rate`` / ``quota_burst``): a token
   bucket per session key, refilled at ``quota_rate`` cost units per
   second up to ``quota_burst``.  Admission spends the estimate from
   the caller's bucket; an abusive session drains its own bucket and
   gets throttled while well-behaved sessions keep their tokens.
3. **Concurrency cap** (``max_concurrent`` + ``max_queue`` /
   ``queue_timeout``): at most ``max_concurrent`` requests execute at
   once; up to ``max_queue`` more wait (bounded, with a deadline), and
   anything beyond that is refused immediately — load sheds instead of
   building an unbounded queue.

Every refusal raises a typed :class:`~repro.errors.ResourceError`
carrying the estimate, the limit that was hit, and which resource hit
it — the client can tell "narrow your request" from "slow down" from
"try again later".

All state lives under one :class:`threading.Condition` (a single lock:
no acquisition order to get wrong), and the controller never blocks
while holding it except in ``Condition.wait``.  An unlimited
controller never takes it on the request path: its admissions are
counted by an ``itertools.count`` (``next`` on one is atomic), and its
slot's release does nothing.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.admission.estimator import CostEstimate
from repro.errors import ResourceError, StorageError

MAX_TRACKED_SESSIONS = 1024
"""Token buckets kept at once; the stalest is evicted beyond this."""


@dataclass(frozen=True)
class AdmissionLimits:
    """The knob set of one :class:`AdmissionController`.

    ``None`` disables an individual limit; the all-``None`` default is
    a controller that admits everything (useful for wiring tests).

    Parameters
    ----------
    max_cost:
        Per-request cost budget (estimate units); estimates above it
        are refused.
    quota_rate:
        Per-session token refill, in cost units per second.
    quota_burst:
        Bucket capacity; defaults to ``2 * quota_rate`` so an idle
        session can pay for a short burst before throttling kicks in.
    max_concurrent:
        Requests executing at once, server-wide.
    max_queue:
        Requests allowed to *wait* for a concurrency slot; arrivals
        beyond this are refused immediately.
    queue_timeout:
        Seconds a queued request waits for a slot before refusal.
    """

    max_cost: float | None = None
    quota_rate: float | None = None
    quota_burst: float | None = None
    max_concurrent: int | None = None
    max_queue: int = 16
    queue_timeout: float = 5.0

    def __post_init__(self) -> None:
        if self.max_cost is not None and self.max_cost <= 0:
            raise StorageError(
                f"max_cost must be positive, got {self.max_cost}"
            )
        if self.quota_rate is not None and self.quota_rate <= 0:
            raise StorageError(
                f"quota_rate must be positive, got {self.quota_rate}"
            )
        if self.quota_burst is not None and self.quota_rate is None:
            raise StorageError("quota_burst needs a quota_rate")
        if self.quota_burst is not None and self.quota_burst <= 0:
            raise StorageError(
                f"quota_burst must be positive, got {self.quota_burst}"
            )
        if self.max_concurrent is not None and self.max_concurrent < 1:
            raise StorageError(
                f"max_concurrent must be >= 1, got {self.max_concurrent}"
            )
        if self.max_queue < 0:
            raise StorageError(
                f"max_queue must be >= 0, got {self.max_queue}"
            )
        if self.queue_timeout < 0:
            raise StorageError(
                f"queue_timeout must be >= 0, got {self.queue_timeout}"
            )

    @property
    def burst(self) -> float | None:
        """Effective bucket capacity (explicit, or ``2 * quota_rate``)."""
        if self.quota_burst is not None:
            return self.quota_burst
        if self.quota_rate is not None:
            return 2.0 * self.quota_rate
        return None

    @property
    def unlimited(self) -> bool:
        """True when no limit is configured (admit everything)."""
        return (
            self.max_cost is None
            and self.quota_rate is None
            and self.max_concurrent is None
        )


@dataclass
class _Bucket:
    tokens: float
    refilled_at: float = field(default=0.0)


class _Slot:
    """Context manager releasing one admitted request's concurrency slot.

    The slot of an unlimited controller (``controller=None``) holds
    nothing, so one shared instance serves every admission.
    """

    def __init__(self, controller: "AdmissionController | None") -> None:
        self._controller = controller
        self._released = controller is None

    def __enter__(self) -> "_Slot":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def release(self) -> None:
        if not self._released:
            self._released = True
            assert self._controller is not None
            self._controller._release()


_FREE_SLOT = _Slot(None)


class AdmissionController:
    """Enforce one :class:`AdmissionLimits` over concurrent admissions.

    Thread-safe; one instance guards a whole store/server.  ``now`` is
    injectable for deterministic quota tests.
    """

    def __init__(
        self,
        limits: AdmissionLimits | None = None,
        *,
        now: Callable[[], float] = time.monotonic,
    ) -> None:
        self.limits = limits if limits is not None else AdmissionLimits()
        self._now = now
        self._cond = threading.Condition()
        self._active = 0
        self._waiting = 0
        self._buckets: dict[object, _Bucket] = {}
        self._admitted = 0
        # Admissions of an unlimited controller, counted without the
        # condition; snapshot() reads the count by drawing from it, and
        # subtracts its own draws.
        self._free_admits = itertools.count()
        self._free_reads = 0
        self._refused: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    def admit(
        self, estimate: CostEstimate, key: object | None = None
    ) -> _Slot:
        """Admit one request or raise :class:`ResourceError`.

        Returns a context manager holding the request's concurrency
        slot; exiting it releases the slot.  ``key`` identifies the
        session for quota purposes and defaults to the calling thread —
        correct for the threaded server, where one connection is one
        thread (and for local sessions, where it is one caller).
        """
        limits = self.limits
        if limits.unlimited:
            next(self._free_admits)
            return _FREE_SLOT
        if key is None:
            key = threading.get_ident()
        if limits.max_cost is not None and estimate.cost > limits.max_cost:
            self._count_refusal("cost")
            raise ResourceError(
                f"estimated cost {estimate.cost:.2f} exceeds the "
                f"per-request budget {limits.max_cost:.2f}; narrow the "
                "request (fewer taxa, pairs, or trees)",
                estimate=estimate.as_dict(),
                limit=limits.max_cost,
                resource="cost",
            )
        charged = self._charge_quota(key, estimate)
        try:
            self._acquire_slot(estimate)
        except ResourceError:
            # The request never ran: give its quota tokens back so a
            # congested server does not also bankrupt polite sessions.
            if charged:
                self._refund_quota(key, estimate.cost)
            raise
        return _Slot(self)

    def _count_refusal(self, resource: str) -> None:
        with self._cond:
            self._refused[resource] = self._refused.get(resource, 0) + 1

    def _charge_quota(self, key: object, estimate: CostEstimate) -> bool:
        limits = self.limits
        if limits.quota_rate is None:
            return False
        burst = limits.burst
        assert burst is not None
        with self._cond:
            now = self._now()
            bucket = self._buckets.get(key)
            if bucket is None:
                bucket = _Bucket(tokens=burst, refilled_at=now)
                self._buckets[key] = bucket
                self._evict_stale_buckets()
            else:
                elapsed = max(0.0, now - bucket.refilled_at)
                bucket.tokens = min(
                    burst, bucket.tokens + elapsed * limits.quota_rate
                )
                bucket.refilled_at = now
            if estimate.cost > bucket.tokens:
                available = bucket.tokens
                self._refused["quota"] = self._refused.get("quota", 0) + 1
            else:
                bucket.tokens -= estimate.cost
                return True
        raise ResourceError(
            f"session quota exhausted: estimated cost {estimate.cost:.2f} "
            f"exceeds the {available:.2f} tokens available (refill "
            f"{limits.quota_rate:g}/s, burst {burst:g}); retry later",
            estimate=estimate.as_dict(),
            limit=burst,
            resource="quota",
        )

    def _refund_quota(self, key: object, cost: float) -> None:
        limits = self.limits
        burst = limits.burst
        if burst is None:
            return
        with self._cond:
            bucket = self._buckets.get(key)
            if bucket is not None:
                bucket.tokens = min(burst, bucket.tokens + cost)

    def _evict_stale_buckets(self) -> None:
        # Called under the condition.  Bounded memory: beyond the cap,
        # drop the bucket that refilled longest ago (an evicted-then-
        # returning session restarts with a full burst — generous, but
        # bounded generosity beats unbounded state).
        while len(self._buckets) > MAX_TRACKED_SESSIONS:
            stalest = min(
                self._buckets, key=lambda k: self._buckets[k].refilled_at
            )
            del self._buckets[stalest]

    def _acquire_slot(self, estimate: CostEstimate) -> None:
        limits = self.limits
        with self._cond:
            if limits.max_concurrent is None:
                self._admitted += 1
                return
            if self._active < limits.max_concurrent:
                self._active += 1
                self._admitted += 1
                return
            if self._waiting >= limits.max_queue:
                self._refused["concurrency"] = (
                    self._refused.get("concurrency", 0) + 1
                )
                raise ResourceError(
                    f"server is at its concurrency cap "
                    f"({limits.max_concurrent} running, "
                    f"{self._waiting} queued); retry later",
                    estimate=estimate.as_dict(),
                    limit=limits.max_concurrent,
                    resource="concurrency",
                )
            self._waiting += 1
            try:
                deadline = self._now() + limits.queue_timeout
                while self._active >= limits.max_concurrent:
                    remaining = deadline - self._now()
                    if remaining <= 0 or not self._cond.wait(remaining):
                        self._refused["concurrency"] = (
                            self._refused.get("concurrency", 0) + 1
                        )
                        raise ResourceError(
                            "timed out after "
                            f"{limits.queue_timeout:g}s waiting for a "
                            f"concurrency slot "
                            f"({limits.max_concurrent} running); "
                            "retry later",
                            estimate=estimate.as_dict(),
                            limit=limits.max_concurrent,
                            resource="concurrency",
                        )
            finally:
                self._waiting -= 1
            self._active += 1
            self._admitted += 1

    def _release(self) -> None:
        if self.limits.max_concurrent is None:
            return
        with self._cond:
            self._active -= 1
            self._cond.notify()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def snapshot(self) -> dict[str, object]:
        """Counters for logs, benchmarks, the serve banner, and stats."""
        with self._cond:
            tokens = [bucket.tokens for bucket in self._buckets.values()]
            quota: dict[str, object] = {
                "tracked_sessions": len(tokens),
                "burst": self.limits.burst,
                "rate": self.limits.quota_rate,
            }
            if tokens:
                quota["min_tokens"] = round(min(tokens), 3)
                quota["mean_tokens"] = round(sum(tokens) / len(tokens), 3)
            free = next(self._free_admits) - self._free_reads
            self._free_reads += 1
            return {
                "admitted": self._admitted + free,
                "refused": dict(self._refused),
                "active": self._active,
                "waiting": self._waiting,
                "sessions": len(self._buckets),
                "quota": quota,
            }

    def __repr__(self) -> str:
        snap = self.snapshot()
        return (
            f"AdmissionController(admitted={snap['admitted']}, "
            f"refused={snap['refused']}, active={snap['active']})"
        )
