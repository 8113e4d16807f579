"""Admission control and queue-based load leveling for the masters.

An open-loop arrival process does not slow down because the cluster is
busy — that is the whole point — so overload must be absorbed somewhere
explicit.  This module is that place: a bounded request queue between
the session engine and the execution pool (load leveling), per-tenant
token buckets (rate limiting against a contracted request rate), and
*visible* shedding: every offered logical request is accounted exactly
once as admitted, rejected (rate limit), or shed (queue full), so the
report can show exactly how much demand the cluster declined instead of
silently queueing it into unbounded latency.

Counts are in *logical requests*; the queue holds cohort
:class:`Request` objects whose ``count`` says how many logical requests
the cohort stands for (see :mod:`repro.traffic.sessions`).
"""

from __future__ import annotations

import collections
import dataclasses
import typing

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Environment


#: Verdicts :meth:`AdmissionController.offer` can return.
ADMITTED = "admitted"
REJECTED = "rejected"   # per-tenant token bucket empty
SHED = "shed"           # global queue full


@dataclasses.dataclass
class Request:
    """One cohort of logical requests from a single tenant."""

    tenant: str
    arrival: float
    count: int = 1
    admitted_at: float = 0.0
    started_at: float = 0.0

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("a request cohort stands for >= 1 requests")


class TokenBucket:
    """Deterministic token bucket: ``rate`` tokens/second, ``burst``
    capacity, lazily refilled from the simulation clock."""

    def __init__(self, rate: float, burst: float):
        if rate <= 0 or burst <= 0:
            raise ValueError("rate and burst must be positive")
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self._last_refill = 0.0

    def _refill(self, now: float) -> None:
        elapsed = now - self._last_refill
        if elapsed > 0:
            self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
            self._last_refill = now

    def try_take(self, count: float, now: float) -> bool:
        """Take ``count`` tokens if available; whole-or-nothing so a
        cohort is never half admitted."""
        self._refill(now)
        if self.tokens >= count:
            self.tokens -= count
            return True
        return False


@dataclasses.dataclass
class TenantCounters:
    """Per-tenant admission accounting (logical request units)."""

    offered: int = 0
    admitted: int = 0
    rejected: int = 0
    shed: int = 0
    completed: int = 0
    abandoned: int = 0

    def as_dict(self) -> dict[str, int]:
        return dataclasses.asdict(self)


class AdmissionController:
    """Bounded queue + per-tenant token buckets in front of the master.

    * :meth:`offer` is called by the session engine (producer side):
      the cohort is rate-checked against its tenant's token bucket,
      then queued if the global backlog bound allows, else shed.
    * :meth:`take` is a simulation generator the executor pool blocks
      on; it returns the next cohort in FIFO order, or ``None`` after
      :meth:`close` (shutdown sentinel).
    """

    def __init__(self, env: "Environment", queue_limit: int,
                 buckets: dict[str, TokenBucket] | None = None):
        if queue_limit < 1:
            raise ValueError("queue limit must be positive")
        self.env = env
        #: Backlog bound in logical requests: the load-leveling knob.
        self.queue_limit = queue_limit
        self.buckets = dict(buckets or {})
        self._queue: collections.deque[Request] = collections.deque()
        self._waiters: collections.deque = collections.deque()
        self._closed = False
        self.queue_depth = 0           # logical requests queued
        self.peak_queue_depth = 0
        self.peak_queue_wait = 0.0
        self.tenants: dict[str, TenantCounters] = {}
        self.offered = 0
        self.admitted = 0
        self.rejected = 0
        self.shed = 0
        self.completed = 0
        self.abandoned = 0

    # -- producer side ---------------------------------------------------

    def counters_for(self, tenant: str) -> TenantCounters:
        counters = self.tenants.get(tenant)
        if counters is None:
            counters = self.tenants[tenant] = TenantCounters()
        return counters

    def offer(self, request: Request) -> str:
        """Admit, reject, or shed one cohort; returns the verdict."""
        if self._closed:
            raise RuntimeError("admission controller is closed")
        now = self.env.now
        counters = self.counters_for(request.tenant)
        counters.offered += request.count
        self.offered += request.count
        bucket = self.buckets.get(request.tenant)
        if bucket is not None and not bucket.try_take(request.count, now):
            counters.rejected += request.count
            self.rejected += request.count
            return REJECTED
        if self.queue_depth + request.count > self.queue_limit:
            counters.shed += request.count
            self.shed += request.count
            return SHED
        request.admitted_at = now
        counters.admitted += request.count
        self.admitted += request.count
        self._queue.append(request)
        self.queue_depth += request.count
        if self.queue_depth > self.peak_queue_depth:
            self.peak_queue_depth = self.queue_depth
        if self._waiters:
            self._waiters.popleft().succeed()
        return ADMITTED

    # -- consumer side ---------------------------------------------------

    def take(self):
        """Generator: the next queued cohort (FIFO), or ``None`` once
        the controller is closed and drained."""
        while True:
            if self._queue:
                request = self._queue.popleft()
                self.queue_depth -= request.count
                request.started_at = self.env.now
                wait = request.started_at - request.admitted_at
                if wait > self.peak_queue_wait:
                    self.peak_queue_wait = wait
                return request
            if self._closed:
                return None
            event = self.env.event()
            self._waiters.append(event)
            yield event

    def close(self) -> None:
        """Stop accepting work and wake every blocked executor so the
        pool can exit; queued cohorts are still drained first."""
        self._closed = True
        while self._waiters:
            self._waiters.popleft().succeed()

    # -- completion accounting -------------------------------------------

    def note_completed(self, request: Request) -> None:
        self.counters_for(request.tenant).completed += request.count
        self.completed += request.count

    def note_abandoned(self, request: Request) -> None:
        """The executor gave up on the cohort (retry budget exhausted):
        shed load discovered *after* admission, reported distinctly."""
        self.counters_for(request.tenant).abandoned += request.count
        self.abandoned += request.count

    # -- reporting --------------------------------------------------------

    def stats(self) -> dict[str, int | float]:
        return {
            "offered": self.offered,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "shed": self.shed,
            "completed": self.completed,
            "abandoned": self.abandoned,
            "queue_depth": self.queue_depth,
            "peak_queue_depth": self.peak_queue_depth,
            "peak_queue_wait": self.peak_queue_wait,
        }
