"""Workload driver: spawns clients, collects the paper's metrics.

Produces exactly the series the evaluation figures plot: completed
queries (-> qps), per-query response times (-> avg ms), power samples
(-> watts), and energy-per-query; plus aggregated cost breakdowns for
the Fig. 7 component analysis.
"""

from __future__ import annotations

import typing

from repro.cluster.vacuum import VacuumPolicy, VacuumScheduler
from repro.metrics.breakdown import CostBreakdown
from repro.metrics.series import TimeSeries
from repro.workload.client import OltpClient
from repro.workload.tpcc_txns import TpccContext

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster


def start_vacuum_daemon(cluster: "Cluster", interval: float = 30.0,
                        until: float | None = None) -> VacuumScheduler:
    """Launch the background version GC on every worker's partitions.

    Compatibility front door for :class:`repro.cluster.vacuum
    .VacuumScheduler` in its un-throttled mode: one full sweep per
    ``interval``, exactly one wakeup event per tick (determinism
    goldens fingerprint the event count), final sweep at or before
    ``until`` so a bounded simulation drains completely.  Endurance
    runs construct the scheduler directly with a throttled
    :class:`~repro.cluster.vacuum.VacuumPolicy` instead.
    """
    policy = VacuumPolicy(interval=interval)
    return VacuumScheduler(cluster, policy, until=until).start()


class WorkloadDriver:
    """Runs N closed-loop clients and records the evaluation series."""

    def __init__(self, cluster: "Cluster", ctx: TpccContext,
                 clients: int, client_interval: float,
                 mix: list[tuple[str, float]] | None = None,
                 power_sample_interval: float = 5.0,
                 audit=None,
                 retry_budget: float | None = None):
        if clients < 1:
            raise ValueError("need at least one client")
        self.cluster = cluster
        self.ctx = ctx
        #: Optional operation-history recorder (repro.audit): pass
        #: ``audit=True`` for a default recorder, or a pre-built
        #: ``HistoryRecorder``.  Attaching routes every begin / read /
        #: write / commit / abort through it and makes the meter loop
        #: snapshot partition-table coverage each sample.  Off by
        #: default so perf baselines are untouched.
        self.history = None
        if audit:
            from repro.audit.history import HistoryRecorder

            self.history = audit if isinstance(audit, HistoryRecorder) \
                else HistoryRecorder()
            self.history.attach(cluster)
        from repro.workload.client import RETRY_BUDGET_SECONDS

        self.clients = [
            OltpClient(i, ctx, self, client_interval, mix,
                       retry_budget=retry_budget or RETRY_BUDGET_SECONDS)
            for i in range(clients)
        ]
        self.power_sample_interval = power_sample_interval

        self.completions = TimeSeries("completions")
        self.response_times = TimeSeries("response_ms")
        self.power = TimeSeries("watts")
        self.failures = TimeSeries("failures")
        #: Queries that gave up inside their total-retry-time budget —
        #: shed load made visible, distinct from MAX_RETRIES exhaustion.
        self.abandoned = TimeSeries("abandoned")
        #: Aborted attempts by exception class name, counted by the
        #: request loop itself — the one place that knows why it retried.
        self.retries_by_class: dict[str, int] = {}
        self.breakdown_samples: list[tuple[float, CostBreakdown]] = []
        self.results_by_kind: dict[str, int] = {}
        #: Retry accounting: commits that landed on the first attempt
        #: vs. after at least one retry, and total retries spent
        #: (including those of queries that ultimately failed).
        self.first_try_completions = 0
        self.retried_completions = 0
        self.retries_total = 0
        #: Optional hook ``(kind, start, end, breakdown, result,
        #: attempts)`` observed on every completion — experiments use
        #: it to record committed keys for lost-commit verification.
        self.completion_listener: typing.Callable | None = None

    # -- client callbacks -------------------------------------------------

    def note_completion(self, kind: str, start: float, end: float,
                        breakdown: CostBreakdown, result,
                        attempts: int = 1) -> None:
        self.completions.record(end, 1.0)
        self.response_times.record(end, (end - start) * 1000.0)
        self.breakdown_samples.append((end, breakdown))
        self.results_by_kind[kind] = self.results_by_kind.get(kind, 0) + 1
        if attempts <= 1:
            self.first_try_completions += 1
        else:
            self.retried_completions += 1
            self.retries_total += attempts - 1
        if self.completion_listener is not None:
            self.completion_listener(kind, start, end, breakdown, result,
                                     attempts)

    def note_failure(self, kind: str, start: float, end: float,
                     attempts: int = 1) -> None:
        self.failures.record(end, 1.0)
        self.retries_total += max(attempts - 1, 0)

    def note_abandoned(self, kind: str, start: float, end: float,
                       attempts: int = 1) -> None:
        """The client hit its total-retry-time cap and gave up;
        ``attempts`` is how many attempts it had made by then."""
        self.abandoned.record(end, 1.0)
        self.retries_total += max(attempts - 1, 0)

    # -- run ----------------------------------------------------------------

    def run(self, duration: float):
        """Generator: drive the workload for ``duration`` seconds."""
        env = self.cluster.env
        until = env.now + duration
        procs = [
            env.process(client.run(until), name=f"client-{client.client_id}")
            for client in self.clients
        ]
        meter_proc = env.process(self._meter_loop(until), name="power-meter")
        for proc in procs:
            yield proc
        yield meter_proc

    def _meter_loop(self, until: float):
        meter = self.cluster.meter
        meter.sample()  # reset the checkpoint to now
        if self.history is not None:
            self.history.checkpoint_coverage(
                self.cluster.master.gpt, self.cluster.env.now, "run-start"
            )
        while self.cluster.env.now < until:
            step = min(self.power_sample_interval,
                       until - self.cluster.env.now)
            if step <= 0:
                break
            yield self.cluster.env.timeout(step)
            now, watts = meter.sample()
            self.power.record(now, watts)
            if self.history is not None:
                # Coverage snapshots ride the existing sampling loop so
                # auditing never adds events of its own — mid-move
                # checkpoints land whenever a move spans a sample.
                self.history.checkpoint_coverage(
                    self.cluster.master.gpt, now, "meter"
                )

    # -- aggregates ----------------------------------------------------------

    @property
    def conflicts(self) -> int:
        return sum(self.retries_by_class.values())

    @property
    def total_completed(self) -> int:
        return len(self.completions)

    @property
    def total_failed(self) -> int:
        return len(self.failures)

    @property
    def total_abandoned(self) -> int:
        return len(self.abandoned)

    def qps_series(self, t0: float, t1: float, width: float):
        return self.completions.bucket_rate(t0, t1, width)

    def response_series(self, t0: float, t1: float, width: float):
        return self.response_times.bucket_mean(t0, t1, width)

    def power_series(self, t0: float, t1: float, width: float):
        return self.power.bucket_mean(t0, t1, width)

    def energy_per_query_series(self, t0: float, t1: float, width: float):
        """Joules per query per bucket: mean watts x width / completions."""
        qps = dict(self.qps_series(t0, t1, width))
        out = []
        for time, watts in self.power_series(t0, t1, width):
            rate = qps.get(time, 0.0)
            if watts is None or rate <= 0:
                out.append((time, None))
            else:
                out.append((time, watts / rate))
        return out

    def retry_summary(self) -> dict[str, typing.Any]:
        """Commit-path retry accounting: first-try commits reported
        separately from commits that needed retries."""
        completed = self.first_try_completions + self.retried_completions
        return {
            "first_try_completions": self.first_try_completions,
            "retried_completions": self.retried_completions,
            "retries_total": self.retries_total,
            "retries_by_class": dict(self.retries_by_class),
            "exhausted_failures": self.total_failed,
            "abandoned_requests": self.total_abandoned,
            "retried_fraction": (
                self.retried_completions / completed if completed else 0.0
            ),
        }

    def mean_breakdown(self, t0: float | None = None,
                       t1: float | None = None) -> CostBreakdown:
        """Average per-query component times over a window (Fig. 7)."""
        chosen = [
            b for t, b in self.breakdown_samples
            if (t0 is None or t >= t0) and (t1 is None or t < t1)
        ]
        mean = CostBreakdown()
        if not chosen:
            return mean
        for b in chosen:
            mean.merge(b)
        return mean.scaled(1.0 / len(chosen))
