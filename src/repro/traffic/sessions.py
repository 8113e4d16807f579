"""The virtual-session engine: millions of logical users, O(tenants)
simulation processes.

A naive open-loop driver would spawn one simulated process per user —
hopeless at web scale.  Instead each *tenant class* (a population of
logical users sharing an arrival process, a key-skew profile, and a
transaction mix) is driven by a single generator process: every tick it
draws the Poisson arrival count for the whole population, stamps each
cohort with an arrival time inside the tick, and offers it to the
admission controller.  Cohorts batch ``batch`` logical requests into
one executed transaction, so a million logical requests cost thousands
— not millions — of simulated transactions while the queueing dynamics
(arrival bursts, backlog, shedding) stay per-request accurate.

Key skew is per tenant: each tenant picks warehouses through its own
Zipf distribution with its own hot spot, so multi-tenant load lands
unevenly across the partitioned tables — the skew the rebalancer and
the autoscaler have to chase.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import random
import typing

from repro.metrics.series import LatencyHistogram, TimeSeries
from repro.traffic.admission import (
    AdmissionController,
    Request,
    TokenBucket,
)
from repro.traffic.arrivals import ArrivalProcess, sample_poisson
from repro.workload.client import pick_kind, run_request
from repro.workload.tpcc_txns import DEFAULT_MIX, TRANSACTIONS, TpccContext

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster
    from repro.workload.tpcc_schema import TpccConfig

#: Transaction kinds the engine declares read-only at ``begin`` — the
#: read tier may then serve them from replicas, the cache, or the
#: materialized views, and the SLO report splits their latencies from
#: the writers'.
READ_ONLY_KINDS = frozenset({
    "order_status", "stock_level", "order_status_view", "stock_level_view",
})
#: Seconds between a tenant's Poisson draws.
TICK = 1.0
#: Seconds of retrying after which a cohort is abandoned.
RETRY_BUDGET = 15.0


class ZipfKeyChooser:
    """Seeded Zipf(theta) ranks over ``n`` items via the cumulative
    table (exact, O(log n) per draw; ``n`` here is warehouses, not
    rows, so the table stays tiny)."""

    def __init__(self, n: int, theta: float, rng: random.Random):
        if n < 1:
            raise ValueError("need at least one item")
        if theta < 0:
            raise ValueError("theta cannot be negative")
        self.n = n
        self.theta = theta
        self.rng = rng
        weights = [1.0 / (rank ** theta) for rank in range(1, n + 1)]
        total = sum(weights)
        cumulative = []
        acc = 0.0
        for w in weights:
            acc += w / total
            cumulative.append(acc)
        cumulative[-1] = 1.0
        self._cumulative = cumulative

    def rank(self) -> int:
        """A 0-based rank, 0 being the hottest."""
        return bisect.bisect_left(self._cumulative, self.rng.random())


@dataclasses.dataclass(frozen=True)
class TenantClass:
    """A population of logical users behaving alike."""

    name: str
    #: Logical population size — bookkeeping for the report; the load
    #: itself comes from ``arrivals`` (users x per-user request rate).
    users: int
    arrivals: ArrivalProcess
    #: Zipf skew over warehouses (0 = uniform); ``hot_offset`` rotates
    #: which warehouse is this tenant's hottest so tenants collide only
    #: partially.
    zipf_theta: float = 0.9
    hot_offset: int = 0
    mix: tuple[tuple[str, float], ...] = tuple(DEFAULT_MIX)
    #: Latency target the report judges p99 against (None = no SLO).
    slo_p99_ms: float | None = None
    #: Admission contract: token-bucket rate in logical requests/sec
    #: (None = no per-tenant rate limit) and burst allowance.
    rate_limit: float | None = None
    burst: float | None = None

    def __post_init__(self):
        if self.users < 1:
            raise ValueError("a tenant class needs at least one user")


class TenantTpccContext(TpccContext):
    """A tenant-private TPC-C context: its own rng stream and its own
    Zipf-skewed warehouse choice."""

    def __init__(self, cluster: "Cluster", config: "TpccConfig",
                 rng: random.Random, zipf: ZipfKeyChooser, hot_offset: int):
        super().__init__(cluster=cluster, config=config, rng=rng)
        self._zipf = zipf
        self._hot_offset = hot_offset

    def random_warehouse(self) -> int:
        rank = self._zipf.rank()
        return (rank + self._hot_offset) % self.config.warehouses + 1


@dataclasses.dataclass
class TenantRuntime:
    """Mutable per-tenant state owned by the engine."""

    tenant: TenantClass
    ctx: TenantTpccContext
    arrival_rng: random.Random
    latency: LatencyHistogram
    #: The same observations split by transaction class, so the SLO
    #: report can show read and write percentiles separately.
    read_latency: LatencyHistogram
    write_latency: LatencyHistogram
    dispatched_cohorts: int = 0
    executed: int = 0          # executed transactions (cohorts)
    #: Aborted attempts across all cohorts, by exception class name.
    retries_by_class: dict[str, int] = dataclasses.field(default_factory=dict)

    @property
    def conflicts(self) -> int:
        return sum(self.retries_by_class.values())


class SessionEngine:
    """Open-loop driver: one arrival process per tenant class, a fixed
    executor pool draining the admission queue against the cluster."""

    def __init__(self, cluster: "Cluster", tpcc_config: "TpccConfig",
                 tenants: typing.Sequence[TenantClass],
                 seed: int = 0, batch: int = 100,
                 executors: int = 8, queue_limit: int = 50_000):
        if not tenants:
            raise ValueError("need at least one tenant class")
        if batch < 1 or executors < 1:
            raise ValueError("batch and executors must be positive")
        self.cluster = cluster
        self.batch = batch
        self.executors = executors
        self.admission = AdmissionController(
            cluster.env, queue_limit=queue_limit,
            buckets={
                t.name: TokenBucket(t.rate_limit,
                                    t.burst or 2.0 * t.rate_limit)
                for t in tenants if t.rate_limit is not None
            },
        )
        self.runtimes: dict[str, TenantRuntime] = {}
        for index, tenant in enumerate(tenants):
            zipf_rng = random.Random(seed * 1_000_003 + index * 7919 + 5)
            runtime = TenantRuntime(
                tenant=tenant,
                ctx=TenantTpccContext(
                    cluster, tpcc_config,
                    rng=random.Random(seed * 999_983 + index * 104_729 + 1),
                    zipf=ZipfKeyChooser(tpcc_config.warehouses,
                                        tenant.zipf_theta, zipf_rng),
                    hot_offset=tenant.hot_offset,
                ),
                arrival_rng=random.Random(seed * 15_485_863 + index * 31 + 9),
                latency=LatencyHistogram(name=tenant.name),
                read_latency=LatencyHistogram(name=f"{tenant.name}.read"),
                write_latency=LatencyHistogram(name=f"{tenant.name}.write"),
            )
            self.runtimes[tenant.name] = runtime
        self._in_flight = 0
        self.results_by_kind: dict[str, int] = {}
        #: One point per executed cohort: (completion time, logical
        #: request count) — ``bucket_sum`` turns it into requests/sec.
        self.completions = TimeSeries("completed_requests")

    # -- producer --------------------------------------------------------

    def _tenant_loop(self, runtime: TenantRuntime, until: float):
        """One tick per :data:`TICK` seconds: draw the tenant's Poisson
        arrival count, dispatch timestamped cohorts open-loop."""
        env = self.cluster.env
        tenant = runtime.tenant
        rng = runtime.arrival_rng
        while env.now < until:
            tick_start = env.now
            lam = tenant.arrivals.rate(tick_start) * TICK
            n = sample_poisson(rng, lam)
            remaining = n
            offsets = []
            while remaining > 0:
                size = min(self.batch, remaining)
                remaining -= size
                offsets.append((rng.random() * TICK, size))
            offsets.sort()
            for offset, size in offsets:
                at = tick_start + offset
                if at > env.now:
                    yield env.timeout(at - env.now)
                runtime.dispatched_cohorts += 1
                self.admission.offer(
                    Request(tenant=tenant.name, arrival=env.now, count=size)
                )
            next_tick = tick_start + TICK
            if next_tick > env.now:
                yield env.timeout(next_tick - env.now)

    # -- consumer --------------------------------------------------------

    def _execute(self, request: Request, runtime: TenantRuntime):
        """Run one cohort as one transaction through the one request
        loop (bounded retries inside a total-retry-time budget);
        latency is arrival -> completion, i.e. it *includes* the
        admission-queue wait."""
        env = self.cluster.env
        kind = pick_kind(runtime.ctx.rng, runtime.tenant.mix)
        read_only = kind in READ_ONLY_KINDS

        def begin():
            txn = self.cluster.txns.begin(read_only=read_only,
                                          cc=runtime.ctx.cc)
            # Tag the transaction with its tenant so the read tier's
            # cache can account fills against per-tenant quotas.
            txn.tenant = runtime.tenant.name
            return txn

        txn, _result, _attempts = yield from run_request(
            self.cluster, kind,
            functools.partial(TRANSACTIONS[kind], runtime.ctx), begin,
            request.arrival, RETRY_BUDGET, runtime.retries_by_class)
        if txn is None:
            self.admission.note_abandoned(request)
            return
        runtime.executed += 1
        latency_ms = max((env.now - request.arrival) * 1000.0, 0.0)
        runtime.latency.record(latency_ms, count=request.count)
        split = (runtime.read_latency if read_only
                 else runtime.write_latency)
        split.record(latency_ms, count=request.count)
        self.completions.record(env.now, request.count)
        self.results_by_kind[kind] = (
            self.results_by_kind.get(kind, 0) + 1
        )
        self.admission.note_completed(request)

    def _executor_loop(self):
        while True:
            request = yield from self.admission.take()
            if request is None:
                return
            runtime = self.runtimes[request.tenant]
            self._in_flight += 1
            try:
                yield from self._execute(request, runtime)
            finally:
                self._in_flight -= 1

    # -- run -------------------------------------------------------------

    def run(self, duration: float):
        """Generator: drive the open-loop workload for ``duration``
        simulated seconds, then drain the backlog and stop the pool."""
        env = self.cluster.env
        until = env.now + duration
        producers = [
            env.process(self._tenant_loop(runtime, until),
                        name=f"tenant-{name}")
            for name, runtime in self.runtimes.items()
        ]
        pool = [
            env.process(self._executor_loop(), name=f"executor-{i}")
            for i in range(self.executors)
        ]
        for producer in producers:
            yield producer
        while self.admission.queue_depth > 0 or self._in_flight > 0:
            yield env.timeout(1.0)
        self.admission.close()
        for executor in pool:
            yield executor

    # -- aggregates ------------------------------------------------------

    def tenant_report(self) -> dict[str, dict[str, float | int]]:
        """Per-tenant rows for :func:`repro.metrics.report
        .render_slo_table`: latency summary + admission accounting."""
        out: dict[str, dict[str, float | int]] = {}
        for name, runtime in self.runtimes.items():
            row: dict[str, float | int] = dict(runtime.latency.summary())
            for prefix, split in (("read", runtime.read_latency),
                                  ("write", runtime.write_latency)):
                summary = split.summary()
                row[f"{prefix}_requests"] = summary["count"]
                for stat in ("mean", "p50", "p99", "p999"):
                    row[f"{prefix}_{stat}"] = summary[stat]
            row.update(self.admission.counters_for(name).as_dict())
            if runtime.tenant.slo_p99_ms is not None:
                row["slo_p99_ms"] = runtime.tenant.slo_p99_ms
            row["users"] = runtime.tenant.users
            row["executed_txns"] = runtime.executed
            row["conflicts"] = runtime.conflicts
            row["retries_by_class"] = dict(runtime.retries_by_class)
            out[name] = row
        return out
