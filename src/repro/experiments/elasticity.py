"""The elasticity experiment — a simulated diurnal day of open-loop
traffic against the autoscaled cluster.

This is the paper's energy-proportionality narrative (Sect. 1, 3.4,
6) driven end to end by the :mod:`repro.traffic` engine: millions of
logical requests from Zipf-skewed tenant populations follow a diurnal
curve with a flash crowd near the peak, the admission controller
absorbs overload visibly (bounded queue, per-tenant rate limits,
counted shedding), and the closed-loop
:class:`~repro.traffic.autoscaler.Autoscaler` — Holt forecasts plus a
user-declared :class:`~repro.cluster.forecasting.WorkloadHint` for the
flash crowd — recruits standby nodes through the rebalancer before the
ramp saturates the cluster and quiesces them again after it passes.

Two scenarios run under the same seed and the same traffic:

* ``autoscale`` — start on one data node, let the loop breathe;
* ``static``   — all nodes powered and loaded for the whole day
  (classic full provisioning), the energy baseline the paper argues
  against.

Invariants asserted (``ElasticityResult.violations``):

1. the day offered at least ``min_requests`` logical requests;
2. admission conservation: every offered request is accounted exactly
   once (admitted + rejected + shed = offered; completed + abandoned =
   admitted once drained);
3. autoscale only: the cluster actually breathed — at least one
   scale-out *before* the traffic peak, at least one scale-in *after*
   it, and a peak active-node count above the starting count;
4. zero isolation anomalies when ``audit`` is on.

The CLI (``python -m repro.experiments elasticity``) runs both
scenarios through :func:`repro.experiments.parallel.run_tasks`, so
``--jobs 2`` must be bit-identical to ``--jobs 1``.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.experiments import harness
from repro.metrics.report import (
    render_counters,
    render_slo_table,
    render_table,
    render_timeline,
)
from repro.workload import TpccConfig

# The day curve's fixed shape (logical requests/second per tenant
# class); runs vary day length, flash ramp/hold/decay and batch contract.
DIURNAL_AMPLITUDE = 0.65
WEB_BASE_RATE = 420.0
WEB_USERS = 600_000
MOBILE_BASE_RATE = 180.0
MOBILE_USERS = 350_000
MOBILE_PHASE = -120.0                   # mobile peaks a bit later
BATCH_RATE = 80.0
BATCH_USERS = 64
#: Flash crowd riding the morning ramp, shortly before the peak.
FLASH_PEAK_RATE = 600.0
FLASH_START_FRACTION = 0.20             # of day_seconds


@dataclasses.dataclass(frozen=True)
class ElasticityConfig:
    """One scenario: cluster shape, tenant mix, day curve, autoscaler."""

    seed: int = 0
    #: ``autoscale`` (start small, closed loop) or ``static`` (all
    #: nodes powered and loaded all day — the energy baseline).
    mode: str = "autoscale"

    # Cluster — disk-bound on purpose (shared HDD spindle, padded hot
    # rows, small buffer pool): the regime the paper's wimpy nodes
    # lived in, so the day's peak saturates a node's disk and the
    # monitor has something to act on.
    node_count: int = 4
    initially_active: int = 1
    buffer_pages_per_node: int = 192
    page_bytes: int = 8192
    segment_max_pages: int = 64
    load_segment_max_pages: int = 8
    lock_timeout: float = 2.0

    #: TPC-C shape (kept small; the padding does the disk work).
    tpcc: TpccConfig = TpccConfig(
        warehouses=8, districts_per_warehouse=4, customers_per_district=30,
        items=200, orders_per_district=10, order_lines_per_order=4,
        pad_blob_bytes=2048,
    )

    day_seconds: float = 2400.0
    #: Not a field: callers read it to scale the contract, none sets it.
    batch_rate = BATCH_RATE
    #: Contracted tenant: the token bucket caps it *below* its offered
    #: rate, so the rejected counter shows the rate limiter working.
    batch_rate_limit: float = 60.0
    flash_ramp: float = 60.0
    flash_hold: float = 120.0
    flash_decay: float = 90.0
    #: The user-declared hint window opens this long before the crowd.
    hint_lead: float = 120.0

    # Engine knobs.
    tick: float = 1.0
    batch: int = 150                    # logical requests per cohort
    executors: int = 12
    queue_limit: int = 30_000
    retry_budget: float = 15.0
    web_slo_p99_ms: float = 60_000.0
    mobile_slo_p99_ms: float = 90_000.0

    # Autoscaler / policy cadence.
    autoscale_interval: float = 10.0
    cooldown_intervals: int = 6
    forecast_horizon: float = 120.0
    cpu_upper: float = 0.80
    cpu_lower: float = 0.25
    disk_upper: float = 0.60
    disk_lower: float = 0.20
    consecutive_samples: int = 2
    queue_pressure_per_node: int = 2_000

    power_sample_interval: float = 10.0
    vacuum_interval: float = 30.0
    report_buckets: int = 12

    audit: bool = False
    #: The acceptance gate: the day must offer at least this many
    #: logical requests.
    min_requests: int = 1_000_000

    @property
    def flash_start(self) -> float:
        return self.day_seconds * FLASH_START_FRACTION


@dataclasses.dataclass
class ElasticityResult:
    """One scenario's outcome — plain data, picklable for run_tasks."""

    mode: str
    seed: int
    violations: list[str]
    offered: int
    completed: int
    admission: dict[str, int | float]
    tenants: dict[str, dict[str, float | int]]
    #: Pre-rendered rows: [t, offered/s, done/s, nodes, queue, watts,
    #: J/req] per report bucket.
    timeline: list[list]
    #: The autoscaler's actions: its events on the cluster timeline.
    events: list
    energy_joules: float
    peak_active_nodes: int
    final_active_nodes: int
    peak_time: float
    wall_events: int
    anomalies: list[str] = dataclasses.field(default_factory=list)
    history_stats: dict[str, int] = dataclasses.field(default_factory=dict)
    audited: bool = False

    TIMELINE_HEADERS = ["t(s)", "offered/s", "done/s", "nodes", "queue",
                       "watts", "J/req"]

    @property
    def ok(self) -> bool:
        return not self.violations and not self.anomalies

    @property
    def joules_per_request(self) -> float:
        return self.energy_joules / max(self.completed, 1)

    def to_table(self) -> str:
        parts = [render_table(
            self.TIMELINE_HEADERS, self.timeline,
            title=(f"elasticity [{self.mode}] — seed {self.seed}, "
                   f"{self.offered} requests offered, "
                   f"{self.energy_joules / 1000:.0f} kJ, "
                   f"{self.joules_per_request:.2f} J/request"),
        )]
        parts.append(render_slo_table(
            self.tenants, title=f"[{self.mode}] per-tenant latency SLOs"))
        parts.append(render_counters(
            f"[{self.mode}] admission control", self.admission))
        if self.events:
            parts.append(render_timeline(
                f"[{self.mode}] autoscaler timeline "
                f"(traffic peak at t={self.peak_time:.0f}s)", self.events))
        for violation in self.violations:
            parts.append(f"ELASTICITY VIOLATION [{self.mode}]: {violation}")
        for anomaly in self.anomalies:
            parts.append(f"ISOLATION ANOMALY [{self.mode}]: {anomaly}")
        return "\n".join(parts)


# -- tenants ----------------------------------------------------------------

def _tenants(config: ElasticityConfig):
    """The day's tenant classes, built from the config's rate knobs."""
    from repro.traffic import (
        ConstantArrivals,
        DiurnalArrivals,
        FlashCrowd,
        TenantClass,
    )

    web = TenantClass(
        name="web",
        users=WEB_USERS,
        arrivals=DiurnalArrivals(
            base_rate=WEB_BASE_RATE,
            amplitude=DIURNAL_AMPLITUDE,
            period=config.day_seconds,
        ) + FlashCrowd(
            peak_rate=FLASH_PEAK_RATE,
            start=config.flash_start,
            ramp=config.flash_ramp,
            hold=config.flash_hold,
            decay=config.flash_decay,
        ),
        zipf_theta=0.99,
        hot_offset=0,
        slo_p99_ms=config.web_slo_p99_ms,
    )
    mobile = TenantClass(
        name="mobile",
        users=MOBILE_USERS,
        arrivals=DiurnalArrivals(
            base_rate=MOBILE_BASE_RATE,
            amplitude=DIURNAL_AMPLITUDE,
            period=config.day_seconds,
            phase=MOBILE_PHASE,
        ),
        zipf_theta=0.9,
        hot_offset=3,
        slo_p99_ms=config.mobile_slo_p99_ms,
    )
    batch = TenantClass(
        name="batch",
        users=BATCH_USERS,
        arrivals=ConstantArrivals(BATCH_RATE),
        zipf_theta=0.0,
        hot_offset=5,
        rate_limit=config.batch_rate_limit,
    )
    return [web, mobile, batch]


def _total_rate(tenants, t: float) -> float:
    return sum(tenant.arrivals.rate(t) for tenant in tenants)


def _peak_time(tenants, day_seconds: float, step: float = 10.0) -> float:
    """Argmax of the offered trace on a coarse grid — the reference
    point the breathe-with-the-trace checks compare against."""
    best_t, best_rate = 0.0, -1.0
    t = 0.0
    while t <= day_seconds:
        rate = _total_rate(tenants, t)
        if rate > best_rate:
            best_t, best_rate = t, rate
        t += step
    return best_t


# -- the run ----------------------------------------------------------------

def run_elasticity(config: ElasticityConfig | None = None,
                   seed: int | None = None) -> ElasticityResult:
    """One seeded scenario: a full diurnal day of open-loop traffic."""
    from repro.cluster.forecasting import LoadForecaster, WorkloadHint
    from repro.cluster.policies import PolicyThresholds, ThresholdPolicy
    from repro.core import PhysiologicalPartitioning, Rebalancer
    from repro.hardware import HDD_SPEC
    from repro.metrics.series import TimeSeries
    from repro.traffic import Autoscaler, AutoscalerConfig, SessionEngine

    config = config or ElasticityConfig()
    if seed is not None:
        config = dataclasses.replace(config, seed=seed)
    # Static provisioning spreads the data across every (always-on)
    # node; the autoscaled day starts consolidated on the master and
    # lets the rebalancer spread it when the trace demands.
    active = (config.node_count if config.mode == "static"
              else config.initially_active)
    env, cluster = harness.tpcc_cluster(
        config.seed, config.tpcc,
        owners=range(active) if config.mode == "static" else (0,),
        load_segment_max_pages=config.load_segment_max_pages,
        vacuum_interval=config.vacuum_interval,
        node_count=config.node_count, initially_active=active,
        disk_specs=(HDD_SPEC,),
        buffer_pages_per_node=config.buffer_pages_per_node,
        page_bytes=config.page_bytes,
        segment_max_pages=config.segment_max_pages,
        lock_timeout=config.lock_timeout,
    )
    tenants = _tenants(config)
    peak_time = _peak_time(tenants, config.day_seconds)

    engine = SessionEngine(
        cluster, config.tpcc, tenants,
        seed=config.seed, tick=config.tick, batch=config.batch,
        executors=config.executors, queue_limit=config.queue_limit,
        retry_budget=config.retry_budget,
    )

    recorder = None
    if config.audit:
        from repro.audit import HistoryRecorder

        recorder = HistoryRecorder().attach(cluster)

    autoscaler = None
    if config.mode == "autoscale":
        from repro.workload.tpcc_schema import WAREHOUSE_PARTITIONED

        policy = ThresholdPolicy(PolicyThresholds(
            cpu_upper=config.cpu_upper, cpu_lower=config.cpu_lower,
            disk_upper=config.disk_upper, disk_lower=config.disk_lower,
            consecutive_samples=config.consecutive_samples,
        ))
        rebalancer = Rebalancer(cluster, PhysiologicalPartitioning())
        autoscaler = Autoscaler(
            cluster, rebalancer, list(WAREHOUSE_PARTITIONED),
            admission=engine.admission,
            forecaster=LoadForecaster(horizon=config.forecast_horizon),
            policy=policy,
            config=AutoscalerConfig(
                interval=config.autoscale_interval,
                cooldown_intervals=config.cooldown_intervals,
                queue_pressure_per_node=config.queue_pressure_per_node,
            ),
        )
        # The user-declared shift: "expect a crowd shortly after t0" —
        # the forecaster treats the window as near-saturated, so the
        # loop recruits capacity before the first crowded sample lands.
        autoscaler.hint(WorkloadHint(
            start=max(config.flash_start - config.hint_lead, 0.0),
            end=(config.flash_start + config.flash_ramp
                 + config.flash_hold + config.flash_decay),
            expected_utilization=0.95,
        ))
        env.process(autoscaler.run(), name="autoscaler")

    nodes_series = TimeSeries("active_nodes")
    queue_series = TimeSeries("queue_depth")
    watts_series = TimeSeries("watts")
    done: list[float] = []

    def traffic():
        yield from engine.run(config.day_seconds)
        done.append(env.now)

    def meter_loop():
        meter = cluster.meter
        meter.sample()
        if recorder is not None:
            recorder.checkpoint_coverage(cluster.master.gpt, env.now,
                                         "day-start")
        while not done:
            yield env.timeout(config.power_sample_interval)
            now, watts = meter.sample()
            watts_series.record(now, watts)
            nodes_series.record(now, cluster.active_node_count)
            queue_series.record(now, engine.admission.queue_depth)
            if recorder is not None:
                recorder.checkpoint_coverage(cluster.master.gpt, now,
                                             "meter")

    env.process(meter_loop(), name="power-meter")
    env.run(until=env.process(traffic(), name="traffic"))
    if autoscaler is not None:
        autoscaler.stop()

    anomalies, history_stats = harness.audit_epilogue(
        recorder, cluster, "day-end")

    # -- timeline --------------------------------------------------------
    width = config.day_seconds / config.report_buckets
    done_by_bucket = dict(
        engine.completions.bucket_sum(0.0, config.day_seconds, width))
    nodes_by_bucket = dict(
        nodes_series.bucket_mean(0.0, config.day_seconds, width))
    queue_by_bucket = dict(
        queue_series.bucket_mean(0.0, config.day_seconds, width))
    watts_by_bucket = dict(
        watts_series.bucket_mean(0.0, config.day_seconds, width))
    timeline: list[list] = []
    t = 0.0
    while t < config.day_seconds:
        offered_rate = _total_rate(tenants, t + width / 2)
        done_rate = done_by_bucket.get(t, 0.0) / width
        watts = watts_by_bucket.get(t)
        nodes = nodes_by_bucket.get(t)
        queue = queue_by_bucket.get(t)
        jpr = (watts * width / done_by_bucket[t]
               if watts is not None and done_by_bucket.get(t, 0) > 0
               else None)
        timeline.append([
            round(t), round(offered_rate, 1), round(done_rate, 1),
            round(nodes, 1) if nodes is not None else "-",
            round(queue) if queue is not None else "-",
            round(watts, 1) if watts is not None else "-",
            round(jpr, 2) if jpr is not None else "-",
        ])
        t += width

    # -- invariants ------------------------------------------------------
    stats = engine.admission.stats()
    violations = harness.admission_violations(stats, config.min_requests,
                                              "day")

    peak_active = int(max(
        (v for _t, v in nodes_series.points), default=cluster.active_node_count
    ))
    events = [e for e in cluster.timeline if e.source == "autoscaler"]
    if autoscaler is not None:
        outs = [e.time for e in events if e.kind == "scale-out"]
        ins = [e.time for e in events if e.kind == "scale-in"]
        if not outs:
            violations.append("autoscaler never scaled out")
        elif min(outs) >= peak_time:
            violations.append(
                f"first scale-out at t={min(outs):.0f}s, after the "
                f"traffic peak (t={peak_time:.0f}s) — not ahead of the ramp"
            )
        if not ins:
            violations.append("autoscaler never scaled back in")
        elif max(ins) <= peak_time:
            violations.append(
                f"last scale-in at t={max(ins):.0f}s, before the traffic "
                f"peak (t={peak_time:.0f}s)"
            )
        if peak_active <= config.initially_active:
            violations.append(
                f"active nodes never rose above the starting "
                f"{config.initially_active}"
            )
    for anomaly in anomalies:
        violations.append(f"ISOLATION ANOMALY: {anomaly}")

    return ElasticityResult(
        mode=config.mode,
        seed=config.seed,
        violations=violations,
        offered=stats["offered"],
        completed=stats["completed"],
        admission=stats,
        tenants=engine.tenant_report(),
        timeline=timeline,
        events=events,
        energy_joules=cluster.energy_joules(),
        peak_active_nodes=peak_active,
        final_active_nodes=cluster.active_node_count,
        peak_time=peak_time,
        wall_events=env.events_processed,
        anomalies=anomalies,
        history_stats=history_stats,
        audited=config.audit,
    )


# -- configurations ---------------------------------------------------------

def quick_elasticity_config() -> ElasticityConfig:
    """The default: a compressed diurnal day, >= 1e6 logical requests."""
    return ElasticityConfig()


def full_elasticity_config() -> ElasticityConfig:
    """A real-length day at the same transaction intensity: cohorts
    batch more logical users so the simulated work stays bounded."""
    return ElasticityConfig(
        day_seconds=86_400.0,
        batch=5_000,
        queue_limit=1_000_000,
        queue_pressure_per_node=60_000,
        flash_ramp=600.0, flash_hold=1800.0, flash_decay=900.0,
        hint_lead=1200.0,
        autoscale_interval=60.0,
        forecast_horizon=1800.0,
        power_sample_interval=120.0,
        vacuum_interval=300.0,
        min_requests=30_000_000,
        web_slo_p99_ms=600_000.0, mobile_slo_p99_ms=900_000.0,
    )


def compare_elasticity(
        results: typing.Sequence[ElasticityResult]) -> list[str]:
    """The cross-mode gate: static provisioning must spend more joules
    than breathing with the trace, same seed and day."""
    return harness.shape_violations(
        f"elasticity (seed {results[0].seed})",
        {result.mode: result for result in results},
        ["static.energy_joules > autoscale.energy_joules"])


def render_elasticity(results: typing.Sequence[ElasticityResult]) -> str:
    """Render the scenario suite plus the energy comparison."""
    parts = [result.to_table() for result in results]
    by_mode = {result.mode: result for result in results}
    if "autoscale" in by_mode and "static" in by_mode:
        auto, static = by_mode["autoscale"], by_mode["static"]
        if static.energy_joules > 0:
            saved = 100.0 * (1.0 - auto.energy_joules
                             / static.energy_joules)
            parts.append(
                f"energy: autoscale {auto.energy_joules / 1000:.0f} kJ "
                f"({auto.joules_per_request:.2f} J/request) vs static "
                f"{static.energy_joules / 1000:.0f} kJ "
                f"({static.joules_per_request:.2f} J/request) — "
                f"{saved:.0f}% saved by breathing with the trace"
            )
    parts += [f"ELASTICITY VIOLATION: {violation}"
              for violation in compare_elasticity(results)]
    return "\n\n".join(parts)
