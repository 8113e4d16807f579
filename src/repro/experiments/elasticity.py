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

Invariants asserted (the result's ``violations``):

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
#: Powered nodes at the start of an autoscaled day.
INITIALLY_ACTIVE = 1


@dataclasses.dataclass(frozen=True)
class ElasticityConfig:
    """One scenario: cluster shape, tenant mix, day curve, autoscaler."""

    seed: int = 0
    #: ``autoscale`` (start small, closed loop) or ``static`` (all
    #: nodes powered and loaded all day — the energy baseline).
    mode: str = "autoscale"

    # Cluster — the open-loop disk-bound regime (harness.open_loop),
    # so the day's peak saturates a node's disk and the monitor has
    # something to act on.
    load_segment_max_pages: int = 8

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
    batch: int = 150                    # logical requests per cohort
    queue_limit: int = 30_000
    web_slo_p99_ms: float = 60_000.0
    mobile_slo_p99_ms: float = 90_000.0

    # Autoscaler / policy cadence.
    autoscale_interval: float = 10.0
    cooldown_intervals: int = 6
    forecast_horizon: float = 120.0
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


#: The record perfledger/ reads (``offered``, ``completed``, ``ok``).
ElasticityResult = harness.OpenLoopResult


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


def _peak_time(tenants, day_seconds: float) -> float:
    """Argmax of the offered trace on a 10 s grid — the reference point
    the breathe-with-the-trace checks compare against."""
    best_t, best_rate = 0.0, -1.0
    t = 0.0
    while t <= day_seconds:
        rate = _total_rate(tenants, t)
        if rate > best_rate:
            best_t, best_rate = t, rate
        t += 10.0
    return best_t


# -- the run ----------------------------------------------------------------

def run_elasticity(config: ElasticityConfig | None = None
                   ) -> ElasticityResult:
    """One seeded scenario: a full diurnal day of open-loop traffic."""
    from repro.cluster.forecasting import LoadForecaster, WorkloadHint
    from repro.cluster.policies import PolicyThresholds, ThresholdPolicy
    from repro.core import PhysiologicalPartitioning, Rebalancer
    from repro.metrics.series import TimeSeries
    from repro.traffic import Autoscaler, AutoscalerConfig

    config = config or ElasticityConfig()
    # Static provisioning spreads the data across every (always-on)
    # node; the autoscaled day starts consolidated on the master and
    # lets the rebalancer spread it when the trace demands.
    autoscale = config.mode == "autoscale"
    tenants = _tenants(config)
    peak_time = _peak_time(tenants, config.day_seconds)
    run = harness.open_loop(
        config, tenants,
        owners=(0,) if autoscale else range(harness.OPEN_LOOP_NODES),
        active=INITIALLY_ACTIVE if autoscale else harness.OPEN_LOOP_NODES,
        vacuum_interval=config.vacuum_interval, batch=config.batch,
        executors=12, queue_limit=config.queue_limit,
    )
    cluster = run.cluster

    autoscaler = None
    if autoscale:
        from repro.workload.tpcc_schema import WAREHOUSE_PARTITIONED

        policy = ThresholdPolicy(PolicyThresholds(
            cpu_lower=0.25, disk_upper=0.60, disk_lower=0.20))
        rebalancer = Rebalancer(cluster, PhysiologicalPartitioning())
        autoscaler = Autoscaler(
            cluster, rebalancer, list(WAREHOUSE_PARTITIONED),
            admission=run.engine.admission,
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
        run.env.process(autoscaler.run(), name="autoscaler")

    samples = {name: TimeSeries(name) for name in ("nodes", "queue", "watts")}

    def sample(now, watts):
        samples["watts"].record(now, watts)
        samples["nodes"].record(now, cluster.active_node_count)
        samples["queue"].record(now, run.engine.admission.queue_depth)

    counters, violations = harness.drive_open_loop(
        run, config, config.day_seconds, sample, "elasticity")
    if autoscaler is not None:
        autoscaler.stop()

    # -- the day in report buckets ---------------------------------------
    width = config.day_seconds / config.report_buckets
    done = dict(run.engine.completions.bucket_sum(0.0, config.day_seconds,
                                                  width))
    means = {name: dict(sampled.bucket_mean(0.0, config.day_seconds, width))
             for name, sampled in samples.items()}
    series: dict[str, list] = {}
    t = 0.0
    while t < config.day_seconds:
        watts = means["watts"].get(t)
        jpr = (watts * width / done[t]
               if watts is not None and done.get(t, 0) > 0 else None)
        for name, value, digits in (
                ("offered/s", _total_rate(tenants, t + width / 2), 1),
                ("done/s", done.get(t, 0.0) / width, 1),
                ("nodes", means["nodes"].get(t), 1),
                ("queue", means["queue"].get(t), None),
                ("watts", watts, 1), ("J/req", jpr, 2)):
            series.setdefault(name, []).append(
                (round(t), None if value is None else round(value, digits)))
        t += width

    # -- claims ------------------------------------------------------------
    events = list(cluster.timeline)
    energy = cluster.energy_joules()
    joules_per_request = energy / max(counters["admission"]["completed"], 1)
    counters = {"run": {
        "seed": config.seed, "mode": config.mode, "peak_time": peak_time,
        "energy_joules": energy, "joules_per_request": joules_per_request,
        "peak_active_nodes": int(max(
            (v for _t, v in samples["nodes"].points),
            default=cluster.active_node_count)),
        "final_active_nodes": cluster.active_node_count,
        "first_scale_out": min((e.time for e in events
                                if e.kind == "scale-out"), default=None),
        "last_scale_in": max((e.time for e in events
                              if e.kind == "scale-in"), default=None),
    }, **counters}
    if autoscaler is not None:
        # The cluster breathed: recruited before the traffic peak,
        # released after it, and grew past its starting size.
        violations += harness.shape_violations("elasticity", {
            **counters["run"], "initially_active": INITIALLY_ACTIVE,
        }, ["first_scale_out < peak_time", "last_scale_in > peak_time",
            "peak_active_nodes > initially_active"])
    violations += harness.audit_violations(run.recorder, cluster, "end",
                                           counters)
    return ElasticityResult(
        f"elasticity [{config.mode}] — seed {config.seed}, "
        f"{counters['admission']['offered']} requests offered, "
        f"{energy / 1000:.0f} kJ, {joules_per_request:.2f} J/request",
        counters, events, violations, series=series)


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


def compare(runs: typing.Sequence[ElasticityResult]) -> harness.Result:
    """The cross-mode gate: static provisioning must spend more joules
    than breathing with the trace, same seed and day."""
    modes = harness.by_run_key(runs, "mode")
    auto, static = modes["autoscale"], modes["static"]
    return harness.Result(
        f"energy: autoscale {auto.energy_joules / 1000:.0f} kJ "
        f"({auto.joules_per_request:.2f} J/request) vs static "
        f"{static.energy_joules / 1000:.0f} kJ "
        f"({static.joules_per_request:.2f} J/request) — "
        f"{100.0 * (1.0 - auto.energy_joules / static.energy_joules):.0f}% "
        "saved by breathing with the trace", {}, [],
        harness.shape_violations(
            f"elasticity (seed {auto.seed})", modes,
            ["static.energy_joules > autoscale.energy_joules"]))
