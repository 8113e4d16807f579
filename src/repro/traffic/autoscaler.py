"""The closed-loop autoscaler: trace in, node count out.

Closes the loop the ROADMAP asks for: the monitoring stream feeds the
Holt :class:`~repro.cluster.forecasting.LoadForecaster`, forecasts (and
user-declared :class:`~repro.cluster.forecasting.WorkloadHint` windows)
boost the samples the threshold policy judges, and the resulting
decisions are executed through the existing
:class:`~repro.core.rebalancer.Rebalancer` — power a standby node on
and repartition towards it *before* a forecast ramp crosses the upper
bound, pull data back and power nodes off after the ramp passes.  This
is the repo's one Sect. 3.4 control loop: it also re-drives range moves
a fault left suspended before taking new work, and splits a node that
runs out of storage space onto the node with the most free space.

Two signals beyond the paper's CPU/disk thresholds close the loop with
the traffic engine itself:

* **queue pressure** — a backlog in the admission queue deeper than
  ``queue_pressure_per_node`` logical requests per active node, or any
  shedding since the last round, counts as overload even while CPU
  utilisation still looks fine (the queue is where open-loop overload
  shows up first);
* **drain guard** — scale-in never fires while the admission queue is
  non-empty, so a backlog is never met by removing capacity.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.cluster.forecasting import LoadForecaster, WorkloadHint
from repro.cluster.policies import ThresholdPolicy
from repro.metrics.series import TimeSeries

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster
    from repro.core.rebalancer import Rebalancer
    from repro.traffic.admission import AdmissionController


#: Fraction of the hottest (or space-pressed) node's data shifted per
#: scale-out.
SCALE_FRACTION = 0.5
#: Scale in only when every active node's *forecast* sits below this
#: fraction of the policy's lower bound (hysteresis).
SCALE_IN_FORECAST_MARGIN = 1.0
#: Scale-in never takes the cluster below this many active nodes.
MIN_ACTIVE_NODES = 1


@dataclasses.dataclass
class AutoscalerConfig:
    interval: float = 5.0
    #: Observe-only rounds after acting (repartitioning load must not
    #: re-trigger the policy; Sect. 2.3's minutes-not-seconds rule).
    cooldown_intervals: int = 6
    #: Admission backlog per active node that counts as overload.
    queue_pressure_per_node: int = 2_000


class Autoscaler:
    """Periodic monitor -> forecast -> threshold -> act loop.  Every
    executed action is an ``autoscaler`` event on the cluster's timeline
    (``scale-out`` / ``scale-in``; the detail carries the reason and the
    active node count after it)."""

    def __init__(self, cluster: "Cluster", rebalancer: "Rebalancer",
                 tables: typing.Sequence[str],
                 admission: "AdmissionController | None" = None,
                 forecaster: LoadForecaster | None = None,
                 policy: ThresholdPolicy | None = None,
                 config: AutoscalerConfig | None = None):
        self.cluster = cluster
        self.rebalancer = rebalancer
        self.tables = list(tables)
        self.admission = admission
        self.forecaster = forecaster or LoadForecaster()
        self.policy = policy or ThresholdPolicy()
        self.config = config or AutoscalerConfig()
        self.node_count = TimeSeries("active_nodes")
        self.rounds = 0
        self._last_shed = 0
        self._running = False

    # -- user-declared workload shifts -----------------------------------

    def hint(self, hint: WorkloadHint) -> None:
        """Declare an expected utilisation window ("expect 3x load at
        9:00") — it overrides the extrapolation inside the window."""
        self.forecaster.add_hint(hint)

    # -- signals ----------------------------------------------------------

    def _boosted(self, samples):
        """Samples with cpu utilisation lifted to the forecast where the
        forecast is higher — the proactive trigger."""
        boosted = []
        for sample in samples:
            predicted = self.forecaster.predict(sample.node_id, sample.time)
            if predicted is not None and predicted > sample.cpu_utilization:
                sample = dataclasses.replace(sample,
                                             cpu_utilization=predicted)
            boosted.append(sample)
        return boosted

    def _queue_pressure(self) -> str | None:
        if self.admission is None:
            return None
        shed_delta = self.admission.shed - self._last_shed
        self._last_shed = self.admission.shed
        if shed_delta > 0:
            return f"shed {shed_delta} requests"
        active = max(self.cluster.active_node_count, 1)
        bound = self.config.queue_pressure_per_node * active
        if self.admission.queue_depth > bound:
            return f"backlog {self.admission.queue_depth} > {bound}"
        return None

    def _forecast_cold(self, samples) -> bool:
        """Every node's forecast below the scale-in margin?"""
        bound = self.policy.thresholds.cpu_lower * SCALE_IN_FORECAST_MARGIN
        for sample in samples:
            predicted = self.forecaster.predict(sample.node_id, sample.time)
            if predicted is None or predicted >= bound:
                return False
        return True

    # -- the loop ----------------------------------------------------------

    def run(self, until: float | None = None):
        """Generator process: the closed loop.  Stops at ``until`` (or
        runs forever when None — call :meth:`stop`)."""
        env = self.cluster.env
        self._running = True
        cooldown = 0
        while self._running and (until is None or env.now < until):
            step = self.config.interval
            if until is not None:
                step = min(step, until - env.now)
                if step <= 0:
                    break
            yield env.timeout(step)
            samples = self.cluster.monitor.collect()
            self.forecaster.observe_all(samples)
            self.forecaster.clear_expired_hints(env.now)
            decision = self.policy.observe(self._boosted(samples))
            pressure = self._queue_pressure()
            self.node_count.record(env.now, self.cluster.active_node_count)
            self.rounds += 1
            if cooldown > 0:
                cooldown -= 1
                continue
            if self.cluster.moves.journal.open_range_moves():
                # Finish what an earlier, fault-interrupted step started
                # before taking on new work.
                yield from self.rebalancer.resume_interrupted()
                cooldown = self.config.cooldown_intervals
            elif decision.wants_space_relief:
                yield from self._relieve_space(decision.space_pressed_nodes[0])
                cooldown = self.config.cooldown_intervals
            elif decision.wants_scale_out or pressure is not None:
                hot = (decision.overloaded_nodes
                       or [self._hottest(samples)])
                reason = pressure or "forecast over upper bound"
                acted = yield from self._scale_out(hot[0], reason)
                if acted:
                    cooldown = self.config.cooldown_intervals
                for sample in samples:
                    self.policy.reset(sample.node_id)
            elif (decision.wants_scale_in
                  and self._drained()
                  and self._forecast_cold(samples)):
                acted = yield from self._scale_in(decision.underloaded_nodes)
                if acted:
                    cooldown = self.config.cooldown_intervals
                for sample in samples:
                    self.policy.reset(sample.node_id)

    def stop(self) -> None:
        self._running = False

    def _drained(self) -> bool:
        return self.admission is None or self.admission.queue_depth == 0

    def _hottest(self, samples) -> int:
        if not samples:
            return self.cluster.master.node_id
        return max(samples, key=lambda s: s.cpu_utilization).node_id

    # -- actions -----------------------------------------------------------

    def _relieve_space(self, pressed: int):
        """Generator: "If a node goes out of storage space, DB
        partitions are split up on nodes with free space" (Sect. 3.4) —
        ship part of the pressed node's data to whichever other node
        (standby ones are powered on) has the most free capacity."""
        def free_bytes(worker):
            space = worker.disk_space
            return sum(space.free_bytes(d) for d in space.disks)

        others = [w for w in self.cluster.workers if w.node_id != pressed]
        if others:
            yield from self.rebalancer.scale_out(
                self.tables, [pressed],
                [max(others, key=free_bytes).node_id],
                fraction=SCALE_FRACTION,
            )

    def _scale_out(self, hot_node: int, reason: str):
        standby = self.cluster.standby_workers()
        if not standby:
            return False
        newcomer = standby[0]
        yield from self.rebalancer.scale_out(
            self.tables, [hot_node], [newcomer.node_id],
            fraction=SCALE_FRACTION,
        )
        self._note("scale-out", newcomer.node_id, reason)
        return True

    def _scale_in(self, underloaded: typing.Sequence[int]):
        victims = [
            n for n in underloaded
            if n != self.cluster.master.node_id
            and self.cluster.worker(n).is_active
        ]
        if not victims or self.cluster.active_node_count <= MIN_ACTIVE_NODES:
            return False
        victim = victims[0]
        receivers = [
            w for w in self.cluster.active_workers()
            if w.node_id != victim and self._fits(w, victim)
        ]
        if not receivers:
            self.policy.reset(victim)
            return False
        receiver = min(receivers, key=lambda w: w.cpu.in_use)
        yield from self.rebalancer.scale_in(
            self.tables, victim, receiver.node_id, power_off=False,
        )
        victim_worker = self.cluster.worker(victim)
        if victim_worker.disk_space.segment_count() == 0:
            yield from self.cluster.power_off(victim)
        self.policy.reset(victim)
        self._note("scale-in", victim, "forecast under lower bound")
        return True

    def _note(self, action: str, node_id: int, reason: str) -> None:
        self.cluster.note(
            "autoscaler", action, node_id,
            detail=f"{reason}; {self.cluster.active_node_count} active")

    def _fits(self, receiver, victim_id: int) -> bool:
        """Centralising must not push the receiver past the storage
        bound — otherwise scale-in and the out-of-space protocol would
        slosh data back and forth."""
        victim = self.cluster.worker(victim_id)
        victim_bytes = sum(
            victim.disk_space.used_bytes(d) for d in victim.disk_space.disks
        )
        capacity = sum(
            d.spec.capacity_bytes for d in receiver.disk_space.disks
        )
        used = sum(
            receiver.disk_space.used_bytes(d)
            for d in receiver.disk_space.disks
        )
        bound = self.policy.thresholds.storage_upper
        return bool(capacity) and (used + victim_bytes) / capacity <= bound
