"""Power and energy accounting.

The paper's headline metrics are watts (Fig. 6c/8c) and joules per
query (Fig. 6d/8d), measured at the wall.  Here power is a linear
function of component utilisation — exactly the model the paper's own
Sect. 3.1 numbers describe ("~22 - 26 Watts when active (based on
utilization)") — and energy is the *exact* integral of that function,
computed from resource busy-time integrals rather than sampling.
"""

from __future__ import annotations

import dataclasses
import enum
import typing

from repro.hardware import specs

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.node import NodeMachine
    from repro.sim.engine import Environment


class PowerState(enum.Enum):
    """Operational state of a node, as seen by the wall-power meter."""

    STANDBY = "standby"
    BOOTING = "booting"
    ACTIVE = "active"
    SHUTTING_DOWN = "shutting_down"
    #: Abrupt, un-negotiated loss of the node (fault injection): no
    #: quiesce, no shutdown delay.  Volatile state is gone; whatever is
    #: on disk survives for a later restart.
    CRASHED = "crashed"


@dataclasses.dataclass(frozen=True)
class NodePowerModel:
    """Linear utilisation -> watts model for one node (sans drives)."""

    idle_watts: float = specs.NODE_IDLE_WATTS
    peak_watts: float = specs.NODE_PEAK_WATTS
    standby_watts: float = specs.NODE_STANDBY_WATTS

    def base_watts(self, state: PowerState, disk_idle_watts: float) -> float:
        """Utilisation-independent draw in ``state``.

        Booting and shutting down draw full idle power — the machine is
        on, just not useful, which is why needless power cycles hurt
        energy efficiency.
        """
        if state in (PowerState.STANDBY, PowerState.CRASHED):
            # A crashed node draws like a powered-off one: the fault
            # model treats a crash as sudden power loss.
            return self.standby_watts
        return self.idle_watts + disk_idle_watts

    @property
    def dynamic_watts_per_core(self) -> float:
        """Extra draw of one fully-busy core."""
        return (self.peak_watts - self.idle_watts) / specs.CPU_CORES_PER_NODE


class ClusterEnergyMeter:
    """Wall meter for the whole cluster: nodes + the always-on switch.

    ``sample()`` returns the average watts since the previous sample,
    suitable for the paper's power-over-time plots; ``energy_joules()``
    is the running integral for joules-per-query.
    """

    def __init__(self, env: "Environment"):
        self.env = env
        self._nodes: list["NodeMachine"] = []
        self._start_time = env.now
        self._last_sample_time = env.now
        self._last_sample_energy = 0.0

    def attach(self, node: "NodeMachine") -> None:
        self._nodes.append(node)

    def energy_joules(self, now: float | None = None) -> float:
        """Total cluster energy consumed since the meter was created."""
        if now is None:
            now = self.env.now
        switch_energy = specs.SWITCH_WATTS * (now - self._start_time)
        return switch_energy + sum(n.energy_joules(now) for n in self._nodes)

    def current_watts(self) -> float:
        """Instantaneous cluster draw at the current simulated time."""
        return specs.SWITCH_WATTS + sum(n.current_watts() for n in self._nodes)

    def sample(self) -> tuple[float, float]:
        """Return ``(now, mean_watts_since_last_sample)`` and advance
        the sampling checkpoint."""
        now = self.env.now
        energy = self.energy_joules(now)
        elapsed = now - self._last_sample_time
        if elapsed <= 0:
            watts = self.current_watts()
        else:
            watts = (energy - self._last_sample_energy) / elapsed
        self._last_sample_time = now
        self._last_sample_energy = energy
        return now, watts


class LoadGauge:
    """Windowed CPU-utilisation observer for one node machine.

    Each :meth:`sample` returns the mean fraction of busy cores since
    the previous sample and advances the window — the signal the
    power-aware vacuum scheduler throttles on ("run GC on idle nodes,
    pause it under load").  Several gauges can watch one machine: the
    underlying :class:`~repro.sim.resources.UtilizationTracker` is
    shared and each observer keeps its own checkpoint.
    """

    def __init__(self, machine: "NodeMachine"):
        self.machine = machine
        self._last_time = machine.env.now
        self._last_integral = machine.cpu.tracker.integral()

    def sample(self) -> float:
        """Mean utilisation (0..1) since the previous sample."""
        now = self.machine.env.now
        integral = self.machine.cpu.tracker.integral(now)
        elapsed = now - self._last_time
        if elapsed <= 0:
            busy = self.machine.cpu.tracker.in_use / self.machine.cpu.cores
        else:
            busy = (integral - self._last_integral) / (
                self.machine.cpu.cores * elapsed
            )
        self._last_time = now
        self._last_integral = integral
        return busy


def busy_nodes(cluster, gauges: dict[int, LoadGauge],
               threshold: float | None) -> set[int]:
    """Active nodes whose mean CPU utilisation since the caller's last
    call exceeded ``threshold`` — the nodes a background daemon defers
    this tick.  ``gauges`` is the caller's own ``node_id -> LoadGauge``
    window state; a node seen for the first time (or rebooted onto a
    new machine) has no history yet and counts as idle."""
    if threshold is None:
        return set()
    busy: set[int] = set()
    for worker in cluster.active_workers():
        gauge = gauges.get(worker.node_id)
        if gauge is None or gauge.machine is not worker.machine:
            gauges[worker.node_id] = LoadGauge(worker.machine)
        elif gauge.sample() > threshold:
            busy.add(worker.node_id)
    return busy
