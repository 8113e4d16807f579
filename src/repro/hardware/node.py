"""A wimpy cluster node: CPU + DRAM + disks + network port + power state.

The machine model only; the DBMS software running on it lives in
:mod:`repro.cluster.worker`.  Nodes power on and off with realistic
transition delays, and account their own energy exactly from the busy
integrals of their components.
"""

from __future__ import annotations

import typing

from repro.hardware import specs
from repro.hardware.cpu import Cpu
from repro.hardware.disk import Disk, DiskSpec, HDD_SPEC, SSD_SPEC
from repro.hardware.network import NetworkPort
from repro.hardware.power import NodePowerModel, PowerState
from repro.sim.engine import Environment

DEFAULT_DISK_SPECS: tuple[DiskSpec, ...] = (HDD_SPEC, SSD_SPEC, SSD_SPEC)


class PowerTransitionError(RuntimeError):
    """Raised on an invalid power-state transition request."""


class NodeMachine:
    """Hardware of one cluster node (paper Sect. 3.1)."""

    def __init__(self, env: Environment, node_id: int,
                 disk_specs: typing.Sequence[DiskSpec] = DEFAULT_DISK_SPECS,
                 boot_seconds: float = specs.NODE_BOOT_SECONDS,
                 shutdown_seconds: float = specs.NODE_SHUTDOWN_SECONDS,
                 start_active: bool = False):
        self.env = env
        self.node_id = node_id
        self.power_model = NodePowerModel()
        self.boot_seconds = boot_seconds
        self.shutdown_seconds = shutdown_seconds

        name = f"node{node_id}"
        self.cpu = Cpu(env, specs.CPU_CORES_PER_NODE, name=f"{name}.cpu")
        self.disks = [
            Disk(env, spec, name=f"{name}.{spec.kind}{i}")
            for i, spec in enumerate(disk_specs)
        ]
        self.port = NetworkPort(env, name=f"{name}.port")

        self._state = PowerState.ACTIVE if start_active else PowerState.STANDBY
        self._state_since = env.now
        self._base_energy = 0.0
        #: Count of power-on events, for elasticity reporting.
        self.boot_count = 0
        #: The latest boot's end (a timeout), which a quiesce waits on.
        self.booted = None

    # -- state -----------------------------------------------------------

    @property
    def state(self) -> PowerState:
        return self._state

    @property
    def is_active(self) -> bool:
        return self._state is PowerState.ACTIVE

    @property
    def is_crashed(self) -> bool:
        return self._state is PowerState.CRASHED

    def _transition(self, new_state: PowerState) -> None:
        now = self.env.now
        self._base_energy += self._current_base_watts() * (now - self._state_since)
        self._state = new_state
        self._state_since = now

    def power_on(self):
        """Generator: bring the node from standby (or crashed) to active.

        Takes :attr:`boot_seconds`; during the transition the node
        draws active-idle power but cannot do useful work.  Booting out
        of CRASHED models an operator/injector restart after a fault.
        """
        if self._state not in (PowerState.STANDBY, PowerState.CRASHED):
            raise PowerTransitionError(
                f"node {self.node_id}: power_on from {self._state.value}"
            )
        self._transition(PowerState.BOOTING)
        self.booted = self.env.timeout(self.boot_seconds)
        yield self.booted
        self._transition(PowerState.ACTIVE)
        self.boot_count += 1

    def power_off(self):
        """Generator: bring the node from active to standby."""
        if self._state is not PowerState.ACTIVE:
            raise PowerTransitionError(
                f"node {self.node_id}: power_off from {self._state.value}"
            )
        self._transition(PowerState.SHUTTING_DOWN)
        yield self.env.timeout(self.shutdown_seconds)
        self._transition(PowerState.STANDBY)

    def crash(self) -> None:
        """Kill the node instantly (fault injection).

        Unlike :meth:`power_off` there is no quiesce and no transition
        delay — the machine simply stops.  Only an active (or booting)
        node can crash; a standby node has nothing to lose.
        """
        if self._state not in (PowerState.ACTIVE, PowerState.BOOTING):
            raise PowerTransitionError(
                f"node {self.node_id}: crash from {self._state.value}"
            )
        self._transition(PowerState.CRASHED)

    # -- power accounting --------------------------------------------------

    def _disk_idle_watts(self) -> float:
        return sum(d.spec.idle_watts for d in self.disks)

    def _current_base_watts(self) -> float:
        return self.power_model.base_watts(self._state, self._disk_idle_watts())

    def energy_joules(self, now: float | None = None) -> float:
        """Exact energy consumed by this node since its creation."""
        if now is None:
            now = self.env.now
        base = self._base_energy + self._current_base_watts() * (now - self._state_since)
        cpu_dynamic = (
            self.cpu.tracker.integral(now) * self.power_model.dynamic_watts_per_core
        )
        disk_dynamic = sum(
            d.tracker.integral(now) * (d.spec.active_watts - d.spec.idle_watts)
            for d in self.disks
        )
        return base + cpu_dynamic + disk_dynamic

    def current_watts(self) -> float:
        """Instantaneous draw from state + component busy counts."""
        watts = self._current_base_watts()
        watts += self.cpu.in_use * self.power_model.dynamic_watts_per_core
        watts += sum(
            (d.spec.active_watts - d.spec.idle_watts)
            for d in self.disks if d.tracker.in_use
        )
        return watts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<NodeMachine {self.node_id} {self._state.value}>"
