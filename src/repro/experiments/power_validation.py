"""Sect. 3.1 power validation — the paper's cluster power envelope.

Reported by the paper:

* minimal configuration (1 active node, 9 standby, switch): ~65 W
* realistic minimal configuration (with disk drives):        ~70-75 W
* all nodes at full utilisation:                              ~260-280 W
* a single node: ~22-26 W active (by utilisation), ~2.5 W standby

Plus the energy-proportionality curve the whole paper is motivated by:
cluster watts as a function of how many nodes the workload needs.
"""

from __future__ import annotations

import dataclasses

from repro.hardware import (
    ClusterEnergyMeter,
    HDD_SPEC,
    NodeMachine,
    SSD_SPEC,
    specs,
)
from repro.experiments.harness import shape_violations
from repro.metrics.report import render_table
from repro.sim.engine import Environment


@dataclasses.dataclass
class PowerValidationResult:
    minimal_watts: float
    realistic_minimal_watts: float
    full_load_watts: float
    node_active_idle_watts: float
    node_active_peak_watts: float
    node_standby_watts: float
    proportionality_curve: list[tuple[int, float]]

    @property
    def violations(self) -> list[str]:
        """The paper's bands, and idle watts monotone in active nodes."""
        return shape_violations("Sect. 3.1", {
            **vars(self), "idle_watts": dict(self.proportionality_curve),
        }, ["60 <= minimal_watts <= 70",
            "62 <= realistic_minimal_watts <= 78",
            "255 <= full_load_watts <= 285",
            "20 <= node_active_idle_watts <= 24",
            "24 <= node_active_peak_watts <= 28",
            "node_standby_watts == 2.5",
            " < ".join(f"idle_watts[{n}]"
                       for n, _watts in self.proportionality_curve)])

    def to_table(self) -> str:
        rows = [
            ["minimal config (1 node + switch)", round(self.minimal_watts, 1),
             "~65"],
            ["realistic minimal (with drives)",
             round(self.realistic_minimal_watts, 1), "70-75"],
            ["full cluster, full utilisation",
             round(self.full_load_watts, 1), "260-280"],
            ["node active idle", round(self.node_active_idle_watts, 1),
             "~22"],
            ["node active peak", round(self.node_active_peak_watts, 1),
             "~26"],
            ["node standby", round(self.node_standby_watts, 1), "~2.5"],
        ]
        main = render_table(
            ["configuration", "measured W", "paper W"], rows,
            title="Sect. 3.1 — cluster power envelope",
        )
        curve = render_table(
            ["active nodes", "cluster W"],
            [[n, round(w, 1)] for n, w in self.proportionality_curve],
            title="Energy proportionality: watts vs. active nodes (idle)",
        )
        return main + "\n\n" + curve


def _fresh_cluster(env: Environment, active: int, disks=True):
    meter = ClusterEnergyMeter(env)
    disk_specs = (HDD_SPEC, SSD_SPEC, SSD_SPEC) if disks else ()
    nodes = []
    for i in range(specs.CLUSTER_NODE_COUNT):
        node = NodeMachine(env, i, disk_specs=disk_specs,
                           start_active=(i < active))
        meter.attach(node)
        nodes.append(node)
    return meter, nodes


def _saturate(env: Environment, node: NodeMachine) -> None:
    """Keep every core and every disk of ``node`` busy for 10 s."""
    for _ in range(node.cpu.cores):
        env.process(_busy(node.cpu.execute, 10.0))
    for disk in node.disks:
        env.process(_busy(disk.read,
                          int(disk.spec.bandwidth_bytes_per_s * 10), True))


def _busy(start, *args):
    yield from start(*args)


def run_power_validation() -> PowerValidationResult:
    env = Environment()

    # Minimal: one drive-less node serving coordination only.
    meter_min, _ = _fresh_cluster(env, active=1, disks=False)
    minimal = meter_min.current_watts()

    # Realistic minimal: the active node carries storage drives.
    env2 = Environment()
    meter_real = ClusterEnergyMeter(env2)
    fat_disks = (HDD_SPEC, HDD_SPEC, SSD_SPEC, SSD_SPEC, SSD_SPEC, SSD_SPEC)
    meter_real.attach(NodeMachine(env2, 0, disk_specs=fat_disks,
                                  start_active=True))
    for i in range(1, specs.CLUSTER_NODE_COUNT):
        meter_real.attach(NodeMachine(env2, i, start_active=False))
    realistic = meter_real.current_watts()

    # Full utilisation: saturate every core and every disk.
    env3 = Environment()
    meter_full, nodes = _fresh_cluster(env3, active=specs.CLUSTER_NODE_COUNT)
    for node in nodes:
        _saturate(env3, node)
    env3.run(until=5.0)
    full = meter_full.current_watts()

    # Single-node figures.
    env4 = Environment()
    active_node = NodeMachine(env4, 0, start_active=True)
    idle_w = active_node.current_watts()
    _saturate(env4, active_node)
    env4.run(until=5.0)
    peak_w = active_node.current_watts()
    standby_node = NodeMachine(env4, 1, start_active=False)
    standby_w = standby_node.current_watts()

    # Proportionality curve: idle watts for 1..10 active nodes.
    curve = []
    for n in range(1, specs.CLUSTER_NODE_COUNT + 1):
        env_n = Environment()
        meter_n, _nodes = _fresh_cluster(env_n, active=n)
        curve.append((n, meter_n.current_watts()))

    return PowerValidationResult(
        minimal_watts=minimal,
        realistic_minimal_watts=realistic,
        full_load_watts=full,
        node_active_idle_watts=idle_w,
        node_active_peak_watts=peak_w,
        node_standby_watts=standby_w,
        proportionality_curve=curve,
    )
