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

from repro.hardware import (
    ClusterEnergyMeter,
    HDD_SPEC,
    NodeMachine,
    SSD_SPEC,
    specs,
)
from repro.experiments import harness
from repro.sim.engine import Environment

#: What Sect. 3.1 reports for each measured configuration, in W.
PAPER_WATTS = {
    "minimal_watts": "~65",
    "realistic_minimal_watts": "70-75",
    "full_load_watts": "260-280",
    "node_active_idle_watts": "~22",
    "node_active_peak_watts": "~26",
    "node_standby_watts": "~2.5",
}


def shape(result: harness.Result) -> list[str]:
    """The paper's bands, and idle watts monotone in active nodes."""
    idle_watts = result.counters["idle_watts"]
    return harness.shape_violations("Sect. 3.1", {
        **result.counters["run"], "idle_watts": idle_watts,
    }, ["60 <= minimal_watts <= 70",
        "62 <= realistic_minimal_watts <= 78",
        "255 <= full_load_watts <= 285",
        "20 <= node_active_idle_watts <= 24",
        "24 <= node_active_peak_watts <= 28",
        "node_standby_watts == 2.5",
        " < ".join(f"idle_watts[{n}]" for n in idle_watts)])


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


def run_power_validation() -> harness.Result:
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
    idle_watts = {}
    for n in range(1, specs.CLUSTER_NODE_COUNT + 1):
        env_n = Environment()
        meter_n, _nodes = _fresh_cluster(env_n, active=n)
        idle_watts[n] = meter_n.current_watts()

    result = harness.Result(
        "Sect. 3.1 — cluster power envelope in W: measured (run), the "
        "paper's, and idle by active nodes (energy proportionality)", {
            "run": {
                "minimal_watts": minimal,
                "realistic_minimal_watts": realistic,
                "full_load_watts": full,
                "node_active_idle_watts": idle_w,
                "node_active_peak_watts": peak_w,
                "node_standby_watts": standby_w,
            },
            "paper": PAPER_WATTS,
            "idle_watts": idle_watts,
        }, [], [])
    result.violations = shape(result)
    return result
