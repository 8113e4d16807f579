"""The cluster container: machines, workers, master, energy meter.

Builds the paper's testbed in one call: n identical wimpy nodes behind
one switch, with node 0 permanently active as the master.  Nodes can be
powered on and off at runtime (workers on standby nodes refuse work).

The master also keeps the cluster's one event log, :attr:`Cluster
.timeline`: every state transition a component makes — a fault
applied, a node declared failed, a replica promoted, a limping node
suspected, a scale-out, a row repaired by the scrubber — is one
:class:`TimelineEvent` appended through :meth:`Cluster.note`, so the
log is ordered by simulated time by construction.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.cluster.catalog import Catalog
from repro.cluster.master import MasterNode
from repro.cluster.monitor import ClusterMonitor
from repro.cluster.worker import WorkerNode
from repro.hardware import specs
from repro.hardware.disk import Disk, DiskSpec
from repro.hardware.network import Network
from repro.hardware.node import DEFAULT_DISK_SPECS, NodeMachine
from repro.hardware.power import ClusterEnergyMeter
from repro.sim.engine import Environment
from repro.txn import TransactionManager


class SegmentDirectory:
    """Cluster-wide map: segment id -> (hosting worker, disk).

    The indirection that lets physical partitioning place a segment's
    storage on one node while another node retains logical ownership.
    """

    def __init__(self):
        self._locations: dict[int, tuple[WorkerNode, Disk]] = {}

    def register(self, segment_id: int, worker: WorkerNode, disk: Disk) -> None:
        if segment_id in self._locations:
            raise ValueError(f"segment {segment_id} is already registered")
        self._locations[segment_id] = (worker, disk)

    def unregister(self, segment_id: int) -> None:
        if segment_id not in self._locations:
            raise KeyError(f"segment {segment_id} is not registered")
        del self._locations[segment_id]

    def location(self, segment_id: int) -> tuple[WorkerNode, Disk]:
        if segment_id not in self._locations:
            raise KeyError(f"segment {segment_id} is not registered")
        return self._locations[segment_id]

    def __contains__(self, segment_id: int) -> bool:
        return segment_id in self._locations


@dataclasses.dataclass(frozen=True)
class TimelineEvent:
    """One state transition, stamped with the simulated time it
    happened.  ``source`` names the component (``fault``, ``failover``,
    ``gray``, ``autoscaler``, ``scrub``), ``kind`` the transition."""

    time: float
    source: str
    kind: str
    node_id: int
    partition_id: int | None = None
    detail: str = ""


class Cluster:
    """A WattDB cluster on simulated hardware."""

    def __init__(self, env: Environment,
                 node_count: int = specs.CLUSTER_NODE_COUNT,
                 disk_specs: typing.Sequence[DiskSpec] = DEFAULT_DISK_SPECS,
                 buffer_pages_per_node: int = 4096,
                 segment_max_pages: int = specs.SEGMENT_PAGES,
                 page_bytes: int = specs.PAGE_BYTES,
                 initially_active: int = 1,
                 boot_seconds: float = specs.NODE_BOOT_SECONDS,
                 shutdown_seconds: float = specs.NODE_SHUTDOWN_SECONDS,
                 lock_timeout: float = 10.0):
        if node_count < 1:
            raise ValueError("cluster needs at least one node")
        if not 1 <= initially_active <= node_count:
            raise ValueError("initially_active out of range")
        self.env = env
        self.network = Network(env)
        self.meter = ClusterEnergyMeter(env)
        from repro.txn import LockManager

        self.txns = TransactionManager(
            env, lock_manager=LockManager(env, default_timeout=lock_timeout)
        )
        self.directory = SegmentDirectory()
        self.catalog = Catalog(segment_max_pages, page_bytes)

        self.machines: list[NodeMachine] = []
        self.workers: list[WorkerNode] = []
        for node_id in range(node_count):
            machine = NodeMachine(
                env, node_id, disk_specs=disk_specs,
                boot_seconds=boot_seconds, shutdown_seconds=shutdown_seconds,
                start_active=(node_id < initially_active),
            )
            self.meter.attach(machine)
            self.machines.append(machine)
            self.workers.append(
                WorkerNode(env, machine, self.network, self.txns,
                           self.directory, buffer_pages_per_node)
            )

        self.master = MasterNode(env, self, self.workers[0], self.catalog)
        self.monitor = ClusterMonitor(env, self.workers)
        from repro.moves import MoveManager

        self.moves = MoveManager(self)
        self.timeline: list[TimelineEvent] = []

    def note(self, source: str, kind: str, node_id: int,
             partition_id: int | None = None, detail: str = "") -> None:
        """Append one transition to :attr:`timeline` at the current time."""
        self.timeline.append(TimelineEvent(
            self.env.now, source, kind, node_id, partition_id, detail))

    # -- lookup ----------------------------------------------------------

    def worker(self, node_id: int) -> WorkerNode:
        if not 0 <= node_id < len(self.workers):
            raise KeyError(f"no node {node_id} in this cluster")
        return self.workers[node_id]

    def active_workers(self) -> list[WorkerNode]:
        return [w for w in self.workers if w.is_active]

    def standby_workers(self) -> list[WorkerNode]:
        return [w for w in self.workers if w.machine.state.value == "standby"]

    @property
    def active_node_count(self) -> int:
        return len(self.active_workers())

    # -- elasticity ----------------------------------------------------------

    def power_on(self, node_id: int):
        """Generator: boot a standby node into the cluster."""
        worker = self.worker(node_id)
        yield from worker.machine.power_on()
        return worker

    def power_off(self, node_id: int):
        """Generator: quiesce-and-shutdown an active node.

        The caller (rebalancer) must have moved data away first; a node
        still hosting segments must not go down ("Nodes still having
        data on disk must not shut down to prevent data loss").
        """
        worker = self.worker(node_id)
        if worker is self.master.worker:
            raise ValueError("the master node cannot be powered off")
        if worker.disk_space.segment_count() > 0:
            raise RuntimeError(
                f"node {node_id} still hosts "
                f"{worker.disk_space.segment_count()} segment(s)"
            )
        yield from worker.machine.power_off()

    # -- convenience ----------------------------------------------------------

    def energy_joules(self) -> float:
        return self.meter.energy_joules()

    def current_watts(self) -> float:
        return self.meter.current_watts()
