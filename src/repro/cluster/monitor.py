"""Cluster monitoring.

"Every node is monitoring its utilization: CPU, memory consumption,
network I/O, and disk utilization (storage and IOPS).  Additionally,
performance-critical data is collected for each DB partition ...  the
nodes send their monitoring data every few seconds to the master
node." (Sect. 3.4)
"""

from __future__ import annotations

import dataclasses
import typing

from repro.hardware import specs
from repro.sim.engine import Environment

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.worker import WorkerNode


@dataclasses.dataclass
class PartitionStats:
    """Activity attributed to one partition since the last report."""

    partition_id: int
    page_requests: int


#: Node health states a sample can carry.  ``suspect`` (latency
#: outlier under observation) is deliberately distinct from ``dead``
#: (heartbeats stopped): a gray-failed node keeps heartbeating.
NODE_STATUSES = ("alive", "suspect", "quarantined", "dead")


@dataclasses.dataclass
class NodeSample:
    """One monitoring report from one node."""

    time: float
    node_id: int
    cpu_utilization: float
    disk_utilization: float
    iops: float
    net_bytes: int
    buffer_hit_ratio: float
    partition_stats: list[PartitionStats]
    #: Fraction of the node's data-disk capacity holding extents.
    storage_used_fraction: float = 0.0
    #: Round-trip time of the heartbeat itself (software latency plus
    #: any flaky-link degradation on the node's port) — the first
    #: signal the gray-failure detector scores.
    heartbeat_rtt: float = 0.0
    #: Mean per-I/O service time over the sampling interval (busy
    #: seconds / completed I/Os) — the second signal; a limping disk
    #: inflates it by its slow factor.  0.0 when the interval saw no I/O.
    disk_service_time: float = 0.0
    #: Health state at sampling time (see ``NODE_STATUSES``).
    status: str = "alive"


class _Checkpoint:
    __slots__ = ("time", "cpu_integral", "disk_integrals", "io_counts",
                 "net_bytes", "partition_pages")

    def __init__(self):
        self.time = 0.0
        self.cpu_integral = 0.0
        self.disk_integrals: dict[str, float] = {}
        self.io_counts: dict[str, int] = {}
        self.net_bytes = 0
        self.partition_pages: dict[int, int] = {}


class ClusterMonitor:
    """Collects per-node samples at a fixed cadence.

    Run :meth:`run` as a simulation process; the rebalancer and the
    experiments read :meth:`latest` / :attr:`history`.
    """

    def __init__(self, env: Environment, workers: typing.Sequence["WorkerNode"]):
        self.env = env
        self.workers = list(workers)
        self.interval = specs.MONITOR_INTERVAL_SECONDS
        self.history_limit = 10_000
        self.history: list[NodeSample] = []
        self._checkpoints: dict[int, _Checkpoint] = {}
        #: node_id -> sim time of the last successful report.  A node
        #: that stops reporting (crash, severed NIC, removal) simply
        #: goes stale here — the failure detector reads this map.
        self.heartbeats: dict[int, float] = {}
        #: node_id -> health state, stamped onto every sample.  The
        #: gray-failure detector flips nodes between "alive" /
        #: "suspect" / "quarantined"; "dead" is the heartbeat
        #: detector's verdict.  Unknown nodes default to "alive".
        self.node_status: dict[int, str] = {}

    def set_status(self, node_id: int, status: str) -> None:
        if status not in NODE_STATUSES:
            raise ValueError(f"unknown node status {status!r}")
        self.node_status[node_id] = status

    def status_of(self, node_id: int) -> str:
        return self.node_status.get(node_id, "alive")

    def run(self):
        """Generator: the periodic monitoring loop (never returns)."""
        while True:
            yield self.env.timeout(self.interval)
            self.collect()

    def collect(self) -> list[NodeSample]:
        """Take one sample of every reachable worker right now.

        Workers that are offline, crashed, network-partitioned, or
        removed from the cluster mid-flight are skipped rather than
        assumed alive: a monitoring round must never die because a node
        did.
        """
        samples = []
        for worker in list(self.workers):
            if not self._reachable(worker):
                continue
            # Sampling only reads counters (no yield, no I/O): a raise
            # in there is a defect and must not pass for a missed
            # heartbeat — that would end in a false failover.
            samples.append(self.sample_node(worker))
            self.heartbeats[worker.node_id] = self.env.now
        self.history.extend(samples)
        if len(self.history) > self.history_limit:
            del self.history[: len(self.history) - self.history_limit]
        return samples

    @staticmethod
    def _reachable(worker: "WorkerNode") -> bool:
        return worker.is_active and not worker.port.severed

    def sample_node(self, worker: "WorkerNode") -> NodeSample:
        now = self.env.now
        cp = self._checkpoints.setdefault(worker.node_id, _Checkpoint())
        elapsed = now - cp.time

        cpu_tracker = worker.cpu.tracker
        cpu_integral = cpu_tracker.integral(now)
        if elapsed > 0:
            cpu_util = (cpu_integral - cp.cpu_integral) / (
                elapsed * worker.cpu.cores
            )
        else:
            cpu_util = cpu_tracker.in_use / worker.cpu.cores

        disk_util = 0.0
        iops = 0.0
        busy_delta = 0.0
        io_delta = 0
        for disk in worker.machine.disks:
            integral = disk.tracker.integral(now)
            previous = cp.disk_integrals.get(disk.name, 0.0)
            if elapsed > 0:
                disk_util = max(disk_util, (integral - previous) / elapsed)
                iops += (disk.io_count - cp.io_counts.get(disk.name, 0)) / elapsed
            busy_delta += integral - previous
            io_delta += disk.io_count - cp.io_counts.get(disk.name, 0)
            cp.disk_integrals[disk.name] = integral
            cp.io_counts[disk.name] = disk.io_count

        port = worker.port
        total_net = port.bytes_sent + port.bytes_received
        net_delta = total_net - cp.net_bytes

        partition_stats = []
        for pid, pages in worker.partition_page_requests.items():
            delta = pages - cp.partition_pages.get(pid, 0)
            partition_stats.append(PartitionStats(pid, delta))
            cp.partition_pages[pid] = pages

        cp.time = now
        cp.cpu_integral = cpu_integral
        cp.net_bytes = total_net

        capacity = sum(
            d.spec.capacity_bytes for d in worker.disk_space.disks
        )
        used = sum(
            worker.disk_space.used_bytes(d) for d in worker.disk_space.disks
        )

        # Heartbeat RTT: two software-stack traversals plus whatever a
        # degraded (flaky) port adds — per-attempt extra delay and the
        # expected retransmission cost.  Deterministic by construction
        # (an expectation, not a draw), so monitoring never perturbs
        # the event timeline.
        rtt = 2.0 * specs.NET_RPC_LATENCY_SECONDS
        loss = port.loss_probability
        extra = port.extra_delay
        if extra:
            rtt += 2.0 * extra
        if loss:
            rtt *= 1.0 + loss / (1.0 - loss)

        return NodeSample(
            time=now,
            node_id=worker.node_id,
            cpu_utilization=cpu_util,
            disk_utilization=disk_util,
            iops=iops,
            net_bytes=net_delta,
            buffer_hit_ratio=worker.buffer.hit_ratio,
            partition_stats=partition_stats,
            storage_used_fraction=used / capacity if capacity else 0.0,
            heartbeat_rtt=rtt,
            disk_service_time=(busy_delta / io_delta) if io_delta > 0 else 0.0,
            status=self.status_of(worker.node_id),
        )

    def latest(self) -> dict[int, NodeSample]:
        """The most recent sample per node."""
        out: dict[int, NodeSample] = {}
        for sample in self.history:
            out[sample.node_id] = sample
        return out


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


#: Fewer scored nodes than this and the gray detector scores nobody: a
#: median of one or two nodes is no cluster to be an outlier against.
MIN_CLUSTER_SAMPLES = 3


class GrayFailureDetector:
    """Latency-outlier detection of limping (gray-failed) nodes.

    A gray failure never misses a heartbeat — the node answers
    everything, slowly — so staleness detection waits forever.  This
    detector scores each node's *latency* against the cluster instead:
    per poll, it takes every node's heartbeat RTT and mean disk
    service time from the newest monitor samples, computes the cluster
    medians, and scores each node as

        score = max(rtt / median_rtt, service_time / median_service_time)

    The state machine has hysteresis on both edges so one noisy sample
    neither flags a node nor clears it:

    * ``alive`` -> ``suspect`` after ``suspect_strikes`` consecutive
      polls with score >= ``score_threshold``;
    * ``suspect`` -> ``quarantined`` after ``quarantine_strikes``
      further outlier polls — the coordinator then *drains* the node
      (demotes its primaries to their replicas) instead of waiting for
      a crash that never comes;
    * ``quarantined``/``suspect`` -> ``alive`` after ``clear_polls``
      consecutive polls below ``clear_threshold`` (< score_threshold:
      the down-transition band is deliberately lower than the
      up-transition band, so a node oscillating around the threshold
      stays put).

    Scoring is relative, so a cluster-wide slowdown (everyone busy)
    flags nobody; only a node that is slow *compared to its peers* is.
    Every transition is a ``gray`` event on the cluster's timeline.
    """

    def __init__(self, cluster, coordinator=None, *,
                 score_threshold: float = 3.0,
                 clear_threshold: float = 1.5,
                 suspect_strikes: int = 2,
                 quarantine_strikes: int = 2,
                 clear_polls: int = 3):
        if clear_threshold > score_threshold:
            raise ValueError("clear_threshold must not exceed score_threshold")
        if min(suspect_strikes, quarantine_strikes, clear_polls) < 1:
            raise ValueError("strike/clear counts must be >= 1")
        self.cluster = cluster
        self.env = cluster.env
        self.monitor: ClusterMonitor = cluster.monitor
        self.coordinator = coordinator
        self.score_threshold = score_threshold
        self.clear_threshold = clear_threshold
        self.suspect_strikes = suspect_strikes
        self.quarantine_strikes = quarantine_strikes
        self.clear_polls = clear_polls
        self.poll_interval = self.monitor.interval
        self.state: dict[int, str] = {}
        self._strikes: dict[int, int] = {}
        self._healthy: dict[int, int] = {}
        self.suspects = 0
        self.quarantines = 0
        self.drains = 0
        self.clears = 0

    def _note(self, kind: str, node_id: int, detail: str = "") -> None:
        self.cluster.note("gray", kind, node_id, detail=detail)

    def scores(self) -> dict[int, float]:
        """Per-node outlier score over the newest samples (the pure
        scoring step, separated out for tests)."""
        master_id = self.cluster.master.worker.node_id
        latest = {
            node_id: sample
            for node_id, sample in self.monitor.latest().items()
            if node_id != master_id
        }
        if len(latest) < MIN_CLUSTER_SAMPLES:
            return {}
        rtt_median = _median([s.heartbeat_rtt for s in latest.values()])
        svc_values = [s.disk_service_time for s in latest.values()
                      if s.disk_service_time > 0]
        svc_median = _median(svc_values)
        out: dict[int, float] = {}
        for node_id, sample in latest.items():
            score = 0.0
            if rtt_median > 0:
                score = sample.heartbeat_rtt / rtt_median
            if svc_median > 0 and sample.disk_service_time > 0:
                score = max(score, sample.disk_service_time / svc_median)
            out[node_id] = score
        return out

    def poll_once(self) -> list[int]:
        """One scoring pass; returns nodes newly due for a drain."""
        to_drain: list[int] = []
        for node_id, score in sorted(self.scores().items()):
            state = self.state.get(node_id, "alive")
            if score >= self.score_threshold:
                self._healthy[node_id] = 0
                strikes = self._strikes.get(node_id, 0) + 1
                self._strikes[node_id] = strikes
                if state == "alive" and strikes >= self.suspect_strikes:
                    self.state[node_id] = "suspect"
                    self.monitor.set_status(node_id, "suspect")
                    self.suspects += 1
                    self._note("suspect", node_id, f"score {score:.2f}")
                elif state == "suspect" and strikes >= (
                        self.suspect_strikes + self.quarantine_strikes):
                    self.state[node_id] = "quarantined"
                    self.monitor.set_status(node_id, "quarantined")
                    self.quarantines += 1
                    self._note("quarantine", node_id, f"score {score:.2f}")
                    if self.coordinator is not None:
                        to_drain.append(node_id)
            elif score < self.clear_threshold and state != "alive":
                healthy = self._healthy.get(node_id, 0) + 1
                self._healthy[node_id] = healthy
                if healthy >= self.clear_polls:
                    self.state[node_id] = "alive"
                    self.monitor.set_status(node_id, "alive")
                    self._strikes[node_id] = 0
                    self._healthy[node_id] = 0
                    self.clears += 1
                    self._note("cleared", node_id, f"score {score:.2f}")
                    if self.coordinator is not None:
                        self.coordinator.undrain_node(node_id)
            elif state == "alive":
                self._strikes[node_id] = 0
        return to_drain

    def run(self):
        """Generator: the detection loop (never returns)."""
        while True:
            yield self.env.timeout(self.poll_interval)
            for node_id in self.poll_once():
                self.drains += 1
                self._note("drain", node_id)
                yield from self.coordinator.drain_node(node_id)

    def stats(self) -> dict[str, int]:
        return {
            "suspects": self.suspects,
            "quarantines": self.quarantines,
            "drains": self.drains,
            "clears": self.clears,
            "suspected_now": sum(1 for s in self.state.values()
                                 if s == "suspect"),
            "quarantined_now": sum(1 for s in self.state.values()
                                   if s == "quarantined"),
        }
