"""Cluster assembly: catalog, worker nodes, master node, monitoring,
threshold policies, and the cluster container itself (Fig. 4's entity
model: Table -> Partition -> Segment -> Page, Node -> Disk)."""

from repro.cluster.catalog import Catalog, Partition, TableDef
from repro.cluster.cluster import Cluster, TimelineEvent
from repro.cluster.master import MasterNode
from repro.cluster.monitor import ClusterMonitor, NodeSample, PartitionStats
from repro.cluster.policies import PolicyThresholds, ScaleDecision, ThresholdPolicy
from repro.cluster.vacuum import VacuumPolicy, VacuumScheduler
from repro.cluster.worker import WorkerNode

__all__ = [
    "Catalog",
    "Cluster",
    "ClusterMonitor",
    "MasterNode",
    "NodeSample",
    "Partition",
    "PartitionStats",
    "PolicyThresholds",
    "ScaleDecision",
    "TableDef",
    "ThresholdPolicy",
    "TimelineEvent",
    "VacuumPolicy",
    "VacuumScheduler",
    "WorkerNode",
]
