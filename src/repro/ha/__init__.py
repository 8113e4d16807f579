"""High availability: segment replication, fault injection, failover.

The paper's cluster trades hardware redundancy for elasticity — wimpy
nodes come and go — which makes node loss an everyday event rather than
a disaster.  This package keeps partitions available through it:

* :mod:`repro.ha.placement` — rack- and disk-aware choice of replica
  holders (distinct nodes, preferably distinct racks).
* :mod:`repro.ha.replication` — synchronous log shipping: each
  partition's WAL tail is forced to k-1 replica holders before a
  commit is acknowledged.
* :mod:`repro.ha.faults` — a deterministic fault injector: fail-stop
  faults (crashes, restarts, severed NICs, failed disks) plus *gray*
  faults (bit rot, torn writes, limping disks, flaky links) driven by
  the simulation RNG.
* :mod:`repro.ha.failover` — heartbeat-staleness detection, replica
  promotion through the REDO recovery path, re-replication back to
  the target factor, and draining/fencing for gray-failed nodes.
* :mod:`repro.ha.scrub` — background checksum scrubbing that repairs
  corrupt rows from healthy replicas or fences what it cannot repair.
"""

from repro.ha.faults import Corruption, FAULT_KINDS, FaultEvent, FaultInjector
from repro.ha.failover import FailoverCoordinator, FailureDetector
from repro.ha.placement import PlacementPolicy
from repro.ha.replication import (
    REPLICA_BASE_TXN_ID,
    ReplicaSet,
    ReplicationManager,
    SegmentReplica,
)
from repro.ha.scrub import ScrubDaemon, ScrubPolicy

__all__ = [
    "Corruption",
    "FAULT_KINDS",
    "FaultEvent",
    "FaultInjector",
    "FailoverCoordinator",
    "FailureDetector",
    "PlacementPolicy",
    "REPLICA_BASE_TXN_ID",
    "ReplicaSet",
    "ReplicationManager",
    "ScrubDaemon",
    "ScrubPolicy",
    "SegmentReplica",
]
