"""The paper's contribution: dynamic partitioning of a shared-nothing
DB cluster under three schemes — physical, logical, and physiological —
plus the master-side rebalancer that drives scale-out/scale-in and the
helper-node protocol.
"""

from repro.core.schemes import MoveReport
from repro.core.migration import (
    PartitioningScheme,
    rollback_range_registration,
    ship_segment,
)
from repro.core.physical import PhysicalPartitioning
from repro.core.logical import LogicalPartitioning
from repro.core.physiological import PhysiologicalPartitioning
from repro.core.rebalancer import HelperProtocol, Rebalancer

__all__ = [
    "HelperProtocol",
    "LogicalPartitioning",
    "MoveReport",
    "PartitioningScheme",
    "PhysicalPartitioning",
    "PhysiologicalPartitioning",
    "Rebalancer",
    "rollback_range_registration",
    "ship_segment",
]
