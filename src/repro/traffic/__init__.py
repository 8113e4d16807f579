"""repro.traffic: the open-loop million-user traffic engine.

The layer between the workload generators and the cluster that the
ROADMAP's scaling items need: arrival processes
(:mod:`~repro.traffic.arrivals`) model demand as an intensity over
time; the virtual-session engine (:mod:`~repro.traffic.sessions`)
turns that demand into timestamped request cohorts from millions of
logical users without a process per user; admission control
(:mod:`~repro.traffic.admission`) levels the load through a bounded
queue with per-tenant token buckets and explicit shedding; and the
autoscaler (:mod:`~repro.traffic.autoscaler`) closes the loop —
forecasts drive the rebalancer so the node count tracks the trace.
"""

from repro.traffic.admission import (
    ADMITTED,
    REJECTED,
    SHED,
    AdmissionController,
    Request,
    TenantCounters,
    TokenBucket,
)
from repro.traffic.arrivals import (
    ArrivalProcess,
    CompositeArrivals,
    ConstantArrivals,
    DiurnalArrivals,
    FlashCrowd,
    sample_poisson,
)
from repro.traffic.autoscaler import Autoscaler, AutoscalerConfig
from repro.traffic.sessions import (
    SessionEngine,
    TenantClass,
    TenantTpccContext,
    ZipfKeyChooser,
)

__all__ = [
    "ADMITTED",
    "REJECTED",
    "SHED",
    "AdmissionController",
    "ArrivalProcess",
    "Autoscaler",
    "AutoscalerConfig",
    "CompositeArrivals",
    "ConstantArrivals",
    "DiurnalArrivals",
    "FlashCrowd",
    "Request",
    "SessionEngine",
    "TenantClass",
    "TenantCounters",
    "TenantTpccContext",
    "TokenBucket",
    "ZipfKeyChooser",
    "sample_poisson",
]
