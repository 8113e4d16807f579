"""Per-request cost breakdown.

The paper's Fig. 7 splits query runtime into logging, latching,
locking, network I/O, disk I/O, and other.  The request loop
(``workload.client.run_request``) owns one :class:`CostBreakdown` per
request and hangs it on each attempt's transaction as
``txn.breakdown``; layers with no transaction in hand (lock table,
buffer pool, page I/O, WAL) take it as an argument.  The component that
waits charges its wait to the matching bucket, once.  At the ack the
request loop closes it: ``other`` is the rest of the response (CPU,
admission-queue wait, the client RPC, retry back-off), so the seven
buckets sum to ack − submitted, and a negative ``other`` is a double
charge (``audit.checkers.check_cost_conservation``).
"""

from __future__ import annotations

import dataclasses

COMPONENTS = ("logging", "latching", "locking", "network_io", "disk_io",
              "replication", "other")
#: The buckets a component charges; ``other`` is the rest.
NAMED = COMPONENTS[:-1]


@dataclasses.dataclass
class CostBreakdown:
    """Seconds of query time attributed to each DBMS component."""

    logging: float = 0.0
    latching: float = 0.0
    locking: float = 0.0
    network_io: float = 0.0
    disk_io: float = 0.0
    #: Commit-time synchronous replica shipping (repro.ha).
    replication: float = 0.0
    other: float = 0.0

    def add(self, component: str, seconds: float) -> None:
        if component not in COMPONENTS:
            raise ValueError(f"unknown cost component {component!r}")
        if seconds < 0:
            raise ValueError(f"negative cost: {seconds}")
        setattr(self, component, getattr(self, component) + seconds)

    def close(self, response: float) -> None:
        """Charge ``other`` with what the named buckets leave of
        ``response`` seconds, so the buckets sum to it."""
        self.other = response - sum(getattr(self, c) for c in NAMED)

    def merge(self, other: "CostBreakdown") -> None:
        for component in COMPONENTS:
            setattr(
                self, component,
                getattr(self, component) + getattr(other, component),
            )

    @property
    def total(self) -> float:
        return sum(getattr(self, c) for c in COMPONENTS)

    def as_dict(self) -> dict[str, float]:
        return {c: getattr(self, c) for c in COMPONENTS}

    def scaled(self, factor: float) -> "CostBreakdown":
        return CostBreakdown(**{c: getattr(self, c) * factor for c in COMPONENTS})
