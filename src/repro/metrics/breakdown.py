"""Per-query cost breakdown.

The paper's Fig. 7 splits query runtime into logging, latching,
locking, network I/O, disk I/O, and other.  The client hands one
:class:`CostBreakdown` to ``begin(breakdown=)``; it rides on the
transaction, and every subsystem that stalls the query adds the stall
time to the matching bucket (layers with no transaction in hand — lock
table, buffer pool, WAL — take it as an argument).  The driver
aggregates breakdowns across queries to regenerate the figure.
"""

from __future__ import annotations

import dataclasses

COMPONENTS = ("logging", "latching", "locking", "network_io", "disk_io",
              "replication", "other")


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
