"""Query processing: vectorised volcano operators, distributed plans.

WattDB "is using vectorized volcano-style query operators, hence,
operators ship a set of records on each call ...  To further decrease
network latencies, buffering operators are used to prefetch records
from remote nodes." (Sect. 3.3)  Pipelining operators stay local;
blocking operators (sort) may be offloaded to balance load.
"""

from repro.engine.row_source import ExecContext, Operator
from repro.engine.operators import Project, Sort, TableScan
from repro.engine.exchange import PrefetchBuffer, RemoteExchange
from repro.engine.planner import (
    exchange_between,
    plan_scan_project,
    plan_scan_sort,
)

__all__ = [
    "ExecContext",
    "Operator",
    "PrefetchBuffer",
    "Project",
    "RemoteExchange",
    "Sort",
    "TableScan",
    "exchange_between",
    "plan_scan_project",
    "plan_scan_sort",
]
