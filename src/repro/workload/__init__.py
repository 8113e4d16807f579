"""TPC-C workload substrate.

"For all experiments, we are using the dataset from the well-known
TPC-C benchmark ...  We use queries from the TPC-C benchmark as
workload drivers ...  we modified all queries to exclude (emulated)
user interaction and to execute in 'a single run' on the database."
(Sect. 5.1)  The deviations the paper lists (no think-time compliance,
no response-time constraints, custom mix) are configuration knobs here.
"""

from repro.workload.tpcc_schema import TPCC_TABLES, TpccConfig
from repro.workload.tpcc_gen import load_tpcc
from repro.workload.tpcc_txns import (
    DEFAULT_MIX,
    TpccContext,
    delivery,
    new_order,
    order_status,
    payment,
    stock_level,
)
from repro.workload.client import OltpClient
from repro.workload.driver import WorkloadDriver, start_vacuum_daemon

__all__ = [
    "DEFAULT_MIX",
    "OltpClient",
    "TPCC_TABLES",
    "TpccConfig",
    "TpccContext",
    "WorkloadDriver",
    "delivery",
    "load_tpcc",
    "new_order",
    "order_status",
    "payment",
    "start_vacuum_daemon",
    "stock_level",
]
