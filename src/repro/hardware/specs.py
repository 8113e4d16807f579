"""Calibration constants, each traceable to the reproduced paper.

The paper measured a physical cluster; we reproduce its *relative*
results on a simulator, so the constants below are chosen to (a) quote
the paper verbatim where it gives numbers and (b) back-derive the rest
from the paper's own micro-benchmarks (Fig. 1) so that the published
throughput shapes fall out of the model.

Derivation notes for the Fig. 1 calibration
-------------------------------------------
Fig. 1 reports, for a single-table micro-benchmark:

* local TBSCAN alone            ~40,000 records/s
* + local PROJECT               ~34,000 records/s
* + remote PROJECT, 1-rec calls < 1,000 records/s
* + remote PROJECT, vectorised  ~24,000 records/s
* + remote BUFFER op (prefetch) ~30,000 records/s

From the first two rows: scan costs ~25 us/record and projection
~4.5 us/record of CPU.  The third row says one next() round trip costs
~1 ms (1/1000 s per record when each call ships one record).  The
vectorised rows then fix the per-record serialisation cost (~4 us on
each side) and show the prefetching proxy hides most of the remaining
latency.  See ``experiments/fig1_operators.py`` for the closed loop.
"""

# --------------------------------------------------------------------------
# Cluster composition (paper Sect. 3.1)
# --------------------------------------------------------------------------

#: "Our cluster consists of n (currently 10) identical nodes"
CLUSTER_NODE_COUNT = 10

#: Intel Atom D510: 2 physical cores (hyper-threading not modelled).
CPU_CORES_PER_NODE = 2

#: "2 GB of DRAM" per node.
DRAM_BYTES_PER_NODE = 2 * 1024**3

#: "three storage devices: one HDD and two SSDs"
HDDS_PER_NODE = 1
SSDS_PER_NODE = 2

# --------------------------------------------------------------------------
# Power model (paper Sect. 3.1)
# --------------------------------------------------------------------------

#: "Each wimpy node consumes ~22 - 26 Watts when active (based on
#: utilization)".  We split the band into a base (idle-active) and a
#: utilisation-proportional dynamic part, and attribute ~2 W of it to
#: the three storage drives so that a drive-less configuration lands at
#: the paper's 260 W full-cluster lower bound.
NODE_IDLE_WATTS = 20.0
NODE_PEAK_WATTS = 24.0

#: "~2.5 Watts in standby".
NODE_STANDBY_WATTS = 2.5

#: "The interconnecting network switch consumes 20 Watts and is
#: included in all measurements."
SWITCH_WATTS = 20.0

#: Per-drive power: chosen so 1 HDD + 2 SSDs add ~2 W per node, putting
#: a fully-equipped, fully-utilised 10-node cluster at the paper's
#: "~260 to 280 Watts, depending on the number of disk drives" band.
HDD_IDLE_WATTS = 0.8
HDD_ACTIVE_WATTS = 1.2
SSD_IDLE_WATTS = 0.3
SSD_ACTIVE_WATTS = 0.4

#: Node power-state transition times.  The paper (Sect. 2.3, [11])
#: found attaching a processing node takes "a few seconds".
NODE_BOOT_SECONDS = 10.0
NODE_SHUTDOWN_SECONDS = 2.0

# --------------------------------------------------------------------------
# Storage devices
# --------------------------------------------------------------------------

#: Commodity 2.5" HDD of the period: ~8 ms average access, ~100 MB/s
#: sequential transfer (=> ~120 IOPS random on 8 KiB pages).
HDD_ACCESS_SECONDS = 8.0e-3
HDD_BANDWIDTH_BYTES_PER_S = 100 * 1024**2
HDD_CAPACITY_BYTES = 500 * 1024**3

#: Commodity SATA SSD of the period: ~0.15 ms access, ~250 MB/s.
SSD_ACCESS_SECONDS = 0.15e-3
SSD_BANDWIDTH_BYTES_PER_S = 250 * 1024**2
SSD_CAPACITY_BYTES = 128 * 1024**3

# --------------------------------------------------------------------------
# Network (paper Sect. 3.1 / 3.3)
# --------------------------------------------------------------------------

#: "interconnected by a Gigabit Ethernet" -> 125 MB/s per port per
#: direction; all nodes communicate directly through one switch.
NET_BANDWIDTH_BYTES_PER_S = 125 * 1024**2

#: One next()-call round trip over the LAN including the RPC software
#: stack.  Back-derived from Fig. 1's "< 1,000 records per second" for
#: single-record remote calls (see module docstring).
NET_RPC_LATENCY_SECONDS = 1.0e-3

#: One-way propagation + switching delay for bulk data messages.
NET_MESSAGE_LATENCY_SECONDS = 0.2e-3

# --------------------------------------------------------------------------
# Storage layout (paper Sect. 4, Fig. 4)
# --------------------------------------------------------------------------

#: "A segment (32 MB) consists of 4096 blocks or pages" -> 8 KiB pages.
PAGE_BYTES = 8192
SEGMENT_PAGES = 4096
SEGMENT_BYTES = PAGE_BYTES * SEGMENT_PAGES

# --------------------------------------------------------------------------
# Query-engine CPU costs (back-derived from Fig. 1, see module docstring)
# --------------------------------------------------------------------------

#: CPU time for the scan operator to produce one record (page decoding,
#: slot lookup, predicate-free emit): 1/40,000 s minus buffer overhead.
CPU_SCAN_SECONDS_PER_RECORD = 25.0e-6

#: CPU time for a projection over one record.
CPU_PROJECT_SECONDS_PER_RECORD = 4.5e-6

#: (De)serialising one record onto/off the wire, charged on each side.
CPU_SERIALIZE_SECONDS_PER_RECORD = 4.0e-6

#: Sort: O(n log n) comparisons; per record per log2(n) step.
CPU_SORT_SECONDS_PER_RECORD_LOG = 3.0e-6

#: B-tree point lookup / insert CPU cost (excluding any I/O).
CPU_INDEX_SECONDS_PER_OP = 8.0e-6

#: Fixed CPU cost to plan + dispatch one query on the master.
CPU_PLAN_SECONDS_PER_QUERY = 150.0e-6

#: Buffer-pool bookkeeping per page access on a hit.
CPU_BUFFER_HIT_SECONDS = 3.0e-6

#: Default vector size for vectorised volcano operators.
DEFAULT_VECTOR_SIZE = 512

# --------------------------------------------------------------------------
# Workload / evaluation parameters (paper Sect. 5.1)
# --------------------------------------------------------------------------

#: "the dataset from the well-known TPC-C benchmark with a scale factor
#: of 1,000".  Our default is far smaller; the experiments scale it up.
PAPER_TPCC_WAREHOUSES = 1000

#: Monitoring cadence: "the nodes send their monitoring data every few
#: seconds to the master node".
MONITOR_INTERVAL_SECONDS = 3.0

#: "each node's CPU utilization should not exceed the upper bound of
#: the specified threshold (80%)".
CPU_UTILIZATION_UPPER_BOUND = 0.80

#: Lower bound that triggers the scale-in protocol (paper gives no
#: number; symmetric policy choice).
CPU_UTILIZATION_LOWER_BOUND = 0.30
