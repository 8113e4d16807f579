#!/usr/bin/env python3
"""Elastic OLTP: the cluster breathes with a TPC-C load wave.

A TPC-C workload ramps up and back down while the autoscaler's
threshold policy (Sect. 3.4) decides when to recruit standby nodes —
repartitioning physiologically towards them — and when to quiesce nodes
and power them off again.  Prints a timeline of active nodes,
throughput, and watts.

The cluster is configured disk-bound (padded hot rows, small buffer
pool, one shared HDD per node), the regime the paper's wimpy nodes
lived in; the load wave saturates one node's disk, which is what the
monitor sees and acts on.

Run:  python examples/elastic_oltp.py     (~1 minute)
"""

from repro import Cluster, Environment
from repro.cluster import PolicyThresholds, ThresholdPolicy
from repro.core import PhysiologicalPartitioning, Rebalancer
from repro.hardware import HDD_SPEC
from repro.traffic import Autoscaler
from repro.workload import (
    TpccConfig,
    TpccContext,
    WorkloadDriver,
    load_tpcc,
    start_vacuum_daemon,
)
from repro.workload.tpcc_schema import WAREHOUSE_PARTITIONED

PHASES = [
    # (duration s, active clients, submit interval s)
    (60.0, 3, 0.6),    # calm
    (120.0, 16, 0.15),  # the wave
    (120.0, 3, 0.6),    # calm again
]


def main():
    env = Environment()
    cluster = Cluster(
        env, node_count=4, initially_active=1,
        disk_specs=(HDD_SPEC,),            # shared spindle: log + data
        buffer_pages_per_node=192, page_bytes=8192,
        segment_max_pages=64, lock_timeout=2.0,
    )
    config = TpccConfig(
        warehouses=4, districts_per_warehouse=4, customers_per_district=30,
        items=200, orders_per_district=10, order_lines_per_order=4,
        pad_blob_bytes=2048,
    )
    load_tpcc(cluster, config, owners=[cluster.workers[0]],
              segment_max_pages=8)
    start_vacuum_daemon(cluster, interval=15.0)

    ctx = TpccContext(cluster, config)
    max_clients = max(n for _d, n, _i in PHASES)
    driver = WorkloadDriver(cluster, ctx, clients=max_clients,
                            client_interval=0.15)

    policy = ThresholdPolicy(PolicyThresholds(
        cpu_upper=0.8, cpu_lower=0.05,
        disk_upper=0.6, disk_lower=0.08,
        consecutive_samples=2,
    ))
    rebalancer = Rebalancer(cluster, PhysiologicalPartitioning())
    autoscaler = Autoscaler(cluster, rebalancer, list(WAREHOUSE_PARTITIONED),
                            admission=None, policy=policy)
    env.process(autoscaler.run(), name="autoscaler")

    total = sum(d for d, _n, _i in PHASES)

    def phased_load():
        """Gate the client population and pace per phase."""
        elapsed = 0.0
        for duration, active, interval in PHASES:
            for i, client in enumerate(driver.clients):
                client.interval = interval if i < active else 10_000.0
            print(f"t={elapsed:6.0f}s  phase: {active} clients "
                  f"@ {interval}s interval")
            yield env.timeout(duration)
            elapsed += duration

    def reporter():
        while env.now < total:
            yield env.timeout(15.0)
            qps = len(driver.completions.between(env.now - 15, env.now)) / 15
            print(f"t={env.now:6.0f}s  nodes={cluster.active_node_count}  "
                  f"qps={qps:6.1f}  power={cluster.current_watts():6.1f} W")

    env.process(phased_load())
    env.process(reporter())
    env.run(until=env.process(driver.run(total)))
    autoscaler.stop()

    joules = cluster.energy_joules()
    print(f"\ncompleted {driver.total_completed} queries; "
          f"{joules:,.0f} J total "
          f"({joules / max(driver.total_completed, 1):.2f} J/query)")
    print(f"scale-outs: {rebalancer.scale_out_count}, "
          f"scale-ins: {rebalancer.scale_in_count}")


if __name__ == "__main__":
    main()
