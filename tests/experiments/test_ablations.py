"""Ablations of the design choices DESIGN.md calls out.

Not figures from the paper — sensitivity sweeps over the mechanisms the
paper's results rest on: the vector size behind Fig. 1, the prefetch
depth behind the buffering operator, and the scale-in protocol the
paper describes but does not evaluate.
"""

from repro.engine import ExecContext
from repro.engine.planner import plan_scan_project
from repro.experiments.harness import build_micro_cluster, warm_buffer


def _remote_project_rate(rows: int, vector_size: int,
                         prefetch_depth: int = 0) -> float:
    table = build_micro_cluster(rows)
    warm_buffer(table)
    cluster = table.cluster
    env = cluster.env
    ctx = ExecContext(env=env, vector_size=vector_size)
    plan = plan_scan_project(
        ctx, cluster, cluster.workers[0], table.partition, ["id", "val"],
        project_on=cluster.workers[1], prefetch_depth=prefetch_depth,
    )
    t0 = env.now
    env.run(until=env.process(plan.drain()))
    return rows / (env.now - t0)


def test_ablation_vector_size():
    """Fig. 1's mechanism: throughput vs. vector size is monotone and
    saturating — latency amortisation has diminishing returns."""
    rows = 8_000
    sizes = (1, 8, 64, 512)

    rates = {v: _remote_project_rate(rows, v) for v in sizes}
    print()
    for v in sizes:
        print(f"  vector={v:>4}: {rates[v]:>10,.0f} records/s")
    assert rates[8] > 4 * rates[1]
    assert rates[64] > rates[8]
    assert rates[512] > rates[64]
    # Saturation: the last doubling gains far less than the first.
    assert rates[512] / rates[64] < rates[8] / rates[1]


def test_ablation_prefetch_depth():
    """Deeper prefetch pipelines help until the producer is saturated."""
    rows = 8_000

    rates = {d: _remote_project_rate(rows, 256, prefetch_depth=d)
             for d in (0, 1, 3)}
    print()
    for depth, rate in rates.items():
        print(f"  depth={depth}: {rate:>10,.0f} records/s")
    assert rates[1] > rates[0]
    assert rates[3] >= rates[1] * 0.98


def test_ablation_scale_in_protocol():
    """The paper's scale-in (Sect. 3.4): quiesce a node, pull its data
    back, power it off — data stays readable, watts drop."""
    from repro import Cluster, Column, Environment, Schema
    from repro.core import PhysiologicalPartitioning, Rebalancer

    def run():
        env = Environment()
        cluster = Cluster(env, node_count=3, initially_active=2,
                          buffer_pages_per_node=512, segment_max_pages=8,
                          page_bytes=2048)
        schema = Schema([Column("id"), Column("v", "str", width=32)],
                        key=("id",))
        cluster.master.create_table("kv", schema, owner=cluster.workers[1])

        def load():
            txn = cluster.txns.begin()
            for i in range(300):
                yield from cluster.master.insert("kv", (i, "x" * 20), txn)
            yield from cluster.txns.commit(txn)

        env.run(until=env.process(load()))
        watts_before = cluster.current_watts()
        rebalancer = Rebalancer(cluster, PhysiologicalPartitioning())

        def scale_in():
            yield from rebalancer.scale_in("kv", victim_id=1, receiver_id=0)

        env.run(until=env.process(scale_in()))
        watts_after = cluster.current_watts()

        missing = []

        def verify():
            txn = cluster.txns.begin()
            for i in range(300):
                row = yield from cluster.master.read("kv", i, txn)
                if row is None:
                    missing.append(i)
            yield from cluster.txns.commit(txn)

        env.run(until=env.process(verify()))
        return watts_before, watts_after, missing

    watts_before, watts_after, missing = run()
    print(f"\n  scale-in: {watts_before:.1f} W -> {watts_after:.1f} W, "
          f"{len(missing)} records lost")
    assert missing == []
    assert watts_after < watts_before - 15  # one wimpy node went dark
