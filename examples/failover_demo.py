#!/usr/bin/env python3
"""Failover: kill a data node mid-workload and watch the cluster heal.

A small key-value table lives on node 1, protected at replication
factor k=2: each partition keeps a synchronous replica on another
node's log disk (rack-aware placement), fed by shipping the WAL tail
at every commit.  A fault injector crash-kills node 1 mid-run; the
failure detector notices the missed heartbeats, and the failover
coordinator promotes the replicas — replaying the shipped log through
the ordinary REDO path into partition shells on the holders — then
re-replicates to get back to k=2.  Every row committed before the
crash (and the writes committed after it) is still readable.

Act two repartitions the healed cluster while the move target's NIC
flaps: the journaled mover retries the wire with backoff and finishes
once the link comes back, clients keep writing through the move (with
their own retries), and a calm follow-up move completes first-try.
The closing report shows both ledgers side by side: first-try vs
retried/resumed moves, and first-try vs retried client commits.

Run:  python examples/failover_demo.py     (a few seconds)
"""

from repro import Cluster, Column, Environment, Schema
from repro.core import PhysiologicalPartitioning, Rebalancer
from repro.errors import TransientError
from repro.ha import (
    FailoverCoordinator,
    FailureDetector,
    FaultInjector,
    PlacementPolicy,
    ReplicationManager,
)
from repro.metrics import render_counters, render_timeline


def main():
    env = Environment(seed=1)
    cluster = Cluster(
        env, node_count=4, initially_active=4,
        buffer_pages_per_node=256, segment_max_pages=16, page_bytes=2048,
    )
    schema = Schema(
        [Column("id"), Column("balance", "str", width=24)], key=("id",)
    )
    cluster.master.create_table("accounts", schema, owner=cluster.workers[1])
    cluster.monitor.interval = 1.0

    replication = ReplicationManager(
        cluster, k=2, policy=PlacementPolicy(cluster, rack_width=2)
    )
    coordinator = FailoverCoordinator(cluster, replication)
    detector = FailureDetector(cluster, coordinator, miss_threshold=3)
    injector = FaultInjector(cluster)

    def commit_rows(lo, hi, label):
        txn = cluster.txns.begin()
        for i in range(lo, hi):
            yield from cluster.master.insert("accounts", (i, label), txn)
        yield from cluster.txns.commit(txn)
        print(f"[{env.now:7.3f}s] committed rows {lo}..{hi - 1} ({label})")

    def scenario():
        yield from commit_rows(0, 50, "pre-seed")

        # Protect: seed a replica of every partition on another node.
        yield from replication.protect_all()
        seeded = sum(len(rs.replicas)
                     for rs in cluster.catalog.replica_sets.values())
        print(f"[{env.now:7.3f}s] replication on: {seeded} replicas seeded")

        # These commits ship their log tail to the replicas.
        yield from commit_rows(50, 80, "replicated")

        # Schedule the murder of node 1 and let monitoring run.
        injector.crash_at(env.now + 2.0, 1)
        env.process(cluster.monitor.run())
        env.process(detector.run())
        env.process(injector.run())
        yield env.timeout(12.0)  # crash + detection + promotion happen here

        print(render_timeline("cluster timeline", cluster.timeline))
        for rec in coordinator.recoveries:
            print(f"[{env.now:7.3f}s] node {rec['node_id']} handled in "
                  f"{rec['seconds']:.3f}s: {rec['promoted']} promoted, "
                  f"{rec['unavailable']} unavailable")

        # Every committed row is still there, served by the promoted
        # replicas — and the cluster takes new writes.
        txn = cluster.txns.begin()
        alive = 0
        for i in range(80):
            row = yield from cluster.master.read("accounts", i, txn)
            alive += row is not None
        yield from cluster.txns.commit(txn)
        print(f"[{env.now:7.3f}s] {alive}/80 committed rows readable "
              f"after failover")
        yield from commit_rows(80, 90, "post-failover")
        assert alive == 80

        # Act two: repartition the healed cluster while the move
        # target's link flaps.  The journaled mover retries the wire
        # with backoff and completes once the link heals; clients keep
        # writing through the move with their own retry loop.
        (source,) = {loc.node_id for _, loc
                     in cluster.master.gpt.partitions("accounts")}
        target = next(nid for nid in (1, 2, 3)
                      if nid != source and cluster.worker(nid).is_serving)
        cluster.worker(target).port.sever()
        print(f"\n[{env.now:7.3f}s] link to node {target} severed; moving "
              f"half of 'accounts' node {source} -> node {target} anyway")

        def heal_link():
            yield env.timeout(1.5)
            cluster.worker(target).port.restore()
            print(f"[{env.now:7.3f}s] link to node {target} restored")

        def client(wid, lo, hi):
            for key in range(lo, hi):
                attempts = 0
                while True:
                    txn = cluster.txns.begin()
                    try:
                        yield from cluster.master.insert(
                            "accounts", (key, f"mid-move-{wid}"), txn)
                        yield from cluster.txns.commit(txn)
                    except TransientError:
                        if txn.state.value == "active":
                            cluster.txns.abort(txn)
                        attempts += 1
                        yield env.timeout(0.1)
                        continue
                    client_stats["retried" if attempts
                                 else "first_try"] += 1
                    break
                yield env.timeout(0.2)

        env.process(heal_link(), name="heal-link")
        clients = [env.process(client(wid, 1000 + 50 * wid,
                                      1012 + 50 * wid), name=f"client-{wid}")
                   for wid in range(2)]
        rebalancer = Rebalancer(cluster, PhysiologicalPartitioning())
        yield from rebalancer.scale_out(
            ["accounts"], [source], [target], fraction=0.5)
        assert not rebalancer.failed_moves, rebalancer.failed_moves
        print(f"[{env.now:7.3f}s] repartitioning done despite the outage")

        # A calm counter-move with the link up: first-try economics.
        yield from rebalancer.scale_out(
            ["accounts"], [target], [source], fraction=0.5)
        for proc in clients:
            yield proc

        txn = cluster.txns.begin()
        alive = 0
        keys = list(range(90)) + [1000 + 50 * w + i
                                  for w in range(2) for i in range(12)]
        for key in keys:
            row = yield from cluster.master.read("accounts", key, txn)
            alive += row is not None
        yield from cluster.txns.commit(txn)
        print(f"[{env.now:7.3f}s] {alive}/{len(keys)} rows readable after "
              f"faulted + calm repartitioning")
        assert alive == len(keys)

    client_stats = {"first_try": 0, "retried": 0}
    env.run(until=env.process(scenario()))
    print("\nPromotions:")
    for p in coordinator.promotions:
        print(f"  partition {p['partition_id']}: node {p['from_node']} -> "
              f"{p['to_node']}, replayed {p['replayed']} records "
              f"in {p['seconds']:.3f}s")

    # Both retry ledgers, side by side: segment moves and client
    # commits each report first-try vs retried work.
    summary = cluster.moves.journal.stats()
    print()
    print(render_counters("move summary", summary))
    print(f"\nClient commits: {client_stats['first_try']} first-try, "
          f"{client_stats['retried']} retried")
    assert summary["moves_total"] >= 2
    assert summary["retried_moves"] >= 1, summary
    assert summary["first_try_moves"] >= 1, summary
    assert summary["open_moves"] == 0 and summary["open_range_moves"] == 0

    # How much of the run the kernel fast paths absorbed: zero-delay
    # events that skipped the heap, resource grants that cost no event
    # at all and holds that advanced the clock inline, beside the
    # buffer latches somebody had to wait for.
    stats = dict(env.kernel_stats())
    stats["latch_contended"] = sum(
        w.buffer.latch_contended for w in cluster.workers)
    print()
    print(render_counters("kernel stats", stats))


if __name__ == "__main__":
    main()
