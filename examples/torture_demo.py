#!/usr/bin/env python3
"""Gray failures end to end: rot, torn writes, and a limping disk.

Fail-stop is the easy case — this demo is about nodes that keep
answering while lying or limping.  A key-value table lives on node 1,
protected at replication factor k=2, and three things go wrong in
sequence:

1. **Bit rot.**  The fault injector garbles a committed row in place,
   leaving its CRC32 untouched.  The background scrub daemon walks the
   segments on a page budget, catches the mismatch at rest, folds the
   partition's healthy replica log, and repairs the row — the original
   bytes from the injector's corruption ledger come back readable.

2. **A torn write.**  A synthetic transaction writes rows whose commit
   record is torn mid-flush (garbled, checksum kept), then the node
   crash-stops.  Promotion replays the shipped replica log through the
   ordinary REDO path: the torn transaction is recovered as a *loser*,
   its rows invisible, while every acked commit survives.

3. **A limping disk.**  Node 2's disk starts serving 12x slower with
   no error surface.  Heartbeats now carry RTT and disk service time;
   the gray-failure detector scores each node against the cluster
   median, so only the limper crosses the threshold — suspect after
   consecutive strikes, then quarantined and drained (primaries
   demoted to healthy replicas, no commit lost).

Run:  python examples/torture_demo.py     (a few seconds)
"""

from repro import Cluster, Column, Environment, Schema
from repro.cluster.monitor import GrayFailureDetector
from repro.errors import TransientError
from repro.ha import (
    FailoverCoordinator,
    FailureDetector,
    FaultInjector,
    ReplicationManager,
    ScrubDaemon,
    ScrubPolicy,
)
from repro.metrics import render_counters, render_timeline


def run(env, gen):
    return env.run(until=env.process(gen))


def insert_rows(env, cluster, n, start=0):
    def work():
        txn = cluster.txns.begin()
        for i in range(start, start + n):
            yield from cluster.master.insert("kv", (i, "v%03d" % i), txn)
        yield from cluster.txns.commit(txn)

    run(env, work())


def read_row(env, cluster, key):
    box = {}

    def work():
        txn = cluster.txns.begin()
        box["row"] = yield from cluster.master.read("kv", key, txn)
        yield from cluster.txns.commit(txn)

    run(env, work())
    return box["row"]


def main():
    env = Environment(seed=7)
    cluster = Cluster(env, node_count=4, initially_active=4,
                      buffer_pages_per_node=256, segment_max_pages=16,
                      page_bytes=2048, lock_timeout=2.0)
    schema = Schema([Column("id"), Column("v", "str", width=32)],
                    key=("id",))
    # One table per data node so every node serves real I/O — the
    # gray detector scores against the cluster median, which needs a
    # cluster actually doing work.
    cluster.master.create_table("kv", schema, owner=cluster.workers[1])
    cluster.master.create_table("kv2", schema, owner=cluster.workers[2])
    cluster.master.create_table("kv3", schema, owner=cluster.workers[3])
    insert_rows(env, cluster, 40)

    replication = ReplicationManager(cluster, k=2)
    run(env, replication.protect_all())
    coordinator = FailoverCoordinator(cluster, replication)

    # ---- Act 1: bit rot, scrubbed and repaired -----------------------
    print("=== Act 1: bit rot vs the scrub daemon ===")
    injector = FaultInjector(cluster)
    injector.bit_rot_at(env.now + 0.5, 1)
    env.process(injector.run(), name="faults")
    scrub = ScrubDaemon(cluster, replication, coordinator,
                        policy=ScrubPolicy(interval=1.0,
                                           pages_per_tick=8)).start()
    env.run(until=env.now + 6.0)
    for corruption in injector.corruptions:
        print(f"  injected: {corruption.target} rot on key "
              f"{corruption.key!r}")
        if corruption.target == "page":
            row = read_row(env, cluster, corruption.key)
            print(f"  after scrub, key {corruption.key!r} reads "
                  f"{row!r} (original bytes restored: "
                  f"{tuple(row) == tuple(corruption.original)})")
    print(render_counters("scrub summary", scrub.stats()))
    print()

    # ---- Act 2: a torn commit record recovers as a loser -------------
    print("=== Act 2: torn write, then failover ===")
    cluster.monitor.interval = 1.0
    detector = FailureDetector(cluster, coordinator, miss_threshold=3)
    env.process(cluster.monitor.run(), name="monitor")
    env.process(detector.run(), name="detector")
    torn = FaultInjector(cluster)
    torn.torn_write_at(env.now + 1.0, 1)
    env.process(torn.run(), name="torn")
    env.run(until=env.now + 12.0)
    print(f"  promotions after the crash: {len(coordinator.promotions)}; "
          f"torn records discarded: {coordinator.torn_discarded}")
    row = read_row(env, cluster, 7)
    print(f"  committed row 7 survived: {row!r}")
    torn_rows = [k for k in range(1000, 1010)
                 if _maybe(env, cluster, k) is not None]
    print(f"  rows of the torn transaction visible: {torn_rows or 'none'}")
    print()

    # ---- Act 3: the limping disk gets drained ------------------------
    print("=== Act 3: limping disk vs the gray-failure detector ===")
    gray = GrayFailureDetector(cluster, coordinator,
                               suspect_strikes=2, quarantine_strikes=2)
    env.process(gray.run(), name="gray")
    limp = FaultInjector(cluster)
    limp.slow_disk_at(env.now + 3.0, 2, factor=12.0)
    env.process(limp.run(), name="limp")

    stop = {"writes": False, "done": 0}

    def writer():
        n = 0
        while not stop["writes"]:
            for table in ("kv", "kv2", "kv3"):
                txn = cluster.txns.begin()
                try:
                    yield from cluster.master.insert(
                        table, (2000 + n, "w%03d" % n), txn)
                    yield from cluster.txns.commit(txn)
                    stop["done"] += 1
                except TransientError:
                    if txn.state.value == "active":
                        cluster.txns.abort(txn)
            n += 1
            yield env.timeout(0.05)

    env.process(writer(), name="writer")
    env.run(until=env.now + 25.0)
    stop["writes"] = True
    env.run(until=env.now + 1.0)
    print(f"  node 2 status: {cluster.monitor.status_of(2)}")
    print(f"  partitions still routed to node 2: "
          f"{len(cluster.master.gpt.locations_on(2))}")
    print(f"  commits during the limp: {stop['done']}")
    row = read_row(env, cluster, 13)
    print(f"  reads keep working mid-drain: {row!r}")
    print(render_counters("gray-failure detector", gray.stats()))
    print(render_timeline(
        "gray-failure timeline",
        [e for e in cluster.timeline if e.source == "gray"]))

    scrub.stop()


def _maybe(env, cluster, key):
    try:
        return read_row(env, cluster, key)
    except TransientError:
        return None


if __name__ == "__main__":
    main()
