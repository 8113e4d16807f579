"""Regression: the source of an open range move must not mint a segment
inside the moving range.

The crash this pins (perf ledger ``elastic_day``, seed 21): a segment
ships to the target, its forwarding stub on the source is retired while
the range move is still open, and an insert that resolved the source
partition *before* the retirement wakes up from its partition-lock wait
into the gap.  The source used to mint a fresh segment there; the
mover's live-tree rescan then shipped it onto the target, where
``attach_segment`` raised ``ValueError: ... overlaps segment ...`` and
killed the calling process.
"""

from repro import Cluster, Environment
from repro.core import PhysiologicalPartitioning
from repro.index.partition_tree import Forwarding, KeyRange
from tests.moves.conftest import SCHEMA, SLOW_DATA_SPECS


def test_source_does_not_mint_into_a_retired_forwarding_gap():
    env = Environment()
    # The slow data disk ships one 8 KiB segment in ~2 s, so the test
    # can act while the mover holds the partition lock.
    cluster = Cluster(env, node_count=3, initially_active=3,
                      disk_specs=SLOW_DATA_SPECS, buffer_pages_per_node=256,
                      segment_max_pages=8, page_bytes=1024, lock_timeout=30.0)
    source, target = cluster.worker(1), cluster.worker(2)
    cluster.master.create_table("kv", SCHEMA, owner=source)
    partition = next(iter(source.partitions.values()))
    # Even keys: odd ones stay free.
    cluster.master.bulk_load(
        "kv", ((i, "seed-%04d" % i) for i in range(0, 800, 2)))
    assert len(partition.segments) >= 3
    txns = cluster.txns
    journal = cluster.moves.journal

    # An old transaction keeps forwarding stubs alive, as a long-running
    # query would, so that retiring one is this test's decision.
    old = txns.begin()
    move = env.process(PhysiologicalPartitioning().move_range(
        cluster, partition, source, target, KeyRange(None, None)))
    while not (journal.open_range_moves()
               and journal.open_range_moves()[0].segments_switched):
        env.run(until=env.now + 0.01)
    stubs = [(sid, key_range) for sid, key_range, entry
             in partition.tree.entries() if isinstance(entry, Forwarding)]
    assert len(stubs) == 1 and move.is_alive
    stub_id, gap = stubs[0]
    key = gap.high - 1 if gap.high % 2 == 0 else gap.high - 2
    assert gap.contains(key) and key % 2 == 1

    def late_insert():
        txn = txns.begin()
        yield from cluster.master.insert("kv", (key, "late"), txn)
        yield from txns.commit(txn)

    # The insert resolves the source partition through the stub, then
    # waits for the mover's partition lock; the stub goes meanwhile.
    insert = env.process(late_insert())
    env.run(until=env.now + 0.01)
    assert insert.is_alive and move.is_alive
    partition.tree.retire_forwarding(stub_id)

    env.run(until=insert)
    txns.abort(old)
    env.run(until=move)       # the parent died here: "overlaps segment"

    assert not journal.open_range_moves()
    assert partition.moving_out == {}
    covering = [
        segment for worker in cluster.workers
        for part in worker.partitions.values()
        for segment in [part.tree.find(key)] if segment is not None
    ]
    assert len(covering) == 1 and not isinstance(covering[0], Forwarding)
    found = []

    def read():
        txn = txns.begin()
        found.append((yield from cluster.master.read("kv", key, txn)))
        yield from txns.commit(txn)

    env.run(until=env.process(read()))
    assert found == [(key, "late")]
