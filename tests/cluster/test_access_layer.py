"""Access-layer behaviours: write intents, undo logging, locking-mode
visibility, and mid-move read routing."""

import pytest

from repro import Cluster, Column, Environment, Schema
from repro.hardware import specs
from repro.metrics import CostBreakdown
from repro.txn import LockMode, LockTimeoutError
from repro.txn.manager import TransactionAborted


def build_rig():
    env = Environment()
    cluster = Cluster(env, node_count=3, initially_active=2,
                      buffer_pages_per_node=256, segment_max_pages=16,
                      page_bytes=2048, lock_timeout=1.0)
    schema = Schema([Column("id"), Column("v", "str", width=32)], key=("id",))
    cluster.master.create_table("kv", schema, owner=cluster.workers[0])

    def load():
        txn = cluster.txns.begin()
        for i in range(50):
            yield from cluster.master.insert("kv", (i, "x"), txn)
        yield from cluster.txns.commit(txn)

    env.run(until=env.process(load()))
    partition = list(cluster.workers[0].partitions.values())[0]
    return env, cluster, partition


@pytest.fixture()
def rig():
    return build_rig()


def test_writers_announce_partition_intent(rig):
    env, cluster, partition = rig
    observed = {}

    def work():
        txn = cluster.txns.begin()
        yield from cluster.master.update("kv", 1, (1, "y"), txn)
        observed["mode"] = cluster.txns.locks.mode_held(
            txn.txn_id, ("partition", partition.partition_id)
        )
        yield from cluster.txns.commit(txn)

    env.run(until=env.process(work()))
    assert observed["mode"] is LockMode.IX
    # Released at commit.
    assert cluster.txns.locks.holders(
        ("partition", partition.partition_id)
    ) == {}


class _Forgetful(set):
    """An intent memo that never remembers: every write asks again."""

    def __contains__(self, item):
        return False


def _lock_table(locks):
    return ({resource: dict(state.granted)
             for resource, state in locks._locks.items()},
            {txn_id: set(held) for txn_id, held in locks._held.items()})


def _writes_in_one_partition(memo: bool, k: int = 5):
    """``k`` updates in one partition by one transaction: the calls to
    ``lock_partition``, the lock table before commit, and the clock."""
    env, cluster, partition = build_rig()
    locks = cluster.txns.locks
    calls = []
    ask = locks.lock_partition

    def counting(*args, **kwargs):
        calls.append(args[2])
        return ask(*args, **kwargs)

    locks.lock_partition = counting
    seen = {}

    def work():
        txn = cluster.txns.begin()
        if not memo:
            txn.announced = _Forgetful()
        for key in range(k):
            yield from cluster.master.update("kv", key, (key, "y"), txn)
        seen["table"] = _lock_table(locks)
        seen["announced"] = set(txn.announced)
        seen["now"] = env.now
        yield from cluster.txns.commit(txn)

    env.run(until=env.process(work()))
    return calls, seen, partition


def test_intent_is_asked_once_per_partition():
    """k writes in one partition ask the lock table once, and leave it
    as asking on every write would."""
    calls, seen, partition = _writes_in_one_partition(memo=True)
    again, unmemoised, _ = _writes_in_one_partition(memo=False)
    assert calls == [partition.partition_id]
    assert again == [partition.partition_id] * 5
    assert seen["announced"] == {partition.partition_id}
    assert seen["table"] == unmemoised["table"]
    assert seen["now"] == unmemoised["now"]


def test_timed_out_intent_leaves_partition_unannounced(rig):
    """A writer whose IX wait times out has not announced the
    partition: its next write asks the lock table again."""
    env, cluster, partition = rig
    locks = cluster.txns.locks
    log = []

    def guard():
        txn = cluster.txns.begin(is_system=True)
        yield from locks.lock_partition(txn.txn_id, "kv",
                                        partition.partition_id, LockMode.S)
        yield env.timeout(3.0)  # outlasts the writer's 1 s lock timeout
        yield from cluster.txns.commit(txn)

    def writer():
        yield env.timeout(0.1)
        txn = cluster.txns.begin()
        with pytest.raises(LockTimeoutError):
            yield from cluster.master.update("kv", 1, (1, "w"), txn)
        log.append(set(txn.announced))
        yield env.timeout(3.0)
        yield from cluster.master.update("kv", 1, (1, "w"), txn)
        log.append(set(txn.announced))
        yield from cluster.txns.commit(txn)

    env.process(guard())
    env.run(until=env.process(writer()))
    assert log == [set(), {partition.partition_id}]


def test_partition_read_lock_drains_mvcc_writers(rig):
    """The physiological protocol's prerequisite: a partition S lock
    waits for (and blocks) even MVCC writers."""
    env, cluster, partition = rig
    log = []

    def writer():
        txn = cluster.txns.begin()
        yield from cluster.master.update("kv", 1, (1, "w"), txn)
        yield env.timeout(2.0)  # hold the intent
        yield from cluster.txns.commit(txn)
        log.append(("writer-done", env.now))

    def mover():
        yield env.timeout(0.5)
        guard = cluster.txns.begin(is_system=True)
        yield from cluster.txns.locks.lock_partition(
            guard.txn_id, "kv", partition.partition_id, LockMode.S,
            timeout=30.0,
        )
        log.append(("lock-granted", env.now))
        yield from cluster.txns.commit(guard)

    env.process(writer())
    proc = env.process(mover())
    env.run(until=proc)
    assert log[0][0] == "writer-done"
    assert log[1][0] == "lock-granted"


def test_locking_update_logs_undo_image_and_reclaims_at_commit(rig):
    env, cluster, partition = rig
    worker = cluster.workers[0]

    def update(key, cc):
        txn = cluster.txns.begin(cc=cc)
        yield from cluster.master.update("kv", key, (key, "y"), txn)
        yield from cluster.txns.commit(txn)

    def versions(key):
        return [v.values for _page, _slot, v
                in partition.segment_for(key).versions_for(key)]

    env.run(until=env.process(update(1, "locking")))
    kinds = [r.kind for r in worker.wal.records]
    assert "undo" in kinds
    # Single-version storage: the commit reclaimed what it superseded.
    assert versions(1) == [(1, "y")]

    before = [r.kind for r in worker.wal.records].count("undo")
    env.run(until=env.process(update(2, "mvcc")))
    after = [r.kind for r in worker.wal.records].count("undo")
    assert after == before  # MVCC needs no separate undo image
    # ... because the superseded version itself lingers for old readers.
    assert sorted(versions(2)) == [(2, "x"), (2, "y")]


def test_locking_read_ignores_uncommitted_delete_mark(rig):
    """Sect. 3.5: old copies remain readable until the movement (or the
    deleting transaction) commits."""
    env, cluster, partition = rig
    results = {}

    def work():
        deleter = cluster.txns.begin(cc="mvcc")
        yield from cluster.master.delete("kv", 5, deleter)
        # Uncommitted delete: a locking-mode reader still sees the row.
        reader = cluster.txns.begin(cc="locking")
        results["during"] = yield from cluster.master.read("kv", 5, reader)
        yield from cluster.txns.commit(reader)
        yield from cluster.txns.commit(deleter)
        reader2 = cluster.txns.begin(cc="locking")
        results["after"] = yield from cluster.master.read("kv", 5, reader2)
        yield from cluster.txns.commit(reader2)

    env.run(until=env.process(work()))
    assert results["during"] == (5, "x")
    assert results["after"] is None


def test_read_tries_other_candidate_when_not_visible_here(rig):
    """Mid-move routing: a key already moved to the target is found
    there even while the master still lists both candidates."""
    from repro.core import LogicalPartitioning

    env, cluster, partition = rig
    scheme = LogicalPartitioning()

    def move_and_read():
        yield from cluster.power_on(2)
        yield from scheme.migrate_fraction(
            cluster, "kv", cluster.workers[0], [cluster.worker(2)], 0.5
        )
        txn = cluster.txns.begin()
        row = yield from cluster.master.read("kv", 49, txn)  # moved key
        yield from cluster.txns.commit(txn)
        return row

    row = env.run(until=env.process(move_and_read()))
    assert row == (49, "x")


def test_dispatch_hop_charged_once_per_txn_per_node(rig):
    """Plan shipping: the master pays one RPC per (txn, worker)."""
    env, cluster, partition = rig
    # Move the table to node 1 so access needs a hop.
    cluster.master.create_table(
        "far", Schema([Column("id"), Column("v", "str", width=8)],
                      key=("id",)),
        owner=cluster.workers[1],
    )
    breakdown = CostBreakdown()

    def work():
        txn = cluster.txns.begin()
        txn.breakdown = breakdown
        for i in range(10):
            yield from cluster.master.insert("far", (i, "x"), txn)
        yield from cluster.txns.commit(txn)

    env.run(until=env.process(work()))
    # One dispatch round trip, not ten.
    assert breakdown.network_io == pytest.approx(
        specs.NET_RPC_LATENCY_SECONDS, rel=0.2
    )


def test_read_only_write_refused_before_any_side_effect():
    """A declared-read-only transaction's write is refused up front:
    no partition intent, no segment minted for the uncovered key, no
    CPU charged.  (A fresh, empty table — the shared rig's one segment
    already covers every key, which would hide the minting.)"""
    env = Environment()
    cluster = Cluster(env, node_count=2, initially_active=2,
                      buffer_pages_per_node=64, segment_max_pages=16,
                      page_bytes=2048)
    schema = Schema([Column("id"), Column("v", "str", width=32)], key=("id",))
    partition = cluster.master.create_table("kv", schema,
                                            owner=cluster.workers[0])
    directory_before = dict(cluster.directory._locations)
    assert len(partition.segments) == 0
    txn = cluster.txns.begin(read_only=True)

    def work():
        yield from cluster.master.insert("kv", (1, "x"), txn)

    started = env.now
    with pytest.raises(TransactionAborted, match="read-only"):
        env.run(until=env.process(work()))
    assert len(partition.segments) == 0
    assert dict(cluster.directory._locations) == directory_before
    assert cluster.txns.locks.mode_held(
        txn.txn_id, ("partition", partition.partition_id)) is None
    assert env.now == started
