"""``ReadTier.read_range`` against a reference full scan of the replicas'
row maps, and the replica's sorted key list against its row map.

The tier bisects ``[lo, hi)`` in :attr:`SegmentReplica.sorted_keys`;
the reference here walks every entry of every covering replica, the
way the range read was first written.  Both must agree on the rows
served and on the bounce reason."""

import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ha.replication import (
    REPLICA_BASE_TXN_ID,
    ReplicationManager,
    SegmentReplica,
)
from repro.index.partition_tree import KeyRange
from repro.reads import ReadTier
from tests.reads.conftest import (
    KV_SCHEMA,
    insert_rows,
    install_tier,
    protect,
    read_only_txn,
    run,
    small_cluster,
)

SPLIT = 50


@pytest.fixture()
def split_rig():
    """``kv`` keys 0..99 in two protected partitions, ``[.., 50)`` on
    node 1 and ``[50, ..)`` on node 2, each with one replica."""
    env, cluster = small_cluster()
    cluster.master.create_partitioned_table("kv", KV_SCHEMA, [
        (KeyRange(None, SPLIT), cluster.workers[1]),
        (KeyRange(SPLIT, None), cluster.workers[2]),
    ])
    insert_rows(env, cluster, 100)
    tier = install_tier(cluster, protect(env, cluster, k=2))
    return env, cluster, tier


def replica_of(cluster, partition_id):
    (replica,) = cluster.catalog.replica_set_for(partition_id).replicas
    return replica


def reference_range(cluster, lo, hi, begin_ts, limit=None):
    """Every covering location's replica, its row map walked whole: the
    rows a snapshot at ``begin_ts`` sees in ``[lo, hi)``, or the bounce
    reason."""
    merged = {}
    for location in cluster.master.gpt.locate_range("kv", KeyRange(lo, hi)):
        replica = replica_of(cluster, location.partition_id)
        if begin_ts < replica.base_ts:
            return "base"
        for key, (values, _writer, version_ts) in replica.rows.items():
            if not lo <= key < hi:
                continue
            if version_ts > begin_ts:
                return "version"
            if values is not None:
                merged.setdefault(key, values)
    result = [values for _key, values in sorted(merged.items())]
    return result if limit is None else result[:limit]


def tier_range(env, tier, lo, hi, txn, limit=None):
    """The tier's answer: the rows served, or the one bounce reason it
    counted."""
    before = dict(tier.bounces)
    out = {}

    def read():
        out["rows"] = yield from tier.read_range("kv", lo, hi, txn, limit)

    run(env, read())
    if out["rows"] is not ReadTier.NOT_SERVED:
        return out["rows"]
    (reason,) = [r for r, n in tier.bounces.items() if n != before[r]]
    return reason


def write(env, cluster, op, *args):
    def work():
        txn = cluster.txns.begin()
        yield from getattr(cluster.master, op)("kv", *args, txn)
        yield from cluster.txns.commit(txn)

    run(env, work())


def rows(keys):
    return [(k, "v%03d" % k) for k in keys]


def test_served_range(split_rig):
    env, cluster, tier = split_rig
    txn = read_only_txn(cluster)
    expected = reference_range(cluster, 10, 30, txn.begin_ts)
    assert expected == rows(range(10, 30))
    assert tier_range(env, tier, 10, 30, txn) == expected
    assert tier.served_replica_range == 1


def test_range_spanning_two_locations(split_rig):
    env, cluster, tier = split_rig
    txn = read_only_txn(cluster)
    expected = reference_range(cluster, 40, 60, txn.begin_ts)
    assert expected == rows(range(40, 60))
    assert tier_range(env, tier, 40, 60, txn) == expected
    served = [replica_of(cluster, p.partition_id).reads_served
              for w in (1, 2)
              for p in cluster.workers[w].partitions_for_table("kv")]
    assert served == [1, 1]


def test_version_newer_than_the_snapshot_bounces(split_rig):
    env, cluster, tier = split_rig
    txn = read_only_txn(cluster)
    write(env, cluster, "update", 15, (15, "newer"))
    assert reference_range(cluster, 10, 30, txn.begin_ts) == "version"
    assert tier_range(env, tier, 10, 30, txn) == "version"
    # The newer version lies outside [30, 60): that range still serves.
    expected = reference_range(cluster, 30, 60, txn.begin_ts)
    assert expected == rows(range(30, 60))
    assert tier_range(env, tier, 30, 60, txn) == expected


def test_in_range_tombstone(split_rig):
    env, cluster, tier = split_rig
    before = read_only_txn(cluster)
    write(env, cluster, "delete", 20)
    after = read_only_txn(cluster)
    expected = reference_range(cluster, 10, 30, after.begin_ts)
    assert expected == rows(k for k in range(10, 30) if k != 20)
    assert tier_range(env, tier, 10, 30, after) == expected
    # A snapshot older than the delete needs the row the tombstone hid.
    assert reference_range(cluster, 10, 30, before.begin_ts) == "version"
    assert tier_range(env, tier, 10, 30, before) == "version"


@pytest.mark.parametrize("lo, hi, limit", [(0, 100, 5), (45, 100, 10)])
def test_limit(split_rig, lo, hi, limit):
    env, cluster, tier = split_rig
    txn = read_only_txn(cluster)
    expected = reference_range(cluster, lo, hi, txn.begin_ts, limit)
    assert expected == rows(range(lo, lo + limit))
    assert tier_range(env, tier, lo, hi, txn, limit) == expected


def test_seeded_and_shipped_keys_stay_sorted(split_rig):
    env, cluster, _tier = split_rig

    def work():
        txn = cluster.txns.begin()
        for key in (175, 150, 200, -5, 125):
            yield from cluster.master.insert("kv", (key, "late"), txn)
        yield from cluster.txns.commit(txn)

    run(env, work())
    for rs in cluster.catalog.replica_sets.values():
        for replica in rs.replicas:
            assert replica.sorted_keys == sorted(replica.rows)


# -- the key list under apply, retract and seed ------------------------------

class _Log:
    """A replica log that takes retraction records and keeps none."""

    def append(self, *_args, **_kwargs):
        return 0


KEYS = st.integers(min_value=0, max_value=40)
OPS = st.one_of(
    st.tuples(st.just("apply"), st.lists(
        st.tuples(st.sampled_from(["insert", "update", "delete"]), KEYS),
        min_size=1, max_size=6)),
    st.tuples(st.just("retract"), st.integers(min_value=0, max_value=20)),
    st.tuples(st.just("seed"), st.lists(KEYS, max_size=15, unique=True)),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(OPS, max_size=30))
def test_property_sorted_keys_equal_sorted_rows(ops):
    """Shipped commits fold in through ``_apply_to_rows``, crash-aborts
    unwind them through ``_retract_shipped`` in any order, and a seed
    enters a base image key by key in scan order: after every step each
    replica's key list is ``sorted(rows)``."""
    _env, cluster = small_cluster()
    manager = ReplicationManager(cluster, k=2)
    replica = SegmentReplica(0, _Log(), 0.0)
    replicas = [replica]
    inflight: list[int] = []
    for step, (kind, arg) in enumerate(ops):
        txn_id = step + 1
        if kind == "apply":
            records = [
                types.SimpleNamespace(
                    kind=op, txn_id=txn_id,
                    payload=("kv", key) if op == "delete"
                    else ("kv", key, (key, f"t{txn_id}")))
                for op, key in arg
            ]
            txn = types.SimpleNamespace(txn_id=txn_id, commit_ts=txn_id)
            undo = ReplicationManager._apply_to_rows(replica, records, txn)
            manager._shipped_inflight.setdefault(txn_id, []).append(
                (replica, undo))
            inflight.append(txn_id)
        elif kind == "retract" and inflight:
            retracted = inflight.pop(arg % len(inflight))
            manager._retract_shipped(types.SimpleNamespace(txn_id=retracted))
        elif kind == "seed":
            replica = SegmentReplica(0, _Log(), 0.0)
            replicas.append(replica)
            for key in arg:
                replica.put_row(key, ((key, "base"), REPLICA_BASE_TXN_ID,
                                      txn_id))
        for each in replicas:
            assert each.sorted_keys == sorted(each.rows)
