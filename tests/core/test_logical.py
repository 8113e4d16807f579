"""Logical partitioning: record-level delete+reinsert movement."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Column, Schema
from repro.cluster.catalog import Catalog
from repro.core import LogicalPartitioning, PhysiologicalPartitioning
from repro.core import logical
from repro.core.logical import _SPENT, collect_batch
from repro.index.partition_tree import Forwarding, KeyRange
from repro.moves import MoveFailedError
from repro.storage.checksum import IntegrityError
from repro.storage.record import RecordVersion
from repro.storage.segment import Segment, SegmentFullError
from tests.core.conftest import read_all

KV = Schema([Column("id"), Column("v", "str", width=40)], key=("id",))


def migrate(env, cluster, fraction=0.5, targets=(2, 3), cc="mvcc"):
    scheme = LogicalPartitioning(cc=cc)
    target_workers = []

    def go():
        for node_id in targets:
            worker = cluster.worker(node_id)
            if not worker.is_active:
                yield from cluster.power_on(node_id)
            target_workers.append(worker)
        reports = yield from scheme.migrate_fraction(
            cluster, "kv", cluster.workers[0], target_workers, fraction
        )
        return reports

    return env.run(until=env.process(go()))


def test_records_moved_exactly(migration_cluster):
    """Logical movement is record-exact (quantile split, not segments)."""
    env, cluster = migration_cluster
    reports = migrate(env, cluster, fraction=0.5)
    moved = sum(r.records_moved for r in reports)
    assert moved == 200


def test_ownership_transfers(migration_cluster):
    env, cluster = migration_cluster
    migrate(env, cluster)
    owners = {loc.node_id for _r, loc in cluster.master.gpt.partitions("kv")}
    assert owners == {0, 2, 3}


def test_all_records_readable_after_move(migration_cluster):
    env, cluster = migration_cluster
    migrate(env, cluster)
    assert read_all(env, cluster) == []


def test_target_partitions_hold_the_moved_records(migration_cluster):
    env, cluster = migration_cluster
    migrate(env, cluster)
    moved = 0
    for node_id in (2, 3):
        for partition in cluster.worker(node_id).partitions.values():
            moved += partition.record_count
    assert moved == 200
    source_partition = list(cluster.workers[0].partitions.values())[0]
    assert source_partition.record_count == 200


def test_moved_row_carries_its_source_crc(migration_cluster):
    """The mover re-creates each row born verified with the CRC it was
    read with, and that CRC still matches the bytes once the verdict
    is dropped."""
    env, cluster = migration_cluster
    source_partition = list(cluster.workers[0].partitions.values())[0]
    source_crc = {
        version.key: version.checksum
        for segment in source_partition.segments.values()
        for _p, _s, version in segment.scan_versions()
    }
    migrate(env, cluster)
    moved = 0
    for node_id in (2, 3):
        for partition in cluster.worker(node_id).partitions.values():
            for segment in partition.segments.values():
                for _p, _s, version in segment.scan_versions():
                    assert version.checksum == source_crc[version.key]
                    version.clean = False
                    version.verify()
                    moved += 1
    assert moved == 200


def test_logical_rewrites_records_into_new_segments(migration_cluster):
    """Unlike physiological, logical movement re-creates records in
    freshly allocated segments on the target."""
    env, cluster = migration_cluster
    source_partition = list(cluster.workers[0].partitions.values())[0]
    ids_before = set(source_partition.segments)
    migrate(env, cluster)
    for node_id in (2, 3):
        for partition in cluster.worker(node_id).partitions.values():
            assert set(partition.segments).isdisjoint(ids_before)


def test_source_space_reclaimed(migration_cluster):
    env, cluster = migration_cluster
    source = cluster.workers[0]
    before = source.disk_space.segment_count()
    migrate(env, cluster)

    def settle():
        # Extent release is deferred until in-flight txns drain.
        yield env.timeout(10.0)

    env.run(until=env.process(settle()))
    # Vacuum + empty-segment cleanup freed extents on the source.
    assert source.disk_space.segment_count() < before


def test_logical_is_slower_than_physiological(migration_cluster):
    """The paper's core comparison: scanning and re-inserting records
    takes longer than shipping raw segments."""
    env, cluster = migration_cluster

    # Run logical first on this cluster and measure.
    t0 = env.now
    migrate(env, cluster, fraction=0.3, targets=(2,))
    logical_time = env.now - t0

    # Fresh identical cluster for physiological.
    env2, cluster2 = _fresh()
    scheme = PhysiologicalPartitioning()

    def go():
        yield from cluster2.power_on(2)
        yield from scheme.migrate_fraction(
            cluster2, "kv", cluster2.workers[0], [cluster2.worker(2)], 0.3
        )

    t0 = env2.now
    env2.run(until=env2.process(go()))
    physio_time = env2.now - t0

    assert logical_time > physio_time


def _fresh(rows=400):
    from repro import Cluster, Environment

    env = Environment()
    cluster = Cluster(
        env, node_count=4, initially_active=2,
        buffer_pages_per_node=512, segment_max_pages=8, page_bytes=1024,
    )
    cluster.master.create_table("kv", KV, owner=cluster.workers[0])

    def load():
        for start in range(0, rows, 50):
            txn = cluster.txns.begin()
            for i in range(start, start + 50):
                yield from cluster.master.insert(
                    "kv", (i, "payload-%04d" % i), txn
                )
            yield from cluster.txns.commit(txn)

    env.run(until=env.process(load()))
    return env, cluster


def test_concurrent_reads_during_logical_move(migration_cluster):
    env, cluster = migration_cluster
    failures = []

    def reader():
        for i in range(150):
            txn = cluster.txns.begin()
            key = (i * 11) % 400
            row = yield from cluster.master.read("kv", key, txn)
            if row is None or row[0] != key:
                failures.append((env.now, key))
            yield from cluster.txns.commit(txn)
            yield env.timeout(0.05)

    def mover():
        scheme = LogicalPartitioning()
        yield from cluster.power_on(2)
        yield from scheme.migrate_fraction(
            cluster, "kv", cluster.workers[0], [cluster.worker(2)], 0.5
        )

    reader_proc = env.process(reader())
    env.process(mover())
    env.run(until=reader_proc)
    assert failures == []


def test_concurrent_updates_during_logical_move(migration_cluster):
    """Client updates race the mover; conflicts retry; nothing is lost."""
    env, cluster = migration_cluster
    applied = []

    def writer():
        i = 0
        while len(applied) < 30:
            txn = cluster.txns.begin()
            key = 300 + (i % 100)
            i += 1
            try:
                yield from cluster.master.update(
                    "kv", key, (key, "client-%03d" % i), txn
                )
                yield from cluster.txns.commit(txn)
                applied.append(key)
            except Exception:
                if txn.state.value == "active":
                    cluster.txns.abort(txn)
            yield env.timeout(0.2)

    def mover():
        scheme = LogicalPartitioning()
        yield from cluster.power_on(2)
        yield from scheme.migrate_fraction(
            cluster, "kv", cluster.workers[0], [cluster.worker(2)], 0.5
        )

    writer_proc = env.process(writer())
    env.process(mover())
    env.run(until=writer_proc)
    assert len(applied) == 30
    assert read_all(env, cluster) == []


def test_locking_mode_movement(migration_cluster):
    """Under MGL-RX the mover takes record X locks; result identical."""
    env, cluster = migration_cluster
    reports = migrate(env, cluster, fraction=0.4, targets=(2,), cc="locking")
    assert sum(r.records_moved for r in reports) == 160
    assert read_all(env, cluster) == []


def test_locking_move_drains_writers_and_reclaims_the_source(migration_cluster):
    """Under MGL-RX the mover's partition guard queues behind a writer
    that got in first ("updating transactions need to commit before the
    lock is granted", Sect. 4.3) and nothing moves until it commits;
    the batches then run as system transactions under the guard, and
    the move itself vacuums the delete-marked source versions."""
    env, cluster = migration_cluster
    source_partition = list(cluster.workers[0].partitions.values())[0]
    guard_resource = ("partition", source_partition.partition_id)
    seen = {}

    def writer():
        txn = cluster.txns.begin(cc="locking")
        yield from cluster.master.update("kv", 399, (399, "late"), txn)
        while not cluster.txns.locks.queue_length(guard_resource):
            yield env.timeout(0.1)  # hold the intent until the guard queues
        seen["moved_while_held"] = sum(
            p.record_count for p in cluster.worker(2).partitions.values())
        yield from cluster.txns.commit(txn)

    env.process(writer())
    reports = migrate(env, cluster, fraction=0.4, targets=(2,), cc="locking")
    assert seen["moved_while_held"] == 0
    assert sum(r.records_moved for r in reports) == 160

    def read_moved():
        txn = cluster.txns.begin(cc="locking")
        row = yield from cluster.master.read("kv", 399, txn)
        yield from cluster.txns.commit(txn)
        return row

    assert env.run(until=env.process(read_moved())) == (399, "late")
    for key in range(240, 400):
        segment = source_partition.segment_for(key)
        assert segment is None or segment.versions_for(key) == []


# -- batch collection: resuming from a mark --------------------------------


def rescan_batch(partition, key_range, exclude, batch_size):
    """Reference collector: every call scans from the range's low bound."""
    keys = []
    for target in partition.tree.find_range(key_range):
        if isinstance(target, Forwarding) or target is None:
            continue
        for key, _chain in target.index_scan(lo=key_range.low,
                                             hi=key_range.high):
            if key in exclude:
                continue
            keys.append(key)
            if len(keys) >= batch_size:
                return keys
    return keys


def _put(partition, key, split_when_full=False):
    """Add a version of ``key``: a new key enters the index, a key
    still indexed grows its chain.  Unless ``split_when_full``, a full
    segment overflows, so only the test's own split steps split."""
    segment = partition.ensure_segment_for(key)
    version = RecordVersion.make(KV, (key, "v"), created_by=1)
    try:
        segment.insert_version(version, allow_overflow=not split_when_full)
    except SegmentFullError:
        partition.split_full_segment(segment, key)
        partition.segment_for(key).insert_version(version)


def _segments(partition):
    return [seg for _sid, _r, seg in partition.tree.entries()
            if isinstance(seg, Segment)]


@settings(max_examples=80, deadline=None)
@given(
    bounds=st.tuples(st.sampled_from([None, 100, 250]),
                     st.sampled_from([None, 700, 900])),
    ops=st.lists(
        st.tuples(
            st.sampled_from(["collect", "insert", "insert_below_mark",
                             "reinsert_dead", "vacuum", "split_tail",
                             "split_median"]),
            st.integers(min_value=0, max_value=999),
        ),
        max_size=60,
    ),
)
def test_property_marked_collection_matches_full_rescan(bounds, ops):
    """Batches collected from per-sweep marks equal a full rescan's
    under interleaved client inserts (below and above a mark),
    re-inserts of excluded keys, vacuum removals and both paths of
    ``split_full_segment``."""
    catalog = Catalog(segment_max_pages=2, page_bytes=1024)
    catalog.define_table("kv", KV)
    partition = catalog.new_partition("kv", node_id=0)
    for key in range(0, 1000, 3):
        _put(partition, key, split_when_full=True)
    key_range = KeyRange(*bounds)
    exclude: set = set()
    marks: dict = {}
    collect = collect_batch
    for op, n in ops + [("collect", n) for n in range(40)]:
        segments = _segments(partition)
        if op == "collect":
            batch_size = 1 + n % 8
            batch = collect(partition, key_range, exclude, marks, batch_size)
            assert batch == rescan_batch(partition, key_range, exclude,
                                         batch_size)
            # The exclusion set only grows within a sweep.
            exclude.update(batch[:1 + n % max(len(batch), 1)])
        elif op == "insert":
            if partition.segment_for(n).index.get(n) is None:
                _put(partition, n)
        elif op == "insert_below_mark":
            live = [(sid, mark[2]) for sid, mark in sorted(marks.items())
                    if mark[2] is not _SPENT and sid in partition.segments]
            if not live:
                continue
            sid, mark = live[n % len(live)]
            segment = partition.segments[sid]
            seg_range = partition.tree.range_of(sid)
            for key in range(mark - 1, mark - 40, -1):
                if not seg_range.contains(key):
                    break
                if segment.index.get(key) is None:
                    _put(partition, key)
                    break
        elif op == "reinsert_dead" and exclude:
            _put(partition, sorted(exclude)[n % len(exclude)])
        elif op == "vacuum":
            keys = [k for seg in segments for k, _c in seg.index_scan()]
            if keys:
                key = keys[n % len(keys)]
                segment = partition.segment_for(key)
                for page_no, slot, _v in segment.versions_for(key):
                    segment.remove_version(key, page_no, slot)
        elif op in ("split_tail", "split_median"):
            full = [seg for seg in segments if seg.record_count >= 2]
            if not full:
                continue
            segment = full[n % len(full)]
            pending = None if op == "split_tail" else \
                next(k for k, _c in segment.index_scan())
            partition.split_full_segment(segment, pending)


def _visits_per_moved_record(monkeypatch, rows):
    """Move the upper half of a ``rows``-record table logically and
    count the B-tree entries batch collection visits per moved record."""
    env, cluster = _fresh(rows)
    visits = [0]
    collecting = [False]
    scan = Segment.index_scan
    collect = collect_batch

    def counted_scan(self, *args, **kwargs):
        for entry in scan(self, *args, **kwargs):
            visits[0] += collecting[0]
            yield entry

    def counted_collect(*args, **kwargs):
        collecting[0] = True
        try:
            return collect(*args, **kwargs)
        finally:
            collecting[0] = False

    monkeypatch.setattr(Segment, "index_scan", counted_scan)
    monkeypatch.setattr(logical, "collect_batch", counted_collect)
    reports = migrate(env, cluster, fraction=0.5, targets=(2,))
    moved = sum(r.records_moved for r in reports)
    assert moved == rows // 2
    return visits[0] / moved


def test_collection_work_per_moved_record_does_not_grow_with_the_range(
        monkeypatch):
    """A rescan from the range's low bound per batch visits entries in
    proportion to the range per record moved; resuming from the sweep's
    marks keeps the visits per record flat."""
    small = _visits_per_moved_record(monkeypatch, 400)
    large = _visits_per_moved_record(monkeypatch, 1600)
    assert large <= small * 1.25, (small, large)
    assert large <= 8, (small, large)


def test_corrupt_row_fails_the_move_typed_and_keeps_the_rest(
        migration_cluster):
    """A bit-rotted row in the moved range fails the record mover with
    ``MoveFailedError`` (the ``IntegrityError`` as its cause), the way a
    dead endpoint does, instead of letting the page read escape; the
    batch it sat in is undone and every other key still reads back."""
    env, cluster = migration_cluster
    (source_partition,) = cluster.workers[0].partitions.values()
    segment = source_partition.segment_for(390)
    ((_page, _slot, version),) = segment.versions_for(390)
    version.values = (390, "payload-0391")
    version.clean = False

    with pytest.raises(MoveFailedError) as failed:
        migrate(env, cluster, fraction=0.5, targets=(2,))
    assert isinstance(failed.value.__cause__, IntegrityError)
    assert failed.value.__cause__.where == "page-read"
    assert read_all(env, cluster,
                    [key for key in range(400) if key != 390]) == []
