"""The run loader places every row where the per-row loader does.

``MasterNode.bulk_load`` hands each partition whole runs of ascending
keys (``Partition.place_run`` → ``Segment.insert_run``).  The reference
below is the loader one row at a time: locate, ``ensure_segment_for``,
host, ``Partition.place`` with ``Segment.insert_version``.  Both must
leave the same segments (ids, key ranges, hosts), every version on the
same ``(page_no, slot)`` with the same chain per key, the same bytes per
page and the same index answers — and every page's room bound holds.
"""
import dataclasses
import random

import pytest

from repro import Cluster, Column, Environment, KeyRange, Schema
from repro.cluster.master import LOAD_COMMIT_TS, LOAD_TXN_ID, MasterNode
from repro.experiments.fig6_schemes import build_fig6_cluster, quick_fig6_config
from repro.storage.record import RecordVersion
from repro.storage.segment import Segment
from tests.storage.test_segment_space_property import check_segment


def reference_bulk_load(self, table, rows):
    """Per-row placement: one ``Partition.place`` per row."""
    schema = self.catalog.table(table).schema
    for values in rows:
        version = RecordVersion.make(schema, values, LOAD_TXN_ID)
        version.created_ts = LOAD_COMMIT_TS
        location = self.gpt.locate(table, version.key)
        worker = self.cluster.worker(location.node_id)
        partition = worker.partitions[location.partition_id]
        segment = partition.ensure_segment_for(version.key)
        worker.ensure_hosted(segment)
        partition.place(worker, segment, version, Segment.insert_version)


def layout(cluster):
    """Everything placement decides, per partition of every table."""
    out = {}
    for worker in cluster.workers:
        hosted = {sid: disk.name
                  for sid, disk in worker.disk_space.placements()}
        for pid, partition in sorted(worker.partitions.items()):
            segments = []
            for sid, key_range, segment in partition.tree.entries():
                check_segment(segment)
                segments.append((
                    sid, key_range.low, key_range.high, hosted.get(sid),
                    [page.used_bytes for page in segment.pages],
                    list(segment.index_scan()),
                    [(pno, slot, version.key, version.values)
                     for pno, slot, version in segment.scan_versions()],
                    [(version.home is segment, version.page_no,
                      version.slot) for _p, _s, version
                     in segment.scan_versions()],
                    segment.index.key_inserts, segment.record_count,
                    segment.max_key() if segment.record_count else None,
                ))
            out[worker.node_id, pid, partition.table.name] = (
                partition.segment_count, segments)
    return out


def both_ways(build, monkeypatch):
    """``build()`` run by the run loader, then by the reference."""
    by_run = layout(build())
    with monkeypatch.context() as patch:
        patch.setattr(MasterNode, "bulk_load", reference_bulk_load)
        by_row = layout(build())
    return by_run, by_row


def test_tpcc_plus_ballast_lands_where_per_row_placement_puts_it(monkeypatch):
    """A small fig6 build: nine TPC-C tables on warehouse-aligned
    segments of 8 pages (tail splits as tables outgrow them), a history
    stream, the item table on one node, and 32 KiB ballast rows."""
    config = quick_fig6_config()
    config.tpcc = dataclasses.replace(
        config.tpcc, warehouses=3, customers_per_district=12, items=60,
        orders_per_district=8, seed=5)
    config.ballast_rows_per_warehouse = 40
    config.segment_max_pages = 8

    def build():
        return build_fig6_cluster(config)[1]

    by_run, by_row = both_ways(build, monkeypatch)
    assert by_run == by_row
    split = [key for key, (count, _segs) in by_row.items() if count > 3]
    assert split, "no table overflowed its warehouse segments"


SCHEMA = Schema([Column("id"), Column("v", "str", width=60)], key=("id",))


def kv_cluster(rows, *, ranges=(KeyRange(None, None),)):
    env = Environment()
    cluster = Cluster(env, node_count=4, initially_active=2,
                      buffer_pages_per_node=256, segment_max_pages=2,
                      page_bytes=1024)
    owners = cluster.workers[:len(ranges)]
    cluster.master.create_partitioned_table(
        "kv", SCHEMA, list(zip(ranges, owners)))
    cluster.master.bulk_load("kv", rows)
    return cluster


def sized(keys, seed=0):
    rng = random.Random(seed)
    return [(key, "x" * rng.randrange(61)) for key in keys]


STREAMS = {
    # 2-page segments of 1 KiB pages: every few dozen rows fill an
    # extent, so the run goes on in a tail-split segment many times.
    "ascending-overflow": sized(range(500)),
    # Evens, then odds: every odd key lands below a full segment's
    # maximum and forces a median split.
    "evens-then-odds": sized(list(range(0, 300, 2)) + list(range(1, 300, 2))),
    "shuffled": sized(random.Random(3).sample(range(400), 400)),
    "descending": sized(range(200, 0, -1)),
    # A key loaded twice keeps both versions, newest first.
    "repeats": sized([1, 2, 3, 3, 4, 2, 5, 6, 6, 6, 7] + list(range(8, 90))),
}


@pytest.mark.parametrize("stream", sorted(STREAMS))
@pytest.mark.parametrize("partitions", [1, 2])
def test_stream_lands_where_per_row_placement_puts_it(stream, partitions,
                                                      monkeypatch):
    ranges = ((KeyRange(None, None),) if partitions == 1
              else (KeyRange(None, 150), KeyRange(150, None)))
    rows = STREAMS[stream]
    by_run, by_row = both_ways(lambda: kv_cluster(rows, ranges=ranges),
                               monkeypatch)
    assert by_run == by_row
    assert sum(count for count, _segs in by_row.values()) > partitions
