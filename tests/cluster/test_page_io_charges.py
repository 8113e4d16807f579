"""A page I/O charges each of its steps once, through the buffer pool:
a segment hosted on another node (physical partitioning) pays the RPC
and the wire to ``network_io`` and the remote disk to ``disk_io``, and
the pool adds nothing around it."""

import pytest

from repro import Cluster, Column, Environment, Schema
from repro.hardware import specs
from repro.metrics import CostBreakdown


def remote_segment_rig():
    """Node 0 owns a two-page segment whose extent node 1 hosts."""
    env = Environment()
    cluster = Cluster(env, node_count=2, initially_active=2,
                      buffer_pages_per_node=64, segment_max_pages=16,
                      page_bytes=2048)
    schema = Schema([Column("id"), Column("v", "str", width=32)], key=("id",))
    owner, host = cluster.workers
    cluster.master.create_table("kv", schema, owner=owner)

    def load():
        txn = cluster.txns.begin()
        for i in range(60):
            yield from cluster.master.insert("kv", (i, "x"), txn)
        yield from cluster.txns.commit(txn)

    env.run(until=env.process(load()))
    (partition,) = owner.partitions.values()
    (segment,) = partition.segments.values()
    assert len(segment.pages) >= 2
    owner.unhost_segment(segment)
    host.host_segment(segment)
    return env, owner, segment


def disk_page_seconds(owner, segment):
    _host, disk = owner.directory.location(segment.segment_id)
    return disk.spec.access_seconds + disk.spec.transfer_seconds(
        specs.PAGE_BYTES)


WIRE_SECONDS = (specs.NET_MESSAGE_LATENCY_SECONDS
                + specs.PAGE_BYTES / specs.NET_BANDWIDTH_BYTES_PER_S)


def fetch(env, owner, page, breakdown):
    def go():
        t0 = env.now
        yield from owner.fetch_page(page, breakdown)
        return env.now - t0

    return env.run(until=env.process(go()))


def test_a_remote_read_charges_the_disk_once_and_the_detour_to_network():
    env, owner, segment = remote_segment_rig()
    breakdown = CostBreakdown()
    elapsed = fetch(env, owner, segment.pages[0], breakdown)
    assert breakdown.disk_io == pytest.approx(disk_page_seconds(owner, segment))
    assert breakdown.network_io == pytest.approx(
        specs.NET_RPC_LATENCY_SECONDS + WIRE_SECONDS)
    assert breakdown.total == pytest.approx(elapsed)


def test_a_remote_write_back_charges_the_disk_once_and_the_wire_to_network():
    env, owner, segment = remote_segment_rig()
    first, second = segment.pages[:2]
    fetch(env, owner, first, None)
    owner.unpin_page(first, dirty=True)
    # One frame: fetching the second page writes the dirty first one
    # back to its remote home, then reads the second from there.
    owner.buffer.capacity_pages = 1
    breakdown = CostBreakdown()
    elapsed = fetch(env, owner, second, breakdown)
    assert breakdown.disk_io == pytest.approx(
        2 * disk_page_seconds(owner, segment))
    assert breakdown.network_io == pytest.approx(
        specs.NET_RPC_LATENCY_SECONDS + 2 * WIRE_SECONDS)
    assert breakdown.total == pytest.approx(elapsed)
