"""Shared helpers: a small cluster with one loaded table whose
segments the mover tests push between nodes."""

import pytest

from repro import Cluster, Column, Environment, Schema
from repro.hardware.disk import DiskSpec

SCHEMA = Schema([Column("id"), Column("v", "str", width=40)], key=("id",))

#: Fast log disk (takes the WAL role) plus a deliberately slow data
#: disk, so a chunk copy takes visible sim time and faults injected
#: mid-move deterministically land inside the copy loop.
SLOW_DATA_SPECS = (
    DiskSpec(kind="hdd", access_seconds=0.0001,
             bandwidth_bytes_per_s=100 * 1024 * 1024,
             capacity_bytes=4 * 1024 * 1024,
             idle_watts=0.3, active_watts=0.4),
    DiskSpec(kind="ssd", access_seconds=0.0001,
             bandwidth_bytes_per_s=4 * 1024,
             capacity_bytes=4 * 1024 * 1024,
             idle_watts=0.3, active_watts=0.4),
)


def build_move_cluster(rows=120, chunk_bytes=2048, seed=0):
    """Three active nodes; "kv" lives on node 1 in several small
    segments; node 2 is the move target.  Chunks are small so one
    segment spans multiple chunks (resume is observable)."""
    env = Environment(seed=seed)
    cluster = Cluster(
        env, node_count=3, initially_active=3,
        disk_specs=SLOW_DATA_SPECS,
        buffer_pages_per_node=512, segment_max_pages=8, page_bytes=1024,
    )
    cluster.moves.chunk_bytes = chunk_bytes
    owner = cluster.worker(1)
    cluster.master.create_table("kv", SCHEMA, owner=owner)
    partition = next(iter(owner.partitions.values()))
    cluster.master.bulk_load("kv", ((i, "seed-%04d" % i) for i in range(rows)))
    return env, cluster, partition


@pytest.fixture()
def move_cluster():
    return build_move_cluster()


def first_segment(partition):
    return next(iter(partition.segments.values()))


def drive(env, gen, name="test-driver"):
    """Run a mover generator to completion; returns its value or
    re-raises its exception."""
    box = {}

    def driver():
        try:
            box["value"] = yield from gen
        except BaseException as exc:  # noqa: BLE001 - relayed to the test
            box["error"] = exc

    env.run(until=env.process(driver(), name=name))
    if "error" in box:
        raise box["error"]
    return box["value"]
