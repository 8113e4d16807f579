"""Tests for segment placement on a node's disks."""

import pytest

from repro.hardware import Disk, HDD_SPEC, SSD_SPEC
from repro.sim import Environment
from repro.storage import DiskSpaceManager, OutOfDiskSpaceError, Segment


def make_manager(n_disks=2):
    env = Environment()
    disks = [Disk(env, SSD_SPEC, name=f"ssd{i}") for i in range(n_disks)]
    return env, disks, DiskSpaceManager(disks)


def seg(segment_id, max_pages=16):
    return Segment(segment_id, "t", max_pages=max_pages, page_bytes=8192)


def test_needs_disks():
    with pytest.raises(ValueError):
        DiskSpaceManager([])


def test_place_records_extent():
    _env, disks, mgr = make_manager()
    s = seg(1)
    disk = mgr.place(s)
    assert disk in disks
    assert mgr.used_bytes(disk) == s.extent_bytes
    assert mgr.disk_of(1) is disk
    assert mgr.holds(1)
    assert mgr.segment_count() == 1


def test_double_place_rejected():
    _env, _disks, mgr = make_manager()
    s = seg(1)
    mgr.place(s)
    with pytest.raises(ValueError):
        mgr.place(s)


def test_explicit_disk_placement():
    _env, disks, mgr = make_manager()
    s = seg(1)
    assert mgr.place(s, disk=disks[1]) is disks[1]


def test_explicit_foreign_disk_rejected():
    env, _disks, mgr = make_manager()
    foreign = Disk(env, HDD_SPEC, name="foreign")
    with pytest.raises(ValueError):
        mgr.place(seg(1), disk=foreign)


def test_balances_across_disks():
    _env, disks, mgr = make_manager(2)
    placements = [mgr.place(seg(i)) for i in range(4)]
    assert placements.count(disks[0]) == 2
    assert placements.count(disks[1]) == 2


def test_out_of_space():
    env = Environment()
    # A tiny disk: capacity for exactly one extent.
    from repro.hardware.disk import DiskSpec

    tiny = DiskSpec(
        kind="ssd", access_seconds=0.001, bandwidth_bytes_per_s=1e8,
        capacity_bytes=seg(0).extent_bytes, idle_watts=0.1, active_watts=0.2,
    )
    disk = Disk(env, tiny)
    mgr = DiskSpaceManager([disk])
    mgr.place(seg(1))
    with pytest.raises(OutOfDiskSpaceError):
        mgr.place(seg(2))


def test_evict_frees_space():
    _env, _disks, mgr = make_manager()
    s = seg(1)
    disk = mgr.place(s)
    assert mgr.evict(s) is disk
    assert mgr.used_bytes(disk) == 0
    assert not mgr.holds(1)
    with pytest.raises(KeyError):
        mgr.evict(s)


def test_disk_of_unknown():
    _env, _disks, mgr = make_manager()
    with pytest.raises(KeyError):
        mgr.disk_of(99)


def test_total_free_bytes():
    _env, disks, mgr = make_manager(2)
    before = mgr.total_free_bytes
    mgr.place(seg(1))
    assert mgr.total_free_bytes == before - seg(99).extent_bytes
