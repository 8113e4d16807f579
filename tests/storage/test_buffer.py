"""Tests for the buffer pool and the rDMA remote extension."""

import pytest

from repro.hardware import Cpu, Disk, Network, NetworkPort, SSD_SPEC, specs
from repro.metrics import CostBreakdown
from repro.sim import Environment
from repro.storage import BufferPool, BufferPoolExhaustedError, RemoteBufferExtension


class DiskPageIO:
    """Test resolver target: every page lives on one local disk.  Like
    the worker's page I/O, it charges its own disk time: the pool
    charges nothing around it."""

    def __init__(self, env, disk):
        self.env = env
        self.disk = disk

    def read(self, breakdown):
        t0 = self.env.now
        yield from self.disk.read_page()
        if breakdown is not None:
            breakdown.add("disk_io", self.env.now - t0)

    def write(self, breakdown):
        t0 = self.env.now
        yield from self.disk.write_page()
        if breakdown is not None:
            breakdown.add("disk_io", self.env.now - t0)


def make_pool(capacity_pages=4):
    env = Environment()
    cpu = Cpu(env, cores=2)
    disk = Disk(env, SSD_SPEC)
    io = DiskPageIO(env, disk)
    pool = BufferPool(env, cpu, capacity_pages, resolver=lambda pid: io)
    return env, pool, disk


def run(env, gen):
    return env.run(until=env.process(gen))


def test_capacity_validation():
    env = Environment()
    cpu = Cpu(env, 1)
    with pytest.raises(ValueError):
        BufferPool(env, cpu, 0, resolver=lambda pid: None)


def test_miss_then_hit():
    env, pool, disk = make_pool()

    def work():
        yield from pool.fetch(1)
        pool.unpin(1)
        yield from pool.fetch(1)
        pool.unpin(1)

    run(env, work())
    assert pool.misses == 1
    assert pool.hits == 1
    assert disk.reads == 1
    assert pool.is_resident(1)


def test_hit_is_much_cheaper_than_miss():
    env, pool, _disk = make_pool()
    times = []

    def work():
        t0 = env.now
        yield from pool.fetch(1)
        pool.unpin(1)
        times.append(env.now - t0)
        t0 = env.now
        yield from pool.fetch(1)
        pool.unpin(1)
        times.append(env.now - t0)

    run(env, work())
    assert times[1] < times[0] / 5


def test_lru_eviction():
    env, pool, disk = make_pool(capacity_pages=2)

    def work():
        for pid in (1, 2, 3):
            yield from pool.fetch(pid)
            pool.unpin(pid)

    run(env, work())
    assert pool.resident_pages == 2
    assert not pool.is_resident(1)  # LRU victim
    assert pool.is_resident(2) and pool.is_resident(3)
    assert pool.evictions == 1


def test_dirty_eviction_writes_back():
    env, pool, disk = make_pool(capacity_pages=1)

    def work():
        yield from pool.fetch(1)
        pool.unpin(1, dirty=True)
        yield from pool.fetch(2)
        pool.unpin(2)

    run(env, work())
    assert disk.writes == 1


def test_clean_eviction_no_write():
    env, pool, disk = make_pool(capacity_pages=1)

    def work():
        yield from pool.fetch(1)
        pool.unpin(1)
        yield from pool.fetch(2)
        pool.unpin(2)

    run(env, work())
    assert disk.writes == 0


def test_pinned_pages_not_evicted():
    env, pool, _disk = make_pool(capacity_pages=2)

    def work():
        yield from pool.fetch(1)  # stays pinned
        yield from pool.fetch(2)
        pool.unpin(2)
        yield from pool.fetch(3)
        pool.unpin(3)

    run(env, work())
    assert pool.is_resident(1)
    assert not pool.is_resident(2)

    # LRU-oldest frame pinned: it is skipped, and the next three
    # victims leave in order of last use.
    env, pool, _disk = make_pool(capacity_pages=4)
    evicted = []

    def churn():
        yield from pool.fetch(1)  # oldest, stays pinned
        for pid in (2, 3, 4, 2):  # last use: 3, 4, 2
            yield from pool.fetch(pid)
            pool.unpin(pid)
        for pid in (5, 6, 7):
            before = [p for p in (1, 2, 3, 4) if pool.is_resident(p)]
            yield from pool.fetch(pid)
            pool.unpin(pid)
            evicted.extend(p for p in before if not pool.is_resident(p))

    run(env, churn())
    assert evicted == [3, 4, 2]
    assert pool.is_resident(1)


def test_all_pinned_raises():
    env, pool, _disk = make_pool(capacity_pages=1)

    def work():
        yield from pool.fetch(1)  # pinned
        yield from pool.fetch(2)

    with pytest.raises(BufferPoolExhaustedError):
        run(env, work())


def test_unpin_without_pin_raises():
    env, pool, _disk = make_pool()
    with pytest.raises(RuntimeError):
        pool.unpin(1)


def test_concurrent_fetch_single_io():
    """Three processes racing to the same cold page: one disk read, the
    latch handed on in arrival order."""
    env, pool, disk = make_pool()
    resumed = []

    def work(i):
        yield from pool.fetch(1)
        resumed.append(i)
        pool.unpin(1)

    for i in range(3):
        env.process(work(i))
    env.run()
    assert disk.reads == 1
    assert pool.hits == 2
    assert pool.misses == 1
    assert resumed == [0, 1, 2]
    assert pool.latch_contended == 2
    assert pool._latched == {}


def test_uncontended_resident_fetch_costs_only_its_cpu_timeout():
    """A free latch and a free core are both taken without an event:
    the only thing a buffer hit waits for is its CPU time."""
    env, pool, _disk = make_pool()
    spent = []

    def work():
        yield from pool.fetch(1)
        pool.unpin(1)
        breakdown = CostBreakdown()
        before, t0 = env.events_processed, env.now
        yield from pool.fetch(1, breakdown=breakdown)
        spent.append((env.events_processed - before, env.now - t0,
                      breakdown.latching))
        pool.unpin(1)

    run(env, work())
    [(events, seconds, latching)] = spent
    assert events == 1
    assert seconds == pytest.approx(specs.CPU_BUFFER_HIT_SECONDS)
    assert latching == 0.0
    assert pool.latch_contended == 0
    assert pool._latched == {}


def test_latch_wait_recorded_in_breakdown():
    """Two fetchers colliding on a cold page: one read, arrival order,
    and only the one that queued is charged latching time."""
    env, pool, disk = make_pool()
    breakdowns = [CostBreakdown(), CostBreakdown()]
    got_page = []

    def work(i):
        yield from pool.fetch(1, breakdown=breakdowns[i])
        got_page.append((i, env.now))
        pool.unpin(1)

    env.process(work(0))
    env.process(work(1))
    env.run()
    assert disk.reads == 1
    assert pool.latch_contended == 1
    assert [i for i, _when in got_page] == [0, 1]
    # The first fetcher found the latch free and did the I/O ...
    assert breakdowns[0].latching == 0.0
    assert breakdowns[0].disk_io > 0
    # ... the second waited on that I/O-holding latch from t=0 until
    # the first one let go, then hit the now-resident page.
    assert breakdowns[1].latching == got_page[0][1] > 0
    assert breakdowns[1].disk_io == 0.0
    assert pool._latched == {}


def test_flush_all_writes_dirty_frames():
    env, pool, disk = make_pool(capacity_pages=4)

    def work():
        for pid in (1, 2):
            yield from pool.fetch(pid)
            pool.unpin(pid, dirty=True)
        yield from pool.fetch(3)
        pool.unpin(3)
        yield from pool.flush_all()

    run(env, work())
    assert disk.writes == 2


def test_discard_drops_frame():
    env, pool, _disk = make_pool()

    def work():
        yield from pool.fetch(1)
        pool.unpin(1)

    run(env, work())
    pool.discard(1)
    assert not pool.is_resident(1)
    pool.discard(99)  # unknown page: no-op


def test_discard_pinned_raises():
    env, pool, _disk = make_pool()

    def work():
        yield from pool.fetch(1)

    run(env, work())
    with pytest.raises(RuntimeError):
        pool.discard(1)


def test_hit_ratio():
    env, pool, _disk = make_pool()

    def work():
        for _ in range(4):
            yield from pool.fetch(1)
            pool.unpin(1)

    run(env, work())
    assert pool.hit_ratio == pytest.approx(3 / 4)


class TestRemoteExtension:
    def make(self, capacity_pages=2, pool_pages=1):
        env = Environment()
        cpu = Cpu(env, 2)
        disk = Disk(env, SSD_SPEC)
        io = DiskPageIO(env, disk)
        pool = BufferPool(env, cpu, pool_pages, resolver=lambda pid: io)
        network = Network(env)
        local = NetworkPort(env, "local")
        remote = NetworkPort(env, "remote")
        pool.remote_extension = RemoteBufferExtension(
            env, network, local, remote, capacity_pages
        )
        return env, pool, disk

    def test_dirty_eviction_goes_to_remote_memory(self):
        env, pool, disk = self.make()

        def work():
            yield from pool.fetch(1)
            pool.unpin(1, dirty=True)
            yield from pool.fetch(2)
            pool.unpin(2)

        run(env, work())
        assert 1 in pool.remote_extension
        assert disk.writes == 0

    def test_clean_eviction_is_dropped_not_shipped(self):
        env, pool, disk = self.make()

        def work():
            yield from pool.fetch(1)
            pool.unpin(1)
            yield from pool.fetch(2)
            pool.unpin(2)

        run(env, work())
        assert 1 not in pool.remote_extension
        assert pool.remote_extension.puts == 0

    def test_remote_hit_faster_than_disk_on_hdd(self):
        """A page in remote memory returns faster than an HDD read."""
        from repro.hardware import HDD_SPEC

        env = Environment()
        cpu = Cpu(env, 2)
        disk = Disk(env, HDD_SPEC)
        io = DiskPageIO(env, disk)
        pool = BufferPool(env, cpu, 1, resolver=lambda pid: io)
        network = Network(env)
        pool.remote_extension = RemoteBufferExtension(
            env, network, NetworkPort(env, "l"), NetworkPort(env, "r"), 4
        )
        times = {}

        def work():
            yield from pool.fetch(1)  # miss: disk read
            pool.unpin(1, dirty=True)
            yield from pool.fetch(2)  # evicts dirty 1 to remote
            pool.unpin(2)
            t0 = env.now
            yield from pool.fetch(1)  # remote hit
            pool.unpin(1)
            times["remote"] = env.now - t0

        run(env, work())
        hdd_read = HDD_SPEC.access_seconds + specs.PAGE_BYTES / HDD_SPEC.bandwidth_bytes_per_s
        assert times["remote"] < hdd_read
        assert pool.remote_hits == 1

    def test_remote_overflow_spills_dirty_to_disk(self):
        env, pool, disk = self.make(capacity_pages=1)

        def work():
            yield from pool.fetch(1)
            pool.unpin(1, dirty=True)
            yield from pool.fetch(2)  # 1 -> remote
            pool.unpin(2, dirty=True)
            yield from pool.fetch(3)  # 2 -> remote, 1 overflows to disk
            pool.unpin(3)

        run(env, work())
        assert disk.writes == 1
        assert 2 in pool.remote_extension
        assert 1 not in pool.remote_extension

    def test_flush_all_drains_remote(self):
        env, pool, disk = self.make(capacity_pages=4)

        def work():
            yield from pool.fetch(1)
            pool.unpin(1, dirty=True)
            yield from pool.fetch(2)  # 1 evicted dirty into remote
            pool.unpin(2)
            yield from pool.flush_all()

        run(env, work())
        assert len(pool.remote_extension) == 0
        assert disk.writes == 1
