"""Unit tests for CPU and disk hardware models."""

import pytest

from repro.hardware import Cpu, Disk, HDD_SPEC, SSD_SPEC, specs
from repro.sim import Environment


def run(env, gen):
    return env.run(until=env.process(gen))


def test_cpu_requires_cores():
    env = Environment()
    with pytest.raises(ValueError):
        Cpu(env, cores=0)


def test_cpu_execute_takes_time():
    env = Environment()
    cpu = Cpu(env, cores=2)

    def work():
        yield from cpu.execute(0.5)

    run(env, work())
    assert env.now == pytest.approx(0.5)


def test_cpu_zero_work_is_free():
    env = Environment()
    cpu = Cpu(env, cores=1)

    def work():
        yield from cpu.execute(0.0)
        yield env.timeout(0)

    run(env, work())
    assert env.now == 0


def test_cpu_negative_work_rejected():
    env = Environment()
    cpu = Cpu(env, cores=1)

    def work():
        yield from cpu.execute(-1)

    with pytest.raises(ValueError):
        run(env, work())


def test_cpu_cores_limit_parallelism():
    env = Environment()
    cpu = Cpu(env, cores=2)
    done = []

    def work(tag):
        yield from cpu.execute(1.0)
        done.append((tag, env.now))

    for tag in range(4):
        env.process(work(tag))
    env.run()
    # Two run in parallel, then the next two.
    assert [t for _tag, t in done] == pytest.approx([1, 1, 2, 2])


def test_cpu_utilization_tracked():
    env = Environment()
    cpu = Cpu(env, cores=2)

    def work():
        yield from cpu.execute(3.0)

    env.process(work())
    env.run(until=4.0)
    assert cpu.tracker.integral(4.0) == pytest.approx(3.0)


def test_hdd_random_page_read_cost():
    env = Environment()
    disk = Disk(env, HDD_SPEC)

    def io():
        yield from disk.read_page()

    run(env, io())
    expected = specs.HDD_ACCESS_SECONDS + specs.PAGE_BYTES / specs.HDD_BANDWIDTH_BYTES_PER_S
    assert env.now == pytest.approx(expected)
    assert disk.reads == 1
    assert disk.bytes_read == specs.PAGE_BYTES


def test_ssd_is_much_faster_than_hdd_for_random_io():
    env = Environment()
    hdd = Disk(env, HDD_SPEC)
    ssd = Disk(env, SSD_SPEC)
    times = {}

    def io(disk, tag):
        start = env.now
        yield from disk.read_page()
        times[tag] = env.now - start

    env.process(io(hdd, "hdd"))
    env.process(io(ssd, "ssd"))
    env.run()
    assert times["hdd"] > 20 * times["ssd"]


def test_sequential_read_skips_access_penalty():
    env = Environment()
    disk = Disk(env, HDD_SPEC)

    def io():
        yield from disk.read(1024 * 1024, sequential=True)

    run(env, io())
    assert env.now == pytest.approx(1024 * 1024 / specs.HDD_BANDWIDTH_BYTES_PER_S)


def test_segment_read_is_near_raw_bandwidth():
    """A whole 32 MiB segment reads at nearly sequential speed — the
    property that makes physical/physiological migration fast."""
    env = Environment()
    disk = Disk(env, HDD_SPEC)

    def io():
        yield from disk.read(specs.SEGMENT_BYTES, sequential=False)

    run(env, io())
    raw = specs.SEGMENT_BYTES / specs.HDD_BANDWIDTH_BYTES_PER_S
    assert env.now == pytest.approx(raw + specs.HDD_ACCESS_SECONDS)
    assert env.now < raw * 1.05


def test_disk_serialises_requests():
    env = Environment()
    disk = Disk(env, SSD_SPEC)
    finishes = []

    def io(tag):
        yield from disk.read_page()
        finishes.append(env.now)

    env.process(io(0))
    env.process(io(1))
    env.run()
    one = specs.SSD_ACCESS_SECONDS + specs.PAGE_BYTES / specs.SSD_BANDWIDTH_BYTES_PER_S
    assert finishes == pytest.approx([one, 2 * one])


def test_disk_write_counters():
    env = Environment()
    disk = Disk(env, SSD_SPEC)

    def io():
        yield from disk.write_page()
        yield from disk.write(100, sequential=True)

    run(env, io())
    assert disk.writes == 2
    assert disk.bytes_written == specs.PAGE_BYTES + 100
    assert disk.io_count == 2


def test_disk_negative_io_rejected():
    env = Environment()
    disk = Disk(env, SSD_SPEC)

    def io():
        yield from disk.read(-5)

    with pytest.raises(ValueError):
        run(env, io())
