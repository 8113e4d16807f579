"""Property-based buffer-pool tests: random operation sequences against
a reference model of residency and write-back behaviour."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import Cpu, Disk, SSD_SPEC
from repro.sim import Environment
from repro.storage import BufferPool


class CountingIO:
    def __init__(self, env, disk):
        self.env = env
        self.disk = disk
        self.reads = {}
        self.writes = {}

    def io_for(self, page_id):
        outer = self

        class _IO:
            def read(self, breakdown):
                outer.reads[page_id] = outer.reads.get(page_id, 0) + 1
                yield from outer.disk.read_page()

            def write(self, breakdown):
                outer.writes[page_id] = outer.writes.get(page_id, 0) + 1
                yield from outer.disk.write_page()

        return _IO()


@settings(max_examples=30, deadline=None)
@given(
    capacity=st.integers(min_value=2, max_value=6),
    ops=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=12),   # page id
            st.booleans(),                            # dirty on unpin
        ),
        min_size=1, max_size=60,
    ),
)
def test_property_buffer_pool_invariants(capacity, ops):
    env = Environment()
    cpu = Cpu(env, 2)
    disk = Disk(env, SSD_SPEC)
    counter = CountingIO(env, disk)
    pool = BufferPool(env, cpu, capacity, resolver=counter.io_for)

    dirtied: set[int] = set()

    def driver():
        for page_id, dirty in ops:
            yield from pool.fetch(page_id)
            pool.unpin(page_id, dirty=dirty)
            if dirty:
                dirtied.add(page_id)

    env.run(until=env.process(driver()))

    # Residency never exceeds capacity.
    assert pool.resident_pages <= capacity
    # Every distinct page was read from disk at least once, and a page
    # is re-read only after an eviction.
    distinct = {p for p, _d in ops}
    assert set(counter.reads) == distinct
    total_reads = sum(counter.reads.values())
    assert total_reads == pool.misses
    assert pool.misses <= len(ops)
    assert pool.hits + pool.misses == len(ops)
    # Only pages that were ever dirty can have been written back.
    assert set(counter.writes) <= dirtied
    # Flush-all then: every remaining dirty frame reaches disk.
    def flusher():
        yield from pool.flush_all()

    env.run(until=env.process(flusher()))
    # After the final flush no dirty data exists anywhere but disk:
    # writing again flushes nothing.
    writes_before = dict(counter.writes)

    def flusher2():
        yield from pool.flush_all()

    env.run(until=env.process(flusher2()))
    assert counter.writes == writes_before


@settings(max_examples=20, deadline=None)
@given(
    seeds=st.integers(min_value=0, max_value=10_000),
    clients=st.integers(min_value=2, max_value=6),
)
def test_property_concurrent_fetchers_consistent_counts(seeds, clients):
    """N concurrent processes hammering a small pool: accounting stays
    consistent and nothing deadlocks."""
    import random

    rng = random.Random(seeds)
    env = Environment()
    cpu = Cpu(env, 2)
    disk = Disk(env, SSD_SPEC)
    counter = CountingIO(env, disk)
    # Capacity >= client count: every client may pin one page at once.
    capacity = clients + 2
    pool = BufferPool(env, cpu, capacity, resolver=counter.io_for)
    total_ops = [0]

    def client():
        for _ in range(10):
            page_id = rng.randint(1, 12)
            yield from pool.fetch(page_id)
            yield env.timeout(rng.random() * 0.01)
            pool.unpin(page_id, dirty=rng.random() < 0.3)
            total_ops[0] += 1

    procs = [env.process(client()) for _ in range(clients)]
    for proc in procs:
        env.run(until=proc)
    assert total_ops[0] == clients * 10
    # A fetch that finds a reserved in-flight frame counts as a hit, so
    # hits + misses == total fetches either way.
    assert pool.hits + pool.misses == total_ops[0]
    assert pool.resident_pages <= capacity
    # No frame left pinned.
    assert all(f.pins == 0 for f in pool._frames.values())
