"""Bench: simulation-kernel fast paths.

Micro-benchmarks over the discrete-event kernel itself — no WattDB
model code, just the machinery every experiment burns time in: the
event heap vs. the zero-delay FIFO, resource request/release,
store put/get, and the buffer pool's latch + LRU bookkeeping.

CI re-runs this file and fails on a >25% regression vs. the committed
``benchmarks/baselines/bench_kernel_after.json``
(scripts/check_bench_regression.py).

Every scenario ends with an assertion on the simulated clock and the
model-visible counters, so a fast path that changed virtual-time
behaviour would fail here before it ever reached the figures.
"""

import pytest

from repro.hardware.cpu import Cpu
from repro.metrics.breakdown import CostBreakdown
from repro.sim.engine import Environment
from repro.sim.resources import Resource, Store
from repro.storage.buffer import BufferPool
from repro.storage.checksum import checksum_of, verify
from repro.storage.record import Column, RecordVersion, Schema


# -- scenario bodies --------------------------------------------------------

def timeout_heap_churn(procs: int = 200, steps: int = 120) -> float:
    """Delayed timeouts only: the heap path, with distinct deadlines."""
    env = Environment()

    def ticker(i):
        delay = 0.001 + (i % 17) * 0.0005
        for _ in range(steps):
            yield env.timeout(delay)

    for i in range(procs):
        env.process(ticker(i))
    env.run()
    return env.now


def zero_delay_cascade(chains: int = 60, depth: int = 400) -> int:
    """Event.succeed chains: every hop is a zero-delay wakeup."""
    env = Environment()
    hops = 0

    def relay(signal, remaining):
        nonlocal hops
        while remaining:
            value = yield signal
            hops += 1
            remaining -= 1
            signal = env.event()
            if remaining:
                signal.succeed(value + 1)

    for _ in range(chains):
        first = env.event()
        env.process(relay(first, depth))
        first.succeed(0)
    env.run()
    return hops


def uncontended_resources(resources: int = 40, rounds: int = 250) -> int:
    """Each process owns its resource: every grant is uncontended."""
    env = Environment()
    grants = 0

    def worker(res):
        nonlocal grants
        for _ in range(rounds):
            yield from res.serve(0.0001)
            grants += 1

    for i in range(resources):
        env.process(worker(Resource(env, capacity=2, name=f"r{i}")))
    env.run()
    return grants


def contended_resource(procs: int = 80, rounds: int = 60) -> float:
    """A single-unit resource with a deep queue: the dispatch path."""
    env = Environment()
    res = Resource(env, capacity=1, name="hot")

    def worker():
        for _ in range(rounds):
            yield from res.serve(0.0001)

    for _ in range(procs):
        env.process(worker())
    env.run()
    return env.now


def cancelled_requests(procs: int = 120, rounds: int = 40) -> int:
    """Queue on a held resource, then give up before the grant."""
    env = Environment()
    res = Resource(env, capacity=1, name="held")
    cancelled = 0

    def holder():
        req = res.request()
        yield req
        yield env.timeout(procs * rounds)
        res.release(req)

    def quitter():
        nonlocal cancelled
        for _ in range(rounds):
            req = res.request()
            yield env.timeout(0.001)
            res.release(req)          # never granted: cancels in queue
            cancelled += 1

    env.process(holder())
    for _ in range(procs):
        env.process(quitter())
    env.run()
    return cancelled


def store_pingpong(pairs: int = 40, items: int = 300) -> int:
    """Producer/consumer mailboxes: put/get event flow."""
    env = Environment()
    moved = 0

    def producer(store):
        for i in range(items):
            yield store.put(i)

    def consumer(store):
        nonlocal moved
        for _ in range(items):
            yield store.get()
            moved += 1

    for _ in range(pairs):
        store = Store(env, capacity=8)
        env.process(producer(store))
        env.process(consumer(store))
    env.run()
    return moved


class _StubIO:
    """Minimal PageIO: a fixed-latency disk with no queueing model."""

    def __init__(self, env):
        self.env = env
        self.reads = 0
        self.writes = 0

    def read(self, breakdown):
        self.reads += 1
        yield self.env.timeout(0.002)

    def write(self, breakdown):
        self.writes += 1
        yield self.env.timeout(0.003)


def buffer_pool_traffic(clients: int = 24, fetches: int = 200,
                        capacity: int = 64, pages: int = 256) -> tuple:
    """Zipf-ish page traffic: latch grants, hits, misses, evictions."""
    env = Environment()
    cpu = Cpu(env, cores=4)
    io = _StubIO(env)
    pool = BufferPool(env, cpu, capacity_pages=capacity,
                      resolver=lambda page_id: io, name="bench")

    def client(i):
        breakdown = CostBreakdown()
        for n in range(fetches):
            # Deterministic skew: most traffic on a hot sixth of pages.
            if (i + n) % 3:
                page_id = (i * 7 + n * 13) % (pages // 6)
            else:
                page_id = (i * 31 + n * 17) % pages
            yield from pool.fetch(page_id, breakdown)
            pool.unpin(page_id, dirty=(n % 5 == 0))
            yield env.timeout(0.0001)

    for i in range(clients):
        env.process(client(i), name=f"client-{i}")
    env.run()
    return env.now, pool.hits, pool.misses, pool.evictions


def kernel_mix() -> tuple:
    """All of the above in one environment, as one composite number."""
    env = Environment()
    cpu = Cpu(env, cores=2)
    io = _StubIO(env)
    pool = BufferPool(env, cpu, capacity_pages=32,
                      resolver=lambda page_id: io, name="mix")
    res = Resource(env, capacity=2, name="mix-res")
    store = Store(env, capacity=4)
    done = {"store": 0}

    def buffer_client(i):
        for n in range(120):
            page_id = (i * 11 + n) % 96
            yield from pool.fetch(page_id)
            pool.unpin(page_id, dirty=(n % 7 == 0))
            yield from res.serve(0.0002)

    def producer():
        for i in range(400):
            yield store.put(i)
            yield env.timeout(0.0005)

    def consumer():
        for _ in range(400):
            yield store.get()
            done["store"] += 1

    for i in range(12):
        env.process(buffer_client(i))
    env.process(producer())
    env.process(consumer())
    env.run()
    return env.now, pool.hits, pool.misses, done["store"]


def checksum_codec(rows: int = 20_000):
    """CRC32 stamp + verify over representative row payloads — the
    per-access overhead the integrity layer adds to every page read,
    WAL append, and replica ship."""
    schema = Schema(
        [Column("id"), Column("a", "str", width=24),
         Column("b", "str", width=24), Column("n")],
        key=("id",),
    )
    versions = []
    for i in range(rows):
        version = RecordVersion.make(
            schema, (i, f"payload-{i:08d}", f"filler-{i % 97:08d}", i * 7),
            created_by=1,
        )
        versions.append(version)
    checked = 0
    for version in versions:
        version.clean = False          # force a real verification
        version.verify(where="bench")
        checked += 1
    total = 0
    for version in versions:
        payload = ("t", version.key, version.values)
        total ^= checksum_of(payload)
        verify(payload, checksum_of(payload), where="bench")
    return checked, total


# -- benches ---------------------------------------------------------------

def _bench(benchmark, fn, *args):
    return benchmark.pedantic(fn, args=args, rounds=3, iterations=1,
                              warmup_rounds=1)


def test_kernel_timeout_heap_churn(benchmark):
    end = _bench(benchmark, timeout_heap_churn)
    assert end == pytest.approx(1.08, rel=0.5)


def test_kernel_zero_delay_cascade(benchmark):
    hops = _bench(benchmark, zero_delay_cascade)
    assert hops == 60 * 400


def test_kernel_uncontended_resources(benchmark):
    grants = _bench(benchmark, uncontended_resources)
    assert grants == 40 * 250


def test_kernel_contended_resource(benchmark):
    end = _bench(benchmark, contended_resource)
    assert end == pytest.approx(80 * 60 * 0.0001, rel=1e-6)


def test_kernel_cancelled_requests(benchmark):
    cancelled = _bench(benchmark, cancelled_requests)
    assert cancelled == 120 * 40


def test_kernel_store_pingpong(benchmark):
    moved = _bench(benchmark, store_pingpong)
    assert moved == 40 * 300


def test_kernel_buffer_pool_traffic(benchmark):
    end, hits, misses, evictions = _bench(benchmark, buffer_pool_traffic)
    assert hits + misses == 24 * 200
    assert misses > 0 and evictions > 0
    assert end > 0


def test_kernel_checksum_codec(benchmark):
    checked, total = _bench(benchmark, checksum_codec)
    assert checked == 20_000
    assert isinstance(total, int)


def test_kernel_mix(benchmark):
    end, hits, misses, moved = _bench(benchmark, kernel_mix)
    assert moved == 400
    assert hits + misses == 12 * 120
    assert end > 0
