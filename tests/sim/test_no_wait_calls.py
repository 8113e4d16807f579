"""A step that cannot wait is a call that returns ``DONE``.

Every helper below does its work inline and returns
:data:`repro.sim.DONE` when nothing has to wait, and otherwise returns
an iterator that finishes the step.  Each case runs its step in a
process resumed by a heap event twice: *alone* (nothing can pre-empt
it, so the step is a call) and *crowded* (a second callback on the
delivering event, so every hold is a timeout and the step takes its
waiting branch).  Both runs must leave the same clock, tracker
integrals, grant counts, ``resource_fast_grants`` and
``events_processed``; an inline hold stands for exactly the timeout the
crowded run puts on the heap.
"""

import inspect

import pytest
from hypothesis import given, settings, strategies as st

from repro import Cluster, Column, Environment, Schema
from repro.cluster.master import MasterNode, NodeDownError, RoutedMissError
from repro.cluster.worker import WorkerNode
from repro.engine import ExecContext, Operator
from repro.hardware import specs
from repro.hardware.cpu import Cpu
from repro.hardware.disk import SSD_SPEC, Disk
from repro.hardware.network import Network
from repro.sim import DONE, Resource
from repro.storage.buffer import BufferPool
from repro.txn.locks import LockManager, LockMode, LockTimeoutError

HELPERS = [
    Environment.hold, Resource.serve, Cpu.execute, Network.rpc_delay,
    Disk.read, Disk.write, Disk.read_page, Disk.write_page,
    LockManager.acquire, LockManager.lock_record, LockManager.lock_partition,
    BufferPool.fetch, WorkerNode.fetch_page, WorkerNode._dirty_page,
    WorkerNode._announce_write, WorkerNode._maintain_secondary,
    MasterNode._hop, MasterNode.plan,
]


@pytest.mark.parametrize("helper", HELPERS, ids=lambda f: f.__qualname__)
def test_helper_is_a_call_not_a_generator_function(helper):
    assert not inspect.isgeneratorfunction(helper)


def _probe(env, make_step, crowded):
    """Run ``make_step()`` in a process resumed by a one-second timeout
    and return whether the step came back ``DONE``."""
    seen = {}

    def body():
        wake = env.timeout(1.0)
        if crowded:
            wake.callbacks.append(lambda _event: None)
        yield wake
        step = make_step()
        seen["done"] = step is DONE
        yield from step

    env.run(until=env.process(body()))
    return seen["done"]


def _counts(env, resources):
    counts = {
        "now": env.now,
        "events_processed": env.events_processed,
        "resource_fast_grants": env.resource_fast_grants,
        "holds": env.inline_holds + env.heap_scheduled,
    }
    for name, resource in resources.items():
        counts[f"{name}.integral"] = resource.tracker.integral()
        counts[f"{name}.grants"] = resource.grant_count
        counts[f"{name}.in_use"] = resource.in_use
    return counts


def _run_both(build):
    """``build(env)`` -> (make_step, {name: Resource}, extra counts)."""
    out = []
    for crowded in (False, True):
        env = Environment()
        make_step, resources, extra = build(env)
        done = _probe(env, make_step, crowded)
        out.append((done, env.inline_holds,
                    {**_counts(env, resources), **extra()}))
    (alone_done, alone_inline, alone), (crowded_done, crowded_inline,
                                        crowded) = out
    assert alone_done and not crowded_done
    assert alone_inline > crowded_inline
    assert alone == crowded


def _hold(env):
    return lambda: env.hold(0.5), {}, dict


def _serve(env):
    resource = Resource(env, capacity=2)
    return lambda: resource.serve(0.5), {"unit": resource}, dict


def _execute(env):
    cpu = Cpu(env, cores=2)
    return lambda: cpu.execute(0.5), {"cpu": cpu._resource}, dict


def _rpc(env):
    return Network(env).rpc_delay, {}, dict


def _disk(method, *args):
    def build(env):
        disk = Disk(env, SSD_SPEC)

        def extra():
            return {"ios": (disk.reads, disk.writes, disk.bytes_read,
                            disk.bytes_written)}

        return (lambda: getattr(disk, method)(*args),
                {"disk": disk._resource}, extra)
    return build


@pytest.mark.parametrize("build", [
    _hold, _serve, _execute, _rpc,
    _disk("read", 8192), _disk("write", 8192, True),
    _disk("read_page"), _disk("write_page"),
], ids=["hold", "serve", "execute", "rpc_delay", "disk.read", "disk.write",
        "disk.read_page", "disk.write_page"])
def test_free_unit_step_is_done_and_counts_as_its_waiting_branch(build):
    _run_both(build)


def test_a_done_step_is_not_a_process_target():
    env = Environment()
    with pytest.raises(TypeError, match="must be a generator"):
        env.process(DONE)


def test_zero_cpu_time_is_done_even_when_crowded():
    env = Environment()
    cpu = Cpu(env, cores=1)
    assert _probe(env, lambda: cpu.execute(0.0), crowded=True)
    assert cpu._resource.grant_count == 0
    with pytest.raises(ValueError, match="negative cpu time"):
        cpu.execute(-1.0)


def test_failed_disk_raises_before_any_time_passes():
    env = Environment()
    disk = Disk(env, SSD_SPEC)
    disk.fail()
    with pytest.raises(Exception, match="has failed"):
        disk.read_page()
    assert env.now == 0.0 and disk._resource.grant_count == 0


def test_disk_counts_an_io_when_it_completes():
    env = Environment()
    disk = Disk(env, SSD_SPEC)
    seen = []

    def reader():
        yield from disk.read_page()

    env.process(reader())
    env.process(reader())   # the second queues behind the first
    env.timeout(SSD_SPEC.access_seconds / 2).callbacks.append(
        lambda _e: seen.append(disk.reads))
    env.run()
    assert seen == [0]
    assert disk.reads == 2 and disk.bytes_read == 2 * specs.PAGE_BYTES


def test_busy_unit_queues_behind_the_holder():
    env = Environment()
    resource = Resource(env, capacity=1)
    finished = []

    def user(tag):
        yield from resource.serve(1.0)
        finished.append((tag, env.now))

    env.process(user("a"))
    env.process(user("b"))
    env.run()
    assert finished == [("a", 1.0), ("b", 2.0)]
    assert resource.grant_count == 2 and resource.in_use == 0
    assert resource.tracker.integral() == 2.0


# -- locks -------------------------------------------------------------------

def test_free_or_held_lock_is_done_and_contended_one_times_out():
    env = Environment()
    locks = LockManager(env, default_timeout=2.0)
    assert locks.acquire(1, "r", LockMode.S) is DONE
    assert locks.acquire(1, "r", LockMode.S) is DONE   # already held
    assert locks.lock_record(1, "t", 7, 42, LockMode.X) is DONE
    assert locks.lock_partition(2, "t", 8, LockMode.S) is DONE
    outcome = {}

    def contender():
        try:
            yield from locks.lock_record(2, "t", 7, 42, LockMode.S)
        except LockTimeoutError as exc:
            outcome["error"] = exc
        outcome["at"] = env.now

    env.run(until=env.process(contender()))
    assert isinstance(outcome["error"], LockTimeoutError)
    assert outcome["at"] == 2.0
    assert locks.wait_count == 1 and locks.timeout_count == 1
    assert locks.queue_length(("record", 7, 42)) == 0
    # The levels granted before the wait stay granted.
    assert locks.mode_held(2, ("partition", 7)) is LockMode.IS


def test_contended_lock_waits_for_the_release():
    env = Environment()
    locks = LockManager(env, default_timeout=5.0)
    assert locks.acquire(1, "r", LockMode.X) is DONE
    granted = []

    def waiter():
        yield from locks.acquire(2, "r", LockMode.S)
        granted.append(env.now)

    env.process(waiter())
    env.timeout(1.5).callbacks.append(lambda _e: locks.release(1, "r"))
    env.run()
    assert granted == [1.5]
    assert locks.mode_held(2, "r") is LockMode.S and locks.timeout_count == 0


def test_levels_below_a_wait_are_taken_after_it():
    env = Environment()
    locks = LockManager(env, default_timeout=5.0)
    assert locks.lock_partition(1, "t", 7, LockMode.X) is DONE

    def reader():
        yield from locks.lock_record(2, "t", 7, 42, LockMode.S)

    env.process(reader())
    env.timeout(1.0).callbacks.append(
        lambda _e: locks.release(1, ("partition", 7)))
    env.run()
    assert locks.mode_held(2, ("partition", 7)) is LockMode.IS
    assert locks.mode_held(2, ("record", 7, 42)) is LockMode.S
    assert locks.wait_count == 1


# -- buffer hits ---------------------------------------------------------------

class _PageIO:
    def __init__(self, env):
        self.env = env

    def read(self, _breakdown):
        yield self.env.timeout(0.01)

    def write(self, _breakdown):
        yield self.env.timeout(0.01)


def _pool(env, cores=1):
    cpu = Cpu(env, cores=cores)
    pool = BufferPool(env, cpu, capacity_pages=4,
                      resolver=lambda _page_id: _PageIO(env))

    def load():
        yield from pool.fetch(7)
        pool.unpin(7)

    env.run(until=env.process(load()))
    return cpu, pool


def test_buffer_hit_is_done_and_counts_as_its_waiting_branch():
    def build(env):
        cpu, pool = _pool(env)

        def extra():
            return {"hits": pool.hits, "latched": dict(pool._latched),
                    "pinned": pool._frames[7].pins}

        return lambda: pool.fetch(7), {"cpu": cpu._resource}, extra

    _run_both(build)


def test_crash_in_a_waiting_buffer_hit_releases_the_latch():
    env = Environment()
    cpu, pool = _pool(env)
    # Outside run() nothing is inline: the hit's CPU charge is a timeout.
    step = pool.fetch(7)
    assert step is not DONE
    next(step)
    assert 7 in pool._latched and cpu.in_use == 1
    with pytest.raises(RuntimeError, match="node crashed"):
        step.throw(RuntimeError("node crashed"))
    assert 7 not in pool._latched and cpu.in_use == 0
    assert pool.hits == 1

    def again():
        yield from pool.fetch(7)

    env.run(until=env.process(again()))
    assert pool.hits == 2 and not pool._latched


def test_contended_latch_takes_the_waiting_path():
    env = Environment()
    cpu, pool = _pool(env, cores=2)
    done = []

    def reader(tag):
        yield from pool.fetch(7)
        done.append((tag, env.now))
        pool.unpin(7)

    env.process(reader("a"))
    env.process(reader("b"))
    env.run()
    assert pool.latch_contended == 1
    assert [tag for tag, _ in done] == ["a", "b"]
    assert not pool._latched


# -- worker and master ---------------------------------------------------------

def _cluster(env):
    cluster = Cluster(env, node_count=2, initially_active=2,
                      buffer_pages_per_node=64, segment_max_pages=16,
                      page_bytes=2048)
    schema = Schema([Column("id"), Column("v", "str", width=16)],
                    key=("id",))
    cluster.master.create_table("kv", schema, owner=cluster.workers[1])

    def load():
        txn = cluster.txns.begin()
        for i in range(8):
            yield from cluster.master.insert("kv", (i, "x"), txn)
        yield from cluster.txns.commit(txn)

    env.run(until=env.process(load()))
    worker = cluster.workers[1]
    partition = next(iter(worker.partitions.values()))
    return cluster, worker, partition


@pytest.mark.parametrize("which", ["fetch_page", "dirty_page", "announce",
                                   "secondary", "hop_visited", "hop_local",
                                   "plan"])
def test_worker_and_master_steps_are_done_when_nothing_waits(which):
    def build(env):
        cluster, worker, partition = _cluster(env)
        txn = cluster.txns.begin()
        txn.visited_nodes.add(worker.node_id)
        segment = partition.segment_for(3)
        page = segment.pages[0]
        master = cluster.master
        make_step = {
            "fetch_page": lambda: worker.fetch_page(page),
            "dirty_page": lambda: worker._dirty_page(segment, 0, txn),
            "announce": lambda: worker._announce_write(partition, txn),
            "secondary": lambda: worker._maintain_secondary(partition, ()),
            "hop_visited": lambda: master._hop(worker, txn),
            "hop_local": lambda: master._hop(master.worker, txn),
            "plan": master.plan,
        }[which]

        def extra():
            return {"hits": worker.buffer.hits,
                    "pins": worker.buffer._frames[page.page_id].pins,
                    "dirty": worker.buffer._frames[page.page_id].dirty,
                    "planned": master.queries_planned,
                    "locks": cluster.txns.locks.holders(
                        ("partition", partition.partition_id))}

        cpus = {f"cpu{w.node_id}": w.cpu._resource for w in cluster.workers}
        return make_step, cpus, extra

    if which in ("announce", "secondary", "hop_visited", "hop_local"):
        # No hold inside: DONE whether or not anything could pre-empt.
        for crowded in (False, True):
            env = Environment()
            make_step, _cpus, _extra = build(env)
            assert _probe(env, make_step, crowded)
        return
    _run_both(build)


def test_routed_op_resolves_its_partition_after_the_hop():
    """The enlisting hop comes before the partition lookup: a partition
    that leaves the worker during the hop is not read there."""
    env = Environment()
    cluster, worker, partition = _cluster(env)
    txn = cluster.txns.begin()
    result = {}

    def read():
        result["row"] = yield from cluster.master.read("kv", 3, txn)

    def strip():
        yield env.timeout(specs.NET_RPC_LATENCY_SECONDS / 2)
        worker.remove_partition(partition.partition_id)

    env.process(read())
    env.process(strip())
    env.run()
    assert result == {"row": None}


@pytest.mark.parametrize("down", [True, False])
def test_routed_miss_on_a_single_owner_names_why(down):
    env = Environment()
    cluster, worker, partition = _cluster(env)
    if down:
        worker.port.sever()
    else:
        worker.remove_partition(partition.partition_id)
    txn = cluster.txns.begin()

    def write():
        yield from cluster.master.update("kv", 3, (3, "y"), txn)

    error = NodeDownError if down else RoutedMissError
    with pytest.raises(error):
        env.run(until=env.process(write()))


# -- row sizing ----------------------------------------------------------------

_column = st.one_of(
    st.tuples(st.just("int"), st.just(0)),
    st.tuples(st.just("float"), st.just(0)),
    st.tuples(st.just("str"), st.integers(1, 40)),
    st.tuples(st.just("blob"), st.integers(1, 4000)),
)


@settings(max_examples=200, deadline=None)
@given(kinds=st.lists(_column, min_size=1, max_size=8), data=st.data())
def test_compiled_sizeof_equals_the_column_sum(kinds, data):
    columns = [Column(f"c{i}", kind, width)
               for i, (kind, width) in enumerate(kinds)]
    schema = Schema(columns, key=("c0",))
    values = tuple(
        data.draw(st.text(max_size=60)) if c.kind == "str"
        else data.draw(st.integers()) if c.kind == "int"
        else data.draw(st.floats(allow_nan=False)) if c.kind == "float"
        else "" for c in columns
    )
    expected = sum(c.sizeof(v) for c, v in zip(columns, values))
    assert schema.sizeof(values) == expected
    assert schema.sizeof(list(values)) == expected
    with pytest.raises(ValueError, match="schema has"):
        schema.sizeof(values + (0,))
    # An operator sizes a vector of projected rows by the same plan.
    kept = data.draw(st.lists(st.sampled_from(range(len(columns))),
                              unique=True))
    projected = tuple(values[i] for i in kept)
    operator = Operator(ExecContext(env=None), [columns[i] for i in kept])
    expected = sum(columns[i].sizeof(values[i]) for i in kept)
    assert operator.vector_bytes([projected]) == expected
    assert operator.vector_bytes([projected, projected]) == 2 * expected
