"""MGL-RX lock-manager tests."""

import pytest

from repro.metrics import CostBreakdown
from repro.sim import Environment
from repro.txn import LockManager, LockMode, LockTimeoutError
from repro.txn.locks import compatible, supremum


class TestMatrix:
    def test_shared_modes_compatible(self):
        assert compatible(LockMode.S, LockMode.S)
        assert compatible(LockMode.IS, LockMode.IX)
        assert compatible(LockMode.IX, LockMode.IX)

    def test_exclusive_blocks_everything(self):
        for mode in LockMode:
            assert not compatible(LockMode.X, mode)
            assert not compatible(mode, LockMode.X)

    def test_six_semantics(self):
        assert compatible(LockMode.SIX, LockMode.IS)
        assert not compatible(LockMode.SIX, LockMode.IX)
        assert not compatible(LockMode.SIX, LockMode.S)

    def test_supremum(self):
        assert supremum(LockMode.S, LockMode.S) is LockMode.S
        assert supremum(LockMode.S, LockMode.IX) is LockMode.SIX
        assert supremum(LockMode.IS, LockMode.X) is LockMode.X


def run(env, gen):
    return env.run(until=env.process(gen))


def test_immediate_grant():
    env = Environment()
    lm = LockManager(env)

    def work():
        yield from lm.acquire(1, "r", LockMode.S)

    run(env, work())
    assert lm.mode_held(1, "r") is LockMode.S


def test_compatible_concurrent_grants():
    env = Environment()
    lm = LockManager(env)

    def work(txn):
        yield from lm.acquire(txn, "r", LockMode.S)

    env.process(work(1))
    env.process(work(2))
    env.run()
    assert lm.holders("r") == {1: LockMode.S, 2: LockMode.S}


def test_exclusive_waits_for_release():
    env = Environment()
    lm = LockManager(env)
    order = []

    def reader():
        yield from lm.acquire(1, "r", LockMode.S)
        yield env.timeout(5)
        lm.release(1, "r")
        order.append(("released", env.now))

    def writer():
        yield env.timeout(1)
        yield from lm.acquire(2, "r", LockMode.X)
        order.append(("granted", env.now))

    env.process(reader())
    env.process(writer())
    env.run()
    assert order == [("released", 5), ("granted", 5)]


def test_lock_wait_recorded_in_breakdown():
    env = Environment()
    lm = LockManager(env)
    breakdown = CostBreakdown()

    def holder():
        yield from lm.acquire(1, "r", LockMode.X)
        yield env.timeout(3)
        lm.release_all(1)

    def waiter():
        yield env.timeout(1)
        yield from lm.acquire(2, "r", LockMode.S, breakdown=breakdown)

    env.process(holder())
    env.process(waiter())
    env.run()
    assert breakdown.locking == pytest.approx(2.0)


def test_fifo_no_starvation():
    """A queued X is not starved by a stream of later S requests."""
    env = Environment()
    lm = LockManager(env)
    order = []

    def first_reader():
        yield from lm.acquire(1, "r", LockMode.S)
        yield env.timeout(2)
        lm.release_all(1)

    def writer():
        yield env.timeout(0.5)
        yield from lm.acquire(2, "r", LockMode.X)
        order.append("writer")
        lm.release_all(2)

    def late_reader():
        yield env.timeout(1)
        yield from lm.acquire(3, "r", LockMode.S)
        order.append("late_reader")
        lm.release_all(3)

    env.process(first_reader())
    env.process(writer())
    env.process(late_reader())
    env.run()
    assert order == ["writer", "late_reader"]


def test_reentrant_same_mode_is_noop():
    env = Environment()
    lm = LockManager(env)

    def work():
        yield from lm.acquire(1, "r", LockMode.S)
        yield from lm.acquire(1, "r", LockMode.S)

    run(env, work())
    assert lm.mode_held(1, "r") is LockMode.S


def test_upgrade_s_to_x_when_alone():
    env = Environment()
    lm = LockManager(env)

    def work():
        yield from lm.acquire(1, "r", LockMode.S)
        yield from lm.acquire(1, "r", LockMode.X)

    run(env, work())
    assert lm.mode_held(1, "r") is LockMode.X


def test_upgrade_waits_for_other_readers():
    env = Environment()
    lm = LockManager(env)
    events = []

    def other_reader():
        yield from lm.acquire(2, "r", LockMode.S)
        yield env.timeout(4)
        lm.release_all(2)

    def upgrader():
        yield from lm.acquire(1, "r", LockMode.S)
        yield env.timeout(1)
        yield from lm.acquire(1, "r", LockMode.X)
        events.append(("upgraded", env.now))

    env.process(other_reader())
    env.process(upgrader())
    env.run()
    assert events == [("upgraded", 4)]


def test_timeout_raises_and_cleans_queue():
    env = Environment()
    lm = LockManager(env, default_timeout=2.0)
    failures = []

    def holder():
        yield from lm.acquire(1, "r", LockMode.X)
        yield env.timeout(100)
        lm.release_all(1)

    def waiter():
        try:
            yield from lm.acquire(2, "r", LockMode.S)
        except LockTimeoutError:
            failures.append(env.now)

    def patient():
        yield from lm.acquire(3, "r", LockMode.S, timeout=1000.0)
        granted.append(env.now)

    granted = []
    env.process(holder())
    env.process(waiter())
    env.process(patient())
    env.run()
    assert failures == [pytest.approx(2.0)]
    assert lm.timeout_count == 1
    # The holder's release granted the waiter queued behind the
    # timed-out one.
    assert granted == [pytest.approx(100.0)]
    assert lm.holders("r") == {3: LockMode.S}
    assert lm.queue_length("r") == 0


def test_release_all():
    env = Environment()
    lm = LockManager(env)

    def work():
        yield from lm.acquire(1, "a", LockMode.S)
        yield from lm.acquire(1, "b", LockMode.X)

    run(env, work())
    lm.release_all(1)
    assert lm.holders("a") == {}
    assert lm.holders("b") == {}
    lm.release_all(1)  # idempotent


def test_release_unheld_raises():
    env = Environment()
    lm = LockManager(env)
    with pytest.raises(KeyError):
        lm.release(1, "r")


def test_hierarchical_record_lock():
    env = Environment()
    lm = LockManager(env)

    def work():
        yield from lm.lock_record(1, "orders", 10, key=5, mode=LockMode.X)

    run(env, work())
    assert lm.mode_held(1, ("table", "orders")) is LockMode.IX
    assert lm.mode_held(1, ("partition", 10)) is LockMode.IX
    assert lm.mode_held(1, ("record", 10, 5)) is LockMode.X


def test_record_lock_mode_validation():
    env = Environment()
    lm = LockManager(env)

    def work():
        yield from lm.lock_record(1, "t", 1, key=1, mode=LockMode.IS)

    with pytest.raises(ValueError):
        run(env, work())


def test_partition_x_blocks_record_readers():
    """The migration pattern: partition-level X vs record-level S."""
    env = Environment()
    lm = LockManager(env)
    log = []

    def mover():
        yield from lm.lock_partition(1, "t", 10, LockMode.X)
        yield env.timeout(5)
        lm.release_all(1)

    def reader():
        yield env.timeout(1)
        yield from lm.lock_record(2, "t", 10, key=3, mode=LockMode.S)
        log.append(env.now)
        lm.release_all(2)

    env.process(mover())
    env.process(reader())
    env.run()
    assert log == [5]


def test_partition_s_drains_writers_but_admits_readers():
    """Physiological migration takes a partition read lock: writers
    must finish, readers keep flowing (paper Sect. 4.3)."""
    env = Environment()
    lm = LockManager(env)
    log = []

    def writer():
        yield from lm.lock_record(1, "t", 10, key=3, mode=LockMode.X)
        yield env.timeout(4)
        lm.release_all(1)
        log.append(("writer-done", env.now))

    def mover():
        yield env.timeout(1)
        yield from lm.lock_partition(2, "t", 10, LockMode.S)
        log.append(("move-lock", env.now))
        lm.release_all(2)

    def reader():
        yield env.timeout(2)
        yield from lm.lock_record(3, "t", 10, key=5, mode=LockMode.S)
        log.append(("reader", env.now))
        lm.release_all(3)

    env.process(writer())
    env.process(mover())
    env.process(reader())
    env.run()
    assert ("reader", 2) in log          # readers not blocked
    assert ("move-lock", 4) in log       # mover waited for the writer
