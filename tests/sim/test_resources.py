"""Unit tests for Resource, Store, and utilisation tracking."""

import pytest

from repro.sim import Environment, Resource, Store


def test_resource_capacity_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_single_unit_resource_serialises_access():
    env = Environment()
    res = Resource(env, capacity=1)
    spans = []

    def user(tag):
        req = res.request()
        yield req
        start = env.now
        yield env.timeout(10)
        res.release(req)
        spans.append((tag, start, env.now))

    env.process(user("a"))
    env.process(user("b"))
    env.run()
    assert spans == [("a", 0, 10), ("b", 10, 20)]


def test_multi_unit_resource_allows_parallelism():
    env = Environment()
    res = Resource(env, capacity=2)
    finishes = []

    def user(tag):
        yield from res.serve(10)
        finishes.append((tag, env.now))

    for tag in range(4):
        env.process(user(tag))
    env.run()
    assert finishes == [(0, 10), (1, 10), (2, 20), (3, 20)]


def test_release_is_idempotent():
    env = Environment()
    res = Resource(env, capacity=1)

    def proc():
        req = res.request()
        yield req
        res.release(req)
        res.release(req)

    env.process(proc())
    env.run()
    assert res.in_use == 0


def test_cancel_queued_request():
    env = Environment()
    res = Resource(env, capacity=1)
    served = []

    def holder():
        yield from res.serve(10)

    def impatient():
        yield env.timeout(1)
        req = res.request()
        # Give up without ever being granted.
        res.release(req)
        yield env.timeout(0)

    def patient():
        yield env.timeout(2)
        yield from res.serve(1)
        served.append(env.now)

    env.process(holder())
    env.process(impatient())
    env.process(patient())
    env.run()
    assert served == [11]


def test_request_context_manager_releases():
    env = Environment()
    res = Resource(env, capacity=1)
    done = []

    def proc():
        with res.request() as req:
            yield req
            yield env.timeout(3)
        done.append(env.now)

    env.process(proc())
    env.run()
    assert done == [3]
    assert res.in_use == 0


def test_utilization_integral_tracks_busy_time():
    env = Environment()
    res = Resource(env, capacity=1)

    def user():
        yield env.timeout(5)
        yield from res.serve(10)

    env.process(user())
    env.run(until=20)
    # Busy from t=5 to t=15 -> 10 busy unit-seconds.
    assert res.tracker.integral(20) == pytest.approx(10.0)


def test_grant_count():
    env = Environment()
    res = Resource(env, capacity=1)

    def user():
        yield from res.serve(1)

    for _ in range(7):
        env.process(user())
    env.run()
    assert res.grant_count == 7


def test_store_fifo_order():
    env = Environment()
    store = Store(env)
    got = []

    def producer():
        for i in range(3):
            yield store.put(i)
            yield env.timeout(1)

    def consumer():
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    env.process(producer())
    env.process(consumer())
    env.run()
    assert got == [0, 1, 2]


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)
    got = []

    def consumer():
        item = yield store.get()
        got.append((env.now, item))

    def producer():
        yield env.timeout(9)
        yield store.put("late")

    env.process(consumer())
    env.process(producer())
    env.run()
    assert got == [(9, "late")]


def test_store_bounded_capacity_blocks_put():
    env = Environment()
    store = Store(env, capacity=1)
    times = []

    def producer():
        yield store.put("a")
        times.append(("put-a", env.now))
        yield store.put("b")
        times.append(("put-b", env.now))

    def consumer():
        yield env.timeout(5)
        item = yield store.get()
        times.append((f"got-{item}", env.now))

    env.process(producer())
    env.process(consumer())
    env.run()
    assert ("put-a", 0) in times
    assert ("put-b", 5) in times


def test_store_invalid_capacity():
    env = Environment()
    with pytest.raises(ValueError):
        Store(env, capacity=0)


def test_store_refill_chain_preserves_fifo_order():
    """A get that frees room must admit blocked puts *in arrival order*,
    and each refilled item must reach the getters FIFO — the alternating
    _flow loop must keep draining until quiescent."""
    env = Environment()
    store = Store(env, capacity=1)
    log = []

    def producer():
        for item in ("a", "b", "c"):
            yield store.put(item)
            log.append((f"put-{item}", env.now))

    def consumer():
        yield env.timeout(1)
        for _ in range(3):
            item = yield store.get()
            log.append((f"got-{item}", env.now))

    env.process(producer())
    env.process(consumer())
    env.run()
    assert [entry[0] for entry in log] == [
        "put-a", "got-a", "put-b", "got-b", "put-c", "got-c",
    ]
    assert len(store) == 0


def test_store_put_after_get_refills_waiting_getter():
    """The classic refill ordering: a put that lands while a getter is
    already parked must flow straight through the (full) admit path."""
    env = Environment()
    store = Store(env, capacity=2)
    got = []

    def consumer():
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    def producer():
        yield env.timeout(1)
        yield store.put("x")
        yield store.put("y")
        yield store.put("z")

    env.process(consumer())
    env.process(producer())
    env.run()
    assert got == ["x", "y", "z"]


def test_requests_released_before_grant_leave_the_queue():
    """Releasing queued requests before their grant must not disturb
    grant order, and queue_length must count live waiters only."""
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def holder():
        req = res.request()
        yield req
        yield env.timeout(10)
        res.release(req)

    def cancelled(i):
        req = res.request()
        yield env.timeout(1 + i * 0.01)
        res.release(req)  # cancel before grant
        order.append(f"cancel-{i}")
        _ = yield env.timeout(0)

    def survivor():
        req = res.request()
        yield req
        order.append("granted-survivor")
        res.release(req)

    env.process(holder())
    cancels = [env.process(cancelled(i)) for i in range(40)]
    env.process(survivor())
    env.run(until=0.5)
    # All bootstraps ran at t=0: holder owns the unit, 41 requests queued.
    assert res.queue_length == 41
    env.run(until=5)
    # All 40 cancellations happened; only the survivor still waits.
    assert res.queue_length == 1
    env.run()
    assert order[-1] == "granted-survivor"
    assert len([o for o in order if o.startswith("cancel-")]) == 40
    assert res.in_use == 0


def test_uncontended_request_counts_fast_grant():
    env = Environment()
    res = Resource(env, capacity=2)

    def user():
        yield from res.serve(1.0)

    env.process(user())
    env.process(user())
    env.run()
    assert env.resource_fast_grants == 2
    assert res.grant_count == 2
    # A free unit is taken without an event: each process costs its
    # bootstrap, its timeout and its own completion, nothing for the
    # grant.
    assert env.events_processed == 6
    assert env.heap_scheduled == 2


def test_acquire_behind_a_holder_is_granted_in_arrival_order():
    env = Environment()
    res = Resource(env, capacity=1)
    grants = []

    def user(tag, arrive, hold):
        yield env.timeout(arrive)
        req = yield from res.acquire()
        grants.append((tag, env.now))
        yield env.timeout(hold)
        res.release(req)

    env.process(user("holder", 0, 10))
    env.process(user("late", 2, 1))
    env.process(user("early", 1, 1))
    env.run(until=5)
    assert res.queue_length == 2
    assert env.resource_fast_grants == 1
    env.run()
    assert grants == [("holder", 0), ("early", 10), ("late", 11)]
    assert env.resource_fast_grants == 1
    assert res.grant_count == 3


def test_release_then_reacquire_cannot_overtake_a_waiter():
    """The releaser keeps running at the release timestamp; its next
    acquire must queue behind the waiter the release just served."""
    env = Environment()
    res = Resource(env, capacity=1)
    grants = []

    def greedy():
        for round_ in range(2):
            req = yield from res.acquire()
            grants.append(("greedy", round_, env.now))
            yield env.timeout(5)
            res.release(req)

    def waiter():
        yield env.timeout(1)
        req = yield from res.acquire()
        grants.append(("waiter", env.now))
        yield env.timeout(5)
        res.release(req)

    env.process(greedy())
    env.process(waiter())
    env.run()
    assert grants == [("greedy", 0, 0), ("waiter", 5), ("greedy", 1, 10)]


def test_inline_grant_is_released_once_and_accounted_like_a_queued_one():
    def busy_seconds(queued):
        env = Environment()
        res = Resource(env, capacity=1)

        def user():
            if queued:
                req = res.request()
                yield req
            else:
                req = yield from res.acquire()
            assert res.in_use == 1
            with req:
                yield env.timeout(3)
            assert res.in_use == 0
            res.release(req)
            res.release(req)
            # The unit is free for the next taker, not freed twice.
            other = yield from res.acquire()
            assert res.in_use == 1
            req.__exit__(None, None, None)
            assert res.in_use == 1
            yield env.timeout(4)
            res.release(other)

        env.process(user())
        env.run(until=20)
        assert res.in_use == 0
        assert res.queue_length == 0
        return res.tracker.integral(20), res.grant_count

    assert busy_seconds(queued=False) == busy_seconds(queued=True) == (7.0, 2)
