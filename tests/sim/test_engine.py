"""Unit tests for the discrete-event simulation engine."""

import pytest

from repro.sim import Environment, SimulationError


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_starts_at_initial_time():
    env = Environment(initial_time=42.5)
    assert env.now == 42.5


def test_timeout_advances_clock():
    env = Environment()
    seen = []

    def proc():
        yield env.timeout(3.0)
        seen.append(env.now)

    env.process(proc())
    env.run()
    assert seen == [3.0]


def test_timeout_value_is_delivered():
    env = Environment()
    got = []

    def proc():
        value = yield env.timeout(1.0, value="payload")
        got.append(value)

    env.process(proc())
    env.run()
    assert got == ["payload"]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_timeouts_fire_in_order():
    env = Environment()
    order = []

    def proc(delay, tag):
        yield env.timeout(delay)
        order.append(tag)

    env.process(proc(5, "b"))
    env.process(proc(2, "a"))
    env.process(proc(9, "c"))
    env.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fifo():
    env = Environment()
    order = []

    def proc(tag):
        yield env.timeout(1)
        order.append(tag)

    for tag in range(5):
        env.process(proc(tag))
    env.run()
    assert order == [0, 1, 2, 3, 4]


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def proc():
        while True:
            yield env.timeout(10)

    env.process(proc())
    env.run(until=25)
    assert env.now == 25


def test_run_until_past_raises():
    env = Environment(initial_time=10)
    with pytest.raises(SimulationError):
        env.run(until=5)


def test_run_until_process_returns_value():
    env = Environment()

    def proc():
        yield env.timeout(2)
        return "done"

    result = env.run(until=env.process(proc()))
    assert result == "done"
    assert env.now == 2


def test_run_until_event_never_triggers_raises():
    env = Environment()
    orphan = env.event()
    with pytest.raises(SimulationError):
        env.run(until=orphan)


def test_process_waits_for_subprocess():
    env = Environment()
    log = []

    def child():
        yield env.timeout(4)
        log.append(("child", env.now))
        return 99

    def parent():
        value = yield env.process(child())
        log.append(("parent", env.now, value))

    env.process(parent())
    env.run()
    assert log == [("child", 4), ("parent", 4, 99)]


def test_yield_from_composition():
    env = Environment()
    trace = []

    def inner():
        yield env.timeout(1)
        trace.append(env.now)
        return "inner-result"

    def outer():
        result = yield from inner()
        trace.append(result)

    env.process(outer())
    env.run()
    assert trace == [1, "inner-result"]


def test_process_failure_propagates_to_waiter():
    env = Environment()
    caught = []

    def crasher():
        yield env.timeout(1)
        raise ValueError("boom")

    def waiter():
        try:
            yield env.process(crasher())
        except ValueError as exc:
            caught.append(str(exc))

    env.process(waiter())
    env.run()
    assert caught == ["boom"]


def test_unwaited_process_failure_escalates():
    env = Environment()

    def crasher():
        yield env.timeout(1)
        raise ValueError("nobody listens")

    env.process(crasher())
    with pytest.raises(SimulationError):
        env.run()


def test_yielding_non_event_is_an_error():
    env = Environment()

    def bad():
        yield 42

    env.process(bad())
    with pytest.raises(SimulationError):
        env.run()


def test_event_succeed_wakes_waiter():
    env = Environment()
    signal = env.event()
    got = []

    def waiter():
        value = yield signal
        got.append((env.now, value))

    def firer():
        yield env.timeout(7)
        signal.succeed("fired")

    env.process(waiter())
    env.process(firer())
    env.run()
    assert got == [(7, "fired")]


def test_event_cannot_trigger_twice():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(RuntimeError):
        event.succeed(2)
    with pytest.raises(RuntimeError):
        event.fail(ValueError())


def test_event_fail_requires_exception():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")


def test_event_value_unavailable_before_trigger():
    env = Environment()
    with pytest.raises(RuntimeError):
        _ = env.event().value


def test_waiting_on_already_processed_event():
    env = Environment()
    signal = env.event()
    got = []

    def firer():
        yield env.timeout(1)
        signal.succeed("early")

    def late_waiter():
        yield env.timeout(5)
        value = yield signal
        got.append((env.now, value))

    env.process(firer())
    env.process(late_waiter())
    env.run()
    assert got == [(5, "early")]


def test_peek_reports_next_event_time():
    env = Environment()

    def proc():
        yield env.timeout(3)

    env.process(proc())
    assert env.peek() == 0  # process bootstrap event
    env.run()
    assert env.peek() == float("inf")


def test_process_is_alive_flag():
    env = Environment()

    def proc():
        yield env.timeout(5)

    handle = env.process(proc())
    assert handle.is_alive
    env.run()
    assert not handle.is_alive


def test_nested_processes_three_deep():
    env = Environment()

    def level3():
        yield env.timeout(1)
        return 3

    def level2():
        value = yield env.process(level3())
        return value + 10

    def level1():
        value = yield env.process(level2())
        return value + 100

    result = env.run(until=env.process(level1()))
    assert result == 113


# -- run() slicing and the heap/FIFO interleave ------------------------------

def test_run_until_event_stops_mid_group_and_next_run_finishes_in_order():
    """``until`` triggers while three of five same-timestamp timeouts
    are dispatched; the rest stay queued and the next run() delivers
    them in (time, seq) order — ahead of the zero-delay completion
    event the stop left in the FIFO."""
    env = Environment()
    order = []

    def proc(tag, delay=1):
        yield env.timeout(delay)
        order.append(tag)

    def joiner(target):
        yield target
        order.append("joined")

    procs = [env.process(proc(tag)) for tag in range(5)]
    env.process(joiner(procs[2]))
    env.process(proc("late", delay=2))

    env.run(until=procs[2])
    assert order == [0, 1, 2]
    assert env.now == 1
    assert env.peek() == 1

    env.run()
    assert order == [0, 1, 2, 3, 4, "joined", "late"]
    assert env.now == 2


def test_run_until_time_dispatches_an_entry_exactly_at_the_bound():
    env = Environment()
    fired = []

    def proc(delay):
        yield env.timeout(delay)
        fired.append(delay)

    env.process(proc(5))
    env.process(proc(5.5))
    env.run(until=5)
    assert fired == [5]
    assert env.now == 5
    assert env.peek() == 5.5
    env.run()
    assert fired == [5, 5.5]


def test_sub_ulp_timeout_preempts_the_zero_delay_fifo():
    """At a clock value whose ulp exceeds the delay, ``now + delay ==
    now``: the timeout is a *timed* entry already due, and due timed
    entries run before the FIFO without a clock advance."""
    start = 2.0 ** 52
    env = Environment(initial_time=start)
    assert start + 0.25 == start
    order = []

    gate = env.event()
    gate.callbacks.append(lambda _e: order.append("fifo"))
    gate.succeed()
    tick = env.timeout(0.25)
    tick.callbacks.append(lambda _e: order.append("timed"))

    env.run()
    assert order == ["timed", "fifo"]
    assert env.now == start
    assert env.kernel_stats()["cohorts_dispatched"] == 0


# -- hold(): inline when nothing can pre-empt it, a timeout otherwise --------

def _holder(env, delay, seen, tag="held"):
    def proc():
        yield from env.hold(delay)
        seen.append((tag, env.now))
    return proc()


def test_hold_nothing_can_preempt_advances_the_clock_inline():
    env = Environment()
    seen = []
    env.process(_holder(env, 2.0, seen))
    env.run()
    assert seen == [("held", 2.0)]
    stats = env.kernel_stats()
    assert stats["inline_holds"] == 1
    assert stats["heap_scheduled"] == 0
    # Counted as the timeout it replaces: bootstrap, hold, completion.
    assert stats["events_processed"] == 3
    assert stats["cohorts_dispatched"] == 1


def test_sub_ulp_hold_is_inline_without_a_clock_advance():
    start = 2.0 ** 52
    env = Environment(initial_time=start)
    seen = []
    env.process(_holder(env, 0.25, seen))
    env.run()
    assert seen == [("held", start)]
    assert env.inline_holds == 1
    assert env.kernel_stats()["cohorts_dispatched"] == 0


def test_sub_ulp_timeout_after_an_inline_hold_runs_before_the_fifo():
    """run() reads the clock an inline hold moved: a timeout that
    rounds to the new ``now`` is due at once, ahead of the FIFO."""
    start = 2.0 ** 52
    env = Environment(initial_time=start)
    order = []

    def proc():
        yield from env.hold(1.0)
        gate = env.event()
        gate.callbacks.append(lambda _e: order.append("fifo"))
        gate.succeed()
        tick = env.timeout(0.25)
        tick.callbacks.append(lambda _e: order.append("timed"))

    env.process(proc())
    env.run()
    assert order == ["timed", "fifo"]
    assert env.now == start + 1.0
    assert env.kernel_stats()["cohorts_dispatched"] == 1


def test_hold_yields_a_timeout_while_the_fifo_holds_work():
    env = Environment()
    seen = []
    env.process(_holder(env, 2.0, seen))
    env.process(_holder(env, 1.0, seen, tag="second"))  # FIFO at t=0
    env.run()
    assert seen == [("second", 1.0), ("held", 2.0)]
    # The first waited on the heap; the second, alone by then and due
    # before the heap head, did not.
    assert env.heap_scheduled == 1
    assert env.inline_holds == 1


def test_hold_yields_a_timeout_when_the_heap_head_ties_its_end():
    env = Environment()
    seen = []
    earlier = env.timeout(2.0)
    earlier.callbacks.append(lambda _e: seen.append(("earlier", env.now)))
    env.process(_holder(env, 2.0, seen))
    env.run()
    # The entry due at exactly now + d was scheduled first: it runs first.
    assert seen == [("earlier", 2.0), ("held", 2.0)]
    assert env.inline_holds == 0
    assert env.heap_scheduled == 2


def test_hold_yields_a_timeout_past_the_run_bound():
    env = Environment()
    seen = []
    env.process(_holder(env, 5.0, seen))
    env.run(until=3.0)
    assert env.now == 3.0
    assert seen == []
    assert env.inline_holds == 0
    env.run()
    assert seen == [("held", 5.0)]


def test_hold_yields_a_timeout_once_the_stop_event_triggered():
    env = Environment()
    seen = []
    stop = env.event()
    stop.succeed()
    env.run()  # delivers the stop event; the FIFO is empty again
    env.process(_holder(env, 1.0, seen))
    env.run(until=stop)
    # run() returns after the bootstrap, at the clock it started on.
    assert env.now == 0.0
    assert seen == []
    assert env.inline_holds == 0
    env.run()
    assert seen == [("held", 1.0)]


def test_hold_yields_a_timeout_for_an_event_with_two_callbacks():
    env = Environment()
    gate = env.event()
    woken = []

    def waiter(tag):
        yield gate
        woken.append((tag, env.now))
        yield from env.hold(1.0)

    env.process(waiter("a"))
    env.process(waiter("b"))
    env.run()  # both now wait on the gate
    env.timeout(0.5).callbacks.append(lambda _e: gate.succeed())
    env.run()
    # "b" is delivered the same event after "a": it must wake at 0.5.
    assert woken == [("a", 0.5), ("b", 0.5)]
    assert env.inline_holds == 0
    assert env.now == 1.5


def test_hold_outside_run_yields_a_timeout():
    env = Environment()
    hold = env.hold(1.0)
    timeout = next(hold)
    assert timeout.delay == 1.0
    assert env.now == 0.0
    assert env.inline_holds == 0


def test_crash_after_an_inline_hold_surfaces_at_the_advanced_clock():
    env = Environment()

    def crasher():
        yield from env.hold(4.0)
        raise ValueError("after the hold")

    env.process(crasher())
    with pytest.raises(SimulationError, match="after the hold"):
        env.run()
    assert env.now == 4.0
    assert env.inline_holds == 1


def test_nested_run_hands_the_outer_stop_event_back_to_hold():
    env = Environment()
    stop = env.event()
    stop.callbacks.append(lambda _e: None)
    seen = []

    def outer():
        stop.succeed()
        env.run()  # nested, unbounded: delivers the stop event
        yield from env.hold(5.0)  # the outer run's stop has triggered
        seen.append(env.now)

    env.process(outer())
    env.run(until=stop)
    assert env.now == 0.0
    assert seen == []
    env.run()
    assert seen == [5.0]


# -- kernel_stats contract ---------------------------------------------------

def test_kernel_stats_keeps_the_keys_the_perf_ledger_reads():
    from perfledger.surface import KERNEL_STATS_KEYS

    assert set(KERNEL_STATS_KEYS) <= set(Environment().kernel_stats())


def test_cohorts_dispatched_counts_distinct_clock_advances():
    env = Environment()
    seen = set()

    def proc(delays):
        for delay in delays:
            yield env.timeout(delay)
            seen.add(env.now)

    env.process(proc([1, 1, 0, 2]))      # fires at 1, 2, 2, 4
    env.process(proc([1, 3]))            # fires at 1, 4
    env.process(proc([2.5]))             # fires at 2.5
    env.run(until=3)                     # slices must not double-count
    env.run()
    assert seen == {1, 2, 2.5, 4}
    stats = env.kernel_stats()
    assert stats["cohorts_dispatched"] == len(seen)
    assert stats["heap_scheduled"] == 6
