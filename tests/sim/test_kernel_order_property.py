"""Property test: the kernel vs a plain reference kernel.

:class:`Environment` must dispatch timed events in ``(time, seq)``
order, due timed events before anything in the zero-delay FIFO, and
zero-delay events FIFO among themselves — whether the schedule is run
in one go or in ``run(until=t)`` slices.  The determinism goldens pin
this on two big model workloads; this test pins it on *adversarial*
random schedules: zero-delay cascades, exact-duplicate timestamps,
delays from sub-millisecond to seconds, one resource held through
event-granted requests (``request``), inline-or-queued ``acquire`` and
``Resource.serve`` alike, bare ``Environment.hold`` steps that may or may
not advance the clock inline, several processes joining one, requests
cancelled while queued, slice bounds that land between, on and past
event times, and runs stopped by one of the processes.

The reference kernel below is that rule written down with nothing
else: one global ``heapq`` keyed ``(time, seq, event)`` plus the
zero-delay deque, no hoisted locals, no inlined fast paths — its
``hold`` is always a timeout.  It duck-types ``Environment`` closely
enough to reuse the real
``Event``/``Timeout``/``Process``/``Resource`` classes, so both kernels
execute the *same* workload code and only the scheduler differs.
"""

import collections
import heapq

from hypothesis import given, settings, strategies as st

from repro.sim.engine import Environment, Process
from repro.sim.events import PENDING, Event, Timeout
from repro.sim.resources import Resource


class ReferenceEnvironment:
    """Single global heap + zero-delay FIFO, as plainly as possible."""

    def __init__(self):
        self._now = 0.0
        self._heap = []
        self._fast = collections.deque()
        self._seq = 0
        self._crashes = []
        self.events_processed = 0
        self.cohorts_dispatched = 0
        self.fast_scheduled = 0
        self.heap_scheduled = 0
        self.heap_peak = 0
        self.resource_fast_grants = 0

    @property
    def now(self):
        return self._now

    def _schedule(self, event, delay):
        if delay == 0:
            self.fast_scheduled += 1
            self._fast.append(event)
            return
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self._seq += 1
        self.heap_scheduled += 1
        heapq.heappush(self._heap, (self._now + delay, self._seq, event))

    def _queue_event(self, event):
        self.fast_scheduled += 1
        self._fast.append(event)

    def _call_soon(self, thunk):
        event = Event(self)
        event.callbacks.append(lambda _e: thunk())
        event._ok = True
        event._value = None
        self._fast.append(event)

    def _note_crash(self, process, exc):
        self._crashes.append((process, exc))

    def timeout(self, delay, value=None):
        return Timeout(self, delay, value)

    def hold(self, delay):
        yield Timeout(self, delay)

    def process(self, generator, name=None):
        return Process(self, generator, name=name)

    def run(self, until=None):
        stop = until if isinstance(until, Event) else None
        bound = None if stop is not None else until
        heap = self._heap
        fast = self._fast
        while heap or fast:
            # The interleave rule: heap entries already due preempt the
            # zero-delay FIFO; the clock advances only once both are
            # exhausted.
            if heap and heap[0][0] <= self._now:
                event = heapq.heappop(heap)[2]
            elif fast:
                event = fast.popleft()
            else:
                if bound is not None and heap[0][0] > bound:
                    break
                when, _seq, event = heapq.heappop(heap)
                self._now = when
                self.cohorts_dispatched += 1
            self.events_processed += 1
            event._processed = True
            callbacks, event.callbacks = event.callbacks, []
            for callback in callbacks:
                callback(event)
            if self._crashes:
                _process, exc = self._crashes[0]
                raise exc
            if stop is not None and stop._value is not PENDING:
                return stop._value
        if bound is not None:
            self._now = bound


# Zero-delay (the FIFO fast path), exact duplicates (same-timestamp
# groups ordered by seq alone), and a spread from 0.1 ms to seconds so
# heap depth and timestamp collisions both vary.
DELAYS = [0.0, 0.0001, 0.00025, 0.0005, 0.0005, 0.001, 0.0013,
          0.01, 0.25, 1.5, 5.0]

step_strategy = st.tuples(
    st.sampled_from(["timeout", "request", "acquire", "serve", "hold",
                     "join", "cancel"]),
    st.sampled_from(DELAYS),
)
program_strategy = st.lists(
    st.lists(step_strategy, min_size=1, max_size=6),
    min_size=1, max_size=8,
)
# run(until=t) bounds: sums of DELAYS land exactly on event times, the
# odd values fall between them, and 40.0 is past the longest program.
slices_strategy = st.lists(
    st.sampled_from([0.0, 0.0005, 0.001, 0.0107, 0.25, 0.26, 1.5, 1.75,
                     5.0, 6.5, 40.0]),
    max_size=4,
).map(sorted)
# The process whose completion stops one run() (modulo the program's
# length), or no such run.
stop_strategy = st.none() | st.integers(min_value=0, max_value=7)


def _execute(env, resource, program, slices=(), stop=None):
    """Run ``program`` on ``env`` — in ``run(until=t)`` slices, then up
    to the end of process ``stop``, then to completion — and return the
    dispatch trace, with a marker recording the clock and the progress
    made at the end of each partial run."""
    trace = []

    def runner(pid, script):
        for step_index, (op, delay) in enumerate(script):
            if op == "timeout":
                yield env.timeout(delay)
            elif op == "request":
                request = resource.request()
                yield request
                yield env.timeout(delay)
                resource.release(request)
            elif op == "acquire":
                # Inline grant when the unit is free, queued otherwise.
                request = yield from resource.acquire()
                yield env.timeout(delay)
                resource.release(request)
            elif op == "serve":
                yield from resource.serve(delay)
            elif op == "hold":
                # Inline clock advance when nothing can pre-empt it.
                yield from env.hold(delay)
            elif op == "join":
                # Wait for the last process: every joiner is a callback
                # of one event, so the ones delivered first must not
                # advance the clock under the later ones.
                if pid < len(processes) - 1:
                    yield processes[-1]
                yield from env.hold(delay)
            else:  # cancel: give up while (possibly) still queued
                request = resource.request()
                yield env.timeout(delay if delay else 0.0001)
                granted = request._value is not PENDING
                resource.release(request)
                trace.append((env.now, pid, step_index, granted))
                continue
            trace.append((env.now, pid, step_index))

    processes = [env.process(runner(pid, script), name=f"p{pid}")
                 for pid, script in enumerate(program)]
    for bound in slices:
        env.run(until=bound)
        trace.append(("slice", env.now, env.events_processed))
    if stop is not None:
        # Then single steps: a run whose stop event has triggered
        # delivers one event and must not move the clock past it.
        for _ in range(6):
            env.run(until=processes[stop % len(processes)])
            trace.append(("stop", env.now, env.events_processed))
    env.run()
    return trace


@settings(max_examples=300, deadline=None)
@given(program=program_strategy, slices=slices_strategy, stop=stop_strategy)
def test_kernel_matches_plain_reference(program, slices, stop):
    real_env = Environment()
    real_trace = _execute(real_env, Resource(real_env, capacity=1),
                          program, slices, stop)

    ref_env = ReferenceEnvironment()
    ref_trace = _execute(ref_env, Resource(ref_env, capacity=1),
                         program, slices, stop)

    assert real_trace == ref_trace
    assert real_env.now == ref_env.now
    assert real_env.events_processed == ref_env.events_processed
    assert real_env.cohorts_dispatched == ref_env.cohorts_dispatched
    # Every timed schedule of the reference is a heap entry or an
    # inline hold here: the fast paths did not silently reroute timed
    # work through the zero-delay FIFO.
    assert (real_env.heap_scheduled + real_env.inline_holds
            == ref_env.heap_scheduled)
