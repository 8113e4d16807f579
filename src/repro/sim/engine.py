"""Simulation environment and process machinery.

The :class:`Environment` owns the event heap and the virtual clock.
:class:`Process` adapts a Python generator into a coroutine scheduled on
that clock: every value the generator yields must be an
:class:`~repro.sim.events.Event`; the generator resumes when the event
triggers, receiving the event's value (or its exception).

Timed events sit in one global ``heapq`` of ``(time, seq, event)``
entries; zero-delay events (process bootstraps, hand-overs to queued
waiters) bypass it through a FIFO.  A hold that nothing can pre-empt
(:meth:`Environment.hold`) is neither: the clock advances inline and
the process runs on.  Such a step is a plain call that returns
:data:`DONE`; only a step that has to wait returns an iterator to
``yield from``.  Dispatch order is the global ``(time, seq)``
order, pinned bit-for-bit by the golden fingerprints in
``tests/determinism/`` and by the property test that replays random
schedules against a plain reference kernel.
"""

from __future__ import annotations

import collections
import random
import typing
from heapq import heappop, heappush

from repro.sim.events import PENDING, Event, Timeout

ProcessGenerator = typing.Generator[Event, typing.Any, typing.Any]

#: What a step that had nothing to wait for returns.  A helper on the
#: per-record path (``hold``, ``Resource.serve``, ``Cpu.execute``, a
#: lock grant, a buffer hit, ...) does its work inline and returns
#: ``DONE``; otherwise it returns an iterator that finishes the step.
#: Callers ``yield from`` either alike (``yield from ()`` is a no-op),
#: and a helper that must run code after its sub-step hands both to
#: :func:`after` (skipped if the step fails) or :func:`ensure` (run
#: even then), which run it inline when the step is ``DONE``.  Not a
#: generator, so :meth:`Environment.process` refuses it: pass a step
#: to a process only inside a generator of your own.
DONE = ()


def after(step, then: typing.Callable[..., typing.Any], *args: typing.Any):
    """The step ``step`` followed by the call ``then(*args)``: inline
    (returning :data:`DONE`) when ``step`` is ``DONE``, else in a
    generator that finishes ``step`` first.  A step that fails skips
    ``then``."""
    if step is DONE:
        then(*args)
        return DONE
    return _step_then(step, then, args)


def _step_then(step, then, args):
    yield from step
    then(*args)


def ensure(step, then: typing.Callable[..., typing.Any], *args: typing.Any):
    """Like :func:`after`, but ``then(*args)`` also runs when ``step``
    fails (a crash thrown into it, say): the release of a unit or a
    latch held across the step."""
    if step is DONE:
        then(*args)
        return DONE
    return _step_finally(step, then, args)


def _step_finally(step, then, args):
    try:
        yield from step
    finally:
        then(*args)


class SimulationError(RuntimeError):
    """Raised when the simulation itself is misused or a process crashes
    with nobody waiting to handle the failure."""


class Process(Event):
    """A running simulation process.

    A process *is* an event: it triggers (with the generator's return
    value) when the generator finishes, so other processes can wait for
    it by yielding it.  If the generator raises, waiters see the
    exception re-raised at their ``yield``; if nobody waits, the
    environment escalates the error out of :meth:`Environment.run`.

    Deliberately *no* ``__slots__``: the dict-based frame lets the
    generator's ``send``/``throw`` and the bound ``_step`` callback be
    cached once at spawn, instead of allocating a fresh bound method on
    every suspend/resume — the hottest allocation site in the kernel.
    """

    def __init__(self, env: "Environment", generator: ProcessGenerator,
                 name: str | None = None):
        if not hasattr(generator, "send"):
            raise TypeError(f"process target must be a generator, got {generator!r}")
        # Event.__init__ inlined (hot path: every spawned process).
        self.env = env
        self.callbacks: list = []
        self._value = PENDING
        self._ok = True
        self._processed = False
        self.defused = False
        self._generator = generator
        self._send = generator.send
        self._throw = generator.throw
        #: The one bound-method allocation for this frame's lifetime.
        self._resume = self._step
        self.name = name or getattr(generator, "__name__", "process")
        self._waiting_on: Event | None = None
        # Bootstrap: run the first step as soon as the clock allows.
        bootstrap = Event(env)
        bootstrap._ok = True
        bootstrap._value = None
        bootstrap.callbacks.append(self._resume)
        env.fast_scheduled += 1
        env._fast.append(bootstrap)

    @property
    def is_alive(self) -> bool:
        """Whether the underlying generator is still executing."""
        return not self.triggered

    def _step(self, event: Event) -> None:
        try:
            if event._ok:
                target = self._send(event._value)
            else:
                event.defused = True
                target = self._throw(event._value)
        except StopIteration as stop:
            self._waiting_on = None
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self._waiting_on = None
            self.fail(exc)
            self.env._note_crash(self, exc)
            return
        if not isinstance(target, Event):
            error = SimulationError(
                f"process {self.name!r} yielded {target!r}, which is not an Event"
            )
            self._generator.close()
            self._waiting_on = None
            self.fail(error)
            self.env._note_crash(self, error)
            return
        self._waiting_on = target
        if target._processed:
            self.env._call_soon(lambda: self._step(target))
        else:
            target.callbacks.append(self._resume)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "alive" if self.is_alive else "finished"
        return f"<Process {self.name} {status}>"


class Environment:
    """Event heap, virtual clock, and process factory."""

    def __init__(self, initial_time: float = 0.0, seed: int | None = 0):
        self._now = float(initial_time)
        self._heap: list[tuple[float, int, Event]] = []
        # Zero-delay events (succeed/fail deliveries, process bootstraps,
        # grants to queued waiters — an uncontended grant is no event
        # at all, see ``Resource.acquire``) skip the heap entirely: they
        # are appended to this FIFO and drained at the current clock
        # value.  Ordering is preserved because a heap entry at
        # time == now can only have been scheduled *before* the clock
        # reached now (delay > 0), hence before any zero-delay event
        # created at now — so "heap entries due at now first, then the
        # FIFO, then advance" replays the exact global (time, seq) order
        # a heap holding every event would produce.
        self._fast: collections.deque[Event] = collections.deque()
        self._seq = 0
        self._crashes: list[tuple[Process, BaseException]] = []
        # Lightweight kernel counters (see :meth:`kernel_stats`): plain
        # int bumps, always on; rendering them is the opt-in part.
        self.events_processed = 0
        self.heap_scheduled = 0
        self.fast_scheduled = 0
        self.heap_peak = 0
        self.resource_fast_grants = 0
        #: Clock advances: one per distinct timestamp dispatched.
        self.cohorts_dispatched = 0
        #: Holds whose clock advance ran inline instead of through the heap.
        self.inline_holds = 0
        # What :meth:`hold` must know of the running run(): whether the
        # callback being delivered is its event's only one, the time
        # bound and the stop event.  Outside run() nothing is sole.
        self._sole = False
        self._limit = float("inf")
        self._stop: Event | None = None
        #: The simulation's own RNG stream, for stochastic model inputs
        #: (fault schedules, jitter).  Seeded so two environments built
        #: with the same seed replay identically; workload generators
        #: keep their separate seeded streams.
        self.rng = random.Random(seed)

    @property
    def now(self) -> float:
        """Current simulated time (seconds, by project convention)."""
        return self._now

    # -- scheduling ------------------------------------------------------

    def _schedule(self, event: Event, delay: float) -> None:
        if delay == 0:
            self.fast_scheduled += 1
            self._fast.append(event)
            return
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._seq += 1
        self.heap_scheduled += 1
        heap = self._heap
        heappush(heap, (self._now + delay, self._seq, event))
        if len(heap) > self.heap_peak:
            self.heap_peak = len(heap)

    def _queue_event(self, event: Event) -> None:
        """Queue an already-triggered event for callback processing now."""
        self.fast_scheduled += 1
        self._fast.append(event)

    def _call_soon(self, thunk: typing.Callable[[], None]) -> None:
        event = Event(self)
        event.callbacks.append(lambda _e: thunk())
        event._ok = True
        event._value = None
        self.fast_scheduled += 1
        self._fast.append(event)

    def _note_crash(self, process: Process, exc: BaseException) -> None:
        self._crashes.append((process, exc))

    # -- public API ------------------------------------------------------

    def event(self) -> Event:
        """Create a fresh, untriggered event bound to this environment."""
        return Event(self)

    def timeout(self, delay: float, value: typing.Any = None) -> Timeout:
        """An event that triggers ``delay`` simulated seconds from now."""
        return Timeout(self, delay, value)

    def hold(self, delay: float):
        """Pass ``delay`` simulated seconds: ``yield from env.hold(delay)``
        is exactly ``yield env.timeout(delay)``.

        When nothing can run before a positive hold ends, the clock
        advances inline and the call returns :data:`DONE`: the callback
        being delivered is its event's only one, the FIFO is empty, the
        heap is empty or its head is *strictly* later than
        ``now + delay`` (an entry due at exactly that time was scheduled
        first, so it must run first), and ``now + delay`` is within the
        running run()'s bound while its stop event is still pending.
        Anything the caller schedules next carries a later sequence
        number than the timeout would have, so the ``(time, seq)``
        order is unchanged.  An inline hold still counts as the event it
        replaces (``events_processed``, ``cohorts_dispatched``), so every
        count but ``heap_scheduled`` reads as if it had been a timeout.
        Otherwise it returns a generator that yields the timeout.
        """
        now = self._now
        end = now + delay
        heap = self._heap
        stop = self._stop
        if (self._sole and delay > 0 and not self._fast
                and end <= self._limit
                and (not heap or heap[0][0] > end)
                and (stop is None or stop._value is PENDING)):
            self._now = end
            self.inline_holds += 1
            self.events_processed += 1
            if end != now:
                self.cohorts_dispatched += 1
            return DONE
        return self._wait(delay)

    def _wait(self, delay: float):
        yield Timeout(self, delay)

    def process(self, generator: ProcessGenerator, name: str | None = None) -> Process:
        """Launch ``generator`` as a new process, returning its handle."""
        return Process(self, generator, name=name)

    def run(self, until: float | Event | None = None) -> typing.Any:
        """Run the simulation.

        ``until`` may be a time (run until the clock reaches it), an
        event/process (run until it triggers, returning its value), or
        ``None`` (run until the heap drains).
        """
        stop_event: Event | None = None
        stop_time: float | None = None
        if isinstance(until, Event):
            stop_event = until
            # run() itself handles a failure of the stop event (it is
            # re-raised to the caller), so don't escalate it as orphan.
            stop_event.defused = True
        elif until is not None:
            stop_time = float(until)
            if stop_time < self._now:
                raise SimulationError(
                    f"run(until={stop_time}) is in the past (now={self._now})"
                )

        heap = self._heap
        fast = self._fast
        crashes = self._crashes
        pop_fast = fast.popleft
        limit = float("inf") if stop_time is None else stop_time
        now = self._now
        # A run() nested inside a callback hands hold() back the outer
        # run's bound and stop event when it returns.
        outer = self._sole, self._limit, self._stop
        self._limit = limit
        self._stop = stop_event

        try:
            while True:
                # Due heap entries, then the FIFO, then advance (see
                # __init__).  A due entry can be scheduled *during* the
                # FIFO drain — now + delay rounding down to now — so the
                # heap top is re-checked before every FIFO pop.
                if heap and heap[0][0] <= now:
                    event = heappop(heap)[2]
                elif fast:
                    event = pop_fast()
                elif heap and heap[0][0] <= limit:
                    now, _seq, event = heappop(heap)
                    self._now = now
                    self.cohorts_dispatched += 1
                else:
                    break
                self.events_processed += 1
                event._processed = True
                callbacks = event.callbacks
                event.callbacks = None
                self._sole = len(callbacks) == 1
                for callback in callbacks:
                    callback(event)
                # An inline hold inside the callback moved the clock.
                now = self._now
                if crashes:
                    self._raise_orphan_crashes()
                if stop_event is not None and stop_event._value is not PENDING:
                    return self._finish_stop(stop_event)
        finally:
            self._sole, self._limit, self._stop = outer

        if stop_time is not None:
            self._now = stop_time
        if stop_event is not None and stop_event._value is PENDING:
            raise SimulationError("run() ran out of events before `until` triggered")
        return None

    def _finish_stop(self, stop_event: Event) -> typing.Any:
        if not stop_event._ok:
            stop_event.defused = True
            raise stop_event._value
        return stop_event._value

    def _raise_orphan_crashes(self) -> None:
        while self._crashes:
            process, exc = self._crashes.pop(0)
            if not process.defused and not process.callbacks:
                raise SimulationError(
                    f"process {process.name!r} crashed with nobody waiting: {exc!r}"
                ) from exc

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if self._fast:
            return self._now
        return self._heap[0][0] if self._heap else float("inf")

    def kernel_stats(self) -> dict[str, int | float]:
        """Counters for the kernel's own machinery (events, fast paths).

        Always collected (plain integer bumps); rendering is opt-in via
        :func:`repro.metrics.report.render_counters`.
        """
        scheduled = self.heap_scheduled + self.fast_scheduled
        return {
            "events_processed": self.events_processed,
            "heap_scheduled": self.heap_scheduled,
            "fast_scheduled": self.fast_scheduled,
            "fast_fraction": (self.fast_scheduled / scheduled
                              if scheduled else 0.0),
            "heap_peak": self.heap_peak,
            "resource_fast_grants": self.resource_fast_grants,
            "cohorts_dispatched": self.cohorts_dispatched,
            "inline_holds": self.inline_holds,
        }
