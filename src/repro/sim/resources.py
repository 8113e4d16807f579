"""Queued resources and stores for the simulation kernel.

:class:`Resource` models a server with ``capacity`` identical units
(CPU cores, a disk's single actuator, a link's DMA engine).  Processes
``req = yield from resource.acquire()`` to obtain a unit — a free one
is a plain return and costs no kernel event, a busy one is queueing
delay on the simulated clock — and call :meth:`Resource.release` when
done.

The wait queue is a FIFO ``deque``: requests are granted in arrival
order, and a request released before its grant is removed from it.

Every resource carries a :class:`UtilizationTracker` — a time-weighted
integral of busy units — because the power model converts component
utilisation into watts and the cluster monitor feeds utilisation to the
rebalancer's threshold policies.
"""

from __future__ import annotations

import collections
import typing

from repro.sim.engine import DONE, ensure
from repro.sim.events import PENDING, Event

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Environment


class UtilizationTracker:
    """Time-weighted busy-units integral for a resource.

    ``integral(now)`` returns the accumulated busy unit-seconds.
    Consumers (power model, monitor) keep their own last checkpoint and
    diff between calls, so several independent observers can share one
    tracker.
    """

    def __init__(self, env: "Environment"):
        self.env = env
        self._busy_integral = 0.0
        self._in_use = 0
        self._last_change = env.now

    def update(self, in_use: int) -> None:
        """Record that the number of busy units changed to ``in_use``."""
        now = self.env._now
        self._busy_integral += self._in_use * (now - self._last_change)
        self._in_use = in_use
        self._last_change = now

    def integral(self, now: float | None = None) -> float:
        """Busy unit-seconds accumulated up to ``now`` (default: current time)."""
        if now is None:
            now = self.env.now
        return self._busy_integral + self._in_use * (now - self._last_change)

    @property
    def in_use(self) -> int:
        return self._in_use


class Request(Event):
    """A pending claim on one unit of a :class:`Resource`."""

    __slots__ = ("resource", "released")

    def __init__(self, resource: "Resource"):
        # Event.__init__ inlined: requests are made by the million,
        # and the extra call shows up.
        self.env = resource.env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._processed = False
        self.defused = False
        self.resource = resource
        self.released = False

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc_info: typing.Any) -> None:
        if not self.released:
            self.resource.release(self)


class Resource:
    """A server with ``capacity`` units and a FIFO wait queue."""

    def __init__(self, env: "Environment", capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError(f"resource capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self.users: set[Request] = set()
        self._queue: collections.deque[Request] = collections.deque()
        self.tracker = UtilizationTracker(env)
        #: Total completed grants, for throughput accounting.
        self.grant_count = 0

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    @property
    def in_use(self) -> int:
        return len(self.users)

    def request(self) -> Request:
        """Queue a claim; the returned event triggers when granted."""
        req = Request(self)
        self._queue.append(req)
        self._dispatch()
        return req

    def acquire(self):
        """Generator: ``req = yield from resource.acquire()``.

        A free unit with nobody queued is taken without yielding — no
        event, the caller runs on.  Nobody is overtaken: a release with
        waiters re-fills the unit inside ``_dispatch`` before any other
        process runs.  Otherwise the request waits its FIFO turn.
        """
        users = self.users
        if len(users) < self.capacity and not self._queue:
            self._grant_free()
            req = Request(self)
            users.add(req)
            return req
        req = self.request()
        yield req
        return req

    def _grant_free(self) -> int:
        """Count the grant of a free unit with nobody queued (by
        :meth:`acquire` or :meth:`serve`); returns the units now in use."""
        in_use = len(self.users) + 1
        self.env.resource_fast_grants += 1
        self.grant_count += 1
        self.tracker.update(in_use)
        return in_use

    def release(self, request: Request) -> None:
        """Return a previously granted unit to the pool."""
        if request.released:
            return
        request.released = True
        users = self.users
        if request in users:
            users.remove(request)
            self.tracker.update(len(users))
            if self._queue:
                self._dispatch()
        else:
            # Given up before it was granted.
            self._queue.remove(request)

    def _dispatch(self) -> None:
        queue = self._queue
        users = self.users
        capacity = self.capacity
        while queue and len(users) < capacity:
            req = queue.popleft()
            users.add(req)
            self.tracker.update(len(users))
            self.grant_count += 1
            req.succeed(req)

    def serve(self, duration: float):
        """Acquire a unit, hold it ``duration``, release:
        ``yield from resource.serve(0.005)``.

        On a free unit that nothing can pre-empt before ``duration`` is
        up this is a call that returns :data:`~repro.sim.engine.DONE`:
        acquire's and release's bookkeeping run around the inline hold
        (:meth:`Environment.hold`), so the tracker's integral and the
        grant counts are what a timeout would have left.  No
        :class:`Request` is made: nothing runs between the grant and the
        release, so nothing could see it in ``users``.  A free unit
        whose hold must wait is granted inline and released after the
        timeout; a busy one queues in :meth:`acquire`.
        """
        users = self.users
        if len(users) < self.capacity and not self._queue:
            in_use = self._grant_free()
            step = self.env.hold(duration)
            if step is DONE:
                # release()'s bookkeeping for a unit nobody saw held.
                self.tracker.update(in_use - 1)
                return DONE
            req = Request(self)
            users.add(req)
            return ensure(step, self.release, req)
        return self._queued_serve(duration)

    def _queued_serve(self, duration: float):
        req = yield from self.acquire()
        try:
            yield from self.env.hold(duration)
        finally:
            self.release(req)


class StorePut(Event):
    __slots__ = ("item",)

    def __init__(self, store: "Store", item: typing.Any):
        super().__init__(store.env)
        self.item = item


class StoreGet(Event):
    __slots__ = ()

    def __init__(self, store: "Store"):
        super().__init__(store.env)


class Store:
    """An unbounded-by-default FIFO buffer of items between processes.

    Used as a mailbox: producers ``yield store.put(item)``, consumers
    ``item = yield store.get()``.
    """

    def __init__(self, env: "Environment", capacity: float = float("inf")):
        if capacity <= 0:
            raise ValueError("store capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.items: collections.deque[typing.Any] = collections.deque()
        self._getters: collections.deque[StoreGet] = collections.deque()
        self._putters: collections.deque[StorePut] = collections.deque()

    def put(self, item: typing.Any) -> StorePut:
        event = StorePut(self, item)
        self._putters.append(event)
        self._flow()
        return event

    def get(self) -> StoreGet:
        event = StoreGet(self)
        self._getters.append(event)
        self._flow()
        return event

    def _flow(self) -> None:
        # Alternate put-admission and get-satisfaction until quiescent:
        # each satisfied get frees room that may admit a blocked put,
        # whose item may in turn satisfy the next waiting getter.
        items = self.items
        putters = self._putters
        getters = self._getters
        while True:
            progressed = False
            while putters and len(items) < self.capacity:
                put = putters.popleft()
                items.append(put.item)
                put.succeed()
                progressed = True
            while getters and items:
                getters.popleft().succeed(items.popleft())
                progressed = True
            if not progressed:
                return

    def __len__(self) -> int:
        return len(self.items)
