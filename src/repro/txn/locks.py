"""Multi-granularity locking with RX modes (MGL-RX).

The paper's baseline concurrency control (Sect. 3.5): hierarchical
locks over table -> partition -> record with intention modes.  Waits
are real simulated-time queueing (FIFO, with upgrades served first);
deadlocks are broken by timeout, the policy WattDB's experiments make
viable because queries are short.
"""

from __future__ import annotations

import enum
import typing

from repro.errors import TransientError
from repro.metrics.breakdown import CostBreakdown
from repro.sim.engine import DONE, Environment
from repro.sim.events import AnyOf, Event


class LockMode(enum.IntEnum):
    """Lock modes ordered by strength (for upgrade arithmetic)."""

    IS = 1
    IX = 2
    S = 3
    SIX = 4
    X = 5


_COMPATIBLE: dict[tuple[LockMode, LockMode], bool] = {}


def _fill_compatibility():
    table = {
        LockMode.IS: {LockMode.IS, LockMode.IX, LockMode.S, LockMode.SIX},
        LockMode.IX: {LockMode.IS, LockMode.IX},
        LockMode.S: {LockMode.IS, LockMode.S},
        LockMode.SIX: {LockMode.IS},
        LockMode.X: set(),
    }
    for a, compatible in table.items():
        for b in LockMode:
            _COMPATIBLE[(a, b)] = b in compatible


_fill_compatibility()

#: Least upper bound of two held modes (classic lattice).
_SUPREMUM = {
    frozenset({LockMode.IS, LockMode.IX}): LockMode.IX,
    frozenset({LockMode.IS, LockMode.S}): LockMode.S,
    frozenset({LockMode.IS, LockMode.SIX}): LockMode.SIX,
    frozenset({LockMode.IS, LockMode.X}): LockMode.X,
    frozenset({LockMode.IX, LockMode.S}): LockMode.SIX,
    frozenset({LockMode.IX, LockMode.SIX}): LockMode.SIX,
    frozenset({LockMode.IX, LockMode.X}): LockMode.X,
    frozenset({LockMode.S, LockMode.SIX}): LockMode.SIX,
    frozenset({LockMode.S, LockMode.X}): LockMode.X,
    frozenset({LockMode.SIX, LockMode.X}): LockMode.X,
}


def compatible(a: LockMode, b: LockMode) -> bool:
    return _COMPATIBLE[(a, b)]


def supremum(a: LockMode, b: LockMode) -> LockMode:
    if a == b:
        return a
    return _SUPREMUM[frozenset({a, b})]


class LockTimeoutError(TransientError):
    """Lock wait exceeded the deadlock-breaking timeout."""


class _Waiter:
    __slots__ = ("txn_id", "mode", "event", "is_upgrade")

    def __init__(self, env: Environment, txn_id: int, mode: LockMode,
                 is_upgrade: bool):
        self.txn_id = txn_id
        self.mode = mode
        self.event: Event = env.event()
        self.is_upgrade = is_upgrade


class _LockState:
    __slots__ = ("granted", "queue")

    def __init__(self):
        self.granted: dict[int, LockMode] = {}
        self.queue: list[_Waiter] = []


ResourceId = typing.Hashable


class LockManager:
    """FIFO multi-granularity lock table; upgrades are served first."""

    def __init__(self, env: Environment, default_timeout: float = 10.0):
        self.env = env
        self.default_timeout = default_timeout
        self._locks: dict[ResourceId, _LockState] = {}
        #: txn_id -> set of resources it holds locks on.
        self._held: dict[int, set[ResourceId]] = {}
        self.timeout_count = 0
        self.wait_count = 0

    # -- introspection -----------------------------------------------------

    def holders(self, resource: ResourceId) -> dict[int, LockMode]:
        state = self._locks.get(resource)
        return dict(state.granted) if state else {}

    def mode_held(self, txn_id: int, resource: ResourceId) -> LockMode | None:
        state = self._locks.get(resource)
        return state.granted.get(txn_id) if state else None

    def queue_length(self, resource: ResourceId) -> int:
        state = self._locks.get(resource)
        return len(state.queue) if state else 0

    # -- acquire / release -------------------------------------------------

    def _grantable(self, state: _LockState, txn_id: int, mode: LockMode) -> bool:
        return all(
            compatible(held, mode)
            for holder, held in state.granted.items()
            if holder != txn_id
        )

    def _clears_queue(self, state: _LockState, mode: LockMode,
                      upto: _Waiter | None = None) -> bool:
        """Whether ``mode`` is compatible with every waiter queued
        (ahead of ``upto``) — the fairness rule that keeps a queued X
        from being starved by a stream of later compatible requests,
        while still letting e.g. IS slip past a queued S."""
        for waiter in state.queue:
            if waiter is upto:
                return True
            if not compatible(waiter.mode, mode):
                return False
        return True

    def acquire(self, txn_id: int, resource: ResourceId, mode: LockMode,
                breakdown: CostBreakdown | None = None,
                timeout: float | None = None):
        """Obtain (or upgrade to) ``mode`` on ``resource``: a step
        (``yield from locks.acquire(...)``) that is ``DONE`` when the
        lock is already held strongly enough or grantable on the spot.

        Otherwise the request queues and the returned generator raises
        :class:`LockTimeoutError` after the deadlock timeout; the
        caller is expected to abort the transaction and release.
        """
        state = self._locks.get(resource)
        if state is None:
            state = self._locks[resource] = _LockState()
        held = state.granted.get(txn_id)
        want = mode if held is None else supremum(held, mode)
        if held is not None and want == held:
            return DONE  # already strong enough
        # Upgraders bypass the queue check: they already hold the lock,
        # so queueing behind waiters they block would deadlock.
        queue_ok = held is not None or self._clears_queue(state, want)
        if queue_ok and self._grantable(state, txn_id, want):
            self._grant(state, txn_id, want, resource)
            return DONE
        return self._wait(state, txn_id, resource, want, held is not None,
                          breakdown, timeout)

    def _wait(self, state: _LockState, txn_id: int, resource: ResourceId,
              want: LockMode, is_upgrade: bool,
              breakdown: CostBreakdown | None, timeout: float | None):
        waiter = _Waiter(self.env, txn_id, want, is_upgrade)
        if is_upgrade:
            # Upgrades go to the front: the holder blocks others anyway.
            state.queue.insert(0, waiter)
        else:
            state.queue.append(waiter)
        self.wait_count += 1

        t0 = self.env.now
        limit = self.default_timeout if timeout is None else timeout
        timer = self.env.timeout(limit)
        yield AnyOf(self.env, [waiter.event, timer])
        if breakdown is not None:
            breakdown.add("locking", self.env.now - t0)
        if not waiter.event.processed and not waiter.event.triggered:
            state.queue.remove(waiter)
            self.timeout_count += 1
            raise LockTimeoutError(
                f"txn {txn_id} timed out waiting for {want.name} on {resource!r}"
            )

    def _grant(self, state: _LockState, txn_id: int, mode: LockMode,
               resource: ResourceId) -> None:
        state.granted[txn_id] = mode
        self._held.setdefault(txn_id, set()).add(resource)

    def release(self, txn_id: int, resource: ResourceId) -> None:
        state = self._locks.get(resource)
        if state is None or txn_id not in state.granted:
            raise KeyError(f"txn {txn_id} holds no lock on {resource!r}")
        del state.granted[txn_id]
        held = self._held.get(txn_id)
        if held is not None:
            held.discard(resource)
        self._wake(state, resource)
        if not state.granted and not state.queue:
            del self._locks[resource]

    def release_all(self, txn_id: int) -> None:
        """Drop every lock a transaction holds (commit/abort path)."""
        for resource in list(self._held.get(txn_id, ())):
            self.release(txn_id, resource)
        self._held.pop(txn_id, None)

    def _wake(self, state: _LockState, resource: ResourceId) -> None:
        """Grant queued requests in FIFO order; a waiter may overtake
        earlier ones only if its mode is compatible with theirs."""
        progress = True
        while progress:
            progress = False
            for waiter in list(state.queue):
                if not self._grantable(state, waiter.txn_id, waiter.mode):
                    continue
                if not self._clears_queue(state, waiter.mode, upto=waiter):
                    continue
                state.queue.remove(waiter)
                self._grant(state, waiter.txn_id, waiter.mode, resource)
                waiter.event.succeed()
                progress = True
                break

    # -- hierarchical convenience -------------------------------------------

    def lock_record(self, txn_id: int, table: str, partition_id: int,
                    key: typing.Any, mode: LockMode,
                    breakdown: CostBreakdown | None = None):
        """Classic MGL path — intention locks down the hierarchy, then
        R/X on the record, each within the default timeout.  A step:
        ``DONE`` when no level had to wait."""
        if mode not in (LockMode.S, LockMode.X):
            raise ValueError(f"record locks must be S or X, got {mode.name}")
        intent = LockMode.IS if mode is LockMode.S else LockMode.IX
        return self._in_order(
            txn_id, breakdown, None,
            (("table", table), intent),
            (("partition", partition_id), intent),
            (("record", partition_id, key), mode),
        )

    def lock_partition(self, txn_id: int, table: str, partition_id: int,
                       mode: LockMode,
                       breakdown: CostBreakdown | None = None,
                       timeout: float | None = None):
        """Partition-granule lock (used by migration and by every
        writer's intent).  A step, like :meth:`lock_record`."""
        intent = LockMode.IS if mode is LockMode.S else LockMode.IX
        return self._in_order(
            txn_id, breakdown, timeout,
            (("table", table), intent),
            (("partition", partition_id), mode),
        )

    def _in_order(self, txn_id: int, breakdown: CostBreakdown | None,
                  timeout: float | None, *levels):
        """Acquire ``(resource, mode)`` levels top-down: inline while
        each is granted on the spot, from the first wait on in a
        generator that takes the rest in turn."""
        for i, (resource, mode) in enumerate(levels):
            step = self.acquire(txn_id, resource, mode, breakdown, timeout)
            if step is not DONE:
                return self._rest_after(step, txn_id, breakdown, timeout,
                                        levels[i + 1:])
        return DONE

    def _rest_after(self, step, txn_id: int, breakdown: CostBreakdown | None,
                    timeout: float | None, levels):
        yield from step
        for resource, mode in levels:
            yield from self.acquire(txn_id, resource, mode, breakdown, timeout)
