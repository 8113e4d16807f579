"""Buffer pool with latch contention and an rDMA remote extension.

The pool simulates residency and timing: page *contents* live in the
segment objects (plain Python memory), while the pool decides whether
an access costs a buffer hit, a disk read, or — with the helper-node
extension of the paper's final experiment — a remote-memory fetch,
"still faster than flushing a page from the buffer and reading it back
from disk when needed" (Sect. 5.2).

Per-page latches really queue: when rebalancing floods the pool,
queries measurably wait on latches, which is one of the Fig. 7
components.
"""

from __future__ import annotations

import collections
import typing

from repro.hardware import specs
from repro.hardware.cpu import Cpu
from repro.hardware.network import Network, NetworkPort
from repro.metrics.breakdown import CostBreakdown
from repro.sim.engine import Environment, ensure
from repro.sim.events import Event


class BufferPoolExhaustedError(RuntimeError):
    """Every frame is pinned; the pool cannot make room."""


class PageIO(typing.Protocol):  # pragma: no cover - typing aid
    """What the pool needs to move one page to/from its home.  The I/O
    charges its own steps to ``breakdown``; the pool adds nothing."""

    def read(self, breakdown: CostBreakdown | None) -> typing.Generator: ...

    def write(self, breakdown: CostBreakdown | None) -> typing.Generator: ...


class _Frame:
    __slots__ = ("pins", "dirty")

    def __init__(self):
        self.pins = 0
        self.dirty = False


class RemoteBufferExtension:
    """Extra buffer capacity borrowed from a helper node over rDMA."""

    def __init__(self, env: Environment, network: Network,
                 local_port: NetworkPort, remote_port: NetworkPort,
                 capacity_pages: int):
        if capacity_pages < 1:
            raise ValueError("remote buffer needs at least one page")
        self.env = env
        self.network = network
        self.local_port = local_port
        self.remote_port = remote_port
        self.capacity_pages = capacity_pages
        self._pages: collections.OrderedDict[int, bool] = collections.OrderedDict()
        self.puts = 0
        self.gets = 0

    def __contains__(self, page_id: int) -> bool:
        return page_id in self._pages

    def __len__(self) -> int:
        return len(self._pages)

    def put(self, page_id: int, dirty: bool,
            breakdown: CostBreakdown | None = None):
        """Generator: ship a page to the helper's memory.

        Returns a list of ``(page_id, dirty)`` overflow victims the
        caller must write back to disk.
        """
        t0 = self.env.now
        yield from self.network.transfer(
            self.local_port, self.remote_port, specs.PAGE_BYTES
        )
        if breakdown is not None:
            breakdown.add("network_io", self.env.now - t0)
        self._pages[page_id] = dirty
        self._pages.move_to_end(page_id)
        self.puts += 1
        overflow: list[tuple[int, bool]] = []
        while len(self._pages) > self.capacity_pages:
            victim, victim_dirty = self._pages.popitem(last=False)
            overflow.append((victim, victim_dirty))
        return overflow

    def get(self, page_id: int, breakdown: CostBreakdown | None = None):
        """Generator: fetch a page back; returns its dirty flag."""
        dirty = self._pages.pop(page_id)
        t0 = self.env.now
        yield from self.network.transfer(
            self.remote_port, self.local_port, specs.PAGE_BYTES
        )
        if breakdown is not None:
            breakdown.add("network_io", self.env.now - t0)
        self.gets += 1
        return dirty

    def drain(self) -> list[tuple[int, bool]]:
        """Give every cached page back (helper is shutting down)."""
        pages = list(self._pages.items())
        self._pages.clear()
        return pages


class BufferPool:
    """A node's page buffer: LRU frames, per-page latches, write-back."""

    def __init__(self, env: Environment, cpu: Cpu, capacity_pages: int,
                 resolver: typing.Callable[[int], PageIO], name: str = "buffer"):
        if capacity_pages < 1:
            raise ValueError("buffer pool needs at least one frame")
        self.env = env
        self.cpu = cpu
        self.capacity_pages = capacity_pages
        self.name = name
        self._resolver = resolver
        #: Resident frames in LRU order: a frame is inserted at the end
        #: and moved to the end on every hit.
        self._frames: collections.OrderedDict[int, _Frame] = collections.OrderedDict()
        #: Held latches: a page is here exactly while its latch is held.
        #: The value is the FIFO of events the fetchers queued behind
        #: the holder wait on, or None while nobody has had to wait.
        self._latched: dict[int, collections.deque[Event] | None] = {}
        self.remote_extension: RemoteBufferExtension | None = None
        self.hits = 0
        self.misses = 0
        self.remote_hits = 0
        self.evictions = 0
        self.latch_contended = 0

    # -- introspection -----------------------------------------------------

    @property
    def resident_pages(self) -> int:
        return len(self._frames)

    def is_resident(self, page_id: int) -> bool:
        return page_id in self._frames

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses + self.remote_hits
        return self.hits / total if total else 0.0

    # -- core protocol -----------------------------------------------------

    def fetch(self, page_id: int, breakdown: CostBreakdown | None = None):
        """Make the page resident and pin it: a step
        (``yield from pool.fetch(page_id)``).

        A resident page with a free latch is a hit taken on the spot:
        the latch is held across the hit's CPU charge and released
        after it, inline when that charge is ``DONE``.  Misses and
        contended latches wait in :meth:`_fetch`, where concurrent
        fetchers of the same non-resident page queue on its latch in
        arrival order, so only one disk read is issued.
        """
        latched = self._latched
        frame = self._frames.get(page_id)
        if frame is None or page_id in latched:
            return self._fetch(page_id, breakdown)
        latched[page_id] = None
        return ensure(self._hit(page_id, frame), self._unlatch, page_id)

    def _hit(self, page_id: int, frame: _Frame):
        """Pin a resident page under its latch; the CPU charge is the
        returned step."""
        self.hits += 1
        self._frames.move_to_end(page_id)
        frame.pins += 1
        return self.cpu.execute(specs.CPU_BUFFER_HIT_SECONDS)

    def _unlatch(self, page_id: int) -> None:
        latched = self._latched
        waiters = latched[page_id]
        if waiters:
            # Hand the latch to the next fetcher; it stays held.
            waiters.popleft().succeed()
        else:
            del latched[page_id]

    def _fetch(self, page_id: int, breakdown: CostBreakdown | None):
        latched = self._latched
        if page_id not in latched:
            # A free latch is taken on the spot: no event, no wait.
            latched[page_id] = None
        else:
            self.latch_contended += 1
            t0 = self.env.now
            waiters = latched[page_id]
            if waiters is None:
                waiters = latched[page_id] = collections.deque()
            turn = self.env.event()
            waiters.append(turn)
            yield turn
            if breakdown is not None:
                breakdown.add("latching", self.env.now - t0)
        try:
            frame = self._frames.get(page_id)
            if frame is not None:
                yield from self._hit(page_id, frame)
                return
            yield from self._make_room(breakdown)
            # Reserve the frame before the read: concurrent misses on
            # other pages must see this slot as taken, or the pool can
            # overshoot its capacity while reads are in flight.
            frame = _Frame()
            frame.pins = 1
            self._frames[page_id] = frame
            try:
                if (self.remote_extension is not None
                        and page_id in self.remote_extension):
                    self.remote_hits += 1
                    dirty = yield from self.remote_extension.get(
                        page_id, breakdown)
                else:
                    self.misses += 1
                    dirty = False
                    yield from self._resolver(page_id).read(breakdown)
            except BaseException:
                del self._frames[page_id]
                raise
            frame.dirty = dirty
        finally:
            self._unlatch(page_id)

    def unpin(self, page_id: int, dirty: bool = False) -> None:
        frame = self._frames.get(page_id)
        if frame is None or frame.pins <= 0:
            raise RuntimeError(f"unpin of page {page_id} that is not pinned")
        frame.pins -= 1
        if dirty:
            frame.dirty = True

    def _make_room(self, breakdown: CostBreakdown | None):
        """Generator: evict until one frame is free.

        With a remote extension, *dirty* victims go to the helper's
        memory instead of the local disk — "still faster than flushing
        a page from the buffer and reading it back from disk when
        needed" (Sect. 5.2).  Clean victims are simply dropped (they
        can be re-read; shipping them would waste the wire).
        """
        while len(self._frames) >= self.capacity_pages:
            victim_id = self._pick_victim()
            frame = self._frames.pop(victim_id)
            self.evictions += 1
            if not frame.dirty:
                continue
            if self.remote_extension is not None:
                overflow = yield from self.remote_extension.put(
                    victim_id, True, breakdown
                )
                for overflow_id, overflow_dirty in overflow:
                    if overflow_dirty:
                        yield from self._write_back(overflow_id, breakdown)
            else:
                yield from self._write_back(victim_id, breakdown)

    def _pick_victim(self) -> int:
        # A pinned frame was just fetched, so it sits at the MRU end:
        # the first frame is unpinned unless nearly all are pinned.
        for page_id, frame in self._frames.items():
            if not frame.pins:
                return page_id
        raise BufferPoolExhaustedError(
            f"{self.name}: all {self.capacity_pages} frames pinned"
        )

    def _write_back(self, page_id: int, breakdown: CostBreakdown | None):
        return self._resolver(page_id).write(breakdown)

    # -- maintenance -------------------------------------------------------

    def write_back(self, page_ids: typing.Iterable[int]):
        """Generator: write back the dirty resident frames among
        ``page_ids`` and mark them clean.  Pinned frames are written
        too (flush-under-pin): a pin means a reader or writer holds the
        frame, not that its contents may be withheld from the extent."""
        for page_id in page_ids:
            frame = self._frames.get(page_id)
            if frame is not None and frame.dirty:
                yield from self._write_back(page_id, None)
                frame.dirty = False

    def flush_all(self):
        """Generator: write back every dirty frame (checkpoint-style)."""
        yield from self.write_back(list(self._frames))
        if self.remote_extension is not None:
            for page_id, dirty in self.remote_extension.drain():
                if dirty:
                    yield from self._write_back(page_id, None)

    def discard_unpinned(self, page_ids: typing.Iterable[int]) -> None:
        """Drop the resident, unpinned frames among ``page_ids`` (their
        segment's extent moved to another node).  Pinned frames stay as
        they are — still dirty if dirty: under physical partitioning
        this node keeps writing them back, remotely."""
        for page_id in page_ids:
            frame = self._frames.get(page_id)
            if frame is not None and frame.pins == 0:
                self.discard(page_id)

    def forget(self, page_ids: typing.Iterable[int]) -> None:
        """Drop the frames among ``page_ids`` for good (their extent left
        this node).  A pinned one ages out of the pool instead, but clean:
        with no extent behind it, it must never be written back."""
        for page_id in page_ids:
            frame = self._frames.get(page_id)
            if frame is not None and frame.pins > 0:
                frame.dirty = False
            else:
                self.discard(page_id)

    def discard(self, page_id: int) -> None:
        """Drop a page without write-back (its segment left this node)."""
        frame = self._frames.get(page_id)
        if frame is None:
            return
        if frame.pins > 0:
            # A rejected discard leaves the pinned page resident.
            raise RuntimeError(f"discarding pinned page {page_id}")
        del self._frames[page_id]
