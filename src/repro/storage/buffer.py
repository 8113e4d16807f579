"""Buffer pool with latch contention and an rDMA remote extension.

The pool simulates residency and timing: page *contents* live in the
segment objects (plain Python memory), while the pool decides whether
an access costs a buffer hit, a disk read, or — with the helper-node
extension of the paper's final experiment — a remote-memory fetch,
"still faster than flushing a page from the buffer and reading it back
from disk when needed" (Sect. 5.2).

Per-page latches are real queued resources: when rebalancing floods the
pool, queries measurably wait on latches, which is one of the Fig. 7
components.
"""

from __future__ import annotations

import collections
import heapq
import typing

from repro.hardware import specs
from repro.hardware.cpu import Cpu
from repro.hardware.network import Network, NetworkPort
from repro.metrics.breakdown import CostBreakdown
from repro.sim.engine import Environment
from repro.sim.resources import Resource


class BufferPoolExhaustedError(RuntimeError):
    """Every frame is pinned; the pool cannot make room."""


class PageIO(typing.Protocol):  # pragma: no cover - typing aid
    """What the pool needs to move one page to/from its home."""

    def read(self, breakdown: CostBreakdown | None) -> typing.Generator: ...

    def write(self, breakdown: CostBreakdown | None) -> typing.Generator: ...


class _Frame:
    __slots__ = ("pins", "dirty", "stamp")

    def __init__(self):
        self.pins = 0
        self.dirty = False
        #: Monotonic LRU stamp: reassigned on every insertion and every
        #: hit, so ascending stamp order equals the pool's LRU order.
        self.stamp = 0


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
        self._frames: collections.OrderedDict[int, _Frame] = collections.OrderedDict()
        # Latch Resources exist only for pages with *actual* contention;
        # the common case holds the latch via ``_fast_latched`` with no
        # Resource, no queue, and no tracker updates.  A page appears in
        # ``_fast_latched`` while its latch is held on the fast path; the
        # value is the placeholder Request seated in the upgraded
        # Resource if contention arrived mid-hold, else None.
        self._latches: dict[int, Resource] = {}
        self._fast_latched: dict[int, typing.Any] = {}
        # Lazy min-heap of (stamp, page_id) eviction candidates: entries
        # are pushed when a frame's pin count drops to zero and verified
        # against the frame's current stamp when popped, so
        # ``_pick_victim`` never scans pinned frames.
        self._unpinned: list[tuple[int, int]] = []
        #: Heap entries invalidated since the last compaction (page
        #: re-pinned, discarded, or evicted from under them).  They stay
        #: in the heap as tombstones and are skipped by ``_pick_victim``;
        #: the heap is rebuilt only once they dominate — the same lazy
        #: policy as the resource wait queues.
        self._stale = 0
        self._stamp = 0
        self.remote_extension: RemoteBufferExtension | None = None
        self.hits = 0
        self.misses = 0
        self.remote_hits = 0
        self.evictions = 0
        self.latch_fast_hits = 0
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
        """Generator: make the page resident and pin it.

        Concurrent fetchers of the same non-resident page queue on its
        latch, so only one disk read is issued.  Uncontended latches
        (the overwhelming majority) are held via ``_fast_latched`` with
        no Resource at all; a queued Resource is materialised only when
        a second fetcher actually collides, and reaped once idle.
        """
        t0 = self.env.now
        latch = self._latches.get(page_id)
        if latch is None and page_id not in self._fast_latched:
            self.latch_fast_hits += 1
            self._fast_latched[page_id] = None
            request = None
            # One zero-delay hop — exactly the trip an uncontended
            # Resource grant costs, so the clock sees no difference.
            yield self.env.immediate()
        else:
            self.latch_contended += 1
            if latch is None:
                # Contention against a fast-path hold: upgrade by
                # seating the holder in a fresh Resource (no grant
                # event — it already holds the latch) and queue behind.
                latch = Resource(self.env, capacity=1,
                                 name=f"{self.name}.latch{page_id}")
                self._latches[page_id] = latch
                self._fast_latched[page_id] = latch._admit_holder()
            request = latch.request()
            yield request
        if breakdown is not None:
            breakdown.add("latching", self.env.now - t0)
        try:
            frame = self._frames.get(page_id)
            if frame is not None:
                self.hits += 1
                self._frames.move_to_end(page_id)
                if frame.pins == 0:
                    # Re-pinning orphans the frame's eviction-candidate
                    # heap entry (pushed on the last pin-count-zero).
                    self._stale += 1
                self._stamp += 1
                frame.stamp = self._stamp
                frame.pins += 1
                yield from self.cpu.execute(specs.CPU_BUFFER_HIT_SECONDS)
                return
            yield from self._make_room(breakdown)
            # Reserve the frame before the read: concurrent misses on
            # other pages must see this slot as taken, or the pool can
            # overshoot its capacity while reads are in flight.
            frame = _Frame()
            frame.pins = 1
            self._stamp += 1
            frame.stamp = self._stamp
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
                    io = self._resolver(page_id)
                    start = self.env.now
                    yield from io.read(breakdown)
                    if breakdown is not None:
                        breakdown.add("disk_io", self.env.now - start)
            except BaseException:
                del self._frames[page_id]
                raise
            frame.dirty = dirty
        finally:
            self._release_latch(page_id, request)

    def _release_latch(self, page_id: int, request) -> None:
        if request is not None:
            latch = request.resource
            latch.release(request)
            if (not latch.users and not latch.queue_length
                    and page_id not in self._fast_latched
                    and self._latches.get(page_id) is latch):
                del self._latches[page_id]
            return
        placeholder = self._fast_latched.pop(page_id, None)
        if placeholder is not None:
            # Waiters arrived during the fast-path hold: hand over.
            latch = placeholder.resource
            latch.release(placeholder)
            if (not latch.users and not latch.queue_length
                    and self._latches.get(page_id) is latch):
                del self._latches[page_id]

    def unpin(self, page_id: int, dirty: bool = False) -> None:
        frame = self._frames.get(page_id)
        if frame is None or frame.pins <= 0:
            raise RuntimeError(f"unpin of page {page_id} that is not pinned")
        frame.pins -= 1
        if dirty:
            frame.dirty = True
        if frame.pins == 0:
            heapq.heappush(self._unpinned, (frame.stamp, page_id))
            if self._stale > 32 and self._stale * 2 > len(self._unpinned):
                self._compact_unpinned()

    def _compact_unpinned(self) -> None:
        """Rebuild the candidate heap from the live unpinned frames.

        Called once tombstones dominate, so the amortized cost per
        invalidation is O(1) and the heap stays bounded by roughly one
        entry per frame plus the tombstone allowance — long runs no
        longer accrete stale ``(stamp, page_id)`` pairs without limit.
        """
        self._unpinned = [(frame.stamp, page_id)
                          for page_id, frame in self._frames.items()
                          if frame.pins == 0]
        heapq.heapify(self._unpinned)
        self._stale = 0

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
            latch = self._latches.get(victim_id)
            if latch is not None and not latch.users and not latch.queue_length:
                del self._latches[victim_id]
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
        # Ascending stamp order is the pool's LRU order, so the smallest
        # *valid* heap entry is exactly the frame the full LRU scan would
        # have chosen.  Entries whose page was evicted, re-pinned, or
        # re-stamped since they were pushed are discarded lazily here.
        heap = self._unpinned
        while heap:
            stamp, page_id = heap[0]
            frame = self._frames.get(page_id)
            if frame is None or frame.stamp != stamp or frame.pins:
                heapq.heappop(heap)
                self._stale -= 1
                continue
            heapq.heappop(heap)
            return page_id
        raise BufferPoolExhaustedError(
            f"{self.name}: all {self.capacity_pages} frames pinned"
        )

    def _write_back(self, page_id: int, breakdown: CostBreakdown | None):
        io = self._resolver(page_id)
        start = self.env.now
        yield from io.write(breakdown)
        if breakdown is not None:
            breakdown.add("disk_io", self.env.now - start)

    # -- maintenance -------------------------------------------------------

    def flush_all(self, breakdown: CostBreakdown | None = None):
        """Generator: write back every dirty frame (checkpoint-style)."""
        for page_id, frame in list(self._frames.items()):
            if frame.dirty:
                yield from self._write_back(page_id, breakdown)
                frame.dirty = False
        if self.remote_extension is not None:
            for page_id, dirty in self.remote_extension.drain():
                if dirty:
                    yield from self._write_back(page_id, breakdown)

    def discard_unpinned(self, page_ids: typing.Iterable[int]) -> None:
        """Drop the resident, unpinned frames among ``page_ids`` (their
        segment's extent moved to another node).  Pinned frames stay as
        they are — still dirty if dirty: under physical partitioning
        this node keeps writing them back, remotely."""
        for page_id in page_ids:
            frame = self._frames.get(page_id)
            if frame is not None and frame.pins == 0:
                self.discard(page_id)

    def discard(self, page_id: int) -> None:
        """Drop a page without write-back (its segment left this node)."""
        frame = self._frames.get(page_id)
        if frame is not None and frame.pins > 0:
            # Checked before touching the frame table: a rejected
            # discard must leave the pinned page resident, not half-drop
            # it and raise.
            raise RuntimeError(f"discarding pinned page {page_id}")
        if frame is not None:
            del self._frames[page_id]
            # The dropped frame was unpinned, so its eviction-candidate
            # heap entry is now a tombstone.
            self._stale += 1
        latch = self._latches.get(page_id)
        if latch is not None and not latch.users and not latch.queue_length:
            del self._latches[page_id]
