"""Segment placement on a node's disks.

Implements the paper's first two scale-out policies (Sect. 3.4): data
lives on local disks to minimise network communication, and utilisation
among a node's disks is balanced locally before other nodes are
considered.  Segments are preallocated extents, so accounting is in
whole segment extents.
"""

from __future__ import annotations

import typing

from repro.hardware.disk import Disk
from repro.storage.segment import Segment


class OutOfDiskSpaceError(RuntimeError):
    """No local disk can hold another segment extent."""


class DiskSpaceManager:
    """Tracks which disk holds which segment on one node."""

    def __init__(self, disks: typing.Sequence[Disk]):
        if not disks:
            raise ValueError("a node needs at least one disk")
        self.disks = list(disks)
        self._used_bytes: dict[int, int] = {id(d): 0 for d in self.disks}
        self._placement: dict[int, Disk] = {}

    def used_bytes(self, disk: Disk) -> int:
        return self._used_bytes[id(disk)]

    def free_bytes(self, disk: Disk) -> int:
        return disk.spec.capacity_bytes - self._used_bytes[id(disk)]

    @property
    def total_free_bytes(self) -> int:
        return sum(self.free_bytes(d) for d in self.disks)

    def segment_count(self) -> int:
        return len(self._placement)

    def place(self, segment: Segment, disk: Disk | None = None) -> Disk:
        """Choose a disk for ``segment`` and record the placement.

        Without an explicit ``disk``, picks the candidate with the most
        free space among the *least I/O-loaded* disks — the local
        balancing step the paper describes before data moves off-node.
        """
        if segment.segment_id in self._placement:
            raise ValueError(f"segment {segment.segment_id} is already placed")
        if disk is None:
            candidates = [
                d for d in self.disks if self.free_bytes(d) >= segment.extent_bytes
            ]
            if not candidates:
                raise OutOfDiskSpaceError(
                    f"no disk has {segment.extent_bytes} B free for "
                    f"segment {segment.segment_id}"
                )
            min_io = min(d.io_count for d in candidates)
            quiet = [d for d in candidates if d.io_count == min_io]
            disk = max(quiet, key=self.free_bytes)
        else:
            if disk not in self.disks:
                raise ValueError("disk does not belong to this node")
            if self.free_bytes(disk) < segment.extent_bytes:
                raise OutOfDiskSpaceError(
                    f"disk {disk.name} lacks room for segment {segment.segment_id}"
                )
        self._placement[segment.segment_id] = disk
        self._used_bytes[id(disk)] += segment.extent_bytes
        return disk

    def evict(self, segment: Segment) -> Disk:
        """Forget a segment's placement (it moved away or was dropped)."""
        disk = self._placement.pop(segment.segment_id, None)
        if disk is None:
            raise KeyError(f"segment {segment.segment_id} is not placed here")
        self._used_bytes[id(disk)] -= segment.extent_bytes
        return disk

    def disk_of(self, segment_id: int) -> Disk:
        disk = self._placement.get(segment_id)
        if disk is None:
            raise KeyError(f"segment {segment_id} is not placed on this node")
        return disk

    def holds(self, segment_id: int) -> bool:
        return segment_id in self._placement

    def placements(self) -> typing.Iterator[tuple[int, Disk]]:
        yield from self._placement.items()
