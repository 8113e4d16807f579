"""Disk models: HDD and SSD as single-actuator queued resources.

A request costs one access time (seek + rotational delay for HDDs,
controller latency for SSDs) plus transfer time at the device's
sequential bandwidth.  Sequential follow-on requests can skip the
access penalty, which is what makes segment-granular migration
(physical / physiological partitioning) "almost raw disk speed"
compared to logical partitioning's scattered record reads.
"""

from __future__ import annotations

import dataclasses

from repro.errors import TransientError
from repro.hardware import specs
from repro.sim.engine import Environment, after
from repro.sim.resources import Resource


@dataclasses.dataclass(frozen=True)
class DiskSpec:
    """Static performance/energy envelope of a storage device."""

    kind: str
    access_seconds: float
    bandwidth_bytes_per_s: float
    capacity_bytes: int
    idle_watts: float
    active_watts: float

    def transfer_seconds(self, nbytes: int) -> float:
        return nbytes / self.bandwidth_bytes_per_s


HDD_SPEC = DiskSpec(
    kind="hdd",
    access_seconds=specs.HDD_ACCESS_SECONDS,
    bandwidth_bytes_per_s=specs.HDD_BANDWIDTH_BYTES_PER_S,
    capacity_bytes=specs.HDD_CAPACITY_BYTES,
    idle_watts=specs.HDD_IDLE_WATTS,
    active_watts=specs.HDD_ACTIVE_WATTS,
)

SSD_SPEC = DiskSpec(
    kind="ssd",
    access_seconds=specs.SSD_ACCESS_SECONDS,
    bandwidth_bytes_per_s=specs.SSD_BANDWIDTH_BYTES_PER_S,
    capacity_bytes=specs.SSD_CAPACITY_BYTES,
    idle_watts=specs.SSD_IDLE_WATTS,
    active_watts=specs.SSD_ACTIVE_WATTS,
)


class DiskFailedError(TransientError):
    """I/O against a failed device (fault injection)."""


class Disk:
    """One storage device attached to a node."""

    def __init__(self, env: Environment, spec: DiskSpec, name: str = "disk"):
        self.env = env
        self.spec = spec
        self.name = name
        self._resource = Resource(env, capacity=1, name=name)
        #: Operation counters for the monitor (IOPS bands, Sect. 3.4).
        self.reads = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.failed = False
        #: Gray-failure knob: every I/O takes this many times longer
        #: (a limping spindle — vibration, pending-sector remaps, a
        #: dying bearing — that still completes every request).
        self.slow_factor = 1.0

    def fail(self) -> None:
        """Mark the device dead; all subsequent I/O raises."""
        self.failed = True

    def repair(self) -> None:
        """Bring a failed device back (drive swap); contents are gone —
        callers must re-replicate onto it.  The replacement drive is
        healthy: any limping factor is cleared too."""
        self.failed = False
        self.slow_factor = 1.0

    def slow_down(self, factor: float) -> None:
        """Make the device limp: multiply every I/O's service time by
        ``factor`` (>= 1).  Unlike :meth:`fail`, requests still
        succeed — the gray failure the latency-outlier detector exists
        to catch."""
        if factor < 1.0:
            raise ValueError(f"slow factor must be >= 1, got {factor}")
        self.slow_factor = factor

    def restore_speed(self) -> None:
        self.slow_factor = 1.0

    def read(self, nbytes: int, sequential: bool = False):
        """Read ``nbytes``: a step (:meth:`Resource.serve`), ``DONE``
        when the device was free and nothing could pre-empt the I/O.

        ``sequential=True`` skips the access penalty — used for the
        tail pages of a batched segment read.
        """
        return self._io(nbytes, sequential, False)

    def write(self, nbytes: int, sequential: bool = False):
        """Write ``nbytes``: a step, like :meth:`read`."""
        return self._io(nbytes, sequential, True)

    def _io(self, nbytes: int, sequential: bool, write: bool):
        if self.failed:
            raise DiskFailedError(f"disk {self.name} has failed")
        if nbytes < 0:
            raise ValueError(f"negative I/O size: {nbytes}")
        duration = self.spec.transfer_seconds(nbytes)
        if not sequential:
            duration += self.spec.access_seconds
        if self.slow_factor != 1.0:
            duration *= self.slow_factor
        return after(self._resource.serve(duration), self._count,
                     nbytes, write)

    def _count(self, nbytes: int, write: bool) -> None:
        """Operation counters move when the I/O completes."""
        if write:
            self.writes += 1
            self.bytes_written += nbytes
        else:
            self.reads += 1
            self.bytes_read += nbytes

    def read_page(self):
        """Random read of one page (a step)."""
        return self._io(specs.PAGE_BYTES, False, False)

    def write_page(self):
        """Random write of one page (a step)."""
        return self._io(specs.PAGE_BYTES, False, True)

    @property
    def tracker(self):
        return self._resource.tracker

    @property
    def io_count(self) -> int:
        return self.reads + self.writes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Disk {self.name} ({self.spec.kind})>"
