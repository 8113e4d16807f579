"""Capture shims: keep the live objects of one run and clock its phases.

The experiments build their cluster, driver and daemons inside
``run_*`` and return plain data, so the counters the ledger wants would
be gone by the time the call returns.  :func:`shims` wraps the public
constructors for the duration of one call and files every instance
under its class name; it also wraps ``Environment.run`` to note when
the first simulated second starts, which is where set-up ends.

It also runs a short *reference spin* — a fixed piece of arithmetic —
around set-up and, by wrapping ``ClusterEnergyMeter.sample``, which
every experiment calls on a fixed simulated period, some twenty times
across the run phase.  The machines this runs on share cores: the same
python takes 3.5 s or 6.9 s depending on the neighbours, and the mood
lasts from a fifth of a second to minutes.  The spin is slowed by the
same neighbours at the same moments, so phase time divided by spin time
stays put (within 5 % where raw seconds move by 2x); ``rep.py`` does
the arithmetic.
"""

from __future__ import annotations

import contextlib
import functools
import time

#: Iterations of one reference spin, and what one spin costs on a quiet
#: core of the machine this was built on.  The second only sets the
#: scale of ``host_s`` so that it reads as seconds of that machine.
SPIN_ROUNDS = 100_000
SPIN_REFERENCE_S = 0.0055
#: Spins run just before and just after set-up (set-up is too short,
#: and too early, to have meter samples inside it).
SETUP_SPINS = 3


def _captured_classes() -> list[type]:
    from repro.cluster.cluster import Cluster
    from repro.core import Rebalancer
    from repro.reads import ReadTier
    from repro.traffic import SessionEngine
    from repro.workload import WorkloadDriver

    return [Cluster, WorkloadDriver, SessionEngine, Rebalancer, ReadTier]


def reference_spin(cells: list[float], rounds: int = SPIN_ROUNDS) -> float:
    """Fixed arithmetic over a fixed array.  It allocates floats only —
    no container — so the garbage collector never runs inside it and
    its cost does not depend on the heap of the run around it."""
    x = 0.0
    for k in range(rounds):
        i = k & 1023
        x = cells[i] = (cells[i] + x) * 0.5 + 1.0
    return x


class Capture:
    """What one shimmed ``run_*`` call left behind."""

    def __init__(self):
        #: class name -> instances, in construction order.
        self.objects: dict[str, list] = {}
        #: ``time.process_time()`` at the first ``Environment.run``:
        #: where set-up ends.
        self.setup_ended_cpu: float | None = None
        #: Both clocks a moment later, past the spins that close set-up:
        #: where the run phase begins.
        self.run_began_at: float | None = None
        self.run_began_cpu: float | None = None
        #: Reference spins inside the run phase and what they took.
        self.run_spins = 0
        self.run_spin_cpu_s = 0.0
        self.run_spin_wall_s = 0.0
        #: CPU seconds of the ``SETUP_SPINS`` spins that close set-up.
        self.setup_spin_cpu_s = 0.0
        self._cells = [float(i) for i in range(1024)]

    def spin(self, count: int = 1) -> tuple[float, float]:
        """Run ``count`` reference spins; (CPU, wall) seconds taken."""
        began, began_cpu = time.perf_counter(), time.process_time()
        for _ in range(count):
            reference_spin(self._cells)
        return (time.process_time() - began_cpu,
                time.perf_counter() - began)

    def all(self, kind: str) -> list:
        return self.objects.get(kind, [])

    def one(self, kind: str):
        """The single instance of ``kind`` (the workloads build exactly
        one cluster and one driver or engine)."""
        found = self.all(kind)
        if len(found) != 1:
            raise LookupError(f"expected one {kind}, captured {len(found)}")
        return found[0]


@contextlib.contextmanager
def shims(capture: Capture):
    """Install the wrappers; restore the originals on the way out, also
    when the run raises."""
    from repro.hardware.power import ClusterEnergyMeter
    from repro.sim.engine import Environment

    originals: list[tuple[type, str, object]] = []

    def wrap_constructor(cls: type) -> None:
        original = cls.__init__
        sink = capture.objects.setdefault(cls.__name__, [])

        @functools.wraps(original)
        def __init__(self, *args, **kwargs):
            original(self, *args, **kwargs)
            sink.append(self)

        originals.append((cls, "__init__", original))
        cls.__init__ = __init__

    original_run = Environment.run

    @functools.wraps(original_run)
    def run(self, *args, **kwargs):
        if capture.setup_ended_cpu is None:
            capture.setup_ended_cpu = time.process_time()
            capture.setup_spin_cpu_s += capture.spin(SETUP_SPINS)[0]
            capture.run_began_at = time.perf_counter()
            capture.run_began_cpu = time.process_time()
        return original_run(self, *args, **kwargs)

    original_sample = ClusterEnergyMeter.sample

    @functools.wraps(original_sample)
    def sample(self):
        cpu_s, wall_s = capture.spin()
        capture.run_spin_cpu_s += cpu_s
        capture.run_spin_wall_s += wall_s
        capture.run_spins += 1
        return original_sample(self)

    try:
        for cls in _captured_classes():
            wrap_constructor(cls)
        originals.append((Environment, "run", original_run))
        Environment.run = run
        originals.append((ClusterEnergyMeter, "sample", original_sample))
        ClusterEnergyMeter.sample = sample
        yield capture
    finally:
        for cls, name, original in originals:
            setattr(cls, name, original)
