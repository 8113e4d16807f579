"""CPU model: a multi-core processor as a queued resource.

Query operators, transaction bookkeeping, and migration work all charge
CPU seconds here; contention between concurrent queries on a node shows
up as queueing delay, which is what drives the crossover in the paper's
Fig. 2 (offloading beats local execution once the local CPU saturates).
"""

from __future__ import annotations

from repro.sim.engine import DONE, Environment
from repro.sim.resources import Resource


class Cpu:
    """A node's processor: ``cores`` independent execution units."""

    def __init__(self, env: Environment, cores: int, name: str = "cpu"):
        if cores < 1:
            raise ValueError(f"cpu needs at least one core, got {cores}")
        self.env = env
        self.cores = cores
        self.name = name
        self._resource = Resource(env, capacity=cores, name=name)

    def execute(self, seconds: float):
        """Occupy one core for ``seconds`` of CPU time:
        ``yield from cpu.execute(specs.CPU_SCAN_SECONDS_PER_RECORD)``.

        A step (:meth:`Resource.serve`): ``DONE`` when nothing had to
        wait, including for zero seconds.
        """
        if seconds < 0:
            raise ValueError(f"negative cpu time: {seconds}")
        if seconds == 0:
            return DONE
        return self._resource.serve(seconds)

    @property
    def tracker(self):
        """Utilisation tracker shared with the power model and monitor."""
        return self._resource.tracker

    @property
    def in_use(self) -> int:
        return self._resource.in_use

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Cpu {self.name} cores={self.cores} busy={self.in_use}>"
