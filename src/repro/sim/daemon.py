"""The one lifecycle of a fixed-cadence background daemon.

Vacuum, scrub and checkpoint each wake every ``interval`` simulated
seconds until ``until``.  What is worth sharing is the bound handling:
the final wakeup is *scheduled at* ``until`` and the decision to exit
rides on that scheduled target, never on ``env.now`` re-accumulated
from float steps — so no tick can land an ulp past ``until`` on a
drained environment.
"""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Environment


class PeriodicDaemon:
    """``start()`` / ``stop()`` / ``stopped`` around a subclass's
    ``_tick()``, which is either a plain method or a generator the
    daemon process delegates to."""

    def __init__(self, env: "Environment", kind: str, interval: float,
                 until: float | None = None):
        if interval <= 0:
            raise ValueError(f"{kind} interval must be positive")
        self.env = env
        self.kind = kind
        self.interval = interval
        self.until = until
        self.process = None
        self._stop = False

    def start(self):
        self.process = self.env.process(self._run(),
                                        name=f"{self.kind}-daemon")
        return self

    def stop(self) -> None:
        """Ask the daemon to exit at its next wakeup."""
        self._stop = True

    @property
    def stopped(self) -> bool:
        return self._stop

    def _run(self):
        env = self.env
        while not self._stop:
            target = env.now + self.interval
            at_bound = False
            if self.until is not None:
                if self.until <= env.now:
                    break
                if target >= self.until:
                    target = self.until
                    at_bound = True
            yield env.timeout(target - env.now)
            if self._stop:
                break
            work = self._tick()
            if work is not None:
                yield from work
            if at_bound:
                break

    def _tick(self):
        raise NotImplementedError
