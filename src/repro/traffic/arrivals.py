"""Arrival processes: the demand side of the open-loop traffic engine.

The paper's elasticity argument (Sect. 3.4) and the companion
wimpy-cluster study both rest on *fluctuating* load — energy
proportionality pays off exactly when demand has peaks and valleys the
cluster can track.  The generators here produce that demand: a
deterministic intensity function ``rate(t)`` (expected logical requests
per second) that processes can be composed from, plus a seeded Poisson
sampler that turns intensity into integer arrival counts per tick.

Everything is a pure function of ``(seed, t)``: two runs with the same
seed replay the identical arrival sequence, which is what makes the
elasticity experiment bit-reproducible.
"""

from __future__ import annotations

import dataclasses
import math
import random
import typing


def sample_poisson(rng: random.Random, lam: float) -> int:
    """One draw from Poisson(lam) off the given seeded stream.

    Knuth's product method for small intensities; for large ``lam`` the
    normal approximation (mean lam, variance lam) keeps the draw O(1)
    — at thousands of arrivals per tick the relative error of the
    approximation is far below the run-to-run variance it feeds.
    Either path consumes a deterministic, seed-replayable number of
    random values for a given ``lam``.
    """
    if lam <= 0:
        return 0
    if lam > 500.0:
        return max(0, round(rng.gauss(lam, math.sqrt(lam))))
    threshold = math.exp(-lam)
    count = 0
    product = rng.random()
    while product > threshold:
        count += 1
        product *= rng.random()
    return count


class ArrivalProcess:
    """An intensity function: expected logical requests per second."""

    def rate(self, t: float) -> float:
        raise NotImplementedError

    # -- composition -----------------------------------------------------

    def __add__(self, other: "ArrivalProcess") -> "ArrivalProcess":
        return CompositeArrivals([self, other])


@dataclasses.dataclass(frozen=True)
class ConstantArrivals(ArrivalProcess):
    """A flat intensity — the degenerate trace."""

    rate_per_second: float

    def __post_init__(self):
        if self.rate_per_second < 0:
            raise ValueError("arrival rate cannot be negative")

    def rate(self, t: float) -> float:
        return self.rate_per_second


@dataclasses.dataclass(frozen=True)
class DiurnalArrivals(ArrivalProcess):
    """A day/night cycle: sinusoid around a base rate.

    ``rate(t) = base * (1 + amplitude * sin(2 pi (t - phase) / period))``
    clamped at zero, so ``amplitude=1`` means the valley goes fully
    quiet and the peak doubles the base.
    """

    base_rate: float
    amplitude: float = 0.6
    period: float = 86_400.0
    phase: float = 0.0

    def __post_init__(self):
        if self.base_rate < 0:
            raise ValueError("base rate cannot be negative")
        if not 0 <= self.amplitude <= 1:
            raise ValueError("amplitude must be in [0, 1]")
        if self.period <= 0:
            raise ValueError("period must be positive")

    def rate(self, t: float) -> float:
        wave = math.sin(2.0 * math.pi * (t - self.phase) / self.period)
        return max(self.base_rate * (1.0 + self.amplitude * wave), 0.0)


@dataclasses.dataclass(frozen=True)
class FlashCrowd(ArrivalProcess):
    """A transient burst: linear ramp up, hold, exponential decay.

    Models the flash-crowd shape (a link going viral): zero outside the
    window, ramping to ``peak_rate`` over ``ramp`` seconds, holding for
    ``hold``, then decaying with time constant ``decay``.
    """

    peak_rate: float
    start: float
    ramp: float = 60.0
    hold: float = 120.0
    decay: float = 120.0

    def __post_init__(self):
        if self.peak_rate < 0:
            raise ValueError("peak rate cannot be negative")
        if self.ramp <= 0 or self.decay <= 0 or self.hold < 0:
            raise ValueError("ramp/decay must be positive, hold >= 0")

    def rate(self, t: float) -> float:
        dt = t - self.start
        if dt < 0:
            return 0.0
        if dt < self.ramp:
            return self.peak_rate * dt / self.ramp
        dt -= self.ramp
        if dt < self.hold:
            return self.peak_rate
        dt -= self.hold
        return self.peak_rate * math.exp(-dt / self.decay)


class CompositeArrivals(ArrivalProcess):
    """Sum of component intensities (diurnal base + flash crowds)."""

    def __init__(self, parts: typing.Sequence[ArrivalProcess]):
        if not parts:
            raise ValueError("composite needs at least one component")
        flattened: list[ArrivalProcess] = []
        for part in parts:
            if isinstance(part, CompositeArrivals):
                flattened.extend(part.parts)
            else:
                flattened.append(part)
        self.parts = tuple(flattened)

    def rate(self, t: float) -> float:
        return sum(part.rate(t) for part in self.parts)
