"""Load forecasting for proactive elasticity.

"WattDB makes decisions based on the current workload, the course of
utilization in the recent past, and the expected future workloads [8].
Additionally, workload shifts can be user-defined to inform the cluster
of an expected change in utilization." (Sect. 3.4)

Two ingredients, matching that sentence:

* :class:`LoadForecaster` — double-exponential (Holt) smoothing over
  the monitoring stream: a level plus a trend, extrapolated a horizon
  into the future, so a rising load triggers scale-out *before* the
  utilisation bound is violated.
* user-defined :class:`WorkloadHint` entries — declared future shifts
  (e.g. "expect 3x load at 9:00") that override the extrapolation
  inside their window.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.cluster.monitor import NodeSample


@dataclasses.dataclass(frozen=True)
class WorkloadHint:
    """A user-declared future utilisation level for a time window."""

    start: float
    end: float
    expected_utilization: float

    def __post_init__(self):
        if self.end <= self.start:
            raise ValueError("hint window must have positive length")
        if not 0 <= self.expected_utilization <= 1:
            raise ValueError("expected_utilization must be in [0, 1]")

    def covers(self, time: float) -> bool:
        return self.start <= time < self.end


class LoadForecaster:
    """Holt double-exponential smoothing of per-node CPU utilisation."""

    def __init__(self, alpha: float = 0.5, beta: float = 0.3,
                 horizon: float = 30.0):
        if not 0 < alpha <= 1 or not 0 < beta <= 1:
            raise ValueError("smoothing factors must be in (0, 1]")
        if horizon <= 0:
            raise ValueError("forecast horizon must be positive")
        self.alpha = alpha
        self.beta = beta
        self.horizon = horizon
        #: node_id -> (level, trend_per_second, last_time)
        self._state: dict[int, tuple[float, float, float]] = {}
        self._hints: list[WorkloadHint] = []

    # -- hints ----------------------------------------------------------

    def add_hint(self, hint: WorkloadHint) -> None:
        self._hints.append(hint)

    def clear_expired_hints(self, now: float) -> None:
        self._hints = [h for h in self._hints if h.end > now]

    def _hinted(self, time: float) -> float | None:
        values = [
            h.expected_utilization for h in self._hints if h.covers(time)
        ]
        return max(values) if values else None

    # -- smoothing ----------------------------------------------------------

    def observe(self, sample: NodeSample) -> None:
        """Feed one monitoring sample."""
        state = self._state.get(sample.node_id)
        value = sample.cpu_utilization
        if state is None:
            self._state[sample.node_id] = (value, 0.0, sample.time)
            return
        level, trend, last_time = state
        dt = max(sample.time - last_time, 1e-9)
        predicted = level + trend * dt
        new_level = self.alpha * value + (1 - self.alpha) * predicted
        # Utilisation is a fraction: clamp the smoothed *state*, not
        # just the prediction, so a burst or step input can never drive
        # the level out of [0, 1] and poison later extrapolations.
        new_level = min(max(new_level, 0.0), 1.0)
        observed_trend = (new_level - level) / dt
        new_trend = self.beta * observed_trend + (1 - self.beta) * trend
        self._state[sample.node_id] = (new_level, new_trend, sample.time)

    def observe_all(self, samples: typing.Sequence[NodeSample]) -> None:
        for sample in samples:
            self.observe(sample)

    # -- prediction ----------------------------------------------------------

    def predict(self, node_id: int, now: float | None = None,
                horizon: float | None = None) -> float | None:
        """Expected CPU utilisation ``horizon`` seconds ahead (clamped
        to [0, 1]); None before any observation.  A user hint covering
        the target time takes precedence when higher."""
        state = self._state.get(node_id)
        if state is None:
            return None
        level, trend, last_time = state
        if now is None:
            now = last_time
        h = self.horizon if horizon is None else horizon
        target = now + h
        value = level + trend * (target - last_time)
        value = min(max(value, 0.0), 1.0)
        hinted = self._hinted(target)
        if hinted is not None:
            value = max(value, hinted)
        return value
