"""Time-bucketed series for the paper's evaluation plots.

All the paper's Fig. 6/8 panels are quantities sampled over rebalancing
time (x-axis: seconds since the rebalance was initiated, from -180 s to
+570 s).  :class:`TimeSeries` accumulates raw observations and exposes
per-bucket aggregates aligned to that axis.
"""

from __future__ import annotations

import math
import typing


def percentile(values: typing.Sequence[float], q: float) -> float:
    """The q-th percentile (0..100) with linear interpolation."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile out of range: {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    frac = rank - low
    interpolated = ordered[low] * (1 - frac) + ordered[high] * frac
    # Clamp: interpolation between subnormals can round outside the
    # bracket (e.g. 5e-324 * 0.5 rounds to 0).
    return min(max(interpolated, ordered[low]), ordered[high])


class LatencyHistogram:
    """Streaming log-bucketed latency histogram with tail percentiles.

    The traffic engine records one latency observation per *logical*
    request — millions of them per simulated day — so the histogram
    must be O(1) per record and O(buckets) in memory, never O(n).
    Bucket boundaries grow geometrically (``growth`` per bucket, default
    ~9% resolution), which keeps the relative error of any reported
    percentile below one bucket width across the whole range.

    ``record`` takes an optional integer ``count`` so one executed
    cohort can stand for many logical requests; percentiles are then
    computed over the weighted population.
    """

    def __init__(self, name: str = "", low: float = 1e-2,
                 high: float = 1e6, growth: float = 2 ** 0.125):
        if not 0 < low < high:
            raise ValueError("need 0 < low < high")
        if growth <= 1:
            raise ValueError("bucket growth factor must exceed 1")
        self.name = name
        self.low = low
        self.growth = growth
        self._log_growth = math.log(growth)
        # bucket i spans [low * growth**i, low * growth**(i+1)); one
        # underflow bucket below `low`, one overflow bucket above `high`.
        self._bucket_count = int(
            math.ceil(math.log(high / low) / self._log_growth)
        )
        self._counts = [0] * (self._bucket_count + 2)
        self.count = 0
        self.total = 0.0
        self.max_value = 0.0
        self.min_value = math.inf

    def _bucket(self, value: float) -> int:
        if value < self.low:
            return 0
        index = int(math.log(value / self.low) / self._log_growth) + 1
        return min(index, self._bucket_count + 1)

    def _bucket_bounds(self, index: int) -> tuple[float, float]:
        if index == 0:
            return (0.0, self.low)
        lo = self.low * self.growth ** (index - 1)
        return (lo, lo * self.growth)

    def record(self, value: float, count: int = 1) -> None:
        if count < 1:
            raise ValueError("count must be a positive integer")
        if value < 0:
            raise ValueError("latency cannot be negative")
        self._counts[self._bucket(value)] += count
        self.count += count
        self.total += value * count
        if value > self.max_value:
            self.max_value = value
        if value < self.min_value:
            self.min_value = value

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold another histogram (same geometry) into this one."""
        if (other.low != self.low or other.growth != self.growth
                or other._bucket_count != self._bucket_count):
            raise ValueError("cannot merge histograms with different buckets")
        for i, c in enumerate(other._counts):
            self._counts[i] += c
        self.count += other.count
        self.total += other.total
        self.max_value = max(self.max_value, other.max_value)
        self.min_value = min(self.min_value, other.min_value)

    def mean(self) -> float:
        if not self.count:
            raise ValueError(f"histogram {self.name!r} is empty")
        return self.total / self.count

    def percentile(self, q: float) -> float:
        """The q-th percentile (0..100), interpolated inside its bucket
        and clamped to the observed extremes."""
        if not self.count:
            raise ValueError(f"histogram {self.name!r} is empty")
        if not 0 <= q <= 100:
            raise ValueError(f"percentile out of range: {q}")
        rank = (q / 100) * self.count
        seen = 0
        for index, bucket_count in enumerate(self._counts):
            if not bucket_count:
                continue
            if seen + bucket_count >= rank:
                if index > self._bucket_count:
                    # Overflow bucket: its nominal upper bound is
                    # meaningless, so report the observed maximum.
                    return self.max_value
                lo, hi = self._bucket_bounds(index)
                frac = (rank - seen) / bucket_count
                value = lo + (hi - lo) * frac
                return min(max(value, self.min_value), self.max_value)
            seen += bucket_count
        return self.max_value

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    @property
    def p999(self) -> float:
        return self.percentile(99.9)

    def summary(self) -> dict[str, float | int]:
        """The SLO row the traffic reports print."""
        if not self.count:
            return {"count": 0, "mean": 0.0, "p50": 0.0, "p99": 0.0,
                    "p999": 0.0, "max": 0.0}
        return {
            "count": self.count,
            "mean": self.mean(),
            "p50": self.p50,
            "p99": self.p99,
            "p999": self.p999,
            "max": self.max_value,
        }


class TimeSeries:
    """Raw ``(time, value)`` observations with bucketed aggregation."""

    def __init__(self, name: str = ""):
        self.name = name
        self._points: list[tuple[float, float]] = []

    def record(self, time: float, value: float) -> None:
        self._points.append((time, value))

    def __len__(self) -> int:
        return len(self._points)

    @property
    def points(self) -> list[tuple[float, float]]:
        return list(self._points)

    def values(self) -> list[float]:
        return [v for _t, v in self._points]

    def between(self, t0: float, t1: float) -> list[float]:
        """Values observed in ``[t0, t1)``."""
        return [v for t, v in self._points if t0 <= t < t1]

    def bucket_mean(self, t0: float, t1: float,
                    width: float) -> list[tuple[float, float | None]]:
        """Mean value per ``width``-second bucket over ``[t0, t1)``.

        Returns ``(bucket_start, mean_or_None)`` pairs; empty buckets
        report ``None`` so plots can show gaps honestly.
        """
        if width <= 0:
            raise ValueError("bucket width must be positive")
        out: list[tuple[float, float | None]] = []
        start = t0
        while start < t1:
            values = self.between(start, start + width)
            mean = sum(values) / len(values) if values else None
            out.append((start, mean))
            start += width
        return out

    def bucket_sum(self, t0: float, t1: float,
                   width: float) -> list[tuple[float, float]]:
        """Sum of values per ``width``-second bucket over ``[t0, t1)``.

        Used for weighted event counts (e.g. one point per executed
        cohort whose value is the cohort's logical request count);
        empty buckets report 0.
        """
        if width <= 0:
            raise ValueError("bucket width must be positive")
        out: list[tuple[float, float]] = []
        start = t0
        while start < t1:
            out.append((start, sum(self.between(start, start + width))))
            start += width
        return out

    def bucket_rate(self, t0: float, t1: float,
                    width: float) -> list[tuple[float, float]]:
        """Events per second per bucket (each point counts as one event).

        Used for throughput (qps): record one point per completed query
        with any value; the rate is count / width.
        """
        if width <= 0:
            raise ValueError("bucket width must be positive")
        out: list[tuple[float, float]] = []
        start = t0
        while start < t1:
            count = len(self.between(start, start + width))
            out.append((start, count / width))
            start += width
        return out
