"""Small pure helpers: percentiles, histogram merge, spread, fingerprint."""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import typing


def percentile(samples: typing.Sequence[float], q: float) -> float:
    """Exact nearest-rank percentile (``0 < q <= 100``): the smallest
    sample with at least ``q`` percent of the samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile out of range: {q}")
    ordered = sorted(samples)
    return ordered[max(math.ceil(q / 100 * len(ordered)), 1) - 1]


def merge_histograms(histograms: typing.Iterable):
    """One ``LatencyHistogram`` holding every observation of the given
    ones (the open-loop workloads keep one per tenant)."""
    from repro.metrics.series import LatencyHistogram

    merged = LatencyHistogram(name="merged")
    for histogram in histograms:
        if histogram.count:
            merged.merge(histogram)
    return merged


def spread(values: typing.Sequence[float]) -> dict[str, float]:
    """Min, median and quartiles of one metric's repetitions."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"min": min(values), "median": statistics.median(values),
            "q1": q1, "q3": q3}


def fingerprint(simulated: dict[str, float]) -> str:
    """sha256 over every simulated metric and exact counter.  Floats go
    through ``repr`` (via json), so equal fingerprints mean bit-equal
    values."""
    canonical = json.dumps(simulated, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def first_difference(a: dict[str, float], b: dict[str, float]) -> str | None:
    """The first metric name (sorted) on which two simulated-metric
    tables disagree, or ``None`` when they are identical."""
    for name in sorted(set(a) | set(b)):
        if a.get(name) != b.get(name):
            return name
    return None
