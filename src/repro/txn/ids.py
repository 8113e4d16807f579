"""Transaction ids and logical timestamps.

A single oracle hands out both, giving a total order across the whole
cluster.  The master node hosts it in WattDB terms; the RPC cost of
obtaining a timestamp is charged by the caller, not here.
"""

from __future__ import annotations


class TimestampOracle:
    """Monotonic source of transaction ids and commit timestamps."""

    def __init__(self):
        self._counter = 0

    def next(self) -> int:
        self._counter += 1
        return self._counter

    @property
    def current(self) -> int:
        return self._counter
