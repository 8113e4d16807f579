"""The volcano iterator contract, vectorised.

Every operator implements ``open`` / ``next_vector`` / ``close`` as
simulation generators.  ``next_vector`` returns a list of row tuples
(at most ``ctx.vector_size`` long) or ``None`` at end of stream —
``vector_size=1`` degenerates to the classic one-record-per-call
volcano protocol the paper's Fig. 1 shows collapsing over the network.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.metrics.breakdown import CostBreakdown
from repro.storage.record import Column, RowSizer

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Environment
    from repro.txn.manager import Transaction


@dataclasses.dataclass
class ExecContext:
    """Per-query execution state threaded through the operator tree."""

    env: "Environment"
    txn: "Transaction | None" = None
    breakdown: CostBreakdown | None = None
    vector_size: int = 1

    def charge(self, component: str, seconds: float) -> None:
        if self.breakdown is not None:
            self.breakdown.add(component, seconds)


class Operator:
    """Base volcano operator.

    Subclasses set :attr:`output_columns` so downstream operators (and
    the exchange layer, which must size wire payloads) know the row
    shape.
    """

    def __init__(self, ctx: ExecContext,
                 output_columns: typing.Sequence[Column]):
        self.ctx = ctx
        self.output_columns = tuple(output_columns)
        self._sizer = RowSizer(self.output_columns)

    def vector_bytes(self, rows: typing.Sequence[typing.Sequence[typing.Any]]) -> int:
        return self._sizer.vector(rows)

    def open(self):  # pragma: no cover - trivial default
        """Generator: prepare the operator."""
        return
        yield

    def next_vector(self):
        """Generator: produce the next vector of rows, or ``None``."""
        raise NotImplementedError

    def close(self):  # pragma: no cover - trivial default
        """Generator: release operator resources."""
        return
        yield

    def drain(self):
        """Generator helper: run the operator to completion, returning
        all rows (convenience for tests and blocking consumers)."""
        rows: list = []
        yield from self.open()
        while True:
            vector = yield from self.next_vector()
            if vector is None:
                break
            rows.extend(vector)
        yield from self.close()
        return rows
