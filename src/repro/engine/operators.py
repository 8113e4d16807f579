"""Volcano operators: scans, pipeline operators, blocking operators.

Each operator charges CPU on the node it was *placed on* by the
planner; data access operators additionally go through the owning
node's buffer pool and disks.  "Almost every query operator can be
placed on remote nodes, excluding data access operators which need
local access to the DB records." (Sect. 3.3)
"""

from __future__ import annotations

import math
import operator
import typing

from repro.hardware import specs
from repro.hardware.cpu import Cpu
from repro.index.partition_tree import Forwarding, SegmentMovedError
from repro.storage.record import RecordVersion
from repro.txn import mvcc
from repro.engine.row_source import ExecContext, Operator


def _version_visible(version: RecordVersion, ctx: ExecContext) -> bool:
    if ctx.txn is not None:
        return mvcc.is_visible(version, ctx.txn)
    # No transaction: latest committed state.
    return version.created_ts is not None and version.deleted_ts is None


class TableScan(Operator):
    """Full scan of one partition's segments in physical page order."""

    def __init__(self, ctx: ExecContext, worker, partition):
        super().__init__(ctx, partition.schema.columns)
        self.worker = worker
        self.partition = partition
        self._iter: typing.Iterator | None = None
        self._pending: list[tuple] = []
        self.pages_read = 0
        self.rows_produced = 0

    def open(self):
        self._iter = self._page_iter()
        self._pending = []
        return
        yield

    def _page_iter(self):
        for segment_id, _key_range, target in list(self.partition.tree.entries()):
            if isinstance(target, Forwarding):
                raise SegmentMovedError(segment_id, target.target_node_id)
            for page in target.scan_pages():
                yield page

    def next_vector(self):
        if self._iter is None:
            raise RuntimeError("next_vector before open")
        while len(self._pending) < self.ctx.vector_size:
            page = next(self._iter, None)
            if page is None:
                break
            yield from self.worker.fetch_page(page, self.ctx.breakdown)
            try:
                for _slot, version in page.versions():
                    if _version_visible(version, self.ctx):
                        self._pending.append(version.values)
            finally:
                self.worker.unpin_page(page)
            self.pages_read += 1
            self.worker.note_partition_pages(self.partition.partition_id, 1)
        if not self._pending:
            return None
        rows = self._pending[:self.ctx.vector_size]
        del self._pending[:len(rows)]
        yield from self.worker.cpu.execute(
            len(rows) * specs.CPU_SCAN_SECONDS_PER_RECORD
        )
        self.rows_produced += len(rows)
        return rows


class Project(Operator):
    """Pipelining projection — the paper's canonical cheap operator."""

    def __init__(self, ctx: ExecContext, cpu: Cpu, child: Operator,
                 column_names: typing.Sequence[str]):
        by_name = {c.name: c for c in child.output_columns}
        missing = [n for n in column_names if n not in by_name]
        if missing:
            raise KeyError(f"projection of unknown columns: {missing}")
        super().__init__(ctx, [by_name[n] for n in column_names])
        self.cpu = cpu
        self.child = child
        self._indexes = [
            [c.name for c in child.output_columns].index(n) for n in column_names
        ]

    def open(self):
        yield from self.child.open()

    def next_vector(self):
        vector = yield from self.child.next_vector()
        if vector is None:
            return None
        yield from self.cpu.execute(
            len(vector) * specs.CPU_PROJECT_SECONDS_PER_RECORD
        )
        return [tuple(row[i] for i in self._indexes) for row in vector]

    def close(self):
        yield from self.child.close()


class Sort(Operator):
    """Blocking sort — the paper's canonical offloadable operator.

    "Blocking operators need to fetch all records from the underlying
    operators first ... e.g., sorting operators" (Sect. 3.3, fn. 5).
    """

    def __init__(self, ctx: ExecContext, cpu: Cpu, child: Operator,
                 key_columns: typing.Sequence[str], reverse: bool = False):
        super().__init__(ctx, child.output_columns)
        self.cpu = cpu
        self.child = child
        names = [c.name for c in child.output_columns]
        self._sort_key = operator.itemgetter(
            *[names.index(n) for n in key_columns])
        self.reverse = reverse
        self._sorted: list[tuple] | None = None
        self._cursor = 0

    def open(self):
        yield from self.child.open()
        rows: list[tuple] = []
        while True:
            vector = yield from self.child.next_vector()
            if vector is None:
                break
            rows.append(vector)  # collected as chunks, flattened below
        flat = [row for chunk in rows for row in chunk]
        n = len(flat)
        if n > 1:
            yield from self.cpu.execute(
                n * math.log2(n) * specs.CPU_SORT_SECONDS_PER_RECORD_LOG,
            )
        flat.sort(key=self._sort_key, reverse=self.reverse)
        self._sorted = flat
        self._cursor = 0

    def next_vector(self):
        if self._sorted is None:
            raise RuntimeError("next_vector before open")
        if self._cursor >= len(self._sorted):
            return None
        out = self._sorted[self._cursor:self._cursor + self.ctx.vector_size]
        self._cursor += len(out)
        return out
        yield  # pragma: no cover - keeps this a generator

    def close(self):
        self._sorted = None
        yield from self.child.close()
