"""Volcano operators: scans, pipeline operators, blocking operators.

Each operator charges CPU on the node it was *placed on* by the
planner; data access operators additionally go through the owning
node's buffer pool and disks.  "Almost every query operator can be
placed on remote nodes, excluding data access operators which need
local access to the DB records." (Sect. 3.3)
"""

from __future__ import annotations

import typing

from repro.hardware import specs
from repro.hardware.cpu import Cpu
from repro.index.partition_tree import Forwarding
from repro.storage.record import Column, RecordVersion
from repro.txn import mvcc
from repro.engine.row_source import ExecContext, Operator


class SegmentMovedError(RuntimeError):
    """A scan hit a forwarding pointer: the segment lives elsewhere now.

    The routing layer catches this and re-issues the access on the
    target node (the paper's redirection of in-flight queries)."""

    def __init__(self, segment_id: int, target_node_id: int):
        super().__init__(f"segment {segment_id} moved to node {target_node_id}")
        self.segment_id = segment_id
        self.target_node_id = target_node_id


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


class IndexLookup(Operator):
    """Point lookup through the partition top index and the segment's
    embedded primary-key index."""

    def __init__(self, ctx: ExecContext, worker, partition, key: typing.Any):
        super().__init__(ctx, partition.schema.columns)
        self.worker = worker
        self.partition = partition
        self.key = key
        self._done = False

    def next_vector(self):
        if self._done:
            return None
        self._done = True
        target = self.partition.tree.find(self.key)
        if target is None:
            return None
        if isinstance(target, Forwarding):
            raise SegmentMovedError(target.segment_id, target.target_node_id)
        yield from self.worker.cpu.execute(specs.CPU_INDEX_SECONDS_PER_OP)
        fetched: set[int] = set()
        row = None
        try:
            for page_no, _slot, version in target.versions_for(self.key):
                page = target.pages[page_no]
                if page.page_id not in fetched:
                    yield from self.worker.fetch_page(page, self.ctx.breakdown)
                    fetched.add(page.page_id)
                if _version_visible(version, self.ctx):
                    row = version.values
                    break
        finally:
            for page_id in fetched:
                self.worker.buffer.unpin(page_id)
        self.worker.note_partition_pages(self.partition.partition_id, len(fetched))
        return [row] if row is not None else None


class RangeIndexScan(Operator):
    """Key-range scan using segment pruning plus each pruned segment's
    embedded primary-key index — "the query optimizer can perform
    segment pruning, allowing a query to quickly identify unnecessary
    segments" (Sect. 4.3)."""

    def __init__(self, ctx: ExecContext, worker, partition,
                 lo: typing.Any = None, hi: typing.Any = None):
        super().__init__(ctx, partition.schema.columns)
        from repro.index.partition_tree import KeyRange

        self.worker = worker
        self.partition = partition
        self.lo = lo
        self.hi = hi
        self.key_range = KeyRange(lo, hi)
        self.segments_pruned = 0
        self.segments_scanned = 0
        self._iter: typing.Iterator | None = None
        self._pending: list[tuple] = []

    def open(self):
        targets = self.partition.tree.find_range(self.key_range)
        self.segments_pruned = len(self.partition.tree) - len(targets)
        for target in targets:
            if isinstance(target, Forwarding):
                raise SegmentMovedError(target.segment_id, target.target_node_id)
        self.segments_scanned = len(targets)
        self._iter = self._entry_iter(targets)
        self._pending = []
        return
        yield

    def _entry_iter(self, segments):
        for segment in segments:
            for key, chain in segment.index_scan(lo=self.lo, hi=self.hi):
                yield segment, key, chain

    def next_vector(self):
        if self._iter is None:
            raise RuntimeError("next_vector before open")
        fetched_pages = 0
        while len(self._pending) < self.ctx.vector_size:
            entry = next(self._iter, None)
            if entry is None:
                break
            segment, _key, chain = entry
            pinned: set[int] = set()
            try:
                for page_no, _slot, version in (
                    (pno, slot, segment.pages[pno].get(slot))
                    for pno, slot in chain
                ):
                    page = segment.pages[page_no]
                    if page.page_id not in pinned:
                        yield from self.worker.fetch_page(
                            page, self.ctx.breakdown
                        )
                        pinned.add(page.page_id)
                        fetched_pages += 1
                    if _version_visible(version, self.ctx):
                        self._pending.append(version.values)
                        break
            finally:
                for page_id in pinned:
                    self.worker.buffer.unpin(page_id)
        if fetched_pages:
            self.worker.note_partition_pages(
                self.partition.partition_id, fetched_pages
            )
        if not self._pending:
            return None
        rows = self._pending[:self.ctx.vector_size]
        del self._pending[:len(rows)]
        yield from self.worker.cpu.execute(
            len(rows) * specs.CPU_INDEX_SECONDS_PER_OP
        )
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


class Filter(Operator):
    """Pipelining selection."""

    def __init__(self, ctx: ExecContext, cpu: Cpu, child: Operator,
                 predicate: typing.Callable[[tuple], bool]):
        super().__init__(ctx, child.output_columns)
        self.cpu = cpu
        self.child = child
        self.predicate = predicate

    def open(self):
        yield from self.child.open()

    def next_vector(self):
        # Keep pulling until we have at least one surviving row, so a
        # non-None return always carries data.
        while True:
            vector = yield from self.child.next_vector()
            if vector is None:
                return None
            yield from self.cpu.execute(
                len(vector) * specs.CPU_FILTER_SECONDS_PER_RECORD
            )
            kept = [row for row in vector if self.predicate(row)]
            if kept:
                return kept

    def close(self):
        yield from self.child.close()


class Limit(Operator):
    """Stop after ``n`` rows."""

    def __init__(self, ctx: ExecContext, child: Operator, n: int):
        if n < 0:
            raise ValueError("limit must be non-negative")
        super().__init__(ctx, child.output_columns)
        self.child = child
        self.n = n
        self._emitted = 0

    def open(self):
        yield from self.child.open()

    def next_vector(self):
        if self._emitted >= self.n:
            return None
        vector = yield from self.child.next_vector()
        if vector is None:
            return None
        room = self.n - self._emitted
        out = vector[:room]
        self._emitted += len(out)
        return out

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
        self._key_indexes = [names.index(n) for n in key_columns]
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
            import math

            yield from self.cpu.execute(
                n * math.log2(n) * specs.CPU_SORT_SECONDS_PER_RECORD_LOG,
            )
        flat.sort(
            key=lambda row: tuple(row[i] for i in self._key_indexes),
            reverse=self.reverse,
        )
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


_AGG_SEED = {"count": 0, "sum": 0, "min": None, "max": None, "avg": (0, 0)}


class GroupAggregate(Operator):
    """Blocking hash group-by with count/sum/min/max/avg."""

    def __init__(self, ctx: ExecContext, cpu: Cpu, child: Operator,
                 group_columns: typing.Sequence[str],
                 aggregates: typing.Sequence[tuple[str, str | None]]):
        names = [c.name for c in child.output_columns]
        by_name = {c.name: c for c in child.output_columns}
        out_columns = [by_name[g] for g in group_columns]
        for func, col in aggregates:
            if func not in _AGG_SEED:
                raise ValueError(f"unknown aggregate {func!r}")
            if func != "count" and col is None:
                raise ValueError(f"aggregate {func!r} needs a column")
            label = func if col is None else f"{func}_{col}"
            kind = "int" if func == "count" else "float"
            out_columns.append(Column(label, kind))
        super().__init__(ctx, out_columns)
        self.cpu = cpu
        self.child = child
        self._group_indexes = [names.index(g) for g in group_columns]
        self._aggs = [
            (func, None if col is None else names.index(col))
            for func, col in aggregates
        ]
        self._result: list[tuple] | None = None
        self._cursor = 0

    def open(self):
        yield from self.child.open()
        groups: dict[tuple, list] = {}
        total = 0
        while True:
            vector = yield from self.child.next_vector()
            if vector is None:
                break
            total += len(vector)
            for row in vector:
                key = tuple(row[i] for i in self._group_indexes)
                state = groups.get(key)
                if state is None:
                    state = [self._seed(func) for func, _i in self._aggs]
                    groups[key] = state
                for slot, (func, idx) in enumerate(self._aggs):
                    state[slot] = self._step(func, state[slot],
                                             None if idx is None else row[idx])
        if total:
            yield from self.cpu.execute(
                total * specs.CPU_GROUP_SECONDS_PER_RECORD
            )
        self._result = [
            key + tuple(self._final(func, s)
                        for (func, _i), s in zip(self._aggs, state))
            for key, state in sorted(groups.items())
        ]
        self._cursor = 0

    @staticmethod
    def _seed(func: str):
        return _AGG_SEED[func]

    @staticmethod
    def _step(func: str, state, value):
        if func == "count":
            return state + 1
        if func == "sum":
            return state + value
        if func == "min":
            return value if state is None else min(state, value)
        if func == "max":
            return value if state is None else max(state, value)
        total, count = state
        return (total + value, count + 1)

    @staticmethod
    def _final(func: str, state):
        if func == "avg":
            total, count = state
            return total / count if count else 0.0
        return state

    def next_vector(self):
        if self._result is None:
            raise RuntimeError("next_vector before open")
        if self._cursor >= len(self._result):
            return None
        out = self._result[self._cursor:self._cursor + self.ctx.vector_size]
        self._cursor += len(out)
        return out
        yield  # pragma: no cover - keeps this a generator

    def close(self):
        self._result = None
        yield from self.child.close()


class HashJoin(Operator):
    """Blocking-build equi-join: hash the right input, probe the left.

    A blocking operator in the paper's taxonomy — offloadable like Sort.
    Build cost is charged per build row (hashing + insert), probe cost
    per probe row; output rows are left ++ right.
    """

    def __init__(self, ctx: ExecContext, cpu: Cpu, left: Operator,
                 right: Operator, left_keys: typing.Sequence[str],
                 right_keys: typing.Sequence[str]):
        if len(left_keys) != len(right_keys) or not left_keys:
            raise ValueError("join needs matching, non-empty key lists")
        super().__init__(ctx, tuple(left.output_columns) + tuple(right.output_columns))
        left_names = [c.name for c in left.output_columns]
        right_names = [c.name for c in right.output_columns]
        self._left_idx = [left_names.index(k) for k in left_keys]
        self._right_idx = [right_names.index(k) for k in right_keys]
        self.cpu = cpu
        self.left = left
        self.right = right
        self._table: dict[tuple, list[tuple]] | None = None
        self.build_rows = 0
        self.probe_rows = 0

    def open(self):
        yield from self.left.open()
        yield from self.right.open()
        table: dict[tuple, list[tuple]] = {}
        while True:
            vector = yield from self.right.next_vector()
            if vector is None:
                break
            yield from self.cpu.execute(
                len(vector) * specs.CPU_GROUP_SECONDS_PER_RECORD,
            )
            for row in vector:
                key = tuple(row[i] for i in self._right_idx)
                table.setdefault(key, []).append(row)
                self.build_rows += 1
        self._table = table

    def next_vector(self):
        if self._table is None:
            raise RuntimeError("next_vector before open")
        while True:
            vector = yield from self.left.next_vector()
            if vector is None:
                return None
            yield from self.cpu.execute(
                len(vector) * specs.CPU_FILTER_SECONDS_PER_RECORD,
            )
            self.probe_rows += len(vector)
            out = []
            for row in vector:
                key = tuple(row[i] for i in self._left_idx)
                for match in self._table.get(key, ()):
                    out.append(row + match)
            if out:
                return out

    def close(self):
        self._table = None
        yield from self.left.close()
        yield from self.right.close()


class NestedLoopJoin(Operator):
    """Blocking-build nested-loop join (inner)."""

    def __init__(self, ctx: ExecContext, cpu: Cpu, left: Operator,
                 right: Operator,
                 predicate: typing.Callable[[tuple, tuple], bool]):
        super().__init__(ctx, tuple(left.output_columns) + tuple(right.output_columns))
        self.cpu = cpu
        self.left = left
        self.right = right
        self.predicate = predicate
        self._build: list[tuple] | None = None

    def open(self):
        yield from self.left.open()
        build = yield from self.right.drain()
        self._build = build

    def next_vector(self):
        if self._build is None:
            raise RuntimeError("next_vector before open")
        while True:
            vector = yield from self.left.next_vector()
            if vector is None:
                return None
            comparisons = len(vector) * len(self._build)
            if comparisons:
                yield from self.cpu.execute(
                    comparisons * specs.CPU_FILTER_SECONDS_PER_RECORD,
                )
            out = [
                l + r for l in vector for r in self._build if self.predicate(l, r)
            ]
            if out:
                return out

    def close(self):
        self._build = None
        yield from self.left.close()
