"""Deleted structures stay deleted: one row per guard.

A row names a Python ``re`` pattern, the paths it must match nothing in,
the PR that deleted what it keeps out, why, and a snippet that breaks
it.  Each row gets two tests: the pattern fires on its own snippet (a
guard that can no longer fire fails), and it matches nothing under its
paths, every one of which must exist (a renamed path fails instead of
passing unscanned).  Matching follows ``grep``: line by line, or over
the whole file where ``grep -z`` was used; ``include`` / ``exclude`` are
``grep --include`` / ``--exclude`` globs on the file name.  Bytecode
caches are skipped, and so is this file, which holds the snippets.
A new guard is one more row.
"""
import fnmatch
import pathlib
import re
import typing

import pytest

from tests.sim.test_no_wait_calls import HELPERS

SELF = pathlib.Path(__file__).resolve()
ROOT = SELF.parent.parent


class Guard(typing.NamedTuple):
    name: str
    pattern: str
    paths: str  # space-separated, relative to the repository root
    pr: int
    reason: str
    snippet: str
    include: str = "*"
    exclude: str = ""
    whole_file: bool = False

    def hits(self, text: str) -> list[int]:
        """Numbers of the matching lines (1 for a whole-file match)."""
        regex = re.compile(self.pattern, re.S if self.whole_file else 0)
        chunks = [text] if self.whole_file else text.split("\n")
        return [n for n, chunk in enumerate(chunks, 1) if regex.search(chunk)]


GUARDS = [
    Guard("no-priority-or-immediate-gc", r"\b(priority|immediate_gc)\b",
          "src/repro", 15, "`priority` was always 0 and `immediate_gc` always"
          " `cc == 'locking'`: neither knob chose anything.",
          "def acquire(self, priority=0):", include="*.py"),
    Guard("no-breakdown-on-move-path", r"\bbreakdown\b",
          "src/repro/core src/repro/moves", 15, "A latency split rides on"
          " the Transaction; the move path charges none of its own.",
          "mover.ship(segment, breakdown=None)", include="*.py"),
    Guard("no-query-engine-below-experiments", r"repro.engine",
          "src/repro/cluster src/repro/core src/repro/txn src/repro/ha"
          " src/repro/reads src/repro/traffic", 18,
          "Routing is not query processing.", "from repro.engine import plan"),
    Guard("one-structure-per-job",
          r"_admit_holder|_compact_unpinned|def _compact\(|cancelled"
          r"|tombstone|LogSegment|LogRecordsView|segment_records"
          r"|_fast_latched|self\._unpinned|heapq",
          "src/repro/storage src/repro/txn src/repro/sim/resources.py", 20,
          "The plain container carries the order: no stamp heap, latch"
          " fast-path pair, segmented WAL or dead-entry counter beside it.",
          "import heapq"),
    Guard("no-lookup-error-base", r"\((LookupError|KeyError|IndexError)\):",
          "src/repro", 21, "A bug must crash, not be caught as a retryable"
          " lookup miss.", "class RowMissing(KeyError):", include="*.py"),
    Guard("no-builtin-retry-clause",
          r"except (\(.*)?\b(LookupError|Exception)\b", "src/repro", 21,
          "Clients retry repro.errors.TransientError and nothing else.",
          "except (NodeDownError, LookupError):", include="*.py"),
    Guard("no-wall-clock-benchmark-suite",
          r"pytest.benchmark|benchmark\.pedantic|REPRO_BENCH_SCALE"
          r"|check_bench_regression",
          "src tests scripts examples pyproject.toml", 23,
          "Speed is the perf ledger's alone to judge.",
          "benchmark.pedantic(run, rounds=3)"),
    Guard("no-zero-delay-hop-for-a-free-grant", r"immediate\(|\.request\(\)",
          "src/repro", 24, "An uncontended grant is a return: acquire sites"
          " say `yield from resource.acquire()`.",
          "req = yield self.cpu.request()", include="*.py",
          exclude="resources.py"),
    Guard("one-timeline",
          r"class (Gray|Failover|Scale)Event|\.injected\b|\.detections\b"
          r"|first_flagged", "src/repro examples tests", 25,
          "Transitions are Cluster.timeline events, not a ledger per"
          " component.", "class GrayEvent:", include="*.py"),
    Guard("counters-are-stats",
          r"def render_(reads|admission|move|wal|scrub|gray|audit)_summary"
          r"|def render_kernel_stats|retention_stats",
          "src/repro examples tests", 25, "Counters are a component's stats()"
          " rendered by render_counters.", "def render_kernel_stats(stats):",
          include="*.py"),
    Guard("no-timeout-for-a-held-unit", r"yield (self\.)?env\.timeout\(",
          "src/repro/sim/resources.py src/repro/hardware/network.py", 26,
          "`yield from env.hold(d)` advances the clock inline when nothing"
          " can pre-empt the hold.", "yield self.env.timeout(duration)"),
    Guard("one-result-record",
          r"class (ChaosRun|ChaosSuite|Endurance|Window|Torture|Fig9K|Fig9"
          r"|Fig1|Fig2|Fig3|Fig7|Fig8|PowerValidation|ScaleIn)Result\b"
          r"|^def render_(chaos|endurance|elasticity|read_scaling|torture)\b"
          r"|def (to_row|summary_row)\(|def (comparison_rows"
          r"|response_around_move)\b|render_anomaly_lines"
          r"|cross_scheme_violations", "src/repro/experiments", 27,
          "A sweep or a figure reports one harness.Result, rendered by"
          " Result.to_table.", "class ChaosSuiteResult:"),
    Guard("one-log-verify-loop", r"for record in (replica\.)?log\.records:",
          "src/repro/ha", 28, "A log is verified by LogManager.verify_all,"
          " whose records keep their verdict.",
          "for record in replica.log.records:"),
    Guard("no-repr-in-checksum", r"repr\(.*\)\.encode\(",
          "src/repro/storage/checksum.py", 35, "A row's CRC covers its"
          " marshal bytes, not its repr.", "crc32(repr(row).encode())"),
    Guard("marshal-format-2",
          r"^(?!.*marshal\.dumps\(([^()]|\([^()]*\))*, 2\)).*marshal\.dumps\(",
          "src", 35, "A CRC covers marshal format 2; formats 3 and 4 encode"
          " string sharing.", "crc32(marshal.dumps(values))"),
    Guard("no-row-map-walk-in-reads", re.escape("rows.items()"),
          "src/repro/reads", 38, "A replica range read bisects"
          " SegmentReplica.sorted_keys.",
          "for key, entry in replica.rows.items():"),
    Guard("no-low-bound-rescan", re.escape("index_scan(lo=key_range.low"),
          "src/repro/core/logical.py", 29, "The logical mover resumes each"
          " segment's scan from a per-sweep mark.",
          "tree.index_scan(lo=key_range.low, hi=key_range.high)"),
    Guard("no-linear-top-index",
          re.escape("for key_range, target in self._entries.values():"),
          "src/repro/index/partition_tree.py", 29, "PartitionTree.find"
          " bisects its RangeMap.",
          "for key_range, target in self._entries.values():"),
    Guard("no-partition-table-scan",
          r"for .* in self\._entries\(table\)|entries\.sort\(",
          "src/repro/index/global_table.py", 33, "The master's table is one"
          " sorted RangeMap: no re-sort per register, no scan per lookup.",
          "entries.sort(key=low_key)"),
    Guard("journal-holds-open-moves",
          re.escape("self.segment_moves.values()"), "src/repro/moves/journal.py",
          33, "The move journal holds only open segment moves.",
          "for move in self.segment_moves.values():"),
    Guard("no-version-scan-in-vacuum", re.escape("scan_versions()"),
          "src/repro/txn/mvcc.py", 34, "Vacuum reads the segment's dead set.",
          "for version in segment.scan_versions():"),
    Guard("no-page-walk-for-room",
          r"_max_free_ub|for page_no, page in enumerate\(self\.pages\)",
          "src/repro/storage/segment.py", 34, "Placement descends the"
          " segment's tree of room bounds, not the pages first-fit.",
          "for page_no, page in enumerate(self.pages):"),
    # Spelled so that a plain grep for the deleted names comes back empty.
    Guard("one-bulk-loader", r"fast_inser[t]|_fast_fil[l]",
          "src tests examples", 41, "Rows load through MasterNode.bulk_load,"
          " which places them by the partition's one full-segment rule.",
          "fast_" "insert(owner, partition, (i, ''))", include="*.py"),
    Guard("one-full-segment-rule", r"except SegmentFullError",
          "src/repro", 41, "Partition.place splits a full segment around"
          " the pending key and re-resolves it; nothing else catches"
          " SegmentFullError.", "except SegmentFullError:",
          include="*.py", exclude="catalog.py"),
    Guard("bulk-load-by-run", r"Segment\.insert_version",
          "src/repro/cluster/master.py", 42, "MasterNode.bulk_load hands"
          " each run of ascending keys to Partition.place_run, which packs"
          " pages and builds the segment index bottom-up; no row is placed"
          " on its own.",
          "partition.place(worker, segment, version, Segment.insert_version)"),
    Guard("one-chain-walk-per-write", r"has_write_conflict|newest_version",
          "src/repro", 43, "mvcc.writable_version takes a key's version"
          " chain once for the first-updater-wins test and the visible"
          " version; no second walk asks for the newest version.",
          "if has_write_conflict(segment, key, txn):", include="*.py"),
    Guard("moved-row-is-a-copy", r"RecordVersion\.make",
          "src/repro/core/logical.py", 43, "The record mover re-inserts"
          " RecordVersion.copy of the source row: key, values, size and"
          " CRC carried over, nothing re-sized or re-hashed.",
          "version = RecordVersion.make(schema, current.values, txn_id)"),
    Guard("one-sizing-plan", r"\.sizeof\(", "src/repro/engine", 41,
          "Operators size rows by the compiled plan of"
          " storage.record.RowSizer, not a Column.sizeof call per value.",
          "sum(c.sizeof(v) for c, v in zip(self.output_columns, row))",
          include="*.py"),
    Guard("no-step-helper-handed-to-process",
          r"process\([^()]*?\.("
          + "|".join(helper.__name__ for helper in HELPERS) + r")\(",
          "src tests", 32, "A step that cannot wait may return DONE, so it"
          " reaches a process only inside a generator of its own.",
          "env.process(\n    cpu.execute(1.0))", include="*.py",
          whole_file=True),
    Guard("no-one-value-lock-or-miss-knob",
          r"^\s+(lock_timeout|miss_threshold)\s*:", "src/repro/experiments",
          44, "Every experiment waits harness.LOCK_TIMEOUT for a lock and"
          " keeps the failure detector's default miss threshold: a config"
          " field that only ever held its default chose nothing.",
          "    lock_timeout: float = 2.0", include="*.py"),
    Guard("one-request-loop", r"kv_write_with_retries|WRITER_RETRIES",
          "src", 47, "A kv write is a request of workload.client.run_request,"
          " under the client's retries and back-off; no second request"
          " loop keeps retry knobs of its own.",
          "if (yield from harness.kv_write_with_retries(cluster, op, key,"
          " value, WRITER_RETRIES)):", include="*.py"),
    Guard("buffer-pool-owns-its-frames", r"\._frames\b|_write_back\(",
          "src/repro", 47, "Callers write back or forget a segment's pages"
          " through BufferPool.write_back and BufferPool.forget; only the"
          " pool reads its frames.",
          "frame = worker.buffer._frames.get(page.page_id)", include="*.py",
          exclude="buffer.py"),
]


def scanned_files(guard: Guard):
    for rel in guard.paths.split():
        path = ROOT / rel
        assert path.exists(), f"{guard.name}: {rel} does not exist"
        for file in [path] if path.is_file() else sorted(path.rglob("*")):
            if (file.is_file() and "__pycache__" not in file.parts
                    and file.resolve() != SELF
                    and fnmatch.fnmatch(file.name, guard.include)
                    and not fnmatch.fnmatch(file.name, guard.exclude)):
                yield file


def flagged(guard: Guard) -> list[str]:
    """``path:line`` for every match under the guard's paths."""
    return [f"{file.relative_to(ROOT)}:{n}"
            for file in scanned_files(guard)
            for n in guard.hits(file.read_text("utf-8", errors="replace"))]


@pytest.mark.parametrize("guard", GUARDS, ids=lambda guard: guard.name)
def test_guard_fires_on_its_snippet(guard):
    assert guard.hits(guard.snippet), (
        f"{guard.name} no longer fires on {guard.snippet!r}")


@pytest.mark.parametrize("guard", GUARDS, ids=lambda guard: guard.name)
def test_guard_matches_nothing_under_its_paths(guard):
    hits = flagged(guard)
    assert not hits, (f"{guard.name} (PR {guard.pr}): {guard.reason}"
                      f" Found at {', '.join(hits)}")
