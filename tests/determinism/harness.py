"""Determinism harness: fingerprint a run, compare against goldens.

The kernel fast paths (zero-delay deque, synchronous resource grants,
contention-only buffer latches) must be *unobservable on the virtual
clock*: for a fixed seed, the simulated end time, every commit count,
the metrics tables, and even the total number of kernel events must be
identical before and after the optimization.

To pin that down, ``capture_golden.py`` was run on the pre-optimization
kernel (heap-only event loop) and its fingerprints committed under
``tests/determinism/golden/``.  The tests in ``test_determinism.py``
re-run the same seeds on the current kernel and require bit-identical
fingerprints — including a trace of ``(time, events_processed)``
checkpoints sampled every few simulated seconds, which fails loudly if
a fast path drops, duplicates, or reorders-across-time any event.
"""

from __future__ import annotations

import json
import pathlib

from repro.experiments.chaos_moves import ChaosConfig, run_chaos
from repro.experiments.fig6_schemes import Fig6Config, run_fig6
from repro.workload import TpccConfig

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

#: Checkpoint cadence (simulated seconds) for the event-count trace.
CHECKPOINT_EVERY = 5.0


def tiny_fig6_config() -> Fig6Config:
    """A shrunk fig6: same regime (disk-bound TPC-C + ballast-weighted
    migration), sized so the determinism gate runs in a few seconds."""
    return Fig6Config(
        tpcc=TpccConfig(
            warehouses=4, districts_per_warehouse=4,
            customers_per_district=20, items=200,
            orders_per_district=8, order_lines_per_order=5,
            pad_blob_bytes=4096,
        ),
        clients=4, client_interval=0.4,
        ballast_rows_per_warehouse=1200, ballast_blob_bytes=16 * 1024,
        buffer_pages_per_node=128,
        node_count=6, warmup=20.0, tail=60.0, bucket=10.0,
    )


def tiny_chaos_config() -> ChaosConfig:
    """A shrunk chaos schedule (seed 0): fewer rows, shorter windows."""
    return ChaosConfig(
        seed=0, rows=600, fault_pairs=3,
        warmup=5.0, fault_span=25.0, tail=8.0,
        writers=2, writer_interval=0.5,
    )


def _checkpointer(out: list):
    """An ``instrument`` callback that samples (now, events_processed)."""

    def instrument(env, _cluster):
        def recorder():
            while True:
                yield env.timeout(CHECKPOINT_EVERY)
                out.append([env.now, env.events_processed])

        env.process(recorder(), name="determinism-recorder")
        instrument.env = env

    return instrument


def fig6_fingerprint(config: Fig6Config | None = None) -> dict:
    """Everything the virtual clock is allowed to determine, in one dict."""
    config = config or tiny_fig6_config()
    checkpoints: list = []
    instrument = _checkpointer(checkpoints)
    result = run_fig6("physiological", config, instrument=instrument)
    env = instrument.env
    return _normalise({
        "checkpoints": checkpoints,
        "end_time": env.now,
        "events_processed": env.events_processed,
        "total_completed": result.total_completed,
        "total_failed": result.total_failed,
        "conflicts": result.conflicts,
        "bytes_moved": result.bytes_moved,
        "records_moved": result.records_moved,
        "migration_seconds": result.migration_seconds,
        "breakdown_normal": result.breakdown_normal.as_dict(),
        "breakdown_rebalancing": result.breakdown_rebalancing.as_dict(),
        "table": result.to_table(),
    })


def chaos_fingerprint(config: ChaosConfig | None = None) -> dict:
    config = config or tiny_chaos_config()
    checkpoints: list = []
    instrument = _checkpointer(checkpoints)
    result = run_chaos(config, instrument=instrument)
    env = instrument.env
    return _normalise({
        "checkpoints": checkpoints,
        "end_time": env.now,
        "events_processed": env.events_processed,
        "violations": result.violations,
        "faults": result.faults,
        "move_summary": result.move_summary,
        "resumed_move_completed": result.resumed_move_completed,
        "acked_writes": result.acked_writes,
        "exhausted_writes": result.exhausted_writes,
        "degraded_steps": result.degraded_steps,
        "resume_rounds_used": result.resume_rounds_used,
    })


def _normalise(obj):
    """JSON round-trip so in-memory and golden fingerprints compare
    structurally (tuples become lists, dict keys become strings)."""
    return json.loads(json.dumps(obj))


def load_golden(name: str) -> dict:
    with open(GOLDEN_DIR / f"{name}.json") as fh:
        return json.load(fh)


def save_golden(name: str, fingerprint: dict) -> pathlib.Path:
    GOLDEN_DIR.mkdir(exist_ok=True)
    path = GOLDEN_DIR / f"{name}.json"
    with open(path, "w") as fh:
        json.dump(fingerprint, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path
