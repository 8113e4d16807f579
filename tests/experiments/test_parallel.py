"""The parallel sweep runner: ordering, fallback, and jobs-invariance."""

import dataclasses
import json

from repro.experiments.parallel import default_jobs, run_tasks

from tests.determinism.harness import chaos_sweep, tiny_chaos_config


def _square(x):
    return x * x


def _explode():
    raise RuntimeError("boom")


def test_run_tasks_preserves_order_inline():
    assert run_tasks([(_square, (i,), {}) for i in range(5)], jobs=1) == [
        0, 1, 4, 9, 16,
    ]


def test_run_tasks_preserves_order_parallel():
    assert run_tasks([(_square, (i,), {}) for i in range(5)], jobs=2) == [
        0, 1, 4, 9, 16,
    ]


def test_single_task_runs_inline_even_with_jobs():
    assert run_tasks([(_square, (3,), {})], jobs=8) == [9]


def test_default_jobs_positive():
    assert default_jobs() >= 1


def test_worker_exception_propagates():
    try:
        run_tasks([(_explode, (), {})], jobs=2)
    except RuntimeError as exc:
        assert "boom" in str(exc)
    else:  # pragma: no cover - the call must raise
        raise AssertionError("worker exception was swallowed")


def _suite_fingerprint(runs):
    return json.loads(json.dumps([dataclasses.asdict(run) for run in runs]))


def test_chaos_suite_jobs_invariant():
    """--jobs 1 and --jobs N must produce identical sweep results: each
    seeded schedule is an independent simulation."""
    config = tiny_chaos_config()
    seeds = [0, 1]
    sequential = chaos_sweep(seeds, config, jobs=1)
    parallel = chaos_sweep(seeds, config, jobs=2)
    assert _suite_fingerprint(sequential) == _suite_fingerprint(parallel)
    assert [run.to_table() for run in sequential] == \
        [run.to_table() for run in parallel]
