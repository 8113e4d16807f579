"""Identity gate: one committed golden per experiment family.

Simulated behaviour is a pure function of the seed, and every PR since
the kernel rewrite has promised to keep it bit-identical (PR 24, which
made an uncontended grant cost no event, is the one re-capture: event
counts fell everywhere and same-timestamp ties moved).  The goldens
under ``golden/`` pin what that promise covers *today*, on the current
kernel: for each family in :data:`FAMILIES` the rendered report of one
run tier-1 makes anyway (the quick cells of the paper's figures, the
smoke-scale run of each sweep) plus the final clock and the kernel's
event count of every ``Environment`` the run built.  A change that
moves a simulated number, reorders same-time events or adds one says so
by editing a golden (``python -m tests.determinism.capture_golden``);
nothing else may.

``fig6_small`` and ``chaos_seed0`` are the two original goldens and
keep their format: individual metrics and a ``(time, events_processed)``
trace sampled every few simulated seconds, which localises *when* a run
first diverged.

Each family runs once per process (:func:`result_of`), so the golden
comparison, ``tests/experiments/test_paper_shapes.py`` and the smoke
tests share one run.  ``golden/ledger_seed1.json`` is not captured
here: it holds the ``sim_fingerprint`` of the perf ledger's four
workloads at seed 1 (``python3 perfledger/run.py --rep --workload W
--seed 1 --scale 1.0 --trace 0``), which CI's ``ledger-smoke`` compares.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import pathlib

from repro.experiments import (
    chaos_moves,
    elasticity,
    fig9_failover,
    read_scaling,
    run_fig1,
    run_fig2,
    run_fig3,
    run_fig6,
    run_fig9_single,
    run_power_validation,
    run_scale_in,
)
from repro.experiments.chaos_moves import ChaosConfig, run_chaos
from repro.experiments.elasticity import ElasticityConfig, run_elasticity
from repro.experiments.endurance import quick_endurance_config, run_endurance
from repro.experiments.fig2_offloading import QUICK_FIG2
from repro.experiments.fig3_mvcc import quick_fig3_config
from repro.experiments.fig6_schemes import Fig6Config, quick_fig6_config
from repro.experiments.fig7_breakdown import fig7_from_cells
from repro.experiments.fig8_helper import fig8_from_cells
from repro.experiments.fig9_failover import (
    REPLICATION_FACTORS,
    quick_fig9_config,
)
from repro.experiments.parallel import run_tasks
from repro.experiments.read_scaling import ReadScalingConfig, run_read_scaling
from repro.experiments.torture import quick_torture_config, run_torture
from repro.sim.engine import Environment
from repro.workload import TpccConfig

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

#: Checkpoint cadence (simulated seconds) for the event-count trace.
CHECKPOINT_EVERY = 5.0

#: A compressed audited day (tests/experiments/test_elasticity_smoke.py).
ELASTICITY_SMOKE = ElasticityConfig(
    day_seconds=240.0,
    min_requests=60_000,
    flash_ramp=20.0, flash_hold=40.0, flash_decay=30.0,
    hint_lead=40.0,
    autoscale_interval=5.0,
    cooldown_intervals=4,
    power_sample_interval=5.0,
    report_buckets=6,
    audit=True,
)

#: One quarter of the quick read-scaling run — long enough that the
#: whole fault schedule (bit rot, sever + restore, crash + restart)
#: lands and both failovers complete before the audit
#: (tests/reads/test_read_scaling_smoke.py).
READ_SCALING_SMOKE = ReadScalingConfig(
    duration=60.0,
    min_requests=8_000,
    audit=True,
)


def _per_mode(run, config, modes) -> list:
    return [run(dataclasses.replace(config, mode=mode)) for mode in modes]


def _fig9_sweep(config) -> list:
    return [run_fig9_single(k, config) for k in REPLICATION_FACTORS]


def chaos_sweep(seeds, config: ChaosConfig, jobs: int = 1) -> list:
    """One run per seed, the way the CLI's ``chaos`` sweeps them."""
    return run_tasks(
        [(run_chaos, (dataclasses.replace(config, seed=seed),), {})
         for seed in seeds], jobs=jobs)


def _table(result) -> str:
    return result.to_table()


def _with_gate(gate):
    """A sweep group's report as the CLI prints it: every run's table,
    then the group gate's."""
    def render(runs) -> str:
        return "\n\n".join(result.to_table() for result in [*runs, gate(runs)])
    return render


#: ``family -> (run, render)``.  Figs. 7 and 8 are derived from two of
#: the four quick Fig. 6 cells and build no environment of their own.
FAMILIES = {
    "power": (run_power_validation, _table),
    "fig1": (run_fig1, _table),
    "fig2": (lambda: run_fig2(**QUICK_FIG2), _table),
    "fig3": (lambda: run_fig3(quick_fig3_config()), _table),
    "fig6_physical": (
        lambda: run_fig6("physical", quick_fig6_config()), _table),
    "fig6_logical": (
        lambda: run_fig6("logical", quick_fig6_config()), _table),
    "fig6_physiological": (
        lambda: run_fig6("physiological", quick_fig6_config()), _table),
    "fig6_helper": (
        lambda: run_fig6("physiological", dataclasses.replace(
            quick_fig6_config(), helper_nodes=(4, 5))), _table),
    "fig7": (lambda: fig7_from_cells(result_of("fig6_physiological"),
                                     result_of("fig6_helper")), _table),
    "fig8": (lambda: fig8_from_cells(result_of("fig6_physiological"),
                                     result_of("fig6_helper")), _table),
    "scale_in": (run_scale_in, _table),
    "fig9": (lambda: _fig9_sweep(quick_fig9_config()),
             _with_gate(fig9_failover.suite)),
    "chaos": (lambda: chaos_sweep((0, 1, 2), ChaosConfig()),
              _with_gate(chaos_moves.suite)),
    "endurance": (
        lambda: run_endurance(dataclasses.replace(
            quick_endurance_config(), seed=0)), _table),
    "elasticity": (
        lambda: _per_mode(run_elasticity, ELASTICITY_SMOKE,
                          ("autoscale", "static")),
        _with_gate(elasticity.compare)),
    "read_scaling": (
        lambda: _per_mode(run_read_scaling, READ_SCALING_SMOKE,
                          ("replica", "primary")),
        _with_gate(read_scaling.compare)),
    "torture": (lambda: run_torture(dataclasses.replace(
        quick_torture_config(), seed=0)), _table),
}

_PLAIN_INIT = Environment.__init__


@contextlib.contextmanager
def _new_environments():
    """Collect every ``Environment`` built inside the block — the runs
    hand out results, not their kernels.  Nested blocks (a derived
    family running the cells it is made of) each see only their own."""
    built: list[Environment] = []
    outer = Environment.__init__

    def init(self, *args, **kwargs):
        _PLAIN_INIT(self, *args, **kwargs)
        built.append(self)

    Environment.__init__ = init
    try:
        yield built
    finally:
        Environment.__init__ = outer


@functools.lru_cache(maxsize=None)
def _run(family: str) -> tuple:
    run, _render = FAMILIES[family]
    with _new_environments() as built:
        result = run()
    return result, [[env.now, env.events_processed] for env in built]


def result_of(family: str):
    """The family's result, run at most once per process.  Shared: a
    test that doctors it works on a ``copy.deepcopy``."""
    return _run(family)[0]


def fingerprint(family: str) -> dict:
    """Rendered report + ``[end time, events processed]`` per kernel."""
    result, clocks = _run(family)
    _run_fn, render = FAMILIES[family]
    return _normalise({"table": render(result), "clocks": clocks})


# -- the two original goldens: metrics + a checkpoint trace ------------------

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
        seed=0, rows=600, fault_pairs=3, fault_span=25.0, tail=8.0,
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
    run = result.counters["run"]
    return _normalise({
        "checkpoints": checkpoints,
        "end_time": env.now,
        "events_processed": env.events_processed,
        **{key: run[key] for key in (
            "total_completed", "total_failed", "conflicts", "bytes_moved",
            "records_moved", "migration_seconds")},
        "breakdown_normal": result.counters["breakdown normal"],
        "breakdown_rebalancing": result.counters["breakdown rebalancing"],
        "table": result.to_table(),
    })


def chaos_fingerprint(config: ChaosConfig | None = None) -> dict:
    config = config or tiny_chaos_config()
    checkpoints: list = []
    instrument = _checkpointer(checkpoints)
    result = run_chaos(config, instrument=instrument)
    env = instrument.env
    run = result.counters["run"]
    return _normalise({
        "checkpoints": checkpoints,
        "end_time": env.now,
        "events_processed": env.events_processed,
        "violations": result.violations,
        "faults": [[e.time, e.kind, e.node_id] for e in result.timeline],
        "move_summary": result.counters["moves"],
        **{key: run[key] for key in (
            "resumed_move_completed", "acked_writes", "exhausted_writes",
            "degraded_steps", "resume_rounds_used")},
    })


#: ``golden name -> fingerprint()``: everything ``capture_golden``
#: writes and ``test_determinism`` compares.
GOLDENS = {
    "fig6_small": fig6_fingerprint,
    "chaos_seed0": chaos_fingerprint,
    **{family: functools.partial(fingerprint, family) for family in FAMILIES},
}


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
