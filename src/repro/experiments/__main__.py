"""Command-line experiment runner.

Usage::

    python -m repro.experiments power        # Sect. 3.1 power table
    python -m repro.experiments fig1         # operator placement
    python -m repro.experiments fig2         # offloading crossover
    python -m repro.experiments fig3         # MVCC vs MGL-RX
    python -m repro.experiments fig6         # all three schemes
    python -m repro.experiments fig6 --scheme physiological
    python -m repro.experiments fig7         # runtime breakdown
    python -m repro.experiments fig8         # helper nodes
    python -m repro.experiments scale-in     # extension: scale-in protocol
    python -m repro.experiments all          # everything (long)

The extension sweeps share ``--seeds``, ``--jobs`` and ``--audit``::

    python -m repro.experiments fig9         # failover vs k
    python -m repro.experiments chaos --seeds 0 1 2   # mover chaos sweep
    python -m repro.experiments endurance    # audited endurance run
    python -m repro.experiments elasticity   # diurnal traffic + autoscaler
    python -m repro.experiments read-scaling # replica/cache/view read tier
    python -m repro.experiments torture      # gray-failure torture run

``--quick`` (default) uses reduced parameters; ``--full`` the defaults
documented in EXPERIMENTS.md.  Every command is its own gate — a result
with ``violations`` exits non-zero — so ``all`` is the fidelity run.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
import time
import typing

from repro import experiments
from repro.experiments import (
    chaos_moves,
    elasticity,
    endurance,
    fig2_offloading,
    fig3_mvcc,
    fig6_schemes,
    fig9_failover,
    read_scaling,
    torture,
)
from repro.experiments.parallel import default_jobs, run_tasks


def _fig6_config(args):
    if getattr(args, "nodes", None):
        return fig6_schemes.scale_fig6_config(
            nodes=args.nodes, partitions=args.partitions or 10_000)
    return (fig6_schemes.quick_fig6_config() if args.quick
            else fig6_schemes.Fig6Config())


def gated(*results) -> str:
    """Every command's way out: its results' tables, each ending in its
    ``VIOLATION:`` lines — as ``SystemExit``'s message (exit status 1)
    when any result is not ``ok``."""
    report = "\n\n".join(result.to_table() for result in results)
    if not all(result.ok for result in results):
        raise SystemExit(report)
    return report


def run_fig6_cmd(args) -> str:
    config = _fig6_config(args)
    if args.audit:
        config = dataclasses.replace(config, audit=True)
    schemes = [args.scheme] if args.scheme else list(fig6_schemes.SCHEMES)
    results = run_tasks(
        [(experiments.run_fig6, (scheme, config), {}) for scheme in schemes],
        jobs=args.jobs,
    )
    gate = [] if args.scheme else [fig6_schemes.compare(results)]
    return gated(*results, *gate)


@dataclasses.dataclass(frozen=True)
class Sweep:
    """One row per sweep experiment: pick quick/full, apply ``--audit``,
    run every (seed, mode) cell through ``run_tasks``, print each
    result's table, and exit non-zero when a gate fails."""

    quick: typing.Callable
    full: typing.Callable
    #: Module-level (picklable) function of one cell's config — see
    #: :func:`_run_cell` for how a mode reaches it.
    run: typing.Callable
    modes: typing.Callable = lambda config: (None,)
    pooled: bool = False
    #: ``seeds(quick)`` when ``--seeds`` is absent (else the config's).
    seeds: typing.Callable | None = None
    #: Cross-result gate: ``gate(config, results) -> Result`` of one
    #: seed's modes — or of every seed at once when ``pooled``.
    gate: typing.Callable | None = None


SWEEPS = {
    "fig9": Sweep(
        fig9_failover.quick_fig9_config, fig9_failover.Fig9Config,
        fig9_failover.run_fig9_single,
        modes=lambda config: config.replication_factors,
        gate=lambda config, runs: fig9_failover.suite(runs),
    ),
    "chaos": Sweep(
        chaos_moves.ChaosConfig, chaos_moves.ChaosConfig,
        chaos_moves.run_chaos,
        pooled=True, seeds=lambda quick: range(3 if quick else 10),
        gate=lambda config, runs: chaos_moves.suite(runs),
    ),
    "endurance": Sweep(
        endurance.quick_endurance_config, endurance.full_endurance_config,
        endurance.run_endurance,
    ),
    "elasticity": Sweep(
        elasticity.quick_elasticity_config, elasticity.full_elasticity_config,
        elasticity.run_elasticity,
        modes=lambda config: ("autoscale", "static"),
        gate=lambda config, runs: elasticity.compare(runs),
    ),
    "read-scaling": Sweep(
        read_scaling.quick_read_scaling_config,
        read_scaling.full_read_scaling_config,
        read_scaling.run_read_scaling,
        modes=lambda config: ("replica", "primary"),
        gate=lambda config, runs: read_scaling.compare(runs),
    ),
    "torture": Sweep(
        torture.quick_torture_config, torture.full_torture_config,
        torture.run_torture,
        pooled=True, gate=torture.rerun_gate,
    ),
}


def _run_cell(run, config, mode):
    """One (seed, mode) cell — module-level so ``run_tasks`` workers
    can unpickle it.  A named mode is a config field; fig9's replication
    factor is the run function's leading argument."""
    if mode is None:
        return run(config)
    if isinstance(mode, str):
        return run(dataclasses.replace(config, mode=mode))
    return run(mode, config)


def run_sweep(sweep: Sweep, args) -> str:
    config = sweep.quick() if args.quick else sweep.full()
    if args.audit:
        config = dataclasses.replace(config, audit=True)
    seeds = list(args.seeds or
                 (sweep.seeds(args.quick) if sweep.seeds else [config.seed]))
    modes = list(sweep.modes(config))
    runs = run_tasks(
        [(_run_cell, (sweep.run, dataclasses.replace(config, seed=seed), mode),
          {}) for seed in seeds for mode in modes],
        jobs=args.jobs,
    )
    step = len(runs) if sweep.pooled else len(modes)
    results = []
    for start in range(0, len(runs), step):
        group = runs[start:start + step]
        results += group + ([sweep.gate(config, group)] if sweep.gate else [])
    return gated(*results)


COMMANDS = {
    "power": lambda args: gated(experiments.run_power_validation()),
    "fig1": lambda args: gated(experiments.run_fig1(
        **({} if args.quick else {"rows": 40_000}))),
    "fig2": lambda args: gated(experiments.run_fig2(
        **(fig2_offloading.QUICK_FIG2 if args.quick else {}))),
    "fig3": lambda args: gated(experiments.run_fig3(
        fig3_mvcc.quick_fig3_config() if args.quick
        else fig3_mvcc.Fig3Config())),
    "fig6": run_fig6_cmd,
    "fig7": lambda args: gated(experiments.run_fig7(
        _fig6_config(args) if args.quick else None)),
    "fig8": lambda args: gated(experiments.run_fig8(
        _fig6_config(args) if args.quick else None)),
    "fig9": functools.partial(run_sweep, SWEEPS["fig9"]),
    "scale-in": lambda args: gated(experiments.run_scale_in()),
    **{name: functools.partial(run_sweep, sweep)
       for name, sweep in SWEEPS.items() if name != "fig9"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
        allow_abbrev=False,     # "--seed" must not pass as "--seeds"
    )
    parser.add_argument("experiment",
                        choices=list(COMMANDS) + ["all"],
                        help="which table/figure to regenerate")
    scale = parser.add_mutually_exclusive_group()
    scale.add_argument("--quick", dest="quick", action="store_true",
                       default=True, help="reduced parameters (default)")
    scale.add_argument("--full", dest="quick", action="store_false",
                       help="paper-closer parameters (slow)")
    parser.add_argument("--scheme",
                        choices=["physical", "logical", "physiological"],
                        help="fig6 only: run a single scheme")
    parser.add_argument("--nodes", type=int, default=None, metavar="N",
                        help="fig6 only: run the scale profile on an "
                             "N-node cluster (half sources, half "
                             "targets) instead of --quick/--full")
    parser.add_argument("--partitions", type=int, default=None, metavar="P",
                        help="fig6 --nodes only: logical partition count "
                             "for the scale profile (default 10000; "
                             "~10 table slices per warehouse)")
    parser.add_argument("--seeds", type=int, nargs="*", default=None,
                        help="sweep experiments (%s): explicit seeds "
                             "(default: the config's seed; chaos: 0..2 "
                             "quick, 0..9 full)" % "/".join(SWEEPS))
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for fig6 and the sweep "
                             "experiments; 0 = one per CPU")
    parser.add_argument("--audit", action="store_true",
                        help="fig6 and the sweep experiments: record the "
                             "full operation history and run the "
                             "isolation checkers (repro.audit) post-hoc; "
                             "exits non-zero on any anomaly")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.jobs == 0:
        args.jobs = default_jobs()

    chosen = list(COMMANDS) if args.experiment == "all" else [args.experiment]
    for name in chosen:
        start = time.time()
        print(f"=== {name} " + "=" * (60 - len(name)))
        print(COMMANDS[name](args))
        print(f"--- {name} finished in {time.time() - start:.1f}s wall\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
