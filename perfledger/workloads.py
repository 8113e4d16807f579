"""The four workloads.

All four are disk-bound by design — the paper's regime.  Each is one
public ``run_*`` call on a quick-scale config with the seed applied;
``scale`` shrinks the simulated timeline for ``--smoke`` (1.0 is the
size every committed number refers to).

Sizes are cut from the experiments' quick presets so that three
fresh-interpreter repetitions fit the driver's per-run budget; the
shapes are unchanged (what is cut is simulated seconds and the ballast
volume, never the mix or the cluster).  The benchmark driver accepts only
workloads on which no operation fails, so whatever makes a preset lose
requests — scheduled faults, a rate cap, a defect — is configured away;
each config function says what and why.
"""

from __future__ import annotations

import dataclasses
import typing


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    #: ``closed`` (clients wait for the reply) or ``open`` (arrivals on
    #: a schedule) — decides where completions and latencies are read.
    loop: str
    why: str
    build: typing.Callable[[int, float], typing.Any]
    run: typing.Callable[[typing.Any], typing.Any]


def _fig6_config(seed: int, scale: float):
    from repro.experiments.fig6_schemes import quick_fig6_config

    config = quick_fig6_config()
    config.tpcc = dataclasses.replace(config.tpcc, seed=seed)
    config.warmup = 20.0 * scale
    config.tail = 70.0 * scale
    config.ballast_rows_per_warehouse = int(3000 * scale)
    return config


def _run_fig6(scheme: str):
    def run(config):
        from repro.experiments.fig6_schemes import run_fig6

        return run_fig6(scheme, config)
    return run


def _read_replica_config(seed: int, scale: float):
    from repro.experiments.read_scaling import quick_read_scaling_config

    # Of the preset's fault schedule only the bit rot stays.  The link
    # sever and the holder crash make the latency distribution bimodal
    # from seed to seed (p50 5 ms or 38 ms, p99 x4) and lose requests,
    # so no bound could tell a regression from a reseed; both are
    # scheduled past the end of the run.
    return dataclasses.replace(
        quick_read_scaling_config(), mode="replica", seed=seed,
        duration=80.0 * scale, min_requests=int(13_000 * scale),
        sever_at_fraction=2.0, restore_at_fraction=3.0,
        crash_at_fraction=4.0, restart_at_fraction=5.0,
    )


def _run_read_replica(config):
    from repro.experiments.read_scaling import run_read_scaling

    return run_read_scaling(config)


def _elastic_day_config(seed: int, scale: float):
    from repro.experiments.elasticity import quick_elasticity_config

    # A benchmark may only offer operations that succeed, and the preset
    # fails ~2.5 % of its requests by design or by defect:
    # - the batch tenant is contracted below its offered rate so that the
    #   rate limiter has something to reject; here the contract sits well
    #   above the offer (the token bucket still runs on every arrival);
    # - with the preset's 8-page load segments, inserts into a full
    #   segment whose rightmost B-tree leaf was emptied by the vacuum die
    #   in ``Partition.split_full_segment`` -> ``BTree.max_key`` with an
    #   IndexError that the session engine retries as a LookupError and
    #   abandons after 8 attempts (a defect in ``src/``, a few hundred
    #   requests a day).  32-page load segments never get there.
    config = quick_elasticity_config()
    return dataclasses.replace(
        config, mode="autoscale", seed=seed,
        day_seconds=300.0 * scale, min_requests=int(125_000 * scale),
        batch_rate_limit=2.5 * config.batch_rate,
        load_segment_max_pages=32,
    )


def _run_elastic_day(config):
    from repro.experiments.elasticity import run_elasticity

    return run_elasticity(config)


#: Seeds the driver's ``--seed`` draws from: every workload was run on
#: each of them and came back with no crashed process, no gate
#: violation and no failed operation.  The driver reseeds every run, and a benchmark may only
#: offer inputs on which nothing fails.
SEED_POOL = tuple(range(32))
#: ``elastic_day`` on seed 21 (and 51): the autoscaler process dies in
#: a scale-in with "segment 90 range [(4,), (5,)) overlaps segment 52"
#: — ``PhysiologicalPartitioning.move_range`` attaches a segment onto a
#: partition that already holds that range.  A defect in ``src/`` that
#: this benchmark-only change may not fix; ledger mode (a literal seed)
#: still reproduces it.
UNSAFE_SEEDS = {"elastic_day": frozenset({21})}


def pooled_seed(workload: str, seed: int, index: int) -> int:
    """The vetted seed of repetition ``index`` of driver seed ``seed``."""
    pool = [s for s in SEED_POOL if s not in UNSAFE_SEEDS.get(workload, ())]
    return pool[(seed * 5 + index) % len(pool)]


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "fig6_physiological", "closed",
        "paper headline: closed loop, 6 clients, 90 sim-s, 50% of the data "
        "moved by segment shipping; storage+sim+cluster work, "
        "reads/ha/traffic idle",
        _fig6_config, _run_fig6("physiological"),
    ),
    Workload(
        "fig6_logical", "closed",
        "same config moved record-at-a-time under transactions: index, core, "
        "lock and WAL heavy; a segment-path gain that costs the record path "
        "shows here",
        _fig6_config, _run_fig6("logical"),
    ),
    Workload(
        "read_replica", "open",
        "open loop 200 req/s, 80 sim-s, k=2 replication, one bit rot for the "
        "scrubber: only workload running reads and ha on the commit path",
        _read_replica_config, _run_read_replica,
    ),
    Workload(
        "elastic_day", "open",
        "open loop diurnal day, 1->4->3 nodes under the autoscaler: highest "
        "sim and cluster share, only one driving traffic.autoscaler and "
        "scale-out/in",
        _elastic_day_config, _run_elastic_day,
    ),
)}
