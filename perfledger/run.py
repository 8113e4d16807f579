"""The perf ledger's one command.

Three ways in, one measuring path::

    python3 perfledger/run.py --workload W --seed S --seconds T --trace 0|1
        one workload for the benchmark driver: repeat fresh-interpreter
        repetitions for T seconds and print one JSON line (end-to-end
        metrics with --trace 0, per-layer metrics with --trace 1).

    python3 perfledger/run.py [--seed S] [--reps N] [--workload W] [--out F]
        the full ledger: every workload, N repetitions plus one traced
        run, min/median/quartiles per metric, written as one JSON
        document that ends with "claim": null.  --smoke shrinks it to a
        plumbing check.

    python3 perfledger/run.py --compare A.json B.json
        two ledgers side by side against the bounds in BENCHMARK.json.

``python -m perfledger.run`` from the repository root is the same thing.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time
import typing

ROOT = pathlib.Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfledger import compare, surface  # noqa: E402
from perfledger.stats import first_difference, spread  # noqa: E402
from perfledger.workloads import WORKLOADS, pooled_seed  # noqa: E402

#: End-to-end metrics read off the host rather than the simulation.
HOST_METRICS = ("host_s", "setup_s", "peak_rss_mb")
SMOKE_SCALE = 0.3
REP_TIMEOUT_S = 170


class LedgerError(Exception):
    """The run is not a valid measurement; the message says why."""


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


# -- one repetition in a fresh interpreter -------------------------------------

def spawn_rep(workload: str, seed: int, scale: float, trace: bool) -> dict:
    """Run one repetition in a child interpreter and return its record."""
    command = [sys.executable, str(pathlib.Path(__file__).resolve()), "--rep",
               "--workload", workload, "--seed", str(seed),
               "--scale", repr(scale), "--trace", str(int(trace))]
    done = subprocess.run(
        command, env={**os.environ, "PYTHONHASHSEED": "0"},
        capture_output=True, text=True, timeout=REP_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise LedgerError(
            f"{workload} repetition exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def rep_main(args) -> int:
    from perfledger.rep import run_once

    record = run_once(WORKLOADS[args.workload], args.seed, args.scale,
                      bool(args.trace))
    print(json.dumps(record))
    return 0


# -- one workload ----------------------------------------------------------------

def check_determinism(workload: str, records: list[dict]) -> None:
    """Repetitions of one seed — traced or not — must agree on every
    simulated metric; a profiler must not perturb simulated results."""
    first_of_seed: dict[int, dict] = {}
    for index, record in enumerate(records):
        first = first_of_seed.setdefault(record["seed"], record)
        if record["sim_fingerprint"] != first["sim_fingerprint"]:
            name = first_difference(first["sim"], record["sim"])
            kind = "traced run" if "profile" in record else f"repetition {index}"
            raise LedgerError(
                f"{workload} seed {record['seed']}: {kind} disagrees with the "
                f"first repetition on {name} "
                f"({record['sim'].get(name)!r} != {first['sim'].get(name)!r})")


def measure(spec: dict, workload: str, seeds: typing.Iterator[int],
            scale: float, *, reps: int | None = None,
            seconds: float | None = None, traced: bool = False) -> dict:
    """Measure one workload: untraced repetitions (a fixed count, or as
    many as fit in ``seconds``), one per seed drawn from ``seeds``, then
    optionally one traced run on the first seed.

    Every metric is the median over the repetitions.  Repetitions of one
    seed agree exactly on the simulated metrics, so there the median is
    the value; repetitions of different seeds (driver mode) are medianed
    because the driver reseeds every run and a single seed's p99 moves
    by a fifth from seed to seed."""
    untraced: list[dict] = []
    durations: list[float] = []
    started = time.monotonic()
    while True:
        began = time.monotonic()
        untraced.append(spawn_rep(workload, next(seeds), scale, trace=False))
        durations.append(time.monotonic() - began)
        if reps is not None:
            if len(untraced) >= reps:
                break
        elif (time.monotonic() - started
              + statistics.mean(durations)) > seconds:
            break
    records = list(untraced)
    if traced:
        records.append(
            spawn_rep(workload, untraced[0]["seed"], scale, trace=True))
    check_determinism(workload, records)

    first = untraced[0]
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    end_to_end: dict[str, dict] = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        source = "host" if name in HOST_METRICS else "sim"
        stats = spread([r[source][name] for r in untraced])
        end_to_end[name] = {"value": stats["median"], "unit": units[name],
                            **stats}
    attempted = sum(r["attempted"] for r in untraced)
    failed = sum(r["failed"] for r in untraced)
    out = {
        "workload": workload,
        "why": WORKLOADS[workload].why,
        "loop": WORKLOADS[workload].loop,
        "seeds": [r["seed"] for r in untraced],
        "scale": scale,
        "sim_fingerprint": first["sim_fingerprint"],
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "latency_samples": first["latency_samples"],
        "violations": [v for r in untraced for v in r["violations"]],
        # The run phase in raw seconds of both host clocks, and how slow
        # the reference spins inside it ran (host_s = host_cpu_s / that).
        "host_cpu_s": spread([r["host"]["host_cpu_s"] for r in untraced]),
        "host_wall_s": spread([r["host"]["host_wall_s"] for r in untraced]),
        "slowdown": spread([r["host"]["slowdown"] for r in untraced]),
        "end_to_end": end_to_end,
    }
    if traced:
        # Layer metrics describe one seed — every caller that traces
        # repeats a single seed: untraced for the counters and the
        # clock, traced for the profile.
        host_s = end_to_end["host_s"]["value"]
        profiled = records[-1]
        values = {name: value for name, value in first["sim"].items()
                  if name not in end_to_end}
        values.update(profiled["profile"])
        values["sim.host_us_per_event"] = host_s * 1e6 / first["sim"]["sim.events"]
        values["sim.sim_s_per_host_s"] = first["sim_seconds"] / host_s
        # Raw CPU seconds on both sides: the profiler slows the
        # reference spin too, so the spin cannot rescale a traced run.
        values["trace.overhead_ratio"] = (profiled["host"]["host_cpu_s"]
                                          / out["host_cpu_s"]["median"])
        out["traced_wall_s"] = profiled["host"]["total_wall_s"]
        out["per_layer"] = {name: {"value": value, "unit": units.get(name)}
                            for name, value in values.items()}
    check_names(spec, out)
    return out


def check_names(spec: dict, measured: dict) -> None:
    """The output names exactly the metrics BENCHMARK.json names."""
    for group in ("end_to_end", "per_layer"):
        if group not in measured:
            continue
        named = {m["name"] for m in spec[group]}
        got = set(measured[group])
        if named != got:
            raise LedgerError(
                f"{group} metrics differ from BENCHMARK.json: "
                f"missing {sorted(named - got)}, unnamed {sorted(got - named)}")


def correct(measured: dict) -> bool:
    """The workload's own gates hold.  They are sized for the committed
    scale, so a shrunken smoke run reports violations without failing."""
    return not measured["violations"] or measured["scale"] < 1.0


# -- the three modes ---------------------------------------------------------------

def contract_main(args, spec: dict) -> int:
    """One workload for the benchmark driver; one JSON line."""
    # The traced call needs one untraced repetition only, for the
    # counters and the untraced clock.
    seeds = (pooled_seed(args.workload, args.seed, index)
             for index in itertools.count())
    measured = measure(spec, args.workload, seeds, 1.0,
                       reps=1 if args.trace else None,
                       seconds=args.seconds, traced=bool(args.trace))
    if not correct(measured):
        raise LedgerError(f"{args.workload}: {measured['violations']}")
    group = "per_layer" if args.trace else "end_to_end"
    print(json.dumps({
        "correct": True,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in measured[group].items()},
    }))
    return 0


def ledger_main(args, spec: dict) -> int:
    """Every workload, repetitions plus a traced run, one document."""
    names = [args.workload] if args.workload else list(WORKLOADS)
    scale = SMOKE_SCALE if args.smoke else 1.0
    reps = args.reps if args.reps is not None else (1 if args.smoke else 5)
    workloads = {}
    for name in names:
        print(f"perfledger: {name} x{reps}"
              + ("" if args.smoke else " + traced"), file=sys.stderr)
        workloads[name] = measure(spec, name, itertools.repeat(args.seed),
                                  scale, reps=reps, traced=not args.smoke)
    failures = [f"{name}: {w['violations']}" for name, w in workloads.items()
                if not correct(w)]
    pair = [workloads.get(f"fig6_{scheme}")
            for scheme in ("physiological", "logical")]
    checks = {}
    if all(pair) and not args.smoke:
        physiological, logical = (
            w["per_layer"]["moves.migration_s"]["value"] for w in pair)
        checks["fig6_physiological_migrates_faster"] = physiological < logical
        if not physiological < logical:
            failures.append(
                f"fig6: physiological migration {physiological:.1f} sim-s is "
                f"not faster than logical {logical:.1f} sim-s")
    document = {
        "schema": 1,
        "seed": args.seed,
        "reps": reps,
        "scale": scale,
        "environment": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
        },
        "workloads": workloads,
        "checks": checks,
        "failures": failures,
        "claim": None,
    }
    text = json.dumps(document, indent=1)
    if args.out:
        pathlib.Path(args.out).write_text(text + "\n")
    else:
        print(text)
    for failure in failures:
        print(f"perfledger: FAILED {failure}", file=sys.stderr)
    return 1 if failures else 0


def compare_main(args, spec: dict) -> int:
    documents = []
    for path in args.compare:
        with open(path) as handle:
            documents.append(json.load(handle))
    rows, ok = compare.compare(documents[0], documents[1], spec)
    print(compare.render(rows))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfledger", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    # Not 0: at smoke scale, seed 0 walks elastic_day into the segment
    # overlap described in workloads.UNSAFE_SEEDS.
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="driver mode: repeat for this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="driver mode: 1 prints the per-layer metrics")
    parser.add_argument("--reps", type=int,
                        help="ledger mode: repetitions per workload (default 5)")
    parser.add_argument("--out", help="ledger mode: write the document here")
    parser.add_argument("--smoke", action="store_true",
                        help="ledger mode: ~10x shorter, one repetition, "
                             "no traced run")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--rep", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--scale", type=float, default=1.0,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.reps is not None and args.reps < 1:
        parser.error("--reps must be at least 1")
    if args.seconds is not None and not args.workload:
        parser.error("--seconds needs --workload")

    try:
        if args.compare:
            return compare_main(args, load_spec())
        if args.rep:
            return rep_main(args)
        surface.resolve()
        if args.seconds is not None:
            return contract_main(args, load_spec())
        return ledger_main(args, load_spec())
    except surface.MissingSymbol as exc:
        print(f"perfledger: missing symbol: {exc}", file=sys.stderr)
        return 2
    except LedgerError as exc:
        print(f"perfledger: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
