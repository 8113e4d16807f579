"""One repetition of one workload, in this interpreter.

``run.py`` starts a fresh interpreter per repetition (clean
``ru_maxrss``, fixed ``PYTHONHASHSEED``, no garbage from a previous
run) and calls :func:`run_once` there.
"""

from __future__ import annotations

import cProfile
import gc
import resource
import time

from perfledger import surface
from perfledger.capture import (SETUP_SPINS, SPIN_REFERENCE_S, Capture,
                                shims)
from perfledger.layers import fold_profile, simulated
from perfledger.stats import fingerprint
from perfledger.workloads import Workload


def run_once(workload: Workload, seed: int, scale: float,
             trace: bool) -> dict:
    """Run ``workload`` once and return its record: host-clock phases,
    every simulated metric, the outcome and — when ``trace`` — the
    profile folded by layer."""
    surface.resolve()
    config = workload.build(seed, scale)
    capture = Capture()
    profiler = cProfile.Profile() if trace else None
    gc.collect()
    with shims(capture):
        capture.setup_spin_cpu_s += capture.spin(SETUP_SPINS)[0]
        if profiler is not None:
            profiler.enable()
        entered, entered_cpu = time.perf_counter(), time.process_time()
        try:
            result = workload.run(config)
        finally:
            returned, returned_cpu = time.perf_counter(), time.process_time()
            if profiler is not None:
                profiler.disable()
    # Linux reports ru_maxrss in KiB.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if capture.setup_ended_cpu is None:
        raise RuntimeError(f"{workload.name} never called Environment.run")
    if not capture.run_spins:
        raise RuntimeError(f"{workload.name} never sampled the power meter")

    # Both phases in CPU seconds of this process (the simulator is
    # single-threaded and never sleeps, so on a quiet machine that is
    # wall time), net of the reference spins, then divided by how slow
    # the spins around or inside the phase ran against their
    # quiet-machine cost.
    setup_cpu_s = capture.setup_ended_cpu - entered_cpu
    setup_slowdown = capture.setup_spin_cpu_s / (
        2 * SETUP_SPINS * SPIN_REFERENCE_S)
    run_cpu_s = returned_cpu - capture.run_began_cpu - capture.run_spin_cpu_s
    run_slowdown = capture.run_spin_cpu_s / (
        capture.run_spins * SPIN_REFERENCE_S)
    sim, outcome = simulated(workload, capture, result)
    record = {
        "workload": workload.name,
        "seed": seed,
        "scale": scale,
        "host": {
            "setup_s": setup_cpu_s / setup_slowdown,
            "host_s": run_cpu_s / run_slowdown,
            "host_cpu_s": run_cpu_s,
            "host_wall_s": (returned - capture.run_began_at
                            - capture.run_spin_wall_s),
            "slowdown": run_slowdown,
            "total_wall_s": returned - entered,
            "peak_rss_mb": peak_rss_mb,
        },
        "sim": sim,
        "sim_fingerprint": fingerprint(sim),
        **outcome,
    }
    if profiler is not None:
        profiler.create_stats()
        record["profile"] = fold_profile(profiler.stats, sim["txn.commits"])
    return record
