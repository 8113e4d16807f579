"""Per-layer metrics: exact counters read after a run, and the host-side
profile folded by ``src/repro`` package.

Layers are the ``src/repro`` packages.  ``other`` is everything else a
run executes: builtins, the standard library, this benchmark's own
shims, and the ``metrics``/``engine``/``audit``/``experiments``
packages.
"""

from __future__ import annotations

import re
import typing

from perfledger.stats import merge_histograms, percentile
from perfledger.surface import read

LAYERS = ("sim", "hardware", "storage", "index", "txn", "cluster", "core",
          "moves", "ha", "reads", "traffic", "workload", "other")

_PACKAGE = re.compile(r"[/\\]repro[/\\]([a-z_]+)[/\\]")


# -- simulated side ----------------------------------------------------------

def _latencies(workload, capture) -> tuple[float, float, int]:
    """(p50 ms, p99 ms, sample count) of user-visible response time."""
    if workload.loop == "closed":
        samples = read(capture.one("WorkloadDriver"), "response_times.values")()
        return percentile(samples, 50), percentile(samples, 99), len(samples)
    runtimes = read(capture.one("SessionEngine"), "runtimes").values()
    merged = merge_histograms(read(r, "latency") for r in runtimes)
    return (merged.percentile(50), merged.percentile(99),
            read(merged, "count"))


def _outcome(workload, capture, result) -> dict[str, typing.Any]:
    """Completions, attempts and the workload's own verdict."""
    if workload.loop == "closed":
        driver = capture.one("WorkloadDriver")
        completed = read(driver, "total_completed")
        attempted = (completed + read(driver, "total_failed")
                     + read(driver, "total_abandoned"))
        violations: list[str] = []
    else:
        completed, attempted = result.completed, result.offered
        violations = list(result.violations)
    return {"completed": completed, "attempted": attempted,
            "failed": attempted - completed, "violations": violations}


def simulated(workload, capture, result) -> tuple[dict[str, float], dict]:
    """Every simulated-clock metric and exact counter of one run, by
    metric name, plus the run's outcome.  All of it must repeat bit for
    bit under the same seed."""
    from repro.metrics.breakdown import COMPONENTS

    cluster = capture.one("Cluster")
    env = read(cluster, "env")
    sim_seconds = read(env, "now")
    kernel = read(env, "kernel_stats")()
    commits = read(cluster, "txns.committed_count")
    outcome = _outcome(workload, capture, result)
    completed = outcome["completed"]
    p50, p99, samples = _latencies(workload, capture)
    outcome["latency_samples"] = samples
    outcome["sim_seconds"] = sim_seconds
    joules = read(cluster, "energy_joules")()

    workers = read(cluster, "workers")
    disks = [d for m in read(cluster, "machines") for d in read(m, "disks")]
    hits = sum(read(w, "buffer.hits") for w in workers)
    misses = sum(read(w, "buffer.misses") for w in workers)
    wal_bytes = sum(read(w, "wal.bytes_flushed_total") for w in workers)
    reports = [r for reb in capture.all("Rebalancer")
               for r in read(reb, "reports")]

    out = {
        "sim_txn_per_s": completed / sim_seconds,
        "sim_resp_ms_p50": p50,
        "sim_resp_ms_p99": p99,
        "sim_joules_per_txn": joules / completed,
        "events_per_commit": kernel["events_processed"] / commits,
        "sim.events": kernel["events_processed"],
        "sim.fast_fraction": kernel["fast_fraction"],
        "sim.cohorts": kernel["cohorts_dispatched"],
        "hardware.disk_ios": sum(read(d, "reads") + read(d, "writes")
                                 for d in disks),
        "hardware.disk_bytes": sum(read(d, "bytes_read")
                                   + read(d, "bytes_written") for d in disks),
        "hardware.disk_busy_share": sum(
            read(d, "tracker.integral")(sim_seconds) for d in disks
        ) / (len(disks) * sim_seconds),
        "hardware.net_bytes": read(cluster, "network.bytes_total"),
        "hardware.net_transfers": read(cluster, "network.transfer_count"),
        "hardware.mean_watts": joules / sim_seconds,
        "storage.buffer_hit_ratio": hits / (hits + misses),
        "storage.buffer_misses": misses,
        "storage.buffer_evictions": sum(read(w, "buffer.evictions")
                                        for w in workers),
        "storage.latch_contended": sum(read(w, "buffer.latch_contended")
                                       for w in workers),
        "txn.commits": commits,
        "txn.aborts": read(cluster, "txns.aborted_count"),
        "txn.lock_waits": read(cluster, "txns.locks.wait_count"),
        "txn.lock_timeouts": read(cluster, "txns.locks.timeout_count"),
        "txn.wal_flushes": sum(read(w, "wal.flush_count") for w in workers),
        "txn.wal_bytes_per_commit": wal_bytes / commits,
        "moves.bytes_copied": sum(read(r, "bytes_copied") for r in reports),
        "moves.records_moved": sum(read(r, "records_moved") for r in reports),
        "moves.migration_s": getattr(result, "migration_seconds", 0.0),
        "core.scale_outs": sum(read(r, "scale_out_count")
                               for r in capture.all("Rebalancer")),
        "core.scale_ins": sum(read(r, "scale_in_count")
                              for r in capture.all("Rebalancer")),
    }

    # Zero where the layer is not part of the workload.
    tiers = capture.all("ReadTier")
    lookups = sum(read(t, "cache.lookups") for t in tiers)
    out["ha.bytes_shipped"] = sum(read(t, "replication.bytes_shipped")
                                  for t in tiers)
    out["reads.replica_reads"] = sum(read(t, "replica_reads_total")
                                     for t in tiers)
    out["reads.cache_hit_ratio"] = (
        sum(read(t, "cache.hits") for t in tiers) / lookups if lookups else 0.0)
    out["reads.view_checkpoints_matched"] = getattr(
        result, "view_checkpoints_matched", 0)

    if workload.loop == "open":
        engine = capture.one("SessionEngine")
        admission = read(engine, "admission.stats")()
        conflicts = sum(read(r, "conflicts")
                        for r in read(engine, "runtimes").values())
        # Every aborted attempt is followed by a retry or an abandon;
        # the session engine keeps no separate retry counter.
        retries = conflicts
        split = dict.fromkeys(COMPONENTS, 0.0)
    else:
        driver = capture.one("WorkloadDriver")
        admission = dict.fromkeys(
            ("offered", "admitted", "rejected", "shed", "peak_queue_depth",
             "peak_queue_wait"), 0)
        conflicts = read(driver, "conflicts")
        retries = read(driver, "retries_total")
        split = read(driver, "mean_breakdown")().as_dict()
    for key in ("offered", "admitted", "rejected", "shed",
                "peak_queue_depth"):
        out[f"traffic.{key}"] = admission[key]
    out["traffic.peak_queue_wait_s"] = admission["peak_queue_wait"]
    out["workload.conflicts"] = conflicts
    out["workload.retries"] = retries
    for component in COMPONENTS:
        out[f"split.{component}_ms"] = split[component] * 1000.0
    return out, outcome


# -- host side -----------------------------------------------------------------

def layer_of(filename: str) -> str:
    """The layer a profiled function's file belongs to."""
    match = _PACKAGE.search(filename)
    if match and match.group(1) in LAYERS:
        return match.group(1)
    return "other"


def fold_profile(table: dict, commits: int) -> dict[str, float]:
    """Fold a ``pstats`` table — ``{(file, line, function): (primitive
    calls, calls, tottime, cumtime, callers)}`` — into the host-side
    per-layer metrics."""
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    named = {"resumes": 0, "routed": 0, "checksum_calls": 0}
    checksum_s = 0.0
    for (filename, _line, function), row in table.items():
        ncalls, tottime = row[1], row[2]
        layer = layer_of(filename)
        self_s[layer] += tottime
        calls[layer] += ncalls
        path = filename.replace("\\", "/")
        if path.endswith("repro/sim/engine.py") and function == "_step":
            named["resumes"] += ncalls
        elif path.endswith("repro/cluster/master.py") and function == "_routed":
            named["routed"] += ncalls
        elif path.endswith("repro/storage/checksum.py"):
            named["checksum_calls"] += ncalls
            checksum_s += tottime
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.host_self_s"] = self_s[layer]
        out[f"{layer}.calls_per_commit"] = calls[layer] / commits
    out["sim.resumes_per_commit"] = named["resumes"] / commits
    out["cluster.routed_per_commit"] = named["routed"] / commits
    out["storage.checksum_self_s"] = checksum_s
    out["storage.checksum_calls_per_commit"] = named["checksum_calls"] / commits
    out["trace.calls_total"] = sum(calls.values())
    return out
