"""The one list of every ``repro`` symbol the benchmark touches.

``IMPORTS`` are names the benchmark imports, calls or wraps; ``READS``
are the attribute paths it reads off live objects after a run, keyed by
the class of the object the path starts from.  :func:`resolve` checks
all of them before anything is timed, and :func:`read` refuses a path
that is not listed, so this file cannot drift from what the benchmark
actually uses.  A harness refactor that keeps every name here working
keeps the ledger working.
"""

from __future__ import annotations

import importlib
import operator

#: ``module:attribute.path`` — resolved by import plus getattr (a
#: dataclass field without a default counts as present).
IMPORTS = (
    # The four workloads and the config fields they set.
    "repro.experiments.fig6_schemes:run_fig6",
    "repro.experiments.fig6_schemes:quick_fig6_config",
    "repro.experiments.fig6_schemes:Fig6Config.tpcc",
    "repro.experiments.fig6_schemes:Fig6Config.warmup",
    "repro.experiments.fig6_schemes:Fig6Config.tail",
    "repro.experiments.fig6_schemes:Fig6Config.ballast_rows_per_warehouse",
    "repro.experiments.fig6_schemes:Fig6Result.migration_seconds",
    "repro.workload:TpccConfig.seed",
    "repro.experiments.elasticity:run_elasticity",
    "repro.experiments.elasticity:quick_elasticity_config",
    "repro.experiments.elasticity:ElasticityConfig.seed",
    "repro.experiments.elasticity:ElasticityConfig.mode",
    "repro.experiments.elasticity:ElasticityConfig.day_seconds",
    "repro.experiments.elasticity:ElasticityConfig.min_requests",
    "repro.experiments.elasticity:ElasticityResult.ok",
    "repro.experiments.elasticity:ElasticityResult.violations",
    "repro.experiments.elasticity:ElasticityResult.offered",
    "repro.experiments.elasticity:ElasticityResult.completed",
    "repro.experiments.read_scaling:run_read_scaling",
    "repro.experiments.read_scaling:quick_read_scaling_config",
    "repro.experiments.read_scaling:ReadScalingConfig.seed",
    "repro.experiments.read_scaling:ReadScalingConfig.mode",
    "repro.experiments.read_scaling:ReadScalingConfig.duration",
    "repro.experiments.read_scaling:ReadScalingConfig.min_requests",
    "repro.experiments.read_scaling:ReadScalingConfig.sever_at_fraction",
    "repro.experiments.read_scaling:ReadScalingConfig.restore_at_fraction",
    "repro.experiments.read_scaling:ReadScalingConfig.crash_at_fraction",
    "repro.experiments.read_scaling:ReadScalingConfig.restart_at_fraction",
    "repro.experiments.read_scaling:ReadScalingResult.ok",
    "repro.experiments.read_scaling:ReadScalingResult.violations",
    "repro.experiments.read_scaling:ReadScalingResult.offered",
    "repro.experiments.read_scaling:ReadScalingResult.completed",
    "repro.experiments.read_scaling:ReadScalingResult.view_checkpoints_matched",
    # Wrapped: the phase clock, the reference-spin hook and the five
    # captured constructors.
    "repro.sim.engine:Environment.run",
    "repro.hardware.power:ClusterEnergyMeter.sample",
    "repro.cluster.cluster:Cluster.__init__",
    "repro.workload:WorkloadDriver.__init__",
    "repro.traffic:SessionEngine.__init__",
    "repro.core:Rebalancer.__init__",
    "repro.reads:ReadTier.__init__",
    # Named in the profile fold.
    "repro.sim.engine:Process._step",
    "repro.cluster.master:MasterNode._routed",
    "repro.storage.checksum:checksum_of",
    # Helpers the benchmark calls.
    "repro.metrics.series:LatencyHistogram.merge",
    "repro.metrics.series:LatencyHistogram.percentile",
    "repro.metrics.breakdown:COMPONENTS",
)

#: Attribute paths read after a run, by the class they start from.
READS = {
    "Cluster": (
        "env", "workers", "machines", "energy_joules",
        "txns.committed_count", "txns.aborted_count",
        "txns.locks.wait_count", "txns.locks.timeout_count",
        "network.bytes_total", "network.transfer_count",
    ),
    "Environment": ("now", "kernel_stats"),
    "WorkerNode": (
        "buffer.hits", "buffer.misses", "buffer.evictions",
        "buffer.latch_contended",
        "wal.flush_count", "wal.bytes_flushed_total",
    ),
    "NodeMachine": ("disks",),
    "Disk": ("reads", "writes", "bytes_read", "bytes_written",
             "tracker.integral"),
    "WorkloadDriver": (
        "response_times.values", "total_completed", "total_failed",
        "total_abandoned", "conflicts", "retries_total", "mean_breakdown",
    ),
    "SessionEngine": ("admission.stats", "runtimes"),
    "TenantRuntime": ("latency", "conflicts"),
    "Rebalancer": ("reports", "scale_out_count", "scale_in_count"),
    "MoveReport": ("bytes_copied", "records_moved"),
    "ReadTier": ("replica_reads_total", "cache.hits", "cache.lookups",
                 "replication.bytes_shipped"),
    "LatencyHistogram": ("count",),
}

#: What ``Environment.kernel_stats()`` and ``AdmissionController
#: .stats()`` must keep returning.
KERNEL_STATS_KEYS = ("events_processed", "fast_fraction", "cohorts_dispatched")
ADMISSION_STATS_KEYS = ("offered", "admitted", "rejected", "shed",
                        "completed", "peak_queue_depth", "peak_queue_wait")


class MissingSymbol(Exception):
    """A name in this file no longer resolves; ``str()`` is the name."""


def read(obj, path: str):
    """``obj.<path>``, for a path listed in :data:`READS`."""
    kind = type(obj).__name__
    if path not in READS.get(kind, ()):
        raise KeyError(f"{kind}.{path} is read but not listed in surface.READS")
    return operator.attrgetter(path)(obj)


def _resolve_import(name: str) -> None:
    module_name, _, path = name.partition(":")
    try:
        target = importlib.import_module(module_name)
    except ImportError as exc:
        raise MissingSymbol(module_name) from exc
    for part in path.split("."):
        fields = getattr(target, "__dataclass_fields__", {})
        if hasattr(target, part):
            target = getattr(target, part)
        elif part in fields:
            return
        else:
            raise MissingSymbol(name)


def _probes() -> dict[str, object]:
    """One small live object per :data:`READS` key — instance
    attributes only exist on instances."""
    from repro.cluster.cluster import Cluster
    from repro.core import MoveReport, PhysiologicalPartitioning, Rebalancer
    from repro.ha.replication import ReplicationManager
    from repro.metrics.series import LatencyHistogram
    from repro.reads import ReadTier
    from repro.sim.engine import Environment
    from repro.traffic import ConstantArrivals, SessionEngine, TenantClass
    from repro.workload import TpccConfig, TpccContext, WorkloadDriver

    env = Environment()
    cluster = Cluster(env, node_count=2, initially_active=2)
    tpcc = TpccConfig()
    engine = SessionEngine(cluster, tpcc, [TenantClass(
        name="probe", users=1, arrivals=ConstantArrivals(1.0))])
    return {
        "Cluster": cluster,
        "Environment": env,
        "WorkerNode": cluster.workers[0],
        "NodeMachine": cluster.machines[0],
        "Disk": cluster.machines[0].disks[0],
        "WorkloadDriver": WorkloadDriver(
            cluster, TpccContext(cluster, tpcc), clients=1,
            client_interval=1.0),
        "SessionEngine": engine,
        "TenantRuntime": engine.runtimes["probe"],
        "Rebalancer": Rebalancer(cluster, PhysiologicalPartitioning()),
        "MoveReport": MoveReport("probe", "probe", 0, 1),
        "ReadTier": ReadTier(cluster, ReplicationManager(cluster, k=1)),
        "LatencyHistogram": LatencyHistogram(),
    }


def resolve() -> None:
    """Resolve every listed name; raise :class:`MissingSymbol` naming
    the first one that is gone."""
    for name in IMPORTS:
        _resolve_import(name)
    try:
        probes = _probes()
    except (ImportError, AttributeError, TypeError) as exc:
        raise MissingSymbol(f"probe construction: {exc}") from exc
    for kind, paths in READS.items():
        for path in paths:
            try:
                read(probes[kind], path)
            except AttributeError as exc:
                raise MissingSymbol(f"{kind}.{path}") from exc
    for key in KERNEL_STATS_KEYS:
        if key not in probes["Environment"].kernel_stats():
            raise MissingSymbol(f"Environment.kernel_stats()[{key!r}]")
    for key in ADMISSION_STATS_KEYS:
        if key not in probes["SessionEngine"].admission.stats():
            raise MissingSymbol(f"AdmissionController.stats()[{key!r}]")
