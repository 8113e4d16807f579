"""What the experiments share, as plain functions: the one
:class:`Result` record of every figure and sweep and its
:func:`snapshot`, the shape-claim checker behind every ``violations``,
the four time panels of a closed-loop run, TPC-C cluster build, the HA
build of fig9 and torture with its acknowledged-NewOrder oracle, the
open-loop run of elasticity and read-scaling with its admission gate,
the post-run audit, ``kv`` writer and readback, the Fig. 1/2 micro table.
Each experiment still starts its own processes — their start order is
part of the determinism contract."""

from __future__ import annotations

import dataclasses
import random
import re
import types
import typing

from repro.cluster.cluster import Cluster
from repro.engine import ExecContext, TableScan
from repro.ha import (
    FailoverCoordinator,
    FailureDetector,
    FaultInjector,
    PlacementPolicy,
    ReplicationManager,
)
from repro.metrics.report import (
    render_counters,
    render_series_table,
    render_slo_table,
    render_timeline,
)
from repro.sim.engine import Environment
from repro.storage.record import Column, Schema
from repro.storage.segment import Segment
from repro.workload import (
    TpccConfig,
    TpccContext,
    WorkloadDriver,
    load_tpcc,
    start_vacuum_daemon,
)
from repro.workload.client import RETRY_BUDGET_SECONDS, run_request


# -- one run of a figure or a sweep, as the paper reports a run -------------
@dataclasses.dataclass
class Result:
    """What the components counted (``{name: stats()}``, the run's own
    derived scalars under ``"run"``, ``"audit"`` only when the run was
    audited; a figure's axis — concurrency, update share, active nodes —
    keys a dict of its own), the slice of ``Cluster.timeline`` the run
    is about, the claims that did not hold, and any bucketed series.
    Plain data: picklable for ``run_tasks``."""

    title: str
    counters: dict[str, dict]
    timeline: list
    violations: list[str]
    #: ``{name: [(t, value)]}`` on shared bucket starts.
    series: dict[str, list] = dataclasses.field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_table(self) -> str:
        parts = [self.title]
        if self.series:
            parts.append(render_series_table(self.series))
        parts += [render_slo_table(stats, title=name) if name == "tenants"
                  else render_counters(name, stats)
                  for name, stats in self.counters.items()]
        if self.timeline:
            parts.append(render_timeline("timeline", self.timeline))
        return "\n".join(parts + [f"VIOLATION: {v}" for v in self.violations])


class OpenLoopResult(Result):
    """Elasticity's and read-scaling's record.  ``perfledger/`` resolves
    these names on the class, so they stay read-only views of the
    counters."""

    offered = property(lambda self: self.counters["admission"]["offered"])
    completed = property(
        lambda self: self.counters["admission"]["completed"])
    view_checkpoints_matched = property(
        lambda self: self.counters["run"].get("view_checkpoints_matched", 0))


def snapshot(**components) -> dict[str, dict]:
    """``{name: component.stats()}``: counters as the components name
    them."""
    return {name: component.stats() for name, component in components.items()}


def by_run_key(runs, key: str) -> dict:
    """``{run's counters["run"][key]: its scalars as attributes}`` — the
    names a cross-run claim reads (``k[2].lost_commits``,
    ``static.energy_joules``)."""
    return {run.counters["run"][key]: types.SimpleNamespace(
        **run.counters["run"]) for run in runs}


# -- the paper's shapes, in the sweeps' ``violations`` dialect -----------------
_COMPARISON = re.compile(r" (<=|>=|==|<|>) ")


def shape_violations(figure: str, values: dict, claims) -> list[str]:
    """Each claim is a comparison chain over the names in ``values`` —
    ``"after < 1.1 * before"``, ``"60 <= minimal_watts <= 70"`` — and
    each link that does not hold is one sentence naming the figure, the
    inequality and both numbers.  A term without samples (``None``)
    fails its link."""
    violations = []
    for claim in claims:
        terms = _COMPARISON.split(claim)
        for left, op, right in zip(terms[0::2], terms[1::2], terms[2::2]):
            try:
                a, b = (eval(term, {"__builtins__": {}}, values)
                        for term in (left, right))
                held = eval(f"a {op} b", {}, {"a": a, "b": b})
                numbers = f"{a:.6g} {op} {b:.6g}"
            except TypeError:
                held, numbers = False, "no samples"
            if not held:
                violations.append(f"{figure}: {left} {op} {right} does not "
                                  f"hold ({numbers})")
    return violations


def mean_between(series, lo: float, hi: float) -> float | None:
    """Mean of a series' samples at ``lo <= t < hi`` (None: no samples)."""
    values = [v for t, v in series if lo <= t < hi and v is not None]
    return sum(values) / len(values) if values else None


def shift(series, origin: float) -> list:
    """``series`` on a time axis where ``origin`` is t=0."""
    return [(t - origin, v) for t, v in series]


def panels(driver, end: float, bucket: float, origin: float) -> dict:
    """The paper's four time panels of a closed-loop run — qps, resp_ms,
    watts, J/query — bucketed over ``[0, end)``, ``origin`` at t=0."""
    return {name: shift(series(0.0, end, bucket), origin)
            for name, series in (("qps", driver.qps_series),
                                 ("resp_ms", driver.response_series),
                                 ("watts", driver.power_series),
                                 ("J/query", driver.energy_per_query_series))}


#: Lock-wait bound of every experiment's cluster.
LOCK_TIMEOUT = 2.0


def tpcc_cluster(seed: int, tpcc, *, owners, load_segment_max_pages,
                 monitor_interval=None, vacuum_interval=None,
                 **cluster_kwargs) -> tuple[Environment, Cluster]:
    """A seeded cluster with TPC-C loaded on the ``owners`` node ids
    (None: every node); ``vacuum_interval`` starts the vacuum daemon."""
    env = Environment(seed=seed)
    cluster = Cluster(env, **cluster_kwargs)
    if monitor_interval is not None:
        cluster.monitor.interval = monitor_interval
    workers = (list(cluster.workers) if owners is None
               else [cluster.worker(n) for n in owners])
    load_tpcc(cluster, tpcc, owners=workers,
              segment_max_pages=load_segment_max_pages)
    if vacuum_interval is not None:
        start_vacuum_daemon(cluster, interval=vacuum_interval)
    return env, cluster


# -- the HA build and acknowledged-commit durability (fig9, torture) ---------
#: Heartbeat cadence of the HA runs' cluster monitor.
HA_MONITOR_INTERVAL = 1.0
#: Bucket of the HA runs' series and power samples.
HA_BUCKET = 5.0
#: Placement of the HA runs' replicas sees two nodes per modelled rack.
HA_RACK_WIDTH = 2
#: The HA runs' default TPC-C.
HA_TPCC = TpccConfig(
    warehouses=6, districts_per_warehouse=4, customers_per_district=20,
    items=200, orders_per_district=10, order_lines_per_order=5,
)


@dataclasses.dataclass
class HaTpcc:
    """An HA run's pieces, built and seeded, before any process starts."""

    env: Environment
    cluster: Cluster
    replication: ReplicationManager
    coordinator: FailoverCoordinator
    detector: FailureDetector
    injector: FaultInjector
    driver: WorkloadDriver
    #: ``(w, d, o_id)`` of every acknowledged NewOrder, as acknowledged.
    committed: list
    #: Workload start: after the replicas were seeded.
    t_start: float


def ha_tpcc(config, k: int, data_nodes) -> HaTpcc:
    """TPC-C on ``data_nodes`` under k-way rack-aware replication,
    a failover coordinator and a staleness detector, the replicas seeded,
    and a closed-loop driver whose acknowledged NewOrders are remembered.
    Nothing is started: the experiment schedules ``injector`` and starts
    its processes."""
    env, cluster = tpcc_cluster(
        config.seed, config.tpcc, owners=data_nodes,
        load_segment_max_pages=config.segment_max_pages,
        monitor_interval=HA_MONITOR_INTERVAL,
        node_count=config.node_count, initially_active=config.node_count,
        buffer_pages_per_node=1024,
        segment_max_pages=config.segment_max_pages,
        lock_timeout=LOCK_TIMEOUT,
    )
    replication = ReplicationManager(
        cluster, k=k,
        policy=PlacementPolicy(cluster, rack_width=HA_RACK_WIDTH),
    )
    coordinator = FailoverCoordinator(cluster, replication)
    detector = FailureDetector(cluster, coordinator)
    env.run(until=env.process(replication.protect_all(), name="protect"))
    # The workload RNG derives from the experiment seed so "same seed,
    # same metrics" holds and different seeds genuinely differ.
    driver = WorkloadDriver(
        cluster, TpccContext(cluster, config.tpcc,
                             rng=random.Random(config.seed * 7919 + 7)),
        clients=config.clients, client_interval=config.client_interval,
        power_sample_interval=HA_BUCKET, audit=config.audit,
    )
    return HaTpcc(env, cluster, replication, coordinator, detector,
                  FaultInjector(cluster), driver,
                  remember_new_orders(driver), env.now)


def ha_counters(ha: HaTpcc, run: dict) -> tuple[dict, list[str]]:
    """What every HA run reports beside its own ``run`` scalars: the
    acknowledged NewOrders and how many are lost, promotions, the client
    retry ledger, the audit when recorded; returns ``(counters, audit
    violations)``."""
    retries = ha.driver.retry_summary()
    by_class = retries.pop("retries_by_class")
    counters = {
        "run": {**run, "committed_orders": len(ha.committed),
                "lost_commits": lost_new_orders(ha.cluster, ha.committed),
                "promotions": len(ha.coordinator.promotions)},
        "retries": retries,
        "retries by class": by_class,
    }
    return counters, audit_violations(ha.driver.history, ha.cluster,
                                      "post-run", counters)


def remember_new_orders(driver) -> list[tuple[int, int, int]]:
    """Collect the ``(w, d, o_id)`` of every acknowledged NewOrder
    through the driver's completion listener; returns the live list."""
    committed: list[tuple[int, int, int]] = []

    def remember_commit(kind, _start, _end, _breakdown, result, _attempts):
        if kind == "new_order" and isinstance(result, dict):
            committed.append((result["w"], result["d"], result["o_id"]))
    driver.completion_listener = remember_commit
    return committed


def lost_new_orders(cluster: Cluster, committed) -> int:
    """How many acknowledged NewOrders have no live order row where the
    global partition table points now (after a crash with k >= 2, the
    promoted replica).  Fencing does not excuse a loss: it protects
    integrity, promotion must still have preserved the commit."""
    lost = 0
    for key in committed:
        try:
            location = cluster.master.gpt.locate("orders", key)
        except KeyError:
            lost += 1
            continue
        partition = cluster.worker(location.node_id).partitions.get(
            location.partition_id)
        segment = partition.segment_for(key) if partition is not None else None
        stored = isinstance(segment, Segment)     # not a forwarding stub
        versions = segment.versions_for(key) if stored else ()
        if not any(v.created_ts is not None and v.deleted_ts is None
                   for _page, _slot, v in versions):
            lost += 1
    return lost


# -- the post-hoc isolation audit -------------------------------------------
def audit_violations(recorder, cluster, label: str, counters) -> list[str]:
    """A :class:`Result`'s audit: snapshot the partition table one last
    time and run every checker; the history's evidence goes to
    ``counters["audit"]`` — so a truncated recording is never mistaken
    for a proof — and each anomaly is an ``ISOLATION ANOMALY:``
    violation.  Nothing when the run was not recorded."""
    if recorder is None:
        return []
    from repro.audit import audit_history

    recorder.checkpoint_coverage(cluster.master.gpt, cluster.env.now, label)
    report = audit_history(recorder, cluster)
    counters["audit"] = report.stats
    return [f"ISOLATION ANOMALY: {anomaly}"
            for anomaly in report.descriptions()]


# -- the open-loop run (elasticity, read-scaling) ----------------------------
#: Every offered request is accounted for exactly once.
ADMISSION_CLAIMS = ["offered >= min_requests",
                    "offered == admitted + rejected + shed",
                    "admitted == completed + abandoned"]


def admission_violations(stats, min_requests: int, figure: str) -> list[str]:
    """The admission gate: conservation, and at least ``min_requests``
    offered."""
    return shape_violations(figure, {**stats, "min_requests": min_requests},
                            ADMISSION_CLAIMS)


#: TPC-C of the open-loop runs: kept small, the padding does the disk
#: work.
OPEN_LOOP_TPCC = TpccConfig(
    warehouses=8, districts_per_warehouse=4, customers_per_district=30,
    items=200, orders_per_district=10, order_lines_per_order=4,
    pad_blob_bytes=2048,
)
#: Nodes of the open-loop runs' cluster, master included: all of them
#: powered in a static run, the autoscaler's ceiling in an elastic one.
OPEN_LOOP_NODES = 4


@dataclasses.dataclass
class OpenLoop:
    """An open-loop run's pieces, built, before any process starts."""

    env: Environment
    cluster: Cluster
    engine: typing.Any
    #: The history recorder, attached when ``config.audit``.
    recorder: typing.Any


def open_loop(config, tenants, *, owners, active: int,
              vacuum_interval: float, batch: int, executors: int,
              queue_limit: int) -> OpenLoop:
    """The cluster both open-loop experiments run on, disk-bound on
    purpose — :data:`OPEN_LOOP_TPCC` on ``owners``, one shared HDD
    spindle per node, a small buffer pool, the vacuum daemon every
    ``vacuum_interval`` seconds: the regime the paper's wimpy nodes
    lived in — with ``active`` of its :data:`OPEN_LOOP_NODES` powered,
    the session engine over ``tenants`` (``batch`` logical requests per
    executed transaction, ``executors`` workers, at most ``queue_limit``
    queued) and, when ``config.audit``, the history recorder.  The
    experiment wires its own machinery next, then
    :func:`drive_open_loop`."""
    from repro.hardware import HDD_SPEC
    from repro.traffic import SessionEngine

    env, cluster = tpcc_cluster(
        config.seed, OPEN_LOOP_TPCC, owners=owners,
        load_segment_max_pages=config.load_segment_max_pages,
        vacuum_interval=vacuum_interval,
        node_count=OPEN_LOOP_NODES, initially_active=active,
        disk_specs=(HDD_SPEC,), buffer_pages_per_node=192, page_bytes=8192,
        segment_max_pages=64, lock_timeout=LOCK_TIMEOUT,
    )
    engine = SessionEngine(
        cluster, OPEN_LOOP_TPCC, tenants, seed=config.seed, batch=batch,
        executors=executors, queue_limit=queue_limit,
    )
    recorder = None
    if config.audit:
        from repro.audit import HistoryRecorder

        recorder = HistoryRecorder().attach(cluster)
    return OpenLoop(env, cluster, engine, recorder)


def drive_open_loop(run: OpenLoop, config, duration: float, sample,
                    figure: str) -> tuple[dict, list[str]]:
    """Start the power meter — ``sample(now, watts)`` after each reading,
    a partition-table coverage snapshot before it when audited — then the
    traffic, and run until the traffic has offered ``duration`` seconds.
    Returns the engine's counters (``tenants``, ``admission``) and the
    admission gate's violations."""
    env, cluster, recorder = run.env, run.cluster, run.recorder
    done: list[float] = []

    def traffic():
        yield from run.engine.run(duration)
        done.append(env.now)

    def meter_loop():
        cluster.meter.sample()
        if recorder is not None:
            recorder.checkpoint_coverage(cluster.master.gpt, env.now, "start")
        while not done:
            yield env.timeout(config.power_sample_interval)
            now, watts = cluster.meter.sample()
            if recorder is not None:
                recorder.checkpoint_coverage(cluster.master.gpt, now, "meter")
            sample(now, watts)

    env.process(meter_loop(), name="power-meter")
    env.run(until=env.process(traffic(), name="traffic"))
    counters = {"tenants": run.engine.tenant_report(),
                **snapshot(admission=run.engine.admission)}
    return counters, admission_violations(
        counters["admission"], config.min_requests, figure)


# -- the seeded ``kv`` table and its writers (chaos, endurance) ---------------
KV_SCHEMA = Schema([Column("id"), Column("v", "str", width=40)], key=("id",))


def kv_cluster_rows(cluster: Cluster, owner_node: int, rows: int) -> None:
    """Create ``kv`` on ``owner_node`` and bulk-load keys ``0..rows-1``."""
    cluster.master.create_table("kv", KV_SCHEMA,
                                owner=cluster.worker(owner_node))
    cluster.master.bulk_load("kv", ((i, "seed-%05d" % i) for i in range(rows)))


class KvWriters:
    """The seeded ``kv`` writers of chaos and endurance.  Each sleeps
    ``interval(now)``, then submits one request through the one request
    loop: an ``update`` of a loaded row with probability
    ``update_share``, else an ``insert`` of a fresh key — a writer's
    sequence number runs on across its loops, so no key is inserted
    twice.  ``oracle`` keeps every acknowledged value for
    :func:`kv_readback`."""

    def __init__(self, cluster: Cluster, rows: int, update_share: float,
                 interval: typing.Callable[[float], float], seed: int):
        self.cluster = cluster
        self.rows = rows
        self.update_share = update_share
        self.interval = interval
        self.rng = random.Random(seed * 104729 + 31)
        self.oracle: dict[int, str] = {}
        self.acked = self.exhausted = 0
        self.retries_by_class: dict[str, int] = {}
        self.seqs: dict[int, int] = {}

    def run(self, writer_id: int, until: float):
        """Generator: writer ``writer_id``'s loop, until ``until``."""
        cluster, rng = self.cluster, self.rng
        env, master = cluster.env, cluster.master
        while env.now < until:
            yield env.timeout(self.interval(env.now))
            if env.now >= until:
                break
            seq = self.seqs[writer_id] = self.seqs.get(writer_id, 0) + 1
            if rng.random() < self.update_share:
                op, key = "update", rng.randrange(self.rows)
            else:
                op, key = "insert", 10_000 + writer_id * 1_000_000 + seq
            value = f"w{writer_id}-{op[0]}{seq}"

            def body(txn):
                if op == "update":
                    yield from master.update("kv", key, (key, value), txn)
                else:
                    yield from master.insert("kv", (key, value), txn)

            txn, _result, _attempts = yield from run_request(
                cluster, f"kv_{op}", body, cluster.txns.begin, env.now,
                RETRY_BUDGET_SECONDS, self.retries_by_class)
            if txn is None:
                self.exhausted += 1
            else:
                self.oracle[key] = value
                self.acked += 1


def kv_readback(env, cluster, oracle: dict[int, str]) -> list[str]:
    """Read every acknowledged write back in one transaction; returns a
    violation per key whose value differs."""
    violations: list[str] = []

    def readback():
        txn = cluster.txns.begin()
        for key, expected in sorted(oracle.items()):
            row = yield from cluster.master.read("kv", key, txn)
            if row is None or row[1] != expected:
                got = "nothing" if row is None else repr(row[1])
                violations.append(
                    f"acknowledged write lost: key {key} reads {got}")
        yield from cluster.txns.commit(txn)

    env.run(until=env.process(readback(), name="kv-readback"))
    return violations


# -- the buffer-warm single table of the operator experiments (fig1, fig2) ----
@dataclasses.dataclass
class MicroTable:
    """A simple single-table fixture for the operator micro-benchmarks."""

    cluster: Cluster
    partition: typing.Any
    rows: int
    schema: Schema


MICRO_SCHEMA = Schema(
    [Column("id"), Column("grp"), Column("val", "float"),
     Column("pad", "str", width=160)],
    key=("id",),
)

#: Roughly 200 B per record on the wire, matching the Fig. 1 derivation.
MICRO_PAD = "x" * 160


def build_micro_cluster(rows: int) -> MicroTable:
    """A three-node cluster with one pre-loaded, buffer-warm table on
    node 0.

    The table is loaded fast-path (not measured) and sized so the whole
    table fits in the buffer pool — Fig. 1/2 measure operator and
    network costs, not disk I/O.
    """
    cluster = Cluster(
        Environment(), node_count=3, initially_active=3,
        buffer_pages_per_node=max(1024, rows // 16), segment_max_pages=2048,
    )
    partition = cluster.master.create_table("micro", MICRO_SCHEMA,
                                            owner=cluster.workers[0])
    cluster.master.bulk_load(
        "micro", ((i, i % 7, float(i), MICRO_PAD) for i in range(rows)))
    return MicroTable(cluster, partition, rows, MICRO_SCHEMA)


def warm_buffer(table: MicroTable) -> None:
    """Pre-fault every page of the table into the owner's buffer pool."""
    env = table.cluster.env
    worker = table.cluster.workers[0]
    ctx = ExecContext(env=env, vector_size=512)
    scan = TableScan(ctx, worker, table.partition)
    env.run(until=env.process(scan.drain()))
