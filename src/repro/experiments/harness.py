"""What the experiments used to paste from each other, as plain
functions: the shape-claim checker behind every figure's ``violations``,
TPC-C cluster build, acknowledged-NewOrder oracle, audit epilogue and
footer, admission conservation gate, ``kv`` writer and readback, the
Fig. 1/2 micro table.  Each experiment still wires its own processes —
their start order is part of the determinism contract."""

from __future__ import annotations

import dataclasses
import re
import typing

from repro.cluster.cluster import Cluster
from repro.engine import ExecContext, TableScan
from repro.errors import TransientError
from repro.sim.engine import Environment
from repro.storage.record import Column, Schema
from repro.storage.segment import Segment
from repro.workload import load_tpcc, start_vacuum_daemon
from repro.workload.tpcc_gen import fast_insert


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


# -- acknowledged-commit durability (fig9, torture) -------------------------
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
def audit_epilogue(recorder, cluster, label: str) -> tuple[list, dict]:
    """Snapshot the partition table one last time and run every checker;
    returns ``(anomaly descriptions, history stats)``, empty when
    nothing was recorded."""
    if recorder is None:
        return [], {}
    from repro.audit import audit_history

    recorder.checkpoint_coverage(cluster.master.gpt, cluster.env.now, label)
    report = audit_history(recorder, cluster)
    return report.descriptions(), report.stats


def render_anomaly_lines(results) -> list[str]:
    """Sweep-table footer: a line per anomaly of each ``(label, result)``
    and, if any run was audited, the evidence totals — so a truncated
    recording is never mistaken for a proof."""
    results = list(results)
    lines = [f"{label}: ISOLATION ANOMALY: {anomaly}"
             for label, result in results for anomaly in result.anomalies]
    if any(result.audited for _label, result in results):
        ops, dropped = (
            sum(result.history_stats.get(key, 0) for _label, result in results)
            for key in ("ops_recorded", "ops_dropped"))
        lines.append(f"audit: {len(lines)} isolation anomalies over {ops} "
                     f"recorded operations ({dropped} dropped)")
    return lines


# -- open-loop admission conservation (elasticity, read-scaling) -------------
def admission_violations(stats, min_requests: int, noun: str) -> list[str]:
    """Every offered request is accounted for exactly once, and the
    ``noun`` ("day", "run") offered at least ``min_requests``."""
    offered, admitted = stats["offered"], stats["admitted"]
    violations = []
    if offered < min_requests:
        violations.append(f"{noun} offered only {offered} logical requests "
                          f"(target {min_requests})")
    if offered != admitted + stats["rejected"] + stats["shed"]:
        violations.append(
            "admission leak: offered != admitted + rejected + shed "
            f"({offered} != {admitted} + {stats['rejected']} + "
            f"{stats['shed']})")
    if admitted != stats["completed"] + stats["abandoned"]:
        violations.append(
            "drain leak: admitted != completed + abandoned "
            f"({admitted} != {stats['completed']} + {stats['abandoned']})")
    return violations


# -- the seeded ``kv`` table and its writers (chaos, endurance) ---------------
KV_SCHEMA = Schema([Column("id"), Column("v", "str", width=40)], key=("id",))


def kv_cluster_rows(cluster: Cluster, owner_node: int, rows: int) -> None:
    """Create ``kv`` on ``owner_node`` and fast-load keys ``0..rows-1``."""
    owner = cluster.worker(owner_node)
    cluster.master.create_table("kv", KV_SCHEMA, owner=owner)
    partition = next(iter(owner.partitions.values()))
    for i in range(rows):
        fast_insert(owner, partition, (i, "seed-%05d" % i))


def kv_write_with_retries(cluster, op: str, key: int, value: str, retries):
    """Generator: one ``update``/``insert`` of ``kv[key]`` in its own
    transaction, retried with capped exponential backoff; True once the
    commit is acknowledged, False when the retries ran out."""
    for attempt in range(retries):
        txn = cluster.txns.begin()
        try:
            if op == "update":
                yield from cluster.master.update("kv", key, (key, value), txn)
            else:
                yield from cluster.master.insert("kv", (key, value), txn)
            yield from cluster.txns.commit(txn)
        except TransientError:
            cluster.txns.abort_if_active(txn)
            yield cluster.env.timeout(min(0.05 * (2 ** attempt), 0.5))
            continue
        return True
    return False


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


def build_micro_cluster(rows: int, node_count: int = 3,
                        active: int = 3,
                        buffer_pages: int | None = None) -> MicroTable:
    """A cluster with one pre-loaded, buffer-warm table on node 0.

    The table is loaded fast-path (not measured) and sized so the whole
    table fits in the buffer pool — Fig. 1/2 measure operator and
    network costs, not disk I/O.
    """
    env = Environment()
    if buffer_pages is None:
        buffer_pages = max(1024, rows // 16)
    cluster = Cluster(
        env, node_count=node_count, initially_active=active,
        buffer_pages_per_node=buffer_pages, segment_max_pages=2048,
    )
    owner = cluster.workers[0]
    partition = cluster.master.create_table("micro", MICRO_SCHEMA, owner=owner)
    for i in range(rows):
        fast_insert(owner, partition, (i, i % 7, float(i), MICRO_PAD))
    return MicroTable(cluster, partition, rows, MICRO_SCHEMA)


def warm_buffer(table: MicroTable) -> None:
    """Pre-fault every page of the table into the owner's buffer pool."""
    env = table.cluster.env
    worker = table.cluster.workers[0]
    ctx = ExecContext(env=env, vector_size=512)
    scan = TableScan(ctx, worker, table.partition)
    env.run(until=env.process(scan.drain()))
