"""Incrementally-maintained materialized views over the commit stream.

Two views back the read-mostly TPC-C traffic:

* **order-status** — per district, the full committed ``orders`` map
  (a max-only "latest order" summary would go wrong under deletes, so
  the view keeps every live order row and answers "newest order of
  customer c" by a scan over the district's map);
* **stock-level** — per warehouse, item -> committed stock quantity.

Maintenance is *incremental*: the read tier's commit stage enqueues each
committed transaction's data log records here (the same records that
ship to replicas), and a refresher process folds them in every
``refresh_interval`` simulated seconds.  ``applied_horizon`` is the
newest folded commit timestamp; the distance between a batch's commit
and its fold is the **view lag**, tracked per batch and bounded by
:data:`LAG_BOUND` in the audit.

The correctness story is *checkpoint equivalence*: whenever the cluster
is quiesced the experiment calls :meth:`checkpoint`, which drains the
queue and fingerprints the incremental state against a from-scratch
recomputation over the primaries' committed rows.  The two must be
bit-identical — any drift means a delta was lost, double-applied, or
misordered.

View reads are *not* snapshot reads: they answer from the fold horizon,
not from the caller's begin timestamp, so they record no operations in
the isolation history.  Their guarantee is the lag bound plus
checkpoint equivalence, which is exactly what the audit checks.
"""

from __future__ import annotations

import collections
import hashlib
import typing

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster

from repro.workload.tpcc_txns import TRANSACTIONS, order_status as \
    _primary_order_status, stock_level as _primary_stock_level

#: Seconds a committed batch may wait for its fold: the audit's
#: view-lag bound.
LAG_BOUND = 5.0


def canonical_rows(cluster: "Cluster", table: str):
    """Committed ``(key, values)`` pairs of a table, scanned once per
    partition through its *canonical* location (first candidate node
    actually hosting it) — a mid-move partition is visible at both ends
    and must not be counted twice."""
    gpt = cluster.master.gpt
    if table not in gpt.tables():
        return
    for _key_range, location in gpt.partitions(table):
        for node_id in location.candidate_nodes:
            worker = cluster.worker(node_id)
            partition = worker.partitions.get(location.partition_id)
            if partition is not None:
                for version in _iter_committed(partition):
                    yield version.key, tuple(version.values)
                break


def _iter_committed(partition):
    from repro.txn.checkpoint import iter_committed_rows
    return iter_committed_rows(partition)


class MaterializedViews:
    """The two TPC-C read views, fed from the commit stream."""

    #: Tables whose deltas the views consume; everything else is
    #: dropped at enqueue time.
    TABLES = ("orders", "stock")

    def __init__(self, cluster: "Cluster", refresh_interval: float = 0.05):
        self.cluster = cluster
        self.env = cluster.env
        self.refresh_interval = refresh_interval
        #: (warehouse, district) -> {o_id: order row}.
        self._orders: dict[tuple, dict[int, tuple]] = {}
        #: warehouse -> {item: committed quantity}.
        self._stock: dict[int, dict[int, int]] = {}
        #: Pending committed batches: (commit_ts, records, enqueued_at).
        self._queue: collections.deque = collections.deque()
        self.applied_horizon = 0
        self.last_lag = 0.0
        self.max_lag = 0.0
        self.applied_batches = 0
        self.applied_records = 0
        self.reads_order_status = 0
        self.reads_stock_level = 0
        #: Every checkpoint taken, as plain dicts (always kept; also
        #: pushed to an attached history recorder for the audit).
        self.checkpoints: list[dict] = []
        self._seed()

    # -- seeding / recompute -------------------------------------------------

    def _seed(self) -> None:
        """Base image: fold the currently committed rows.  The tier is
        built after the loader and before traffic, so this is the view
        at timestamp ``applied_horizon = oracle.current``."""
        orders: dict[tuple, dict[int, tuple]] = {}
        stock: dict[int, dict[int, int]] = {}
        self._recompute_into(orders, stock)
        self._orders = orders
        self._stock = stock
        self.applied_horizon = self.cluster.txns.oracle.current

    def _recompute_into(self, orders: dict, stock: dict) -> None:
        for key, values in canonical_rows(self.cluster, "orders"):
            w, d, o_id = key
            orders.setdefault((w, d), {})[o_id] = tuple(values)
        for key, values in canonical_rows(self.cluster, "stock"):
            w, item = key
            stock.setdefault(w, {})[item] = values[2]

    # -- incremental maintenance ---------------------------------------------

    def enqueue(self, commit_ts: int, records: typing.Sequence,
                now: float) -> None:
        """Called from the commit stage: stage one committed
        transaction's deltas for the next refresh."""
        relevant = [r for r in records
                    if r.kind in ("insert", "update", "delete")
                    and r.payload[0] in self.TABLES]
        self._queue.append((commit_ts, relevant, now))

    def drain(self, now: float) -> int:
        """Fold every staged batch (one refresher tick)."""
        applied = 0
        while self._queue:
            commit_ts, records, enqueued_at = self._queue.popleft()
            for record in records:
                self._apply(record)
                self.applied_records += 1
            self.applied_horizon = max(self.applied_horizon, commit_ts)
            self.last_lag = now - enqueued_at
            self.max_lag = max(self.max_lag, self.last_lag)
            self.applied_batches += 1
            applied += 1
        return applied

    def _apply(self, record) -> None:
        if record.kind == "delete":
            table, key = record.payload
            if table == "orders":
                w, d, o_id = key
                self._orders.get((w, d), {}).pop(o_id, None)
            else:
                w, item = key
                self._stock.get(w, {}).pop(item, None)
            return
        table, key, values = record.payload
        if table == "orders":
            w, d, o_id = key
            self._orders.setdefault((w, d), {})[o_id] = tuple(values)
        else:
            w, item = key
            self._stock.setdefault(w, {})[item] = values[2]

    def run(self):
        """The refresher daemon (a sim process)."""
        while True:
            yield self.env.timeout(self.refresh_interval)
            self.drain(self.env.now)

    @property
    def pending_batches(self) -> int:
        return len(self._queue)

    # -- queries -------------------------------------------------------------

    def order_status(self, w: int, d: int, c: int) -> dict | None:
        """Newest order of customer ``c`` in district ``(w, d)``, or
        ``None`` if the view knows of no such order."""
        self.reads_order_status += 1
        district = self._orders.get((w, d))
        if not district:
            return None
        for o_id in sorted(district, reverse=True):
            row = district[o_id]
            if row[3] == c:
                return {"o_id": o_id, "row": row}
        return None

    def stock_low(self, w: int, threshold: int) -> tuple[int, int]:
        """(items below threshold, items known) for a warehouse."""
        self.reads_stock_level += 1
        stock = self._stock.get(w, {})
        low = sum(1 for qty in stock.values() if qty < threshold)
        return low, len(stock)

    # -- checkpoint equivalence ----------------------------------------------

    @staticmethod
    def _fingerprint(orders: dict, stock: dict) -> str:
        digest = hashlib.sha256()
        for site in sorted(orders):
            district = orders[site]
            if not district:
                continue
            digest.update(repr((site, sorted(district.items()))).encode())
        for w in sorted(stock):
            items = stock[w]
            if not items:
                continue
            digest.update(repr((w, sorted(items.items()))).encode())
        return digest.hexdigest()

    def checkpoint(self, label: str, now: float, recorder=None) -> bool:
        """Drain, then fingerprint the incremental state against a
        from-scratch recompute.  Only meaningful while quiesced (no
        transaction mid-commit) — the caller guarantees that."""
        self.drain(now)
        incremental = self._fingerprint(self._orders, self._stock)
        orders: dict = {}
        stock: dict = {}
        self._recompute_into(orders, stock)
        recomputed = self._fingerprint(orders, stock)
        entry = {
            "t": now,
            "label": label,
            "lag": self.last_lag,
            "incremental": incremental,
            "recomputed": recomputed,
        }
        self.checkpoints.append(entry)
        if recorder is not None:
            recorder.record_view_checkpoint(
                now, label, "tpcc-read-views", self.last_lag,
                incremental, recomputed,
            )
        return incremental == recomputed

    def stats(self) -> dict:
        return {
            "view_batches": self.applied_batches,
            "view_records": self.applied_records,
            "view_pending": self.pending_batches,
            "view_horizon": self.applied_horizon,
            "view_max_lag": self.max_lag,
            "view_reads_order_status": self.reads_order_status,
            "view_reads_stock_level": self.reads_stock_level,
            "view_checkpoints": len(self.checkpoints),
        }


# -- view-backed transaction bodies -----------------------------------------
#
# Registered alongside the TPC-C bodies so the traffic engine can put
# them in a tenant's mix.  When the cluster has no read tier (primary
# baseline mode) they fall back to the real primary-path bodies, so the
# same mix is runnable — and comparable — in both modes.

def order_status_view(ctx, txn):
    """OrderStatus answered by the materialized view (primary fallback
    when no read tier is installed)."""
    tier = ctx.cluster.master.read_tier
    if tier is None:
        result = yield from _primary_order_status(ctx, txn)
        result["kind"] = "order_status_view"
        return result
    w = ctx.random_warehouse()
    d = ctx.random_district()
    c = ctx.random_customer()
    hit = yield from tier.read_view("order_status", (w, d, c))
    return {"kind": "order_status_view", "found": hit is not None}


def stock_level_view(ctx, txn):
    """StockLevel answered by the materialized view (primary fallback
    when no read tier is installed)."""
    tier = ctx.cluster.master.read_tier
    if tier is None:
        result = yield from _primary_stock_level(ctx, txn)
        result["kind"] = "stock_level_view"
        return result
    w = ctx.random_warehouse()
    _d = ctx.random_district()
    threshold = ctx.rng.randint(10, 20)
    low, checked = yield from tier.read_view("stock_level", (w, threshold))
    return {"kind": "stock_level_view", "low": low, "checked": checked}


TRANSACTIONS.setdefault("order_status_view", order_status_view)
TRANSACTIONS.setdefault("stock_level_view", stock_level_view)
