"""The read tier: route declared-read-only transactions off the primary.

The master consults a :class:`ReadTier` (when one is installed) before
walking the primary path of a point or range read.  The tier answers
from three progressively cheaper copies — the distributed cache, a
segment replica's row state, a materialized view — or **bounces**: a
:data:`ReadTier.NOT_SERVED` return sends the master down its normal
primary path, so a bounce is always safe, never wrong.

The single admission rule that makes every derived copy safe to serve
is the **safe read horizon** (:meth:`TransactionManager.
safe_read_horizon`): a snapshot is only considered at all if every
commit it could see has fully acknowledged — which, because replica
shipping, cache write-through, and view feeding all run as commit
stages, means every derived copy already reflects those commits.
On top of that:

* a **replica** serves a key only when its single-version row state
  actually holds the version the snapshot needs
  (:func:`classify_point`), its base image predates the snapshot
  (``base_ts``), and the primary's replication lag is within
  :data:`LAG_BUDGET` WAL records;
* the **cache** serves only entries stamped at or before the snapshot;
* **views** are not snapshot reads at all — they answer from the fold
  horizon and are audited by lag bound + checkpoint equivalence
  instead.

Failover interaction: the row-state entry is captured *before* any
simulated time passes; if the holder dies during the round trip the
read raises :class:`~repro.cluster.master.NodeDownError` — a retryable
error, so the client re-runs the transaction, which then either finds
the promoted copy serving as the new primary or bounces to it.
"""

from __future__ import annotations

import bisect
import typing

from repro.cluster.master import NodeDownError
from repro.index.partition_tree import KeyRange
from repro.reads import cache as cache_mod
from repro.reads.cache import DistributedCache
from repro.reads.views import MaterializedViews

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster
    from repro.ha.replication import ReplicationManager

#: :func:`classify_point` verdicts.
SERVE = "serve"
MISS = "miss"
BOUNCE = "bounce"

#: Staleness budget: a replica serves only while its primary's
#: replication lag is at most this many WAL records.
LAG_BUDGET = 64

BOUNCE_REASONS = ("horizon", "not-mapped", "moving", "no-replica", "lag",
                  "no-candidate", "base", "version", "failover")


def classify_point(entry, begin_ts: int, base_ts: int):
    """The replica point-read decision, as a pure function (property
    tests drive it directly against a reference MVCC oracle).

    ``entry`` is the replica row-state entry ``(values, writer_txn,
    version_ts)`` — ``values is None`` marks a tombstone — or ``None``
    when the key is absent.  Returns ``(verdict, values)``:

    * ``(SERVE, values)`` — the entry is exactly the version visible
      at ``begin_ts``;
    * ``(MISS, None)`` — the key definitively does not exist at
      ``begin_ts`` (absent since the base image, or deleted at or
      before the snapshot): ``None`` is a correct answer;
    * ``(BOUNCE, None)`` — the row state cannot answer (the snapshot
      predates the base image, or a newer write overwrote the version
      the snapshot needs — the single-version map no longer has it).
    """
    if begin_ts < base_ts:
        return BOUNCE, None
    if entry is None:
        return MISS, None
    values, _writer, version_ts = entry[0], entry[1], entry[2]
    if version_ts > begin_ts:
        return BOUNCE, None
    if values is None:
        return MISS, None
    return SERVE, values


class ReadTier:
    """Router + cache + views, installed on the cluster master."""

    #: Sentinel: "the tier declines; take the primary path."
    NOT_SERVED = object()

    def __init__(self, cluster: "Cluster",
                 replication: "ReplicationManager | None" = None, *,
                 cache_seed: int = 0, per_tenant_quota: int = 4096):
        self.cluster = cluster
        self.env = cluster.env
        self.master = cluster.master
        self.replication = replication
        self.cache = DistributedCache(
            cluster, [w.node_id for w in cluster.workers], seed=cache_seed,
            per_tenant_quota=per_tenant_quota)
        self.views = MaterializedViews(cluster)
        self._rr = 0  # round-robin cursor over eligible replicas

        self.served_cache = 0
        self.served_replica = 0
        self.served_replica_miss = 0
        self.served_replica_range = 0
        self.served_view = 0
        self.bounces: dict[str, int] = {r: 0 for r in BOUNCE_REASONS}
        self.failover_retries = 0

        # Appended after the replicator's shipping stage (it was built
        # first — it is a constructor argument), so the tier's
        # bookkeeping runs strictly after replica shipping, still inside
        # the commit: invalidation and view feeding cost no extra round
        # trip and are ordered before the ack.
        cluster.txns.commit_stages.append(self._apply_commit)
        self.master.read_tier = self

    def _apply_commit(self, txn, redo):
        """Commit stage (no sim time passes): cache coherence, then the
        view feed."""
        records = [record for _partition_id, record in redo]
        self.cache.apply_commit(txn.txn_id, txn.commit_ts, records)
        self.views.enqueue(txn.commit_ts, records, self.env.now)
        return
        yield  # pragma: no cover - keeps this a generator

    # -- shared plumbing ------------------------------------------------------

    def _rpc(self, breakdown):
        t0 = self.env.now
        yield from self.cluster.network.rpc_delay()
        if breakdown is not None:
            breakdown.add("network_io", self.env.now - t0)

    def _bounce(self, reason: str):
        self.bounces[reason] += 1
        return self.NOT_SERVED

    def _eligible_location(self, location):
        """Replica-set admission shared by point and range reads:
        returns ``(replica_set, lag)`` or a bounce reason string."""
        if location.is_moving or not location.available:
            return "moving"
        replica_set = self.cluster.catalog.replica_set_for(
            location.partition_id)
        if replica_set is None:
            return "no-replica"
        lag = self.replication.replication_lag(location.node_id)
        if lag > LAG_BUDGET:
            return "lag"
        return replica_set, lag

    def _pick_replica(self, replica_set):
        """Round-robin over the live replicas; the candidate list is
        built only when one of them is not live."""
        cluster = self.cluster
        candidates = replica_set.replicas
        for replica in candidates:
            if not replica.is_live(cluster):
                candidates = replica_set.live_replicas(cluster)
                break
        if not candidates:
            return None
        replica = candidates[self._rr % len(candidates)]
        self._rr += 1
        return replica

    def _require_holder(self, holder) -> None:
        """Post-yield serving check: the holder died while the read was
        in flight (failover is promoting its copy).  Raise the routing
        layer's retryable error — the client retries, and the rerun
        either finds the promoted copy as the new primary or bounces."""
        if not holder.is_serving:
            self.bounces["failover"] += 1
            self.failover_retries += 1
            raise NodeDownError(
                f"replica holder {holder.node_id} went down mid-read"
            )

    # -- point reads ----------------------------------------------------------

    def read_point(self, table: str, key, txn):
        """Generator: serve a point read from cache or replica, return
        :data:`NOT_SERVED` to bounce to the primary."""
        txns = self.cluster.txns
        b = txn.begin_ts
        if b > txns.safe_read_horizon():
            return self._bounce("horizon")
        t0 = self.env.now

        status, values = self.cache.probe(table, key, b)
        if status == cache_mod.HIT:
            entry = self.cache.entry_for(table, key)
            yield from self._rpc(txn.breakdown)  # shard round trip
            self.served_cache += 1
            history = txns.history
            if history is not None:
                history.record_cache_hit(txn, table, key, values,
                                         entry[1], entry[2],
                                         t0, self.env.now)
            return values

        if self.replication is None:
            return self._bounce("no-replica")
        try:
            location = self.master.gpt.locate(table, key)
        except KeyError:
            return self._bounce("not-mapped")
        admitted = self._eligible_location(location)
        if isinstance(admitted, str):
            return self._bounce(admitted)
        replica_set, lag = admitted
        replica = self._pick_replica(replica_set)
        if replica is None:
            return self._bounce("no-candidate")
        if b < replica.base_ts:
            return self._bounce("base")

        # Decide from the row state *now*; any commit landing during
        # the round trip below has commit_ts > b, so the captured entry
        # stays the right answer for this snapshot.
        entry = replica.rows.get(key)
        verdict, values = classify_point(entry, b, replica.base_ts)
        if verdict == BOUNCE:
            return self._bounce("version")

        holder = self.cluster.worker(replica.holder_node_id)
        yield from self._rpc(txn.breakdown)
        self._require_holder(holder)
        yield from holder.serve_replica_read()
        self._require_holder(holder)
        replica.reads_served += 1

        history = txns.history
        if verdict == MISS:
            self.served_replica_miss += 1
            if history is not None:
                history.record_read_miss(txn, table, key, t0, self.env.now,
                                         origin="replica")
            return None
        self.served_replica += 1
        if history is not None:
            history.record_replica_read(txn, table, key, values,
                                        entry[1], entry[2],
                                        t0, self.env.now, lag=lag)
        return values

    # -- range reads ----------------------------------------------------------

    def read_range(self, table: str, lo, hi, txn,
                   limit: int | None = None):
        """Generator: serve ``[lo, hi)`` from replicas only if *every*
        covering location can serve the whole snapshot — any entry
        newer than the snapshot bounces the entire range (all-or-
        nothing keeps the merge trivially correct)."""
        if self.replication is None:
            return self._bounce("no-replica")
        txns = self.cluster.txns
        b = txn.begin_ts
        if b > txns.safe_read_horizon():
            return self._bounce("horizon")
        try:
            locations = self.master.gpt.locate_range(table, KeyRange(lo, hi))
        except KeyError:
            return self._bounce("not-mapped")
        if not locations:
            return self._bounce("not-mapped")

        plan: list[tuple] = []  # (replica, [(key, values)])
        for location in locations:
            admitted = self._eligible_location(location)
            if isinstance(admitted, str):
                return self._bounce(admitted)
            replica_set, _lag = admitted
            replica = self._pick_replica(replica_set)
            if replica is None:
                return self._bounce("no-candidate")
            if b < replica.base_ts:
                return self._bounce("base")
            entries = replica.rows
            keys = replica.sorted_keys
            rows = []
            for key in keys[bisect.bisect_left(keys, lo):
                            bisect.bisect_left(keys, hi)]:
                values, _writer, version_ts = entries[key]
                if version_ts > b:
                    # A write newer than the snapshot overwrote (or
                    # tombstoned) a key in range: the version the
                    # snapshot needs is gone from the row state.
                    return self._bounce("version")
                if values is not None:
                    rows.append((key, values))
            plan.append((replica, rows))

        by_key: dict = {}
        for replica, rows in plan:
            holder = self.cluster.worker(replica.holder_node_id)
            yield from self._rpc(txn.breakdown)
            self._require_holder(holder)
            yield from holder.serve_replica_range(len(rows))
            self._require_holder(holder)
            replica.reads_served += 1
            for key, values in rows:
                by_key.setdefault(key, values)
        self.served_replica_range += 1
        # Parity with the primary path: range reads record no history
        # operations.
        result = [values for _key, values in sorted(by_key.items())]
        return result if limit is None else result[:limit]

    # -- views ----------------------------------------------------------------

    def read_view(self, kind: str, args: tuple):
        """Generator: answer from a materialized view (one round trip;
        the view state lives with the master)."""
        yield from self._rpc(None)
        self.served_view += 1
        if kind == "order_status":
            return self.views.order_status(*args)
        if kind == "stock_level":
            return self.views.stock_low(*args)
        raise ValueError(f"unknown view {kind!r}")

    # -- cache-aside fill ------------------------------------------------------

    def note_primary_read(self, table: str, key, values, txn) -> None:
        """A declared-read-only transaction read the primary (the tier
        bounced): install what it saw, quota and race guards willing."""
        if values is None or not txn.declared_read_only:
            return
        self.cache.fill(table, key, tuple(values), txn.begin_ts, txn.tenant)

    # -- introspection ---------------------------------------------------------

    @property
    def replica_reads_total(self) -> int:
        return (self.served_replica + self.served_replica_miss
                + self.served_replica_range)

    def stats(self) -> dict:
        out = {
            "reads_cache": self.served_cache,
            "reads_replica": self.served_replica,
            "reads_replica_miss": self.served_replica_miss,
            "reads_replica_range": self.served_replica_range,
            "reads_view": self.served_view,
            "reads_failover_retries": self.failover_retries,
        }
        for reason in BOUNCE_REASONS:
            out[f"bounce_{reason.replace('-', '_')}"] = self.bounces[reason]
        out.update(self.cache.stats())
        out.update(self.views.stats())
        return out
