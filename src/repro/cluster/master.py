"""The master node: cluster coordinator, catalog owner, query router.

"The smallest configuration of WattDB is a single server called master
node, hosting all DBMS functions and always acting as the cluster
coordinator and endpoint to DB clients." (Sect. 3.2)  The master also
runs a worker instance, so it can own partitions itself.

Routing honours the dual pointers kept during repartitioning: "queries
are advised to visit both [nodes], determining the correct location to
use during execution" (Sect. 4.3); a visit that lands on a forwarding
pointer follows it.
"""

from __future__ import annotations

import typing

from repro.cluster.worker import RecordNotHereError, WorkerNode
from repro.errors import TransientError
from repro.hardware import specs
from repro.index.global_table import GlobalPartitionTable, PartitionLocation
from repro.index.partition_tree import KeyRange, SegmentMovedError
from repro.sim.engine import DONE, Environment, after
from repro.storage.record import RecordVersion
from repro.txn.manager import Transaction
from repro.txn.mvcc import NotVisibleError

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.catalog import Catalog
    from repro.cluster.cluster import Cluster


#: Loader pseudo-transaction: id 0, committed at timestamp 1.
LOAD_TXN_ID = 0
LOAD_COMMIT_TS = 1


class NodeDownError(TransientError):
    """Every candidate owner of the key is currently unreachable
    (crashed, booting, or network-partitioned).  Transient: failover
    re-routes the partition in the meantime."""


class PartitionUnavailableError(TransientError):
    """The partition lost its only copy (replication factor 1 and the
    owner died).  Transient from the client's point of view — retries
    are bounded and exhaust cleanly; a node restart restores service."""


class RoutedMissError(TransientError):
    """No candidate node served the key: a concurrent transaction
    deleted the row, or it is in flight between the two ends of a move
    (every candidate forwarded it on).  Routed reads answer it with
    "no row"; a write, or a TPC-C read that needs its row, retries.
    The typed miss — a ``KeyError`` reaching a client is a defect."""


class MasterNode:
    """Coordinator role layered on top of the first worker."""

    def __init__(self, env: Environment, cluster: "Cluster",
                 worker: "WorkerNode", catalog: "Catalog"):
        self.env = env
        self.cluster = cluster
        self.worker = worker
        self.catalog = catalog
        self.gpt = GlobalPartitionTable()
        self.queries_planned = 0
        #: Optional read-scaling tier (:class:`repro.reads.ReadTier`).
        #: When installed, declared-read-only transactions are offered
        #: to it first; a NOT_SERVED verdict falls through to the
        #: primary path below, so routing stays correct either way.
        self.read_tier = None

    @property
    def txns(self):
        return self.cluster.txns

    @property
    def node_id(self) -> int:
        return self.worker.node_id

    # -- planning ----------------------------------------------------------

    def plan(self):
        """Charge the fixed planning/dispatch CPU cost (a step)."""
        return after(self.worker.cpu.execute(specs.CPU_PLAN_SECONDS_PER_QUERY),
                     self._count_planned)

    def _count_planned(self) -> None:
        self.queries_planned += 1

    def _hop(self, target: "WorkerNode", txn: Transaction):
        """Master <-> worker dispatch hop (a step).

        WattDB ships distributed *plans*: the master pays one round trip
        to enlist a worker in a transaction; subsequent operations of
        the same transaction on that worker run within the shipped plan
        (master-local workers are always free), so their hop is
        ``DONE``.
        """
        if target is self.worker or target.node_id in txn.visited_nodes:
            return DONE
        txn.visited_nodes.add(target.node_id)
        return self._enlist(txn)

    def _enlist(self, txn: Transaction):
        t0 = self.env.now
        yield from self.cluster.network.rpc_delay()
        if txn.breakdown is not None:
            txn.breakdown.add("network_io", self.env.now - t0)

    # -- routed record operations ------------------------------------------

    def _routed(self, table: str, key: typing.Any,
                action: typing.Callable[["WorkerNode", typing.Any], typing.Generator],
                txn: Transaction):
        """Generator: run ``action(worker, partition)`` on the right node,
        following dual pointers and forwarding pointers."""
        # A transaction aborted underneath us (e.g. its node was
        # crash-killed) must stop issuing work — otherwise it could
        # re-acquire locks after release_all and strand waiters.
        txn.require_active()
        location = self.gpt.locate(table, key)
        if not location.available:
            raise PartitionUnavailableError(
                f"partition {location.partition_id} of {table!r} has no "
                f"live copy"
            )
        # Candidates in turn: the owner, then the move's target, then
        # wherever a SegmentMovedError points.  Who was tried, who is
        # down and who is next are only built once the owner fails, so
        # an op its owner serves allocates none of them.
        moving_to = location.moving_to_node_id
        worker = self.cluster.worker(location.node_id)
        tried = dead = queue = None
        while worker is not None:
            serving = worker.is_serving
            moved_to = None
            if serving:
                yield from self._hop(worker, txn)
                # Prefer the registered partition (covers inserts into
                # key regions with no segment yet); fall back to a tree
                # search for nodes reached via redirection.
                partition = worker.partitions.get(location.partition_id)
                if partition is None:
                    try:
                        partition = worker.find_partition(table, key)
                    except RecordNotHereError:
                        pass
                if partition is not None:
                    try:
                        result = yield from action(worker, partition)
                        return result
                    except SegmentMovedError as moved:
                        moved_to = moved.target_node_id
                    except RecordNotHereError:
                        pass
            if queue is None:
                tried, dead = set(), set()
                queue = ([] if moving_to is None or moving_to == worker.node_id
                         else [self.cluster.worker(moving_to)])
            tried.add(worker.node_id)
            if not serving:
                dead.add(worker.node_id)
            if moved_to is not None:
                queue.append(self.cluster.worker(moved_to))
            worker = None
            while queue:
                candidate = queue.pop(0)
                if candidate.node_id not in tried:
                    worker = candidate
                    break
        if dead:
            raise NodeDownError(
                f"owner(s) {sorted(dead)} of {table!r} key {key!r} are down"
            )
        raise RoutedMissError(f"no node could serve {table!r} key {key!r}")

    def read(self, table: str, key: typing.Any, txn: Transaction):
        """Generator: routed point read; returns the row or None.

        A candidate that holds the key range but no visible version is
        treated as "not here" — during a move the record may already
        (or still) live on the other candidate node.
        """
        tier = self.read_tier
        if tier is not None and txn.declared_read_only:
            served = yield from tier.read_point(table, key, txn)
            if served is not tier.NOT_SERVED:
                return served

        def action(worker, partition):
            result = yield from worker.read_record(partition, key, txn)
            if result is None:
                raise RecordNotHereError(f"{key!r} not visible here")
            return result

        t0 = self.env.now
        try:
            result = yield from self._routed(table, key, action, txn)
        except RoutedMissError:
            # Per-node misses are normal mid-move; only the merged
            # verdict — no candidate had a visible version — is a
            # history-relevant read of "nothing".
            history = self.txns.history
            if history is not None:
                history.record_read_miss(txn, table, key, t0, self.env.now)
            return None
        if tier is not None:
            # Cache-aside: the bounced read-only transaction seeds the
            # cache with what the primary answered.
            tier.note_primary_read(table, key, result, txn)
        return result

    def insert(self, table: str, values: typing.Sequence, txn: Transaction):
        """Generator: routed insert."""
        key = self.catalog.table(table).schema.key_of(tuple(values))

        def action(worker, partition):
            result = yield from worker.insert_record(partition, values, txn)
            return result

        result = yield from self._routed(table, key, action, txn)
        return result

    def update(self, table: str, key: typing.Any, values: typing.Sequence,
               txn: Transaction):
        """Generator: routed update.  A candidate where the key is not
        visible defers to the other candidate (mid-move redirection);
        RoutedMissError surfaces only if no candidate can see it."""

        def action(worker, partition):
            try:
                yield from worker.update_record(partition, key, values, txn)
            except NotVisibleError as exc:
                raise RecordNotHereError(str(exc)) from exc

        yield from self._routed(table, key, action, txn)

    def delete(self, table: str, key: typing.Any, txn: Transaction):
        """Generator: routed delete (same redirection rules as update)."""

        def action(worker, partition):
            try:
                yield from worker.delete_record(partition, key, txn)
            except NotVisibleError as exc:
                raise RecordNotHereError(str(exc)) from exc

        yield from self._routed(table, key, action, txn)

    def read_by_secondary(self, table: str, route_key: typing.Any,
                          index_name: str, secondary_key: typing.Any,
                          txn: Transaction):
        """Generator: routed secondary-index lookup.

        ``route_key`` is any primary key in the relevant range (e.g.
        ``(w, d, 1)`` for a customer-by-name search in one district) —
        secondary indexes span one partition, so routing still goes by
        primary-key range.  Returns the matching visible rows.
        """

        def action(worker, partition):
            rows = yield from worker.read_by_secondary(
                partition, index_name, secondary_key, txn
            )
            return rows

        try:
            rows = yield from self._routed(table, route_key, action, txn)
        except RoutedMissError:
            return []
        return rows

    def read_range(self, table: str, lo: typing.Any, hi: typing.Any,
                   txn: Transaction, limit: int | None = None):
        """Generator: routed range read over ``[lo, hi)`` with partition
        pruning; returns rows in key order."""
        key_range = KeyRange(lo, hi)
        txn.require_active()
        tier = self.read_tier
        if tier is not None and txn.declared_read_only:
            served = yield from tier.read_range(table, lo, hi, txn, limit)
            if served is not tier.NOT_SERVED:
                return served
        schema = self.catalog.table(table).schema
        by_key: dict[typing.Any, tuple] = {}
        for location in self.gpt.locate_range(table, key_range):
            if not location.available:
                raise PartitionUnavailableError(
                    f"partition {location.partition_id} of {table!r} has "
                    f"no live copy"
                )
            # During a move, rows of this range may be split between the
            # old and new node: visit every candidate and merge by key.
            queue = [self.cluster.worker(n) for n in location.candidate_nodes]
            tried: set[int] = set()
            served = 0
            dead: set[int] = set()
            while queue:
                worker = queue.pop(0)
                if worker.node_id in tried:
                    continue
                tried.add(worker.node_id)
                if not worker.is_serving:
                    dead.add(worker.node_id)
                    continue
                served += 1
                yield from self._hop(worker, txn)
                partitions = [
                    p for p in worker.partitions_for_table(table)
                    if p.tree.find_range(key_range)
                ]
                for partition in partitions:
                    try:
                        part_rows = yield from worker.read_range(
                            partition, lo, hi, txn, limit
                        )
                    except SegmentMovedError as moved:
                        queue.append(self.cluster.worker(moved.target_node_id))
                        continue
                    except RecordNotHereError:
                        continue
                    for row in part_rows:
                        by_key.setdefault(schema.key_of(row), row)
            if dead and not served:
                raise NodeDownError(
                    f"owner(s) {sorted(dead)} of {table!r} range are down"
                )
        rows = [row for _key, row in sorted(by_key.items())]
        return rows if limit is None else rows[:limit]

    # -- table bootstrap -----------------------------------------------------

    def create_table(self, name, schema, owner: "WorkerNode"):
        """Define a table with one initial partition on ``owner``."""
        partitions = self.create_partitioned_table(
            name, schema, [(KeyRange(None, None), owner)]
        )
        return partitions[0]

    def create_partitioned_table(self, name, schema, assignments,
                                 segment_max_pages: int | None = None):
        """Define a table with one partition per ``(key_range, worker)``
        assignment; ranges must not overlap.  ``segment_max_pages``
        overrides the catalog's segment size for these partitions."""
        table = self.catalog.define_table(name, schema)
        partitions = []
        for key_range, owner in assignments:
            partition = self.catalog.new_partition(
                table, owner.node_id, segment_max_pages=segment_max_pages)
            partition.bounds = key_range
            owner.add_partition(partition)
            self.gpt.register(
                name, key_range,
                PartitionLocation(partition.partition_id, owner.node_id),
            )
            partitions.append(partition)
        return partitions

    def bulk_load(self, table: str,
                  rows: typing.Iterable[typing.Sequence]) -> None:
        """Store ``rows`` of a freshly created table as committed
        versions, in stream order and outside the simulation clock —
        loading is not part of any measurement window in the paper.
        Each maximal run of strictly ascending keys inside one
        partition goes to :meth:`Partition.place_run` at once; a
        partition is looked up only when a key leaves the bounds of the
        one the previous row went to."""
        schema = self.catalog.table(table).schema
        partition = worker = None
        run: list[RecordVersion] = []
        for values in rows:
            version = RecordVersion.make(schema, values, LOAD_TXN_ID)
            version.created_ts = LOAD_COMMIT_TS
            key = version.key
            if partition is None or not partition.bounds.contains(key):
                if run:
                    partition.place_run(worker, run)
                    run = []
                location = self.gpt.locate(table, key)
                worker = self.cluster.worker(location.node_id)
                partition = worker.partitions[location.partition_id]
            elif not run[-1].key < key:
                partition.place_run(worker, run)
                run = []
            run.append(version)
        if run:
            partition.place_run(worker, run)
