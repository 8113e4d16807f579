"""Read tier under failover: a replica read interrupted by the
holder's crash retries cleanly at the primary; commits racing a
crash-abort never survive on a replica; commits landing inside a
seeding window are never lost."""

import pytest

from repro.audit import HistoryRecorder, audit_history
from repro.cluster.master import NodeDownError
from repro.reads.router import LAG_BUDGET
from repro.txn.manager import TransactionAborted, TxnState
from tests.ha.conftest import step_until
from tests.reads.conftest import (
    insert_rows,
    install_tier,
    protect,
    read_only_txn,
    run,
)


def kv_partition(cluster):
    return cluster.workers[1].partitions_for_table("kv")[0]


def replica_set(cluster):
    return cluster.catalog.replica_set_for(kv_partition(cluster).partition_id)


# -- crash mid-replica-read (promotion regression) ---------------------------

class TestCrashMidReplicaRead:
    def test_holder_crash_mid_read_raises_retryable_and_primary_serves(
            self, rig):
        env, cluster = rig
        insert_rows(env, cluster, 12)
        replication = protect(env, cluster, k=2)
        tier = install_tier(cluster, replication)
        recorder = HistoryRecorder().attach(cluster)
        recorder.staleness_budget = float(LAG_BUDGET)

        rs = replica_set(cluster)
        holder_id = rs.replicas[0].holder_node_id

        # Calibrate: one undisturbed replica read to learn its duration.
        outcome = {}

        def read_once(key, out):
            txn = read_only_txn(cluster)
            out["row"] = yield from cluster.master.read("kv", key, txn)
            yield from cluster.txns.commit(txn)

        t0 = env.now
        run(env, read_once(3, outcome))
        duration = env.now - t0
        assert outcome["row"] is not None
        assert tier.served_replica == 1, "calibration read must hit a replica"

        # The real thing: an identical read with the holder crashing
        # mid-flight.  The tier must surface the retryable routing
        # error, and the client's retry must succeed on the primary.
        result = {}

        def reader():
            txn = read_only_txn(cluster)
            try:
                row = yield from cluster.master.read("kv", 4, txn)
                result["first_try"] = row
            except NodeDownError:
                result["interrupted"] = True
                cluster.txns.abort(txn)
                retry = read_only_txn(cluster)
                row = yield from cluster.master.read("kv", 4, retry)
                yield from cluster.txns.commit(retry)
            else:
                yield from cluster.txns.commit(txn)
            result["row"] = row

        def crasher():
            yield env.timeout(duration / 2)
            cluster.worker(holder_id).machine.crash()

        env.process(crasher(), name="crasher")
        run(env, reader())

        assert result.get("interrupted"), (
            "the holder crash landed inside the read window, so the "
            "tier must raise the retryable NodeDownError"
        )
        assert result["row"] == (4, "v004")
        assert tier.failover_retries >= 1
        assert tier.bounces["failover"] >= 1
        # The interrupted read recorded nothing torn; the whole history
        # (including the retry served by the primary) audits clean.
        report = audit_history(recorder)
        assert report.ok, report.descriptions()

    def test_dead_holder_is_never_picked_again(self, rig):
        env, cluster = rig
        insert_rows(env, cluster, 6)
        replication = protect(env, cluster, k=2)
        tier = install_tier(cluster, replication)
        rs = replica_set(cluster)
        cluster.worker(rs.replicas[0].holder_node_id).machine.crash()

        out = {}

        def reader():
            txn = read_only_txn(cluster)
            out["row"] = yield from cluster.master.read("kv", 2, txn)
            yield from cluster.txns.commit(txn)

        run(env, reader())
        # No live candidate: the tier bounced to the primary instead of
        # touching the dead holder.
        assert out["row"] == (2, "v002")
        assert tier.served_replica == 0
        assert tier.bounces["no-candidate"] >= 1


# -- crash-abort vs in-flight commit shipping --------------------------------

class TestCommitRetraction:
    def test_crash_abort_retracts_shipped_commit_marker(self, rig):
        """A transaction crash-aborted while its commit marker was
        already flushed on a replica must not survive promotion: the
        abort is propagated to every replica that holds the marker,
        superseding it in the replay scan (the local-WAL rule, applied
        to the shipped copies)."""
        env, cluster = rig
        insert_rows(env, cluster, 8)
        replication = protect(env, cluster, k=3)
        rs = replica_set(cluster)
        assert len(rs.replicas) == 2

        state = {}

        def writer():
            txn = cluster.txns.begin()
            state["txn"] = txn
            try:
                yield from cluster.master.insert("kv", (900, "doomed"), txn)
                yield from cluster.txns.commit(txn)
                state["committed"] = True
            except TransactionAborted:
                state["aborted"] = True

        env.process(writer(), name="writer")

        def marker_on_some_replica():
            txn = state.get("txn")
            if txn is None or txn.state is not TxnState.ACTIVE:
                return False
            return any(
                any(r.kind == "commit" and r.txn_id == txn.txn_id
                    for r in replica.log.records)
                for replica in rs.replicas
            )

        step_until(env, marker_on_some_replica)
        txn = state["txn"]
        # The crash-abort (what the fault injector does when the
        # primary dies mid-commit): the transaction dirtied its WAL.
        cluster.workers[1].machine.crash()
        cluster.txns.abort_touching(cluster.workers[1])
        env.run(until=env.now + 5.0)

        assert state.get("aborted"), "the commit must observe the abort"
        assert replication.commits_retracted >= 1
        for replica in rs.replicas:
            marker = [r for r in replica.log.records
                      if r.kind == "commit" and r.txn_id == txn.txn_id]
            if marker:
                # Every shipped marker is superseded by an abort record.
                assert any(r.kind == "abort" and r.txn_id == txn.txn_id
                           for r in replica.log.records)
            # The replay scan never resurrects the loser ...
            assert all(r.txn_id != txn.txn_id
                       for r in replica.log.committed_ops_since())
            # ... and the row state was unwound.
            assert 900 not in replica.rows

    def test_clean_commit_leaves_no_inflight_tracking(self, rig):
        env, cluster = rig
        insert_rows(env, cluster, 4)
        replication = protect(env, cluster, k=3)
        insert_rows(env, cluster, 2, start=500)
        assert replication._shipped_inflight == {}
        assert replication.commits_retracted == 0
        for replica in replica_set(cluster).replicas:
            assert 500 in replica.rows


# -- commit stage order -------------------------------------------------------

class TestCommitStageOrder:
    def test_ship_then_coherence_then_ack(self, rig, monkeypatch):
        """One committing write, k=2 plus a read tier: the replica log
        holds the flushed commit marker before the cache entry is
        rewritten and the view batch enqueued, and both happen before
        the commit is counted and recorded — construction order of the
        subscribers is the order of the stage list."""
        env, cluster = rig
        insert_rows(env, cluster, 4)
        replication = protect(env, cluster, k=2)
        tier = install_tier(cluster, replication)
        recorder = HistoryRecorder().attach(cluster)
        txns = cluster.txns
        assert txns.commit_stages == [replication.ship_commit,
                                      tier._apply_commit]
        replica = replica_set(cluster).replicas[0]
        assert tier.cache.fill("kv", 2, (2, "v002"), txns.oracle.current)
        txn = txns.begin()
        seen = []

        def probe(target, attr, name):
            inner = getattr(target, attr)

            def wrapper(*args, **kwargs):
                marker = [r for r in replica.log.records
                          if r.kind == "commit" and r.txn_id == txn.txn_id]
                seen.append((
                    name,
                    bool(marker)
                    and replica.log.flushed_lsn >= marker[0].lsn,
                    tier.cache.entry_for("kv", 2)[0],
                    tier.views.pending_batches,
                    txns.committed_count,
                ))
                return inner(*args, **kwargs)

            monkeypatch.setattr(target, attr, wrapper)

        probe(replication, "_apply_to_rows", "ship")
        probe(tier.cache, "apply_commit", "cache")
        probe(tier.views, "enqueue", "views")
        probe(recorder, "record_commit", "ack")
        before = txns.committed_count

        def write():
            yield from cluster.master.update("kv", 2, (2, "new"), txn)
            yield from txns.commit(txn)

        run(env, write())
        assert seen == [
            # marker durable on the replica, nothing downstream yet
            ("ship", True, (2, "v002"), 0, before),
            ("cache", True, (2, "v002"), 0, before),
            # cache rewritten, view batch not yet staged
            ("views", True, (2, "new"), 0, before),
            # everything upstream done, commit counted, then recorded
            ("ack", True, (2, "new"), 1, before + 1),
        ]


# -- commits landing inside a seeding window ---------------------------------

class TestSeedingWindow:
    def test_commit_during_seed_ships_to_the_seeding_replica(self, rig):
        """A replica is registered before its base image crosses the
        wire, so commits landing mid-seed ship to it like any other;
        they must be present once seeding completes (the lost-forever
        window this ordering closes)."""
        env, cluster = rig
        # Enough rows that the base-image transfer is a wide-open
        # window (a few ms of sim time) the stepper can land inside.
        insert_rows(env, cluster, 1500)

        from repro.ha.placement import PlacementPolicy
        from repro.ha.replication import ReplicationManager
        replication = ReplicationManager(
            cluster, k=2, policy=PlacementPolicy(cluster, rack_width=2))
        env.process(replication.protect_all(), name="protect")

        def seeding_replica():
            rs = replica_set(cluster)
            return rs is not None and any(r.seeding for r in rs.replicas)

        step_until(env, seeding_replica, dt=0.0002)
        rs = replica_set(cluster)
        replica = next(r for r in rs.replicas if r.seeding)
        # Mid-seed: not promotable, not readable.
        assert rs.live_replicas(cluster) == []

        def committer():
            txn = cluster.txns.begin()
            yield from cluster.master.insert("kv", (9700, "midseed"), txn)
            yield from cluster.txns.commit(txn)

        run(env, committer())
        env.run(until=env.now + 10.0)  # let the seed finish

        assert not replica.seeding and not replica.stale
        assert rs.live_replicas(cluster) == [replica]
        # The mid-seed commit is in the replica's log and row state.
        shipped = [r for r in replica.log.records
                   if r.kind == "insert" and r.txn_id > 0
                   and r.payload[1] == 9700]
        assert shipped, "the mid-seed commit never reached the replica"
        assert 9700 in replica.rows
        assert replica.rows[9700][0] == (9700, "midseed")

    def test_seed_failure_unregisters_the_partial_replica(self, rig):
        env, cluster = rig
        insert_rows(env, cluster, 1500)

        from repro.ha.placement import PlacementPolicy
        from repro.ha.replication import ReplicationManager
        replication = ReplicationManager(
            cluster, k=2, policy=PlacementPolicy(cluster, rack_width=2))
        proc = env.process(replication.protect_all(), name="protect")

        def seeding_replica():
            rs = replica_set(cluster)
            return rs is not None and any(r.seeding for r in rs.replicas)

        step_until(env, seeding_replica, dt=0.0002)
        rs = replica_set(cluster)
        replica = next(r for r in rs.replicas if r.seeding)
        # Cut the holder's link mid-image: the half-seeded copy must
        # drop out of the set entirely, not linger as servable state.
        cluster.worker(replica.holder_node_id).port.sever()
        with pytest.raises(Exception):
            env.run(until=proc)
        assert replica.stale
        assert replica not in rs.replicas
