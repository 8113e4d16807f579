"""WAL and transaction-manager tests."""

import types

import pytest

from repro.hardware import Disk, HDD_SPEC, Network, NetworkPort, SSD_SPEC
from repro.metrics import CostBreakdown
from repro.sim import Environment
from repro.txn import LogManager, LogShippingSink, TransactionManager
from repro.txn.manager import TransactionAborted, TxnState
from repro.txn.wal import LOG_BLOCK_BYTES


def make_log():
    env = Environment()
    disk = Disk(env, SSD_SPEC, name="logdisk")
    return env, disk, LogManager(env, disk)


def run(env, gen):
    return env.run(until=env.process(gen))


class TestLogManager:
    def test_append_assigns_increasing_lsns(self):
        _env, _disk, log = make_log()
        lsns = [log.append(1, "insert") for _ in range(5)]
        assert lsns == [1, 2, 3, 4, 5]
        assert len(log.records) == 5

    def test_flush_writes_to_disk(self):
        env, disk, log = make_log()
        lsn = log.append(1, "insert")

        def work():
            yield from log.flush(lsn)

        run(env, work())
        assert disk.writes == 1
        assert disk.bytes_written >= LOG_BLOCK_BYTES
        assert log.flushed_lsn == lsn

    def test_flush_is_idempotent(self):
        env, disk, log = make_log()
        lsn = log.append(1, "insert")

        def work():
            yield from log.flush(lsn)
            yield from log.flush(lsn)

        run(env, work())
        assert disk.writes == 1

    def test_group_commit_batches_flushes(self):
        """Many concurrent committers produce far fewer physical writes."""
        env, disk, log = make_log()

        def committer(txn_id):
            lsn = log.append(txn_id, "commit")
            yield from log.flush(lsn)

        for txn_id in range(20):
            env.process(committer(txn_id))
        env.run()
        assert log.flushed_lsn == 20
        assert disk.writes < 20

    def test_logging_time_recorded(self):
        env, _disk, log = make_log()
        breakdown = CostBreakdown()
        lsn = log.append(1, "commit")

        def work():
            yield from log.flush(lsn, breakdown=breakdown)

        run(env, work())
        assert breakdown.logging > 0

    def test_log_shipping_redirects_writes(self):
        env = Environment()
        local_disk = Disk(env, HDD_SPEC, name="local")
        helper_disk = Disk(env, HDD_SPEC, name="helper")
        network = Network(env)
        log = LogManager(env, local_disk)
        sink = LogShippingSink(
            network, NetworkPort(env, "src"), NetworkPort(env, "dst"), helper_disk
        )
        log.ship_to(sink)
        assert log.is_shipping
        lsn = log.append(1, "commit")

        def work():
            yield from log.flush(lsn)

        run(env, work())
        assert local_disk.writes == 0
        assert helper_disk.writes == 1
        log.ship_locally()
        assert not log.is_shipping

    def test_checkpoint_and_truncate(self):
        _env, _disk, log = make_log()
        log.append(1, "insert")
        log.append(1, "commit")
        ckpt = log.checkpoint()
        log.append(2, "insert")
        cut = log.truncate_before(ckpt)
        assert cut == 2
        assert [r.kind for r in log.records] == ["checkpoint", "insert"]

    def test_committed_ops_since(self):
        _env, _disk, log = make_log()
        log.append(1, "insert", payload="a")
        log.append(2, "insert", payload="b")
        log.append(1, "commit")
        # txn 2 never commits -> its ops are not redone.
        ops = log.committed_ops_since(0)
        assert [r.payload for r in ops] == ["a"]

    def test_discard_tail_repoints_the_checkpoint(self):
        """A torn tail that takes the newest checkpoint with it must
        leave REDO starting at the newest checkpoint that survives."""
        from repro.txn.recovery import redo_start_lsn

        _env, _disk, log = make_log()
        log.append(1, "insert")
        log.append(1, "commit")
        log.checkpoint()                       # lsn 3
        appended_at_3 = log.appended_at_last_checkpoint
        log.append(2, "insert")
        log.append(2, "commit")
        log.checkpoint()                       # lsn 6
        assert log.discard_tail(1) == 1
        assert log.last_checkpoint_lsn == 3
        assert log.last_checkpoint_redo_lsn == 3
        assert log.appended_at_last_checkpoint == appended_at_3
        assert [r.lsn for r in log.iter_from(redo_start_lsn(log))] == [4, 5]
        # No checkpoint survives: REDO starts from the head.
        log.discard_tail(3)
        assert log.last_checkpoint_lsn == log.last_checkpoint_redo_lsn == 0
        assert log.appended_at_last_checkpoint == 0


class TestTransactionManager:
    def test_begin_assigns_snapshot(self):
        env = Environment()
        tm = TransactionManager(env)
        t1 = tm.begin()
        t2 = tm.begin()
        assert t2.txn_id > t1.txn_id
        assert t2.begin_ts >= t1.begin_ts
        assert tm.active_count == 2

    def test_commit_flushes_dirty_logs(self):
        env = Environment()
        disk = Disk(env, SSD_SPEC)
        log = LogManager(env, disk)
        tm = TransactionManager(env)
        txn = tm.begin()
        log.append(txn.txn_id, "insert")
        txn.note_log(log)

        def work():
            yield from tm.commit(txn)

        run(env, work())
        assert disk.writes == 1
        assert tm.committed_count == 1
        assert tm.active_count == 0
        assert any(r.kind == "commit" for r in log.records)

    def test_readonly_commit_no_io(self):
        env = Environment()
        tm = TransactionManager(env)
        staged = []

        def stage(txn, redo):
            staged.append(txn.txn_id)
            yield env.timeout(1.0)

        tm.commit_stages.append(stage)
        txn = tm.begin()

        def work():
            yield from tm.commit(txn)

        run(env, work())
        assert txn.is_read_only
        # No redo, no stage: a read-only commit never waits on
        # replication or cache upkeep.
        assert staged == []
        assert env.now == 0.0
        assert tm.committed_count == 1

    def test_commit_runs_stages_in_list_order_with_the_redo(self):
        env = Environment()
        log = LogManager(env, Disk(env, SSD_SPEC))
        tm = TransactionManager(env)
        calls = []

        seen = []

        def make_stage(name):
            def stage(txn, redo):
                # The redo was taken off the transaction; the commit is
                # not acknowledged while a stage runs.
                calls.append((name, list(redo), list(txn.redo),
                              tm.committed_count))
                seen.append(txn.breakdown)
                yield env.timeout(0.5)
            return stage

        tm.commit_stages.append(make_stage("first"))
        tm.commit_stages.append(make_stage("second"))
        breakdown = CostBreakdown()
        txn = tm.begin()
        txn.breakdown = breakdown
        log.append(txn.txn_id, "insert", ("t", 1, (1,)))
        txn.note_log(log)
        txn.redo.append((7, log.tail))

        run(env, tm.commit(txn))
        assert calls == [("first", [(7, log.records[0])], [], 0),
                         ("second", [(7, log.records[0])], [], 0)]
        # A stage charges its stall to the very accumulator the request
        # hung on the transaction — the one the log force wrote to.
        assert seen[0] is breakdown and seen[1] is breakdown
        assert breakdown.logging > 0
        assert tm.committed_count == 1

    def test_abort_between_stages_stops_the_pipeline(self):
        env = Environment()
        log = LogManager(env, Disk(env, SSD_SPEC))
        tm = TransactionManager(env)
        ran, retracted = [], []

        def slow_stage(txn, redo):
            ran.append("slow")
            yield env.timeout(1.0)

        def late_stage(txn, redo):
            ran.append("late")
            yield env.timeout(1.0)

        tm.commit_stages += [slow_stage, late_stage]
        tm.abort_stages.append(lambda txn: retracted.append(txn.txn_id))
        txn = tm.begin()
        log.append(txn.txn_id, "insert", ("t", 1, (1,)))
        txn.note_log(log)
        txn.redo.append((7, log.tail))

        def crash_abort():
            yield env.timeout(0.5)
            tm.abort(txn)

        env.process(crash_abort())
        with pytest.raises(TransactionAborted):
            run(env, tm.commit(txn))
        assert ran == ["slow"], "no stage may act on the loser"
        assert retracted == [txn.txn_id]
        assert tm.committed_count == 0 and tm.aborted_count == 1

    def test_abort_touching_aborts_visitors_and_wal_dirtiers_only(self):
        from repro.txn import LockMode

        env = Environment()
        tm = TransactionManager(env)
        wal = LogManager(env, Disk(env, SSD_SPEC))
        node = types.SimpleNamespace(node_id=3, wal=wal)
        visitor, dirtier, bystander = tm.begin(), tm.begin(), tm.begin()
        visitor.visited_nodes.add(3)
        dirtier.note_log(wal)
        bystander.visited_nodes.add(2)
        bystander.note_log(LogManager(env, Disk(env, SSD_SPEC)))

        def lock_all():
            for txn in (visitor, dirtier, bystander):
                yield from tm.locks.acquire(
                    txn.txn_id, f"r{txn.txn_id}", LockMode.X)

        run(env, lock_all())
        tm.abort_touching(node)
        assert visitor.state is TxnState.ABORTED
        assert dirtier.state is TxnState.ABORTED
        assert tm.active_transactions() == [bystander]
        assert tm.locks.holders(f"r{visitor.txn_id}") == {}
        assert tm.locks.holders(f"r{dirtier.txn_id}") == {}
        assert tm.locks.holders(f"r{bystander.txn_id}") != {}
        # The rollback path of a client that lost the race is a no-op.
        tm.abort_if_active(visitor)
        assert tm.aborted_count == 2

    def test_transaction_rejects_undeclared_attributes(self):
        tm = TransactionManager(Environment())
        txn = tm.begin()
        txn.tenant = "gold"  # declared
        with pytest.raises(AttributeError):
            txn._visited_nodes = set()
        with pytest.raises(AttributeError):
            txn.anything_else = 1

    def test_abort_releases_locks(self):
        env = Environment()
        tm = TransactionManager(env)
        from repro.txn import LockMode

        txn = tm.begin()

        def work():
            yield from tm.locks.acquire(txn.txn_id, "r", LockMode.X)

        run(env, work())
        tm.abort(txn)
        assert tm.locks.holders("r") == {}
        assert tm.aborted_count == 1

    def test_system_transaction_flag(self):
        env = Environment()
        tm = TransactionManager(env)
        txn = tm.begin(is_system=True)
        assert txn.is_system
