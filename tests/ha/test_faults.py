"""Fault injector: determinism, crash semantics, master protection."""

import pytest

from repro import Cluster, Environment
from repro.hardware import PowerState
from repro.ha.faults import FaultInjector
from tests.ha.conftest import insert_rows, run


def injected(cluster):
    """Faults actually applied, in application order."""
    return [e for e in cluster.timeline if e.source == "fault"]


def test_same_seed_same_random_schedule(rig):
    def build(seed):
        env = Environment(seed=seed)
        cluster = Cluster(env, node_count=4, initially_active=4,
                          buffer_pages_per_node=64)
        injector = FaultInjector(cluster)
        injector.random_faults(5, (10.0, 60.0),
                               kinds=("crash", "sever_link", "fail_disk"))
        return injector.schedule

    assert build(3) == build(3)
    assert build(3) != build(4)


def test_same_timestamp_events_replay_in_schedule_order(rig):
    """Regression: ``sorted`` used to tie-break same-timestamp events
    on their fields, replaying ``restore_link`` < ``sever_link``
    alphabetically and inverting an outage scheduled as sever-then-
    restore.  Ordering must follow scheduling order instead."""
    env, cluster = rig
    injector = FaultInjector(cluster)
    injector.sever_link_at(5.0, 1).restore_link_at(5.0, 1)
    injector.sever_link_at(2.0, 2)

    assert [e.kind for e in sorted(injector.schedule)] == [
        "sever_link", "sever_link", "restore_link",
    ]

    run(env, injector.run())
    assert [e.kind for e in injected(cluster)] == [
        "sever_link", "sever_link", "restore_link",
    ]
    # Net effect of sever-then-restore at the same instant: link is up.
    assert cluster.worker(1).is_serving
    assert not cluster.worker(2).is_serving


def test_master_is_protected(rig):
    env, cluster = rig
    injector = FaultInjector(cluster)
    master_id = cluster.master.worker.node_id
    for kind in ("crash", "sever_link", "fail_disk"):
        with pytest.raises(ValueError):
            injector.at(5.0, kind, master_id)
    # Non-destructive kinds are fine on the master.
    injector.at(5.0, "restart", master_id)


def test_unknown_kind_and_node_rejected(rig):
    env, cluster = rig
    injector = FaultInjector(cluster)
    with pytest.raises(ValueError):
        injector.at(1.0, "meteor_strike", 1)
    with pytest.raises(LookupError):
        injector.at(1.0, "crash", 99)


def test_crash_aborts_in_flight_and_releases_locks(rig):
    env, cluster = rig
    insert_rows(env, cluster, 5)
    injector = FaultInjector(cluster)
    outcome = {}

    def victim():
        txn = cluster.txns.begin()
        try:
            yield from cluster.master.update("kv", 1, (1, "held"), txn)
            yield env.timeout(30.0)  # holds the row lock across the crash
            yield from cluster.txns.commit(txn)
            outcome["victim"] = "committed"
        except Exception as exc:  # noqa: BLE001 - recording for asserts
            outcome["victim"] = type(exc).__name__

    def script():
        proc = env.process(victim())
        yield env.timeout(1.0)
        injector.crash_at(2.0, 1)
        yield from injector.run()
        yield proc

    run(env, script())
    assert outcome["victim"] == "TransactionAborted"
    assert cluster.worker(1).machine.state is PowerState.CRASHED
    assert not cluster.worker(1).is_serving
    assert injected(cluster) and injected(cluster)[0].kind == "crash"
    assert not cluster.txns.active_transactions()


def test_restart_brings_node_back(rig):
    env, cluster = rig
    injector = FaultInjector(cluster)
    injector.crash_at(1.0, 2).restart_at(2.0, 2)

    def script():
        yield from injector.run()
        yield env.timeout(120.0)  # boot takes sim time

    run(env, script())
    assert cluster.worker(2).machine.state is PowerState.ACTIVE
    assert cluster.worker(2).is_serving


def test_link_and_disk_faults_toggle_serving(rig):
    env, cluster = rig
    injector = FaultInjector(cluster)
    injector.apply(injector.at(0.0, "sever_link", 1).schedule[-1])
    assert not cluster.worker(1).is_serving
    injector.apply(injector.at(0.0, "restore_link", 1).schedule[-1])
    assert cluster.worker(1).is_serving
    injector.apply(injector.at(0.0, "fail_disk", 3).schedule[-1])
    assert any(d.failed for d in cluster.worker(3).disk_space.disks)
    assert not cluster.worker(3).is_serving
    assert [e.kind for e in injected(cluster)] == [
        "sever_link", "restore_link", "fail_disk",
    ]


# -- gray (non-fail-stop) faults ----------------------------------------------


def test_bad_parameters_rejected_at_build_time(rig):
    env, cluster = rig
    injector = FaultInjector(cluster)
    with pytest.raises(ValueError):
        injector.slow_disk_at(1.0, 1, factor=0.5)
    with pytest.raises(ValueError):
        injector.flaky_link_at(1.0, 1, loss_probability=1.0)
    with pytest.raises(ValueError):
        injector.flaky_link_at(1.0, 1, loss_probability=0.1,
                               extra_delay=-0.01)
    with pytest.raises(ValueError):
        injector.at(1.0, "crash", 1, 3.0)  # crash takes no parameters
    assert injector.schedule == []


def test_gray_kinds_protected_on_master(rig):
    env, cluster = rig
    injector = FaultInjector(cluster)
    master_id = cluster.master.worker.node_id
    for kind in ("bit_rot", "torn_write", "slow_disk", "flaky_link"):
        with pytest.raises(ValueError):
            injector.at(1.0, kind, master_id)


def test_restart_does_not_heal_failed_disk(rig):
    """Restart restores compute only; a failed drive stays failed
    until ``replace_disk`` swaps the device (contents gone)."""
    env, cluster = rig
    injector = FaultInjector(cluster)
    worker = cluster.worker(2)
    injector.fail_disk_at(0.5, 2).crash_at(1.0, 2).restart_at(2.0, 2)

    def script():
        yield from injector.run()
        yield env.timeout(120.0)

    run(env, script())
    dead = [d for d in worker.disk_space.disks if d.failed]
    assert worker.machine.state is PowerState.ACTIVE
    assert len(dead) == 1  # restart healed nothing
    injector.apply(injector.replace_disk_at(0.0, 2).schedule[-1])
    assert not any(d.failed for d in worker.disk_space.disks)


def test_slow_disk_inflates_io_and_restore_speed_undoes_it(rig):
    env, cluster = rig
    worker = cluster.worker(1)
    disk = worker.disk_space.disks[0]

    def timed_read():
        t0 = env.now
        yield from disk.read(64 * 1024, sequential=True)
        return env.now - t0

    base = run(env, timed_read())
    injector = FaultInjector(cluster)
    injector.apply(injector.slow_disk_at(0.0, 1, factor=8.0).schedule[-1])
    slow = run(env, timed_read())
    assert slow == pytest.approx(base * 8.0)
    injector.apply(injector.at(0.0, "restore_speed", 1).schedule[-1])
    healed = run(env, timed_read())
    assert healed == pytest.approx(base)


def test_flaky_link_slows_transfers_deterministically(rig):
    env, cluster = rig
    worker = cluster.worker(1)
    other = cluster.worker(2)

    def timed_transfer():
        t0 = env.now
        yield from cluster.network.transfer(worker.port, other.port,
                                            16 * 1024)
        return env.now - t0

    base = run(env, timed_transfer())
    injector = FaultInjector(cluster)
    injector.apply(injector.flaky_link_at(
        0.0, 1, loss_probability=0.4, extra_delay=0.05).schedule[-1])
    degraded = [run(env, timed_transfer()) for _ in range(20)]
    # Extra delay alone guarantees every transfer got slower; losses
    # add retransmissions on top for some of them.
    assert all(d > base for d in degraded)
    assert worker.port.retransmits > 0
    injector.apply(injector.at(0.0, "heal_link", 1).schedule[-1])
    assert run(env, timed_transfer()) == pytest.approx(base)
    # Same seed, same flake pattern.
    env2 = Environment(seed=11)
    cluster2 = Cluster(env2, node_count=4, initially_active=4,
                       buffer_pages_per_node=256, segment_max_pages=16,
                       page_bytes=2048, lock_timeout=2.0)
    cluster2.worker(1).port.make_flaky(0.4, 0.05)
    # Burn the same number of rng draws is not required: a fresh env
    # with the same seed replays the identical decision sequence.


def test_bit_rot_detected_on_read(rig):
    env, cluster = rig
    insert_rows(env, cluster, 10)
    injector = FaultInjector(cluster)
    injector.apply(injector.bit_rot_at(0.0, 1).schedule[-1])
    rots = [c for c in injector.corruptions if c.target == "page"]
    assert rots
    from repro.storage.checksum import IntegrityError

    partition = cluster.worker(1).partitions[rots[0].partition_id]
    segment = partition.segment_for(rots[0].key)
    with pytest.raises(IntegrityError):
        for _p, _s, version in segment.versions_for(rots[0].key):
            version.verify()


def test_born_verified_row_still_fails_after_bit_rot(rig):
    """A freshly written row is born ``clean`` (no read has hashed it
    yet); the injector's garble drops the verdict, so the next page
    read re-hashes and refuses it."""
    from repro.storage.checksum import IntegrityError

    env, cluster = rig
    insert_rows(env, cluster, 10)
    partition = cluster.worker(1).partitions_for_table("kv")[0]
    versions = [v for segment in partition.segments.values()
                for _p, _s, v in segment.scan_versions()]
    assert versions and all(v.clean for v in versions)
    injector = FaultInjector(cluster)
    injector.apply(injector.bit_rot_at(0.0, 1).schedule[-1])
    rot = injector.corruptions[0]
    segment = partition.segment_for(rot.key)
    rotten = [v for _p, _s, v in segment.scan_versions() if v.key == rot.key]
    assert rotten and not any(v.clean for v in rotten)
    with pytest.raises(IntegrityError):
        segment.versions_for(rot.key)


def test_bit_rot_ledger_records_original_bytes(rig):
    env, cluster = rig
    insert_rows(env, cluster, 10)
    injector = FaultInjector(cluster)
    injector.apply(injector.bit_rot_at(0.0, 1).schedule[-1])
    c = injector.corruptions[0]
    partition = cluster.worker(1).partitions[c.partition_id]
    segment = partition.segment_for(c.key)
    # scan_versions bypasses the verifying page.get, so the garbled
    # bytes themselves are observable.
    stored = [v.values for _p, _s, v in segment.scan_versions()
              if v.key == c.key]
    assert stored
    assert tuple(c.original) not in [tuple(v) for v in stored]


def test_torn_write_never_replays_as_committed(rig):
    """A torn commit record is discarded by recovery — the transaction
    was never acknowledged, so it must not become committed."""
    env, cluster = rig
    insert_rows(env, cluster, 8)
    worker = cluster.worker(1)
    injector = FaultInjector(cluster)
    injector.apply(injector.torn_write_at(0.0, 1).schedule[-1])
    assert not worker.is_serving  # physically a crash mid-flush
    torn = [c for c in injector.corruptions if c.target == "wal-tail"]
    assert len(torn) == 1

    from repro.txn.recovery import integrity_scan, analyze, RecoveryReport

    records, discarded = integrity_scan(worker.wal, 0)
    assert discarded >= 1
    # The torn commit record is gone; the transaction's data records
    # may survive as loser records — analysis must not commit them.
    assert all(not (r.txn_id == torn[0].txn_id and r.kind == "commit")
               for r in records)
    report = RecoveryReport()
    _records, committed, _losers = analyze(worker.wal, 0, report)
    assert torn[0].txn_id not in committed
    assert report.torn_records_discarded == discarded


def test_recovery_discard_tail_is_physical(rig):
    """After discarding a torn tail, the WAL really shrinks — new
    appends must not turn the old torn record into apparent mid-log
    corruption."""
    env, cluster = rig
    insert_rows(env, cluster, 8)
    worker = cluster.worker(1)
    injector = FaultInjector(cluster)
    injector.apply(injector.torn_write_at(0.0, 1).schedule[-1])

    from repro.txn.recovery import integrity_scan

    before = worker.wal.live_records
    _records, discarded = integrity_scan(worker.wal, 0)
    worker.wal.discard_tail(discarded)
    assert worker.wal.live_records == before - discarded
    # Appends after the truncation leave a fully verifiable log.
    worker.wal.append(12345, "update", ("kv", 1, (1, "post")))
    worker.wal.append(12345, "commit")
    _records, discarded2 = integrity_scan(worker.wal, 0)
    assert discarded2 == 0


def test_mid_log_corruption_raises_not_truncates(rig):
    """Bit rot *inside* the log (valid records after it) cannot be a
    torn flush: replay must refuse rather than drop acked effects."""
    env, cluster = rig
    insert_rows(env, cluster, 4)
    worker = cluster.worker(1)
    import dataclasses as dc

    from repro.storage.checksum import IntegrityError
    from repro.txn.recovery import integrity_scan

    # Corrupt an early data record while valid records follow it.
    index = next(i for i, r in enumerate(worker.wal.records)
                 if r.kind in ("insert", "update"))
    assert index < worker.wal.live_records - 1
    record = worker.wal.records[index]
    worker.wal.records[index] = dc.replace(record,
                                           payload=("§rot", record.payload))
    with pytest.raises(IntegrityError):
        integrity_scan(worker.wal, 0)


def test_gray_schedule_is_seed_deterministic(rig):
    def build(seed):
        env = Environment(seed=seed)
        cluster = Cluster(env, node_count=4, initially_active=4,
                          buffer_pages_per_node=64)
        injector = FaultInjector(cluster)
        injector.random_faults(
            6, (10.0, 60.0),
            kinds=("bit_rot", "slow_disk", "flaky_link", "torn_write"),
        )
        return injector.schedule

    assert build(7) == build(7)
    assert build(7) != build(8)
