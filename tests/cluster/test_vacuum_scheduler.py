"""The incremental vacuum scheduler: chunked, resumable, load-aware,
and exact about its ``until`` bound.

The compat surface (full sweep per tick) is pinned by
``tests/workload/test_vacuum_daemon.py``; this file covers what the
scheduler adds — bounded chunks, per-tick budgets, busy-node deferral —
and the two ``until`` regressions the old daemon had: a tick scheduled
past the bound on float drift, and a tick fired on a drained
environment whose clock already sat at the bound.
"""

import pytest

from repro import Cluster, Environment
from repro.cluster.vacuum import VacuumPolicy, VacuumScheduler
from repro.storage import Column, Schema


SCHEMA = Schema([Column("id"), Column("v", "str", width=16)], key=("id",))


@pytest.fixture()
def rig():
    env = Environment()
    cluster = Cluster(env, node_count=1, initially_active=1,
                      segment_max_pages=16, page_bytes=2048)
    cluster.master.create_table("kv", SCHEMA, owner=cluster.workers[0])
    return env, cluster


def churn(cluster, n=10):
    def work():
        for i in range(n):
            txn = cluster.txns.begin()
            yield from cluster.master.insert("kv", (i, "a"), txn)
            yield from cluster.txns.commit(txn)
            txn = cluster.txns.begin()
            yield from cluster.master.update("kv", i, (i, "b"), txn)
            yield from cluster.txns.commit(txn)
    return work


# -- until-bound regressions -------------------------------------------------

def test_started_at_the_bound_never_ticks(rig):
    """A scheduler started when ``env.now`` already equals ``until``
    must exit without a single sweep — the drained-environment case
    (the old daemon computed step = until - now = 0 only for > 0)."""
    env, cluster = rig
    env.run(until=env.process(churn(cluster)()))
    env.run()
    now = env.now
    sched = VacuumScheduler(cluster, VacuumPolicy(interval=5.0),
                            until=now).start()
    env.run()
    assert sched.sweeps == 0
    assert sched.ticks == 0
    assert env.now == now
    assert sched.process.is_alive is False


def test_started_past_the_bound_never_ticks(rig):
    env, cluster = rig
    env.run(until=10.0)
    sched = VacuumScheduler(cluster, VacuumPolicy(interval=5.0),
                            until=3.0).start()
    env.run()
    assert sched.ticks == 0
    assert env.now == 10.0


def test_no_tick_lands_past_until_on_float_drift(rig):
    """interval=0.1 accumulates float error (10 * 0.1 != 1.0).  The
    bound decision rides on the scheduled target, not re-accumulated
    clock time, so however the drift falls the final tick lands AT the
    bound — never one drift-tick beyond it — and the process exits."""
    env, cluster = rig
    sched = VacuumScheduler(cluster, VacuumPolicy(interval=0.1),
                            until=1.0).start()
    env.run()
    assert 10 <= sched.ticks <= 11        # drift may split the last step
    assert env.now == pytest.approx(1.0)
    assert env.now <= 1.0
    assert sched.process.is_alive is False


# -- chunked, resumable reclamation ------------------------------------------

def test_unbounded_policy_sweeps_everything_per_tick(rig):
    env, cluster = rig
    env.run(until=env.process(churn(cluster)()))
    sched = VacuumScheduler(cluster, VacuumPolicy(interval=1.0),
                            until=env.now + 1.0).start()
    env.run()
    assert sched.sweeps == 1
    assert sched.reclaimed == 10          # all superseded versions, one tick


def test_chunk_limit_spreads_work_over_ticks(rig):
    """With a per-tick budget the backlog drains incrementally: every
    tick reclaims at most the budget, and the queue resumes where it
    left off instead of rescanning from scratch."""
    env, cluster = rig
    env.run(until=env.process(churn(cluster, n=12)()))
    policy = VacuumPolicy(interval=1.0, chunk_versions=2,
                          max_reclaim_per_tick=2)
    sched = VacuumScheduler(cluster, policy, until=env.now + 20.0).start()
    t0 = env.now

    def probe():
        seen = []
        for _ in range(4):
            yield env.timeout(1.0)
            seen.append(sched.reclaimed)
        return seen

    seen = env.run(until=env.process(probe()))
    assert seen == [2, 4, 6, 8]           # exactly the budget, every tick
    env.run()
    assert sched.reclaimed == 12          # the backlog fully drains
    assert env.now == pytest.approx(t0 + 20.0)


def test_sweep_counts_completed_passes_only(rig):
    """Under a budget, ``sweeps`` advances only when a full pass over
    the cluster's segments completes — partial passes don't count."""
    env, cluster = rig
    env.run(until=env.process(churn(cluster, n=12)()))
    policy = VacuumPolicy(interval=1.0, max_reclaim_per_tick=2)
    sched = VacuumScheduler(cluster, policy, until=env.now + 3.0).start()
    env.run()
    assert sched.ticks == 3
    assert sched.sweeps < sched.ticks


# -- load-aware throttling ---------------------------------------------------

def test_busy_nodes_are_deferred(rig):
    """A node pinned at 100% CPU for the whole window is skipped; the
    backlog drains only after the load stops."""
    env, cluster = rig
    env.run(until=env.process(churn(cluster)()))
    worker = cluster.workers[0]

    def busy_core():
        yield from worker.machine.cpu.execute(20.0)

    def hog():
        # Occupy every core so the gauge window reads utilization 1.0.
        for _ in range(worker.machine.cpu.cores):
            env.process(busy_core(), name="hog")
        yield env.timeout(0.0)

    env.run(until=env.process(hog()))
    t0 = env.now
    policy = VacuumPolicy(interval=5.0, load_threshold=0.5)
    sched = VacuumScheduler(cluster, policy, until=t0 + 40.0).start()
    env.run()
    assert sched.throttled_ticks > 0
    assert sched.deferred_segments > 0
    assert sched.reclaimed == 10          # drained once the hogs finished

    # And an idle cluster with the same policy is never throttled.
    env2 = Environment()
    cluster2 = Cluster(env2, node_count=1, initially_active=1,
                       segment_max_pages=16, page_bytes=2048)
    cluster2.master.create_table("kv", SCHEMA, owner=cluster2.workers[0])
    env2.run(until=env2.process(churn(cluster2)()))
    sched2 = VacuumScheduler(cluster2, policy, until=env2.now + 40.0).start()
    env2.run()
    assert sched2.throttled_ticks == 0
    assert sched2.reclaimed == 10


def test_invalid_interval_rejected(rig):
    _env, cluster = rig
    with pytest.raises(ValueError):
        VacuumScheduler(cluster, VacuumPolicy(interval=0.0))


@pytest.mark.parametrize("interval", [0.0, -1.0])
def test_policy_interval_must_be_positive(interval):
    with pytest.raises(ValueError, match="interval"):
        VacuumPolicy(interval=interval)


@pytest.mark.parametrize("chunk", [0, -3])
def test_policy_chunk_versions_must_be_at_least_one(chunk):
    with pytest.raises(ValueError, match="chunk_versions"):
        VacuumPolicy(chunk_versions=chunk)
    assert VacuumPolicy(chunk_versions=1).chunk_versions == 1


@pytest.mark.parametrize("budget", [0, -3])
def test_policy_max_reclaim_per_tick_must_be_at_least_one(budget):
    with pytest.raises(ValueError, match="max_reclaim_per_tick"):
        VacuumPolicy(max_reclaim_per_tick=budget)
    assert VacuumPolicy(max_reclaim_per_tick=1).max_reclaim_per_tick == 1


@pytest.mark.parametrize("threshold", [0.0, -0.5, 1.5, 7.0])
def test_policy_load_threshold_must_be_a_fraction(threshold):
    with pytest.raises(ValueError, match="load_threshold"):
        VacuumPolicy(load_threshold=threshold)
    assert VacuumPolicy(load_threshold=1.0).load_threshold == 1.0


def test_stats_shape(rig):
    env, cluster = rig
    env.run(until=env.process(churn(cluster)()))
    sched = VacuumScheduler(cluster, VacuumPolicy(interval=1.0),
                            until=env.now + 1.0).start()
    env.run()
    stats = sched.stats()
    assert stats["sweeps"] == 1
    assert stats["reclaimed"] == 10
    assert stats["pending_segments"] == 0
