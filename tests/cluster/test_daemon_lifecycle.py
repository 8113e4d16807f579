"""The one daemon lifecycle (``repro.sim.daemon.PeriodicDaemon``) as
seen through each of its three users."""

import pytest

from repro import Cluster, Environment
from repro.cluster.vacuum import VacuumPolicy, VacuumScheduler
from repro.ha.replication import ReplicationManager
from repro.ha.scrub import ScrubDaemon, ScrubPolicy
from repro.txn.checkpoint import CheckpointManager

#: Seven float steps of 0.1 accumulate to 0.7000000000000001 — the ulp
#: an accumulated clock would land past the bound.
INTERVAL, UNTIL = 0.1, 0.7


def vacuum(cluster, interval, until):
    return VacuumScheduler(cluster, VacuumPolicy(interval=interval),
                           until=until)


def scrub(cluster, interval, until):
    return ScrubDaemon(cluster, ReplicationManager(cluster, k=1),
                       policy=ScrubPolicy(interval=interval), until=until)


def checkpoint(cluster, interval, until):
    return CheckpointManager(cluster, interval=interval, until=until)


DAEMONS = pytest.mark.parametrize("build, name", [
    (vacuum, "vacuum-daemon"),
    (scrub, "scrub-daemon"),
    (checkpoint, "checkpoint-daemon"),
])


def rig(build, until=UNTIL):
    env = Environment()
    daemon = build(Cluster(env, node_count=2, initially_active=2),
                   INTERVAL, until)
    ticks = []
    tick = daemon._tick

    def recording_tick():
        ticks.append(env.now)
        return tick()

    daemon._tick = recording_tick
    return env, daemon, ticks


@DAEMONS
def test_start_returns_self_and_names_the_process(build, name):
    env, daemon, _ticks = rig(build)
    assert daemon.start() is daemon
    assert daemon.process.name == name
    assert not daemon.stopped


@DAEMONS
def test_last_wakeup_is_at_until_and_none_lands_after(build, name):
    env, daemon, ticks = rig(build)
    daemon.start()
    env.run()                      # drain: nothing else keeps time moving
    assert len(ticks) == 7
    assert ticks[-1] == UNTIL      # scheduled *at* the bound, to the ulp
    assert max(ticks) <= UNTIL
    assert not daemon.process.is_alive


@DAEMONS
def test_stop_before_the_next_wakeup_prevents_it(build, name):
    env, daemon, ticks = rig(build, until=None)
    daemon.start()
    env.run(until=0.25)
    assert len(ticks) == 2
    daemon.stop()
    assert daemon.stopped
    env.run()
    assert len(ticks) == 2
    assert not daemon.process.is_alive


@DAEMONS
def test_non_positive_interval_is_rejected(build, name):
    cluster = Cluster(Environment(), node_count=2, initially_active=2)
    kind = name.removesuffix("-daemon")
    with pytest.raises(ValueError, match=f"{kind} interval"):
        build(cluster, 0.0, None)
