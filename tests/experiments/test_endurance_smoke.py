"""Endurance harness smoke: the quick configuration holds every
invariant, replays deterministically, and the background daemons are
*transparent* — committed state with checkpoints+vacuum running is
byte-identical to the same workload without them.
"""

import dataclasses

import pytest

from repro import Cluster, Column, Environment, Schema
from repro.cluster.vacuum import VacuumPolicy, VacuumScheduler
from repro.experiments.endurance import quick_endurance_config, run_endurance
from repro.sim.events import AllOf
from repro.txn.checkpoint import CheckpointManager
from tests.determinism.harness import result_of

# Consistent with tier-1's global --timeout=600.
pytestmark = pytest.mark.timeout(600)


class TestEnduranceSmoke:
    def test_quick_run_holds_every_invariant(self):
        # The ``endurance`` family: also compared with its golden.
        result = result_of("endurance")
        assert not [v for v in result.violations if "double-charge" in v]
        assert result.ok, result.to_table()
        run = result.counters["run"]
        assert run["acked_writes"] >= 500
        # One ack per acknowledged write, each judged by the
        # cost-conservation checker; the counts run on across windows.
        assert result.counters["audit"]["ack"] == run["acked_writes"]
        # The chaos schedule actually injured the primary and HA healed.
        assert run["crashes"] >= 1
        assert run["promotions"] >= 1
        assert any(e.kind == "crash" for e in result.timeline)
        # The WAL really got recycled (not just bounded by inactivity)...
        assert result.counters["checkpoints"]["records_recycled"] > 0
        assert result.counters["checkpoints"]["peak_footprint_slack"] == 0
        # ...and vacuum reclaimed dead versions in bounded chunks.
        assert result.counters["vacuum"]["reclaimed"] > 0
        # The drill rebuilt from image + bounded suffix.
        assert result.counters["drill"]["image_rows"] > 0
        # One series row per audit window.
        assert len(result.series["acked"]) == quick_endurance_config().windows
        rendered = result.to_table()
        assert "\ndrill\n" in rendered
        assert "VIOLATION" not in rendered

    @pytest.mark.parametrize("seed", [1, 2])
    def test_the_other_ci_seeds_are_not_vacuous(self, seed):
        result = run_endurance(
            dataclasses.replace(quick_endurance_config(), seed=seed))
        assert result.ok, result.to_table()
        run = result.counters["run"]
        assert run["crashes"] >= 1 and run["promotions"] >= 1
        assert result.counters["drill"]["image_rows"] > 0

    def test_same_seed_same_run(self):
        config = dataclasses.replace(quick_endurance_config(), seed=1)
        a = run_endurance(config)
        b = run_endurance(config)
        assert a.ok and b.ok, (a.violations, b.violations)
        assert a.counters == b.counters
        assert a.series == b.series
        assert a.timeline == b.timeline

    def test_unmet_commit_target_is_a_violation(self):
        config = dataclasses.replace(quick_endurance_config(), seed=0,
                                     min_commits=10_000_000)
        result = run_endurance(config)
        assert not result.ok
        assert any(v.startswith("endurance: acked_writes >= min_commits")
                   for v in result.violations)


# -- daemon transparency (the determinism gate) ------------------------------

SCHEMA = Schema([Column("id"), Column("v", "str", width=24)], key=("id",))

ROWS = 60
WRITERS = 4
OPS_PER_WRITER = 40


def _committed_fingerprint(cluster):
    rows = {}
    for worker in cluster.workers:
        for partition in worker.partitions.values():
            if partition.table.name != "kv":
                continue
            for seg in partition.segments.values():
                for _p, _s, version in seg.scan_versions():
                    if version.deleted_ts is None:
                        rows[version.key] = tuple(version.values)
    return tuple(sorted(rows.items()))


def _run_fixed_workload(daemons: bool):
    """Count-based writers over disjoint key ranges: the final committed
    state is fully determined by the op counts, independent of timing —
    so any divergence means a daemon touched live data."""
    env = Environment(seed=7)
    cluster = Cluster(env, node_count=2, initially_active=2,
                      segment_max_pages=16, page_bytes=2048)
    cluster.master.create_table("kv", SCHEMA, owner=cluster.workers[0])
    cluster.master.bulk_load("kv", ((i, "seed-%03d" % i) for i in range(ROWS)))

    checkpoints = vacuum = None
    if daemons:
        checkpoints = CheckpointManager(cluster, interval=2.0).start()
        vacuum = VacuumScheduler(
            cluster,
            VacuumPolicy(interval=1.5, chunk_versions=8,
                         max_reclaim_per_tick=16),
        ).start()

    span = ROWS // WRITERS

    def writer(wid):
        for seq in range(OPS_PER_WRITER):
            yield env.timeout(0.25)
            key = wid * span + (seq % span)
            txn = cluster.txns.begin()
            yield from cluster.master.update(
                "kv", key, (key, f"w{wid}-s{seq}"), txn
            )
            yield from cluster.txns.commit(txn)

    procs = [env.process(writer(w), name=f"det-writer-{w}")
             for w in range(WRITERS)]
    env.run(until=AllOf(env, procs))
    if daemons:
        checkpoints.stop()
        vacuum.stop()
    env.run()
    stats = {
        "recycled": checkpoints.records_recycled if checkpoints else 0,
        "reclaimed": vacuum.reclaimed if vacuum else 0,
    }
    return _committed_fingerprint(cluster), stats


def test_daemons_do_not_change_committed_state():
    bare, _ = _run_fixed_workload(daemons=False)
    with_daemons, stats = _run_fixed_workload(daemons=True)
    # The daemons genuinely ran (recycled WAL records, reclaimed dead
    # versions) — this is not a vacuous comparison...
    assert stats["recycled"] > 0
    assert stats["reclaimed"] > 0
    # ...and the committed state is identical to the bare run.
    assert with_daemons == bare
    # Sanity: every seeded row still present (updated or pristine).
    assert len(bare) == ROWS
