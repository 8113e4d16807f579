"""Design-choice ablations: segment granularity and policy thresholds.

DESIGN.md calls out two tunables the paper fixes by fiat: the 32 MiB
segment size (Sect. 4's unit of distribution) and the 80 % CPU upper
bound (Sect. 3.4).  These tests show each choice's trade-off surface
(run with ``-s`` to see the sweeps).
"""

from repro import Cluster, Column, Environment, Schema
from repro.cluster import PolicyThresholds, ThresholdPolicy
from repro.cluster.monitor import NodeSample
from repro.core import PhysiologicalPartitioning


def _migrate_with_segment_size(segment_pages: int, rows: int = 2000,
                               page_bytes: int = 8192) -> tuple[float, int]:
    """Sim-seconds to physiologically move 50% of a table stored in
    segments of ``segment_pages`` pages; returns (seconds, segments)."""
    env = Environment()
    cluster = Cluster(env, node_count=3, initially_active=2,
                      buffer_pages_per_node=512,
                      segment_max_pages=segment_pages,
                      page_bytes=page_bytes)
    schema = Schema(
        [Column("id"), Column("pad", "blob", width=2048)], key=("id",)
    )
    cluster.master.create_table("t", schema, owner=cluster.workers[0])
    cluster.master.bulk_load("t", ((i, "") for i in range(rows)))

    scheme = PhysiologicalPartitioning()
    moved = {}

    def go():
        reports = yield from scheme.migrate_fraction(
            cluster, "t", cluster.workers[0], [cluster.workers[1]], 0.5
        )
        moved["segments"] = sum(r.segments_moved for r in reports)

    t0 = env.now
    env.run(until=env.process(go()))
    return env.now - t0, moved["segments"]


def test_ablation_segment_size():
    """Coarser segments amortise the per-segment lock/splice/commit
    overhead: the same bytes move faster — why the paper uses 32 MiB
    segments rather than page-granular movement."""

    results = {pages: _migrate_with_segment_size(pages)
               for pages in (4, 32, 256)}
    print()
    for pages, (seconds, segments) in results.items():
        print(f"  segment={pages:>4} pages: {segments:>4} moves, "
              f"{seconds:6.2f} sim-s")
    assert results[4][1] > results[32][1] > results[256][1]  # move counts
    assert results[4][0] > results[256][0]  # coarse is faster end-to-end


def _ramp_samples(slope_per_round: float, rounds: int = 40):
    for i in range(rounds):
        yield NodeSample(
            time=float(i * 3), node_id=0,
            cpu_utilization=min(slope_per_round * i, 1.0),
            disk_utilization=0.0, iops=0.0, net_bytes=0,
            buffer_hit_ratio=1.0, partition_stats=[],
        )


def test_ablation_cpu_threshold_sensitivity():
    """Lower bounds fire earlier on a rising load; the paper's 80%
    sits between hair-trigger and too-late."""

    fired = {}
    for upper in (0.5, 0.8, 0.95):
        policy = ThresholdPolicy(PolicyThresholds(
            cpu_upper=upper, cpu_lower=0.05, consecutive_samples=2,
        ))
        fired[upper] = None
        for sample in _ramp_samples(slope_per_round=0.03):
            decision = policy.observe([sample])
            if decision.wants_scale_out:
                fired[upper] = sample.time
                break
    print()
    for upper, at in fired.items():
        print(f"  cpu_upper={upper:.2f}: scale-out fires at t={at}")
    assert fired[0.5] < fired[0.8] < fired[0.95]
