"""Bench: the 100-node, 10k-partition fig6 scale profile.

The paper's companion wimpy-cluster study (arXiv:1407.0386) argues the
interesting energy/performance trade-offs only appear at node counts
far beyond the 4-active-node Fig. 6 run.  This bench locks in the
wall-clock feasibility of that sweep: one physiological-scheme run on
a 100-node cluster (50 sources, 50 targets) with ~10,000 logical
partitions and a 50-way parallel migration.

CI re-runs this file and fails on a >25% regression vs. the committed
``bench_fig6_scale_after.json`` baseline — a kernel change that makes
the scale sweep creep back toward hours fails here first.
"""

from repro.experiments import run_fig6
from repro.experiments.fig6_schemes import scale_fig6_config


def test_fig6_scale_100(benchmark):
    config = scale_fig6_config(nodes=100, partitions=10_000)
    result = benchmark.pedantic(
        run_fig6, args=("physiological", config), rounds=1, iterations=1
    )
    # Breadth invariants: the run really exercised the whole cluster.
    assert config.node_count == 100
    assert config.tpcc.warehouses == 1000
    assert len(config.source_nodes) == len(config.target_nodes) == 50
    assert result.records_moved > 10_000
    assert result.bytes_moved > 100 * 2**20
    assert result.total_completed > 0
    # The migration finished inside the measured window.
    assert result.rebalance_finished < config.warmup + config.tail
    benchmark.extra_info["migration_seconds"] = round(result.migration_seconds, 1)
    benchmark.extra_info["records_moved"] = result.records_moved
    benchmark.extra_info["bytes_moved_mib"] = result.bytes_moved // 2**20
