"""Fast smoke tests of the experiment harness at tiny scale (the
paper's shapes at the quick presets: test_paper_shapes.py)."""

import dataclasses

import pytest

from repro.experiments import (
    Fig6Config,
    run_fig1,
    run_fig2,
    run_fig3,
    run_fig6,
    run_power_validation,
)
from repro.experiments.fig3_mvcc import Fig3Config
from repro.experiments.harness import mean_between
from repro.experiments.fig6_schemes import scale_fig6_config
from repro.workload import TpccConfig


def test_power_validation_bands():
    result = run_power_validation()
    watts = result.counters["run"]
    assert 60 <= watts["minimal_watts"] <= 70
    assert 255 <= watts["full_load_watts"] <= 285
    assert watts["node_standby_watts"] == pytest.approx(2.5)
    assert len(result.counters["idle_watts"]) == 10
    assert "Sect. 3.1" in result.to_table()


def test_fig1_small_preserves_ordering():
    result = run_fig1(rows=4000)
    r = result.counters["records_per_second"]
    assert r["tbscan_local"] > r["project_local"]
    assert r["project_local"] > r["project_remote_vectorized"]
    assert r["project_remote_buffered"] > r["project_remote_vectorized"]
    assert r["project_remote_single"] < 1200
    assert "Fig. 1" in result.to_table()


def test_fig2_small_crossover():
    result = run_fig2(rows=400, concurrency_levels=(1, 8), window=8.0)
    local, offloaded = (result.counters[name]
                        for name in ("local_qps", "offloaded_qps"))
    # Local wins at 1, offloading at 8: they cross at 8.
    assert local[1] > offloaded[1]
    assert offloaded[8] > local[8]
    assert "Fig. 2" in result.to_table()


def test_fig3_tiny_cell_shapes():
    config = Fig3Config(
        rows=400, clients=6, partitions=4,
        update_ratios=(0.0, 1.0), max_window=120.0,
        payload_bytes=4096, buffer_pages=128,
    )
    result = run_fig3(config)
    # MVCC storage overhead grows with updates; locking stays bounded.
    counters = result.counters
    storage_mvcc = counters["storage_pct mvcc"]
    assert storage_mvcc["100%"] > storage_mvcc["0%"]
    assert counters["storage_pct locking"]["100%"] < 150
    # Throughputs are positive and tabulated.
    assert counters["tpm mvcc"]["0%"] > 0
    assert counters["tpm locking"]["100%"] > 0
    assert "Fig. 3" in result.to_table()


def tiny_fig6_config() -> Fig6Config:
    return Fig6Config(
        tpcc=TpccConfig(
            warehouses=4, districts_per_warehouse=4,
            customers_per_district=10, items=100,
            orders_per_district=8, order_lines_per_order=3,
        ),
        clients=6, client_interval=0.3,
        ballast_rows_per_warehouse=300, ballast_blob_bytes=16 * 1024,
        node_count=6, warmup=15.0, tail=60.0, bucket=15.0,
        tpcc_segment_max_pages=4,
    )


@pytest.mark.parametrize("scheme", ["physical", "logical", "physiological"])
def test_fig6_tiny_run_all_schemes(scheme):
    result = run_fig6(scheme, tiny_fig6_config())
    run = result.counters["run"]
    assert run["scheme"] == scheme
    assert run["total_completed"] > 50
    assert result.migration_seconds > 0
    assert run["records_moved"] > 0
    # Series cover the whole window with the configured buckets.
    assert len(result.series["qps"]) == 5  # (15 + 60) / 15
    assert "Fig. 6" in result.to_table()
    # Power series is sane: between idle minimum and cluster maximum.
    watt_values = [v for _t, v in result.series["watts"] if v is not None]
    assert watt_values
    assert all(40 < v < 200 for v in watt_values)


def test_fig6_helper_variant_runs():
    config = dataclasses.replace(tiny_fig6_config(), helper_nodes=(4, 5))
    result = run_fig6("physiological", config)
    assert result.counters["run"]["total_completed"] > 50
    # Helpers raise the power envelope during the migration window.
    watts = result.series["watts"]
    during = mean_between(watts, 0, result.migration_seconds)
    before = mean_between(watts, -15, 0)
    if during is not None and before is not None:
        assert during > before


def test_fig6_audit_records_a_clean_history():
    config = dataclasses.replace(tiny_fig6_config(), audit=True)
    result = run_fig6("physiological", config)
    assert result.counters["audit"]["ops_recorded"] > 0
    assert "ISOLATION ANOMALY:" not in result.to_table()
    assert result.ok


def test_scale_profile_shape():
    config = scale_fig6_config(nodes=100, partitions=10_000)
    assert config.node_count == 100
    assert len(config.source_nodes) == len(config.target_nodes) == 50
    assert not set(config.source_nodes) & set(config.target_nodes)
    # ~10 per-warehouse table slices carry the requested partition count.
    assert config.tpcc.warehouses == 1000
    with pytest.raises(ValueError):
        scale_fig6_config(nodes=7)
    with pytest.raises(ValueError):
        scale_fig6_config(nodes=100, partitions=100)


def test_scale_in_tiny_run():
    from repro.experiments import ScaleInConfig, run_scale_in
    from repro.workload import TpccConfig

    config = ScaleInConfig(
        tpcc=TpccConfig(
            warehouses=4, districts_per_warehouse=4,
            customers_per_district=10, items=80, orders_per_district=5,
            order_lines_per_order=3,
        ),
        clients=3, warmup=15.0, tail=45.0, bucket=15.0,
    )
    result = run_scale_in(config)
    assert result.counters["run"]["active_after"] == 2
    assert result.counters["run"]["total_failed"] == 0
    watts_before = mean_between(result.series["watts"], -15, 0)
    watts_after = mean_between(result.series["watts"], 15, 45)
    assert watts_after < watts_before - 20
