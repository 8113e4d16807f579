"""The virtual-session engine: Zipf key skew, cohort batching, and
bit-reproducible open-loop runs."""

import random

import pytest

from repro import Cluster, Environment
from repro.traffic import (
    ConstantArrivals,
    SessionEngine,
    TenantClass,
    TenantTpccContext,
    ZipfKeyChooser,
)
from repro.workload import load_tpcc
from repro.workload.tpcc_schema import TpccConfig

SMALL_TPCC = TpccConfig(
    warehouses=2, districts_per_warehouse=2, customers_per_district=10,
    items=50, orders_per_district=5, order_lines_per_order=3,
)


class TestZipfKeyChooser:
    def test_ranks_in_range(self):
        z = ZipfKeyChooser(8, theta=0.9, rng=random.Random(1))
        ranks = [z.rank() for _ in range(500)]
        assert all(0 <= r < 8 for r in ranks)

    def test_skew_favours_low_ranks(self):
        z = ZipfKeyChooser(8, theta=0.99, rng=random.Random(2))
        ranks = [z.rank() for _ in range(3000)]
        assert ranks.count(0) > ranks.count(7) * 2

    def test_theta_zero_is_roughly_uniform(self):
        z = ZipfKeyChooser(4, theta=0.0, rng=random.Random(3))
        ranks = [z.rank() for _ in range(4000)]
        for r in range(4):
            assert ranks.count(r) == pytest.approx(1000, rel=0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfKeyChooser(0, theta=0.9, rng=random.Random(0))
        with pytest.raises(ValueError):
            ZipfKeyChooser(4, theta=-0.1, rng=random.Random(0))


class TestTenantClass:
    def test_needs_users(self):
        with pytest.raises(ValueError):
            TenantClass(name="x", users=0,
                        arrivals=ConstantArrivals(1.0))


def make_cluster(seed=0):
    env = Environment(seed=seed)
    cluster = Cluster(env, node_count=2, initially_active=2,
                      buffer_pages_per_node=256)
    load_tpcc(cluster, SMALL_TPCC,
              owners=[cluster.workers[0], cluster.workers[1]])
    return env, cluster


def make_tenants():
    return [
        TenantClass(name="web", users=1_000,
                    arrivals=ConstantArrivals(40.0),
                    zipf_theta=0.95, slo_p99_ms=5_000.0),
        TenantClass(name="batch", users=10,
                    arrivals=ConstantArrivals(20.0),
                    zipf_theta=0.0, hot_offset=1, rate_limit=15.0),
    ]


def run_engine(seed=0, duration=20.0):
    env, cluster = make_cluster(seed)
    engine = SessionEngine(cluster, SMALL_TPCC, make_tenants(),
                           seed=seed, batch=10, executors=4,
                           queue_limit=500)
    env.run(until=env.process(engine.run(duration), name="traffic"))
    return engine


class TestSessionEngine:
    def test_tenant_context_uses_hot_offset(self):
        env, cluster = make_cluster()
        zipf = ZipfKeyChooser(2, theta=3.0, rng=random.Random(5))
        ctx = TenantTpccContext(cluster, SMALL_TPCC,
                                rng=random.Random(6), zipf=zipf,
                                hot_offset=1)
        picks = [ctx.random_warehouse() for _ in range(300)]
        assert set(picks) <= {1, 2}
        # theta=3 makes rank 0 dominate; offset 1 rotates it onto
        # warehouse 2.
        assert picks.count(2) > picks.count(1)

    def test_conservation_and_rate_limit(self):
        engine = run_engine()
        stats = engine.admission.stats()
        assert stats["offered"] > 0
        assert stats["offered"] == (stats["admitted"] + stats["rejected"]
                                    + stats["shed"])
        # Fully drained: every admitted request completed or abandoned.
        assert stats["admitted"] == stats["completed"] + stats["abandoned"]
        assert engine.admission.queue_depth == 0
        # The batch tenant offers ~20/s against a 15/s contract: the
        # token bucket must have rejected some of it.
        assert engine.admission.counters_for("batch").rejected > 0
        assert engine.admission.counters_for("web").rejected == 0

    def test_latency_is_weighted_by_cohort_size(self):
        engine = run_engine()
        report = engine.tenant_report()
        for name, row in report.items():
            # One histogram observation per *logical* request, not per
            # executed cohort.
            assert row["count"] == row["completed"]
            if row["completed"]:
                assert row["p50"] > 0
                assert row["p99"] >= row["p50"]
        assert report["web"]["slo_p99_ms"] == 5_000.0
        assert "slo_p99_ms" not in report["batch"]

    def test_completions_series_sums_to_completed(self):
        engine = run_engine()
        total = sum(v for _t, v in engine.completions.points)
        assert total == engine.admission.completed

    def test_bit_identical_replay(self):
        a = run_engine(seed=3)
        b = run_engine(seed=3)
        assert a.admission.stats() == b.admission.stats()
        assert a.tenant_report() == b.tenant_report()
        assert a.completions.points == b.completions.points
        assert a.results_by_kind == b.results_by_kind

    def test_different_seed_different_run(self):
        a = run_engine(seed=3)
        b = run_engine(seed=4)
        assert a.completions.points != b.completions.points

    def test_validation(self):
        env, cluster = make_cluster()
        with pytest.raises(ValueError):
            SessionEngine(cluster, SMALL_TPCC, [])
        with pytest.raises(ValueError):
            SessionEngine(cluster, SMALL_TPCC, make_tenants(), batch=0)
