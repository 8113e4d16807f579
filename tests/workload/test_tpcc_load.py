"""TPC-C schema / generator / loader tests."""

import pytest

from repro import Cluster, Environment
from repro.workload import TPCC_TABLES, TpccConfig, load_tpcc
from repro.workload.tpcc_gen import TpccGenerator
from repro.workload.tpcc_schema import tables_for
from repro.workload.tpcc_txns import TpccContext


def tiny_config(**overrides):
    defaults = dict(
        warehouses=2, districts_per_warehouse=2, customers_per_district=5,
        items=20, orders_per_district=5, order_lines_per_order=3,
    )
    defaults.update(overrides)
    return TpccConfig(**defaults)


def make_cluster(env, active=2):
    return Cluster(
        env, node_count=4, initially_active=active,
        buffer_pages_per_node=1024, segment_max_pages=16, page_bytes=2048,
    )


class TestSchema:
    def test_all_nine_tables_defined(self):
        assert len(TPCC_TABLES) == 9
        expected = {
            "warehouse", "district", "customer", "history", "new_order",
            "orders", "order_line", "item", "stock",
        }
        assert set(TPCC_TABLES) == expected

    def test_keys_lead_with_warehouse(self):
        for name, schema in TPCC_TABLES.items():
            if name == "item":
                assert schema.key == ("i_id",)
            else:
                assert schema.key[0].endswith("w_id")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TpccConfig(warehouses=0)
        with pytest.raises(ValueError):
            TpccConfig(items=0)


class TestGenerator:
    def test_row_counts_match_config(self):
        config = tiny_config()
        gen = TpccGenerator(config)
        assert len(list(gen.warehouse_rows())) == 2
        assert len(list(gen.district_rows())) == 4
        assert len(list(gen.customer_rows())) == 20
        assert len(list(gen.item_rows())) == 20
        assert len(list(gen.stock_rows())) == 40
        assert len(list(gen.orders_rows())) == 20
        assert len(list(gen.order_line_rows())) == 60

    def test_deterministic_given_seed(self):
        rows1 = list(TpccGenerator(tiny_config()).customer_rows())
        rows2 = list(TpccGenerator(tiny_config()).customer_rows())
        assert rows1 == rows2

    def test_rows_validate_against_schema(self):
        config = tiny_config()
        gen = TpccGenerator(config)
        for table, schema in TPCC_TABLES.items():
            for values in gen.rows_for(table):
                schema.validate(values)

    def test_nurand_in_bounds(self):
        config = tiny_config()
        ctx = TpccContext(None, config)
        for _ in range(200):
            assert 1 <= ctx.random_customer() <= config.customers_per_district
            assert 1 <= ctx.random_item() <= config.items


class TestFastLoad:
    def test_load_creates_all_tables(self):
        env = Environment()
        cluster = make_cluster(env)
        partitions = load_tpcc(cluster, tiny_config(),
                               owners=[cluster.workers[0], cluster.workers[1]])
        assert set(partitions) == set(TPCC_TABLES)
        # Warehouse-partitioned tables have one partition per owner.
        assert len(partitions["customer"]) == 2
        assert len(partitions["item"]) == 1

    def test_load_distributes_by_warehouse(self):
        env = Environment()
        cluster = make_cluster(env)
        config = tiny_config()
        load_tpcc(cluster, config,
                  owners=[cluster.workers[0], cluster.workers[1]])
        # Warehouse 1 on node 0, warehouse 2 on node 1.
        assert cluster.master.gpt.locate("customer", (1, 1, 1)).node_id == 0
        assert cluster.master.gpt.locate("customer", (2, 1, 1)).node_id == 1

    def test_loaded_rows_are_readable(self):
        env = Environment()
        cluster = make_cluster(env)
        config = tiny_config()
        load_tpcc(cluster, config,
                  owners=[cluster.workers[0], cluster.workers[1]])
        results = {}

        def check():
            txn = cluster.txns.begin()
            results["wh"] = yield from cluster.master.read("warehouse", 1, txn)
            results["cust"] = yield from cluster.master.read(
                "customer", (2, 1, 3), txn
            )
            results["district"] = yield from cluster.master.read(
                "district", (1, 2), txn
            )
            results["stock"] = yield from cluster.master.read(
                "stock", (2, 7), txn
            )
            yield from cluster.txns.commit(txn)

        env.run(until=env.process(check()))
        assert results["wh"][0] == 1
        assert results["cust"][:3] == (2, 1, 3)
        assert results["district"][9] == config.orders_per_district + 1
        assert results["stock"][:2] == (2, 7)

    def test_record_counts(self):
        env = Environment()
        cluster = make_cluster(env)
        config = tiny_config()
        partitions = load_tpcc(
            cluster, config, owners=[cluster.workers[0], cluster.workers[1]]
        )
        total_customers = sum(p.record_count for p in partitions["customer"])
        assert total_customers == 20
        total_lines = sum(p.record_count for p in partitions["order_line"])
        assert total_lines == 60

    def test_slow_load_matches_fast_load_contents(self):
        config = tiny_config(warehouses=1, items=10, customers_per_district=3,
                             orders_per_district=3)
        env_fast = Environment()
        cluster_fast = make_cluster(env_fast, active=1)
        load_tpcc(cluster_fast, config, owners=[cluster_fast.workers[0]],
                  tables=["warehouse", "district", "customer"])

        # The reference: the same rows through the full transactional
        # write path, one transaction per table.
        env_slow = Environment()
        cluster_slow = make_cluster(env_slow, active=1)
        schemas = tables_for(config)
        generator = TpccGenerator(config)

        def slow_load():
            for table in ("warehouse", "district", "customer"):
                cluster_slow.master.create_table(
                    table, schemas[table], owner=cluster_slow.workers[0])
                txn = cluster_slow.txns.begin()
                for values in generator.rows_for(table):
                    yield from cluster_slow.master.insert(
                        table, tuple(values), txn)
                yield from cluster_slow.txns.commit(txn)

        env_slow.run(until=env_slow.process(slow_load()))

        def read_all_rows(env, cluster):
            out = {}

            def go():
                txn = cluster.txns.begin()
                rows = yield from cluster.master.read_range(
                    "customer", None, None, txn
                )
                out["rows"] = rows
                yield from cluster.txns.commit(txn)

            env.run(until=env.process(go()))
            return out["rows"]

        fast_rows = read_all_rows(env_fast, cluster_fast)
        slow_rows = read_all_rows(env_slow, cluster_slow)
        assert fast_rows == slow_rows
        assert len(fast_rows) == 6  # 2 districts x 3 customers
