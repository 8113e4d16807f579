"""Secondary-index tests: structure, maintenance, MVCC filtering,
migration rebuild, and the TPC-C payment-by-name path."""

import pytest

from repro import Cluster, Column, Environment, Schema
from repro.index.secondary import SecondaryIndex


PEOPLE = Schema(
    [Column("id"), Column("name", "str", width=16), Column("city", "str", width=16)],
    key=("id",),
)


class TestSecondaryIndexUnit:
    def test_validation(self):
        with pytest.raises(ValueError):
            SecondaryIndex("bad", [], PEOPLE)
        with pytest.raises(KeyError):
            SecondaryIndex("bad", ["nope"], PEOPLE)

    def test_add_and_candidates(self):
        index = SecondaryIndex("by_city", ["city"], PEOPLE)
        index.add((1, "ada", "berlin"))
        index.add((2, "bob", "berlin"))
        index.add((3, "eve", "mainz"))
        assert index.candidates("berlin") == [1, 2]
        assert index.candidates("mainz") == [3]
        assert index.candidates("paris") == []
        assert len(index) == 3

    def test_duplicate_add_is_idempotent(self):
        index = SecondaryIndex("by_city", ["city"], PEOPLE)
        index.add((1, "ada", "berlin"))
        index.add((1, "ada", "berlin"))
        assert len(index) == 1

    def test_remove(self):
        index = SecondaryIndex("by_city", ["city"], PEOPLE)
        index.add((1, "ada", "berlin"))
        assert index.remove((1, "ada", "berlin"))
        assert not index.remove((1, "ada", "berlin"))
        assert index.candidates("berlin") == []

    def test_composite_secondary_key(self):
        index = SecondaryIndex("by_nc", ["name", "city"], PEOPLE)
        index.add((1, "ada", "berlin"))
        assert index.candidates(("ada", "berlin")) == [1]
        assert index.candidates(("ada", "mainz")) == []


@pytest.fixture()
def rig():
    env = Environment()
    cluster = Cluster(env, node_count=3, initially_active=2,
                      buffer_pages_per_node=256, segment_max_pages=4,
                      page_bytes=1024, lock_timeout=1.0)
    cluster.master.create_table("people", PEOPLE, owner=cluster.workers[0])
    partition = list(cluster.workers[0].partitions.values())[0]

    def load():
        txn = cluster.txns.begin()
        for i in range(60):
            city = "berlin" if i % 3 == 0 else "mainz"
            yield from cluster.master.insert(
                "people", (i, "p%03d" % i, city), txn
            )
        yield from cluster.txns.commit(txn)

    env.run(until=env.process(load()))
    partition.create_secondary_index("by_city", ["city"])
    return env, cluster, partition


def lookup(env, cluster, partition, value, cc="mvcc"):
    worker = cluster.workers[0]

    def go():
        txn = cluster.txns.begin(cc=cc)
        rows = yield from worker.read_by_secondary(
            partition, "by_city", value, txn
        )
        yield from cluster.txns.commit(txn)
        return rows

    return env.run(until=env.process(go()))


class TestPartitionSecondaryIndexes:
    def test_build_from_existing_data(self, rig):
        env, cluster, partition = rig
        rows = lookup(env, cluster, partition, "berlin")
        assert len(rows) == 20
        assert all(r[2] == "berlin" for r in rows)

    def test_duplicate_index_name_rejected(self, rig):
        env, cluster, partition = rig
        with pytest.raises(ValueError):
            partition.create_secondary_index("by_city", ["city"])

    def test_unknown_index_rejected(self, rig):
        env, cluster, partition = rig
        with pytest.raises(Exception):
            lookup_name = "nope"

            def go():
                txn = cluster.txns.begin()
                yield from cluster.workers[0].read_by_secondary(
                    partition, lookup_name, "berlin", txn
                )

            env.run(until=env.process(go()))

    def test_insert_maintains_index(self, rig):
        env, cluster, partition = rig

        def go():
            txn = cluster.txns.begin()
            yield from cluster.master.insert(
                "people", (100, "newbie", "berlin"), txn
            )
            yield from cluster.txns.commit(txn)

        env.run(until=env.process(go()))
        rows = lookup(env, cluster, partition, "berlin")
        assert len(rows) == 21

    def test_update_filters_stale_entries(self, rig):
        """A row whose indexed column changed is no longer returned for
        the old value (the stale entry is filtered at read time)."""
        env, cluster, partition = rig

        def go():
            txn = cluster.txns.begin()
            yield from cluster.master.update(
                "people", 0, (0, "p000", "hamburg"), txn
            )
            yield from cluster.txns.commit(txn)

        env.run(until=env.process(go()))
        berlin = lookup(env, cluster, partition, "berlin")
        assert all(r[0] != 0 for r in berlin)
        hamburg = lookup(env, cluster, partition, "hamburg")
        assert [r[0] for r in hamburg] == [0]

    def test_deleted_rows_filtered(self, rig):
        env, cluster, partition = rig

        def go():
            txn = cluster.txns.begin()
            yield from cluster.master.delete("people", 3, txn)
            yield from cluster.txns.commit(txn)

        env.run(until=env.process(go()))
        rows = lookup(env, cluster, partition, "berlin")
        assert all(r[0] != 3 for r in rows)

    def test_routed_lookup_via_master(self, rig):
        env, cluster, partition = rig

        def go():
            txn = cluster.txns.begin()
            rows = yield from cluster.master.read_by_secondary(
                "people", 0, "by_city", "mainz", txn
            )
            yield from cluster.txns.commit(txn)
            return rows

        rows = env.run(until=env.process(go()))
        assert len(rows) == 40

    def test_migration_rebuilds_index_on_target(self, rig):
        """Segments arriving physiologically are spliced into the
        receiving partition's secondary indexes."""
        from repro.core import PhysiologicalPartitioning

        env, cluster, partition = rig

        def go():
            yield from cluster.power_on(2)
            scheme = PhysiologicalPartitioning()
            yield from scheme.migrate_fraction(
                cluster, "people", cluster.workers[0],
                [cluster.worker(2)], 0.5,
            )

        env.run(until=env.process(go()))
        target_parts = cluster.worker(2).partitions_for_table("people")
        assert target_parts
        target = target_parts[0]
        target.create_secondary_index("by_city", ["city"])

        def go2():
            txn = cluster.txns.begin()
            rows = yield from cluster.worker(2).read_by_secondary(
                target, "by_city", "berlin", txn
            )
            yield from cluster.txns.commit(txn)
            return rows

        rows = env.run(until=env.process(go2()))
        assert rows  # moved berlin rows found through the new index


class TestPaymentByName:
    def test_payment_by_name_path(self):
        from repro.workload import (
            TpccConfig, TpccContext, load_tpcc, payment,
        )

        env = Environment()
        cluster = Cluster(env, node_count=2, initially_active=2,
                          buffer_pages_per_node=1024,
                          segment_max_pages=16, page_bytes=2048)
        config = TpccConfig(
            warehouses=2, districts_per_warehouse=2,
            customers_per_district=10, items=50, orders_per_district=5,
            index_customer_name=True,
        )
        load_tpcc(cluster, config,
                  owners=[cluster.workers[0], cluster.workers[1]])
        ctx = TpccContext(cluster, config)

        def go():
            done = 0
            for _ in range(20):
                txn = cluster.txns.begin()
                result = yield from payment(ctx, txn)
                yield from cluster.txns.commit(txn)
                assert result["kind"] == "payment"
                done += 1
            return done

        assert env.run(until=env.process(go())) == 20
