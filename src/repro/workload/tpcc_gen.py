"""Deterministic TPC-C data generation and loading.

Rows stream through :meth:`MasterNode.bulk_load` as committed
versions, outside the simulation clock — database loading is not part
of any measurement window in the paper.
"""

from __future__ import annotations

import bisect
import random
import string
import typing

from repro.index.partition_tree import KeyRange
from repro.workload.tpcc_schema import (
    TPCC_TABLES,
    TpccConfig,
    WAREHOUSE_PARTITIONED,
    tables_for,
)

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster
    from repro.cluster.worker import WorkerNode


class TpccGenerator:
    """Seeded row generator following the TPC-C population rules
    (random alphanumeric fill)."""

    def __init__(self, config: TpccConfig):
        self.config = config
        self.rng = random.Random(config.seed)

    # -- randomness helpers ---------------------------------------------------

    def rand_str(self, low: int, high: int) -> str:
        n = self.rng.randint(low, high)
        return "".join(self.rng.choices(string.ascii_lowercase, k=n))

    def rand_zip(self) -> str:
        return "%04d11111" % self.rng.randint(0, 9999)

    def _pad(self) -> tuple:
        """The optional blob pad cell for customer/stock rows."""
        return ("",) if self.config.pad_blob_bytes > 0 else ()

    # -- row streams ----------------------------------------------------------

    def warehouse_rows(self):
        for w in range(1, self.config.warehouses + 1):
            yield (w, self.rand_str(6, 10), self.rand_str(10, 20),
                   self.rand_str(10, 20), "st", self.rand_zip(),
                   self.rng.uniform(0.0, 0.2), 300000.0)

    def district_rows(self):
        for w in range(1, self.config.warehouses + 1):
            for d in range(1, self.config.districts_per_warehouse + 1):
                yield (w, d, self.rand_str(6, 10), self.rand_str(10, 20),
                       self.rand_str(10, 20), "st", self.rand_zip(),
                       self.rng.uniform(0.0, 0.2), 30000.0,
                       self.config.orders_per_district + 1)

    def customer_rows(self):
        for w in range(1, self.config.warehouses + 1):
            for d in range(1, self.config.districts_per_warehouse + 1):
                for c in range(1, self.config.customers_per_district + 1):
                    yield (w, d, c, self.rand_str(8, 16), "OE",
                           "name-%04d" % c, self.rand_str(10, 20),
                           self.rand_str(10, 20), "st", self.rand_zip(),
                           "%016d" % self.rng.randint(0, 10**15),
                           "2014-01-01",
                           "GC" if self.rng.random() < 0.9 else "BC",
                           50000.0, self.rng.uniform(0.0, 0.5), -10.0,
                           10.0, 1, 0, self.rand_str(100, 250),
                           *self._pad())

    def history_rows(self):
        h_id = 0
        for w in range(1, self.config.warehouses + 1):
            for d in range(1, self.config.districts_per_warehouse + 1):
                for c in range(1, self.config.customers_per_district + 1):
                    h_id += 1
                    yield (w, h_id, w, d, c, d, "2014-01-01", 10.0,
                           self.rand_str(12, 24))

    def item_rows(self):
        for i in range(1, self.config.items + 1):
            yield (i, self.rng.randint(1, 10000), "item-%06d" % i,
                   self.rng.uniform(1.0, 100.0), self.rand_str(26, 50))

    def stock_rows(self):
        for w in range(1, self.config.warehouses + 1):
            for i in range(1, self.config.items + 1):
                yield (w, i, self.rng.randint(10, 100),
                       self.rand_str(24, 24), 0, 0, 0, self.rand_str(26, 50),
                       *self._pad())

    def orders_rows(self):
        for w in range(1, self.config.warehouses + 1):
            for d in range(1, self.config.districts_per_warehouse + 1):
                customers = list(
                    range(1, self.config.customers_per_district + 1)
                )
                self.rng.shuffle(customers)
                for o in range(1, self.config.orders_per_district + 1):
                    c = customers[(o - 1) % len(customers)]
                    yield (w, d, o, c, "2014-01-01",
                           self.rng.randint(1, 10),
                           self.config.order_lines_per_order, 1)

    def order_line_rows(self):
        for w in range(1, self.config.warehouses + 1):
            for d in range(1, self.config.districts_per_warehouse + 1):
                for o in range(1, self.config.orders_per_district + 1):
                    for ol in range(1, self.config.order_lines_per_order + 1):
                        yield (w, d, o, ol,
                               self.rng.randint(1, self.config.items), w,
                               "2014-01-01", 5,
                               self.rng.uniform(0.1, 100.0),
                               self.rand_str(24, 24))

    def new_order_rows(self):
        """The most recent third of orders are still undelivered."""
        start = max(1, self.config.orders_per_district * 2 // 3)
        for w in range(1, self.config.warehouses + 1):
            for d in range(1, self.config.districts_per_warehouse + 1):
                for o in range(start, self.config.orders_per_district + 1):
                    yield (w, d, o)

    def rows_for(self, table: str):
        streams = {
            "warehouse": self.warehouse_rows,
            "district": self.district_rows,
            "customer": self.customer_rows,
            "history": self.history_rows,
            "item": self.item_rows,
            "stock": self.stock_rows,
            "orders": self.orders_rows,
            "order_line": self.order_line_rows,
            "new_order": self.new_order_rows,
        }
        return streams[table]()


def warehouse_ranges(config: TpccConfig,
                     owners: typing.Sequence["WorkerNode"],
                     single_column: bool) -> list[tuple[KeyRange, "WorkerNode"]]:
    """Contiguous warehouse ranges, one per owner node."""
    n = len(owners)
    per_owner = config.warehouses / n
    out = []
    for i, owner in enumerate(owners):
        w_lo = 1 + round(i * per_owner)
        w_hi = 1 + round((i + 1) * per_owner)
        if w_lo >= w_hi:
            continue
        if single_column:
            low = None if i == 0 else w_lo
            high = None if i == n - 1 else w_hi
        else:
            low = None if i == 0 else (w_lo,)
            high = None if i == n - 1 else (w_hi,)
        out.append((KeyRange(low, high), owner))
    return out


def load_tpcc(cluster: "Cluster", config: TpccConfig,
              owners: typing.Sequence["WorkerNode"] | None = None,
              tables: typing.Sequence[str] | None = None,
              segment_max_pages: int | None = None):
    """Create and populate the TPC-C tables.

    ``owners`` are the nodes that initially hold the data (the paper's
    Fig. 6 starts "with two nodes, hosting the data"); warehouse ranges
    are split contiguously across them.  The item catalog lives on the
    first owner.  Returns ``{table: [partitions]}``.
    """
    owners = list(owners) if owners else [cluster.master.worker]
    tables = list(tables) if tables else list(TPCC_TABLES)
    generator = TpccGenerator(config)
    master = cluster.master

    created: dict[str, list] = {}
    schemas = tables_for(config)
    for table in tables:
        schema = schemas[table]
        single = len(schema.key) == 1
        if table == "item" or table not in WAREHOUSE_PARTITIONED:
            assignments = [(KeyRange(None, None), owners[0])]
        else:
            assignments = warehouse_ranges(config, owners, single)
        created[table] = master.create_partitioned_table(
            table, schema, assignments, segment_max_pages=segment_max_pages)
        if table in WAREHOUSE_PARTITIONED:
            for partition in created[table]:
                seed_warehouse_segments(config, partition, single)

    for table in tables:
        master.bulk_load(table, generator.rows_for(table))
    _create_secondary_indexes(config, created)
    return created


def seed_warehouse_segments(config: TpccConfig, partition,
                            single: bool) -> None:
    """Pre-create one (initial) segment per warehouse in the partition's
    bounds.

    Aligning segment boundaries to warehouses makes a fractional
    migration warehouse-granular across *every* table — the same
    key-contiguity a full-scale deployment gets for free from having
    many segments per warehouse.  Overflowing warehouses still split
    into further segments on demand.  The warehouses inside the bounds
    are a run of ids, found by bisecting for each bound (an open bound
    takes every id on its side).
    """
    ids = range(1, config.warehouses + 1)
    key = None if single else _warehouse_key
    bounds = partition.bounds
    start = 0 if bounds.low is None \
        else bisect.bisect_left(ids, bounds.low, key=key)
    stop = len(ids) if bounds.high is None \
        else bisect.bisect_left(ids, bounds.high, key=key)
    for w in ids[start:stop]:
        low = w if single else (w,)
        high = w + 1 if single else (w + 1,)
        partition.new_segment(KeyRange(low, high))


def _warehouse_key(w: int) -> tuple:
    """The leading key of warehouse ``w`` in a composite-key table."""
    return (w,)


def _create_secondary_indexes(config: TpccConfig, created) -> None:
    if config.index_customer_name and "customer" in created:
        for partition in created["customer"]:
            partition.create_secondary_index("customer_by_name", ["c_last"])

