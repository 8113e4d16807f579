"""Property tests of the TPC-C generator and context distributions."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.index.partition_tree import KeyRange
from repro.workload import TpccConfig
from repro.workload.tpcc_gen import (
    TpccGenerator,
    seed_warehouse_segments,
    warehouse_ranges,
)
from repro.workload.tpcc_schema import TPCC_TABLES, tables_for
from repro.workload.tpcc_txns import TpccContext


small_configs = st.builds(
    TpccConfig,
    warehouses=st.integers(min_value=1, max_value=4),
    districts_per_warehouse=st.integers(min_value=1, max_value=4),
    customers_per_district=st.integers(min_value=1, max_value=8),
    items=st.integers(min_value=5, max_value=30),
    orders_per_district=st.integers(min_value=1, max_value=6),
    order_lines_per_order=st.integers(min_value=1, max_value=4),
)


@settings(max_examples=20, deadline=None)
@given(config=small_configs)
def test_property_cardinalities_follow_config(config):
    gen = TpccGenerator(config)
    w = config.warehouses
    d = config.districts_per_warehouse
    c = config.customers_per_district
    o = config.orders_per_district
    assert len(list(gen.warehouse_rows())) == w
    assert len(list(gen.district_rows())) == w * d
    assert len(list(gen.customer_rows())) == w * d * c
    assert len(list(gen.history_rows())) == w * d * c
    assert len(list(gen.item_rows())) == config.items
    assert len(list(gen.stock_rows())) == w * config.items
    assert len(list(gen.orders_rows())) == w * d * o
    assert len(list(gen.order_line_rows())) == (
        w * d * o * config.order_lines_per_order
    )


@settings(max_examples=20, deadline=None)
@given(config=small_configs)
def test_property_primary_keys_unique(config):
    gen = TpccGenerator(config)
    schemas = tables_for(config)
    for table in TPCC_TABLES:
        schema = schemas[table]
        keys = [schema.key_of(row) for row in gen.rows_for(table)]
        assert len(keys) == len(set(keys)), f"duplicate keys in {table}"


@settings(max_examples=20, deadline=None)
@given(config=small_configs, pad=st.sampled_from([0, 128, 4096]))
def test_property_pad_blob_changes_size_not_keys(config, pad):
    import dataclasses

    padded = dataclasses.replace(config, pad_blob_bytes=pad)
    schemas = tables_for(padded)
    gen = TpccGenerator(padded)
    row = next(iter(gen.customer_rows()))
    schema = schemas["customer"]
    schema.validate(row)
    size = schema.sizeof(row)
    if pad:
        assert size > pad  # the pad dominates
    # Key extraction is unaffected by the pad column.
    assert schema.key_of(row) == (row[0], row[1], row[2])


class _FakeOwner:
    def __init__(self, node_id):
        self.node_id = node_id


@settings(max_examples=30, deadline=None)
@given(
    warehouses=st.integers(min_value=1, max_value=20),
    owners=st.integers(min_value=1, max_value=5),
)
def test_property_warehouse_ranges_partition_the_space(warehouses, owners):
    config = TpccConfig(warehouses=warehouses)
    ranges = warehouse_ranges(
        config, [_FakeOwner(i) for i in range(owners)], single_column=False
    )
    # Every warehouse-prefixed key falls in exactly one range.
    for w in range(1, warehouses + 1):
        hits = [r for r, _o in ranges if r.contains((w, 1, 1))]
        assert len(hits) == 1
    # Ranges are mutually non-overlapping.
    for i, (r1, _o1) in enumerate(ranges):
        for r2, _o2 in ranges[i + 1:]:
            assert not r1.overlaps(r2)


class _SeededPartition:
    """Records the ranges ``seed_warehouse_segments`` creates."""

    def __init__(self, bounds: KeyRange):
        self.bounds = bounds
        self.created: list[KeyRange] = []

    def new_segment(self, key_range: KeyRange) -> None:
        self.created.append(key_range)


def _bound(single: bool):
    """A partition bound: open, a warehouse id, or a key prefix that may
    fall inside a warehouse (``(w, d)``) or outside the id range."""
    ids = st.integers(min_value=-1, max_value=32)
    if single:
        return st.one_of(st.none(), ids)
    return st.one_of(st.none(), st.tuples(ids),
                     st.tuples(ids, st.integers(min_value=0, max_value=9)))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), warehouses=st.integers(min_value=1, max_value=30),
       single=st.booleans())
def test_property_warehouse_segments_match_linear_scan(data, warehouses,
                                                        single):
    """Seeding bisects for the bounds and creates the segments a test of
    every warehouse against the bounds would, in the same order."""
    low = data.draw(_bound(single))
    high = data.draw(_bound(single))
    assume(low is None or high is None or low < high)
    bounds = KeyRange(low, high)
    config = TpccConfig(warehouses=warehouses)
    partition = _SeededPartition(bounds)
    seed_warehouse_segments(config, partition, single)
    expected = [
        KeyRange(w, w + 1) if single else KeyRange((w,), (w + 1,))
        for w in range(1, warehouses + 1)
        if bounds.contains(w if single else (w,))
    ]
    assert partition.created == expected


def test_nurand_distribution_is_skewed():
    """NURand should visit a hot subset far more than uniform would."""
    from collections import Counter

    ctx = TpccContext(None, TpccConfig(customers_per_district=100))
    counts = Counter(ctx.random_customer() for _ in range(20_000))
    top_decile = sum(n for _v, n in counts.most_common(10))
    assert top_decile > 20_000 * 0.15  # uniform would give ~10%
