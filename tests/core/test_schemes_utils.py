"""Tests for scheme selection utilities and key successor logic."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import Cluster, Column, Environment, Schema
from repro.cluster.catalog import successor
from repro.core.schemes import (
    ordered_segments,
    segment_chunks,
    select_upper_segments,
    split_key_at_fraction,
)


class TestSuccessor:
    def test_int(self):
        assert successor(5) == 6

    def test_str(self):
        assert successor("abc") == "abc\x00"
        assert "abc" < successor("abc") < "abd"

    def test_tuple(self):
        assert successor((1, 2)) == (1, 3)
        assert (1, 2) < successor((1, 2)) < (1, 3, 0)

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            successor(True)

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            successor(3.5)

    @given(st.integers(min_value=-10**9, max_value=10**9))
    def test_property_int_strictly_greater_and_tight(self, k):
        s = successor(k)
        assert s > k
        assert not any(k < x < s for x in (k, s))  # adjacent ints


def loaded_partition(rows=200, segment_max_pages=4):
    env = Environment()
    cluster = Cluster(env, node_count=2, initially_active=1,
                      buffer_pages_per_node=256,
                      segment_max_pages=segment_max_pages, page_bytes=1024)
    schema = Schema([Column("id"), Column("v", "str", width=40)], key=("id",))
    cluster.master.create_table("t", schema, owner=cluster.workers[0])
    partition = list(cluster.workers[0].partitions.values())[0]

    def load():
        txn = cluster.txns.begin()
        for i in range(rows):
            yield from cluster.master.insert("t", (i, "x" * 30), txn)
        yield from cluster.txns.commit(txn)

    env.run(until=env.process(load()))
    return partition


class TestSelection:
    def test_ordered_segments_ascending(self):
        partition = loaded_partition()
        entries = ordered_segments(partition)
        assert len(entries) > 2
        lows = [r.low for r, _s in entries]
        assert lows[1:] == sorted(lows[1:])  # first low may be None

    def test_select_upper_segments_fraction(self):
        partition = loaded_partition()
        picked = select_upper_segments(partition, 0.5)
        total = partition.record_count
        count = sum(s.record_count for _r, s in picked)
        # At least the goal, at most one segment more.
        assert count >= total * 0.5
        assert count <= total * 0.5 + max(s.record_count for _r, s in picked)

    def test_select_validation(self):
        partition = loaded_partition()
        with pytest.raises(ValueError):
            select_upper_segments(partition, 0.0)
        with pytest.raises(ValueError):
            select_upper_segments(partition, 1.5)

    def test_select_full_fraction_takes_everything(self):
        partition = loaded_partition()
        picked = select_upper_segments(partition, 1.0)
        assert sum(s.record_count for _r, s in picked) == partition.record_count

    def test_split_key_at_fraction(self):
        partition = loaded_partition(rows=200)
        key = split_key_at_fraction(partition, 0.5)
        assert key is not None
        assert 80 <= key <= 120  # ~the median of 0..199

    def test_split_key_empty_partition(self):
        partition = loaded_partition(rows=200)
        # Fabricate emptiness via a fresh partition object.
        empty = loaded_partition(rows=1)
        # Single-record partition: fraction 1.0 -> lowest key.
        assert split_key_at_fraction(empty, 1.0) == 0

    def test_segment_chunks_cover_selection_contiguously(self):
        partition = loaded_partition()
        chunks = segment_chunks(partition, 0.5, 2)
        assert 1 <= len(chunks) <= 2
        flat = [s.segment_id for chunk in chunks for _r, s in chunk]
        assert len(set(flat)) == len(flat)
        # Chunk boundaries are contiguous in key order.
        all_selected = [s.segment_id for _r, s in
                        select_upper_segments(partition, 0.5)]
        assert flat == all_selected

    def test_segment_chunks_more_targets_than_segments(self):
        partition = loaded_partition(rows=20)
        chunks = segment_chunks(partition, 1.0, 10)
        assert all(chunk for chunk in chunks)
