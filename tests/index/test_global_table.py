"""Tests for the master's global partition table (dual pointers)."""

import pytest

from repro.index import GlobalPartitionTable, KeyRange, PartitionLocation


def make_table():
    gpt = GlobalPartitionTable()
    gpt.register("orders", KeyRange(None, 100), PartitionLocation(1, node_id=0))
    gpt.register("orders", KeyRange(100, None), PartitionLocation(2, node_id=1))
    return gpt


def test_locate_by_key():
    gpt = make_table()
    assert gpt.locate("orders", 5).partition_id == 1
    assert gpt.locate("orders", 100).partition_id == 2


def test_locate_unknown_table():
    gpt = make_table()
    with pytest.raises(KeyError):
        gpt.locate("nope", 1)


def test_locate_uncovered_key():
    gpt = GlobalPartitionTable()
    gpt.register("t", KeyRange(0, 10), PartitionLocation(1, node_id=0))
    with pytest.raises(KeyError):
        gpt.locate("t", 10)


def test_overlapping_registration_rejected():
    gpt = make_table()
    with pytest.raises(ValueError):
        gpt.register("orders", KeyRange(50, 150), PartitionLocation(3, node_id=2))


def test_duplicate_partition_id_rejected_within_table():
    gpt = GlobalPartitionTable()
    gpt.register("t", KeyRange(0, 10), PartitionLocation(1, node_id=0))
    with pytest.raises(ValueError):
        gpt.register("t", KeyRange(10, 20), PartitionLocation(1, node_id=0))


def test_locate_range_prunes_partitions():
    gpt = make_table()
    hits = gpt.locate_range("orders", KeyRange(90, 110))
    assert [loc.partition_id for loc in hits] == [1, 2]
    hits = gpt.locate_range("orders", KeyRange(0, 10))
    assert [loc.partition_id for loc in hits] == [1]


def test_dual_pointers_during_move():
    gpt = make_table()
    gpt.begin_move("orders", 1, target_node_id=5)
    location = gpt.locate("orders", 5)
    assert location.is_moving
    assert location.candidate_nodes == [0, 5]
    gpt.finish_move("orders", 1)
    location = gpt.locate("orders", 5)
    assert not location.is_moving
    assert location.candidate_nodes == [5]


def test_abort_move_restores_source():
    gpt = make_table()
    gpt.begin_move("orders", 1, target_node_id=5)
    gpt.abort_move("orders", 1)
    location = gpt.locate("orders", 5)
    assert location.candidate_nodes == [0]


def test_double_move_rejected():
    gpt = make_table()
    gpt.begin_move("orders", 1, target_node_id=5)
    with pytest.raises(RuntimeError):
        gpt.begin_move("orders", 1, target_node_id=6)


def test_finish_without_move_rejected():
    gpt = make_table()
    with pytest.raises(RuntimeError):
        gpt.finish_move("orders", 1)


def test_split_partition():
    gpt = make_table()
    gpt.split("orders", 2, split_key=500, new_partition_id=3, new_node_id=2)
    assert gpt.locate("orders", 200).partition_id == 2
    assert gpt.locate("orders", 500).partition_id == 3
    assert gpt.locate("orders", 500).node_id == 2
    assert gpt.range_of("orders", 2) == KeyRange(100, 500)


def test_unregister():
    gpt = make_table()
    gpt.unregister("orders", 1)
    assert [l.partition_id for _r, l in gpt.partitions("orders")] == [2]
    with pytest.raises(KeyError):
        gpt.unregister("orders", 1)
