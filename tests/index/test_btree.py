"""Unit and property tests for the B+-tree."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index import BPlusTree


def test_order_validation():
    with pytest.raises(ValueError):
        BPlusTree(order=3)


def test_empty_tree():
    tree = BPlusTree()
    assert len(tree) == 0
    assert tree.get(1) is None
    assert list(tree.items()) == []
    with pytest.raises(KeyError):
        tree.max_key()


def test_insert_and_get():
    tree = BPlusTree(order=4)
    for i in range(100):
        tree.insert(i, i * 2)
    assert len(tree) == 100
    for i in range(100):
        assert tree.get(i) == i * 2
    assert tree.get(1000) is None


def test_insert_overwrites():
    tree = BPlusTree()
    tree.insert("k", 1)
    tree.insert("k", 2)
    assert len(tree) == 1
    assert tree.get("k") == 2


def test_reverse_insertion_order():
    tree = BPlusTree(order=4)
    for i in reversed(range(200)):
        tree.insert(i, i)
    assert [k for k, _v in tree.items()] == list(range(200))


def test_delete():
    tree = BPlusTree(order=4)
    for i in range(50):
        tree.insert(i, i)
    assert tree.delete(25)
    assert not tree.delete(25)
    assert len(tree) == 49
    assert tree.get(25) is None
    assert [k for k, _v in tree.items()] == [i for i in range(50) if i != 25]


def test_range_scan_half_open():
    tree = BPlusTree(order=4)
    for i in range(0, 100, 2):
        tree.insert(i, i)
    assert [k for k, _v in tree.items(lo=10, hi=20)] == [10, 12, 14, 16, 18]


def test_range_scan_inclusive():
    tree = BPlusTree(order=4)
    for i in range(10):
        tree.insert(i, i)
    assert [k for k, _v in tree.items(lo=3, hi=6, hi_inclusive=True)] == [3, 4, 5, 6]


def test_range_scan_unbounded_sides():
    tree = BPlusTree(order=4)
    for i in range(10):
        tree.insert(i, i)
    assert [k for k, _v in tree.items(hi=3)] == [0, 1, 2]
    assert [k for k, _v in tree.items(lo=7)] == [7, 8, 9]


def test_range_scan_lo_between_keys():
    tree = BPlusTree(order=4)
    for i in (10, 20, 30):
        tree.insert(i, i)
    assert [k for k, _v in tree.items(lo=15)] == [20, 30]


def test_min_max_keys():
    tree = BPlusTree(order=4)
    for i in (5, 1, 9, 3):
        tree.insert(i, i)
    assert tree.max_key() == 9


@pytest.mark.parametrize("emptied", ["last", "first", "both"])
def test_min_max_keys_skip_leaves_emptied_by_lazy_delete(emptied):
    """delete() never merges leaves, so the outermost leaves can sit
    empty under a non-empty tree (vacuum of a segment's tail does
    exactly this); max_key must agree with the scan."""
    tree = BPlusTree(order=4)
    for i in range(40):
        tree.insert(i, i)
    if emptied in ("last", "both"):
        for i in range(25, 40):      # several whole rightmost leaves
            tree.delete(i)
    if emptied in ("first", "both"):
        for i in range(0, 11):
            tree.delete(i)
    keys = [k for k, _v in tree.items()]
    assert keys and len(keys) == len(tree)
    assert tree.max_key() == keys[-1]


def test_min_max_keys_raise_keyerror_once_every_key_is_deleted():
    tree = BPlusTree(order=4)
    for i in range(20):
        tree.insert(i, i)
    for i in range(20):
        tree.delete(i)
    with pytest.raises(KeyError):
        tree.max_key()


def test_tuple_keys():
    """Composite primary keys (warehouse_id, district_id) must work."""
    tree = BPlusTree(order=4)
    for w in range(3):
        for d in range(3):
            tree.insert((w, d), w * 10 + d)
    assert tree.get((1, 2)) == 12
    scanned = [k for k, _v in tree.items(lo=(1, 0), hi=(2, 0))]
    assert scanned == [(1, 0), (1, 1), (1, 2)]


def test_string_keys():
    tree = BPlusTree(order=4)
    words = ["pear", "apple", "fig", "banana", "cherry"]
    for w in words:
        tree.insert(w, len(w))
    assert [k for k, _v in tree.items()] == sorted(words)


@settings(max_examples=50)
@given(st.lists(st.integers(min_value=-10**6, max_value=10**6)))
def test_property_matches_dict_semantics(keys):
    tree = BPlusTree(order=4)
    model = {}
    for k in keys:
        tree.insert(k, k * 3)
        model[k] = k * 3
    assert len(tree) == len(model)
    assert list(tree.items()) == sorted(model.items())
    for k in keys:
        assert tree.get(k) == model[k]


@settings(max_examples=50)
@given(
    st.lists(st.integers(min_value=0, max_value=500), min_size=1),
    st.lists(st.integers(min_value=0, max_value=500)),
)
def test_property_delete_matches_model(inserts, deletes):
    tree = BPlusTree(order=4)
    model = {}
    for k in inserts:
        tree.insert(k, k)
        model[k] = k
    for k in deletes:
        assert tree.delete(k) == (k in model)
        model.pop(k, None)
    assert list(tree.items()) == sorted(model.items())


@settings(max_examples=30)
@given(
    st.lists(st.integers(min_value=0, max_value=1000), min_size=1, unique=True),
    st.integers(min_value=0, max_value=1000),
    st.integers(min_value=0, max_value=1000),
)
def test_property_range_scan_matches_filter(keys, a, b):
    lo, hi = min(a, b), max(a, b)
    tree = BPlusTree(order=4)
    for k in keys:
        tree.insert(k, k)
    expected = sorted(k for k in keys if lo <= k < hi)
    assert [k for k, _v in tree.items(lo=lo, hi=hi)] == expected


def test_build_refuses_a_non_empty_tree_or_unsorted_keys():
    tree = BPlusTree(order=4)
    with pytest.raises(ValueError):
        tree.build([1, 3, 2], ["a", "b", "c"])
    with pytest.raises(ValueError):
        tree.build([1, 1], ["a", "b"])
    tree.insert(0, "z")
    with pytest.raises(ValueError):
        tree.build([1, 2], ["a", "b"])


def same_answers(built, inserted, probes):
    assert len(built) == len(inserted)
    assert built.key_inserts == inserted.key_inserts
    assert list(built.items()) == list(inserted.items())
    if len(inserted):
        assert built.max_key() == inserted.max_key()
    else:
        with pytest.raises(KeyError):
            built.max_key()
    for key in probes:
        assert built.get(key) == inserted.get(key)
    for lo, hi in zip(probes, probes[1:]):
        for inclusive in (False, True):
            assert (list(built.items(lo, hi, inclusive))
                    == list(inserted.items(lo, hi, inclusive)))
        assert list(built.items(lo)) == list(inserted.items(lo))
        assert list(built.items(hi=hi)) == list(inserted.items(hi=hi))


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=4, max_value=7),
    st.integers(min_value=0, max_value=300),
    st.lists(st.tuples(st.sampled_from(["insert", "delete", "delete-tail"]),
                       st.integers(min_value=-20, max_value=340)),
             max_size=120),
)
def test_property_bottom_up_build_answers_as_inserts_do(order, n, tail):
    """A tree built bottom-up from n sorted items and one built by n
    inserts answer alike — scans, point and range lookups, size,
    ``key_inserts``, ``max_key`` — and go on answering alike through a
    drawn tail of inserts and lazy deletes, including deletes of the
    highest keys that empty the rightmost leaves."""
    keys = list(range(0, 2 * n, 2))
    built, inserted = BPlusTree(order=order), BPlusTree(order=order)
    built.build(keys, [k * 3 for k in keys])
    for key in keys:
        inserted.insert(key, key * 3)
    probes = [-21, -1, 0, 1, n, n + 1, 2 * n - 2, 2 * n, 2 * n + 5]
    same_answers(built, inserted, probes)
    for op, key in tail:
        if op == "insert":
            built.insert(key, -key)
            inserted.insert(key, -key)
        elif op == "delete":
            assert built.delete(key) == inserted.delete(key)
        elif len(inserted):
            top = inserted.max_key()
            assert built.delete(top) and inserted.delete(top)
    same_answers(built, inserted, probes + [key for _op, key in tail])
