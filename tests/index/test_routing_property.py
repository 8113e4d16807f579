"""Model-based tests: the global partition table and partition tree
against dict/interval reference models under random operation streams,
and the lookups that must not grow with the cluster."""

import random

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index import (
    GlobalPartitionTable,
    KeyRange,
    PartitionLocation,
    PartitionTree,
)
from repro.index.partition_tree import Forwarding
from repro.moves import ABORTED, DONE, MoveJournal, SegmentMoveEntry


@settings(max_examples=40, deadline=None)
@given(
    boundaries=st.lists(
        st.integers(min_value=1, max_value=999),
        min_size=1, max_size=8, unique=True,
    ),
    probes=st.lists(st.integers(min_value=0, max_value=1000), max_size=30),
)
def test_property_gpt_partitions_cover_exactly(boundaries, probes):
    """Ranges built from sorted boundaries tile the key space; every
    probe maps to exactly the partition whose interval contains it."""
    bounds = sorted(boundaries)
    gpt = GlobalPartitionTable()
    edges = [None] + bounds + [None]
    for i in range(len(edges) - 1):
        gpt.register(
            "t", KeyRange(edges[i], edges[i + 1]),
            PartitionLocation(partition_id=i + 1, node_id=i % 3),
        )
    for key in probes:
        location = gpt.locate("t", key)
        index = sum(1 for b in bounds if b <= key)
        assert location.partition_id == index + 1
        hits = gpt.locate_range("t", KeyRange(key, key + 1))
        assert [l.partition_id for l in hits] == [index + 1]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_moves=st.integers(min_value=1, max_value=10),
)
def test_property_gpt_moves_keep_cover_invariant(seed, n_moves):
    """Random splits/moves never leave a key uncovered or doubly owned."""
    rng = random.Random(seed)
    gpt = GlobalPartitionTable()
    gpt.register("t", KeyRange(None, None), PartitionLocation(1, node_id=0))
    next_pid = 2
    for _ in range(n_moves):
        ranges = gpt.partitions("t")
        key_range, location = rng.choice(ranges)
        action = rng.random()
        if action < 0.5 and not location.is_moving:
            low = key_range.low if key_range.low is not None else 0
            high = key_range.high if key_range.high is not None else 1000
            if high - low > 1:
                split = rng.randrange(low + 1, high)
                gpt.split("t", location.partition_id, split, next_pid,
                          rng.randrange(4))
                next_pid += 1
        elif not location.is_moving:
            gpt.begin_move("t", location.partition_id, rng.randrange(4))
        else:
            if rng.random() < 0.5:
                gpt.finish_move("t", location.partition_id)
            else:
                gpt.abort_move("t", location.partition_id)
    # Invariants: total cover, no overlap, candidate sets non-empty.
    for key in range(0, 1000, 37):
        location = gpt.locate("t", key)
        assert location.candidate_nodes
    entries = gpt.partitions("t")
    for i, (r1, _l1) in enumerate(entries):
        for r2, _l2 in entries[i + 1:]:
            assert not r1.overlaps(r2)


def _linear_find(model, key):
    """Reference top index: the first range in the model holding ``key``."""
    for low, high, target in model.values():
        if (low is None or low <= key) and (high is None or key < high):
            return target
    return None


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_segments=st.integers(min_value=1, max_value=10),
)
def test_property_partition_tree_find_matches_model(seed, n_segments):
    """``find`` agrees with a linear scan over ranges unbounded below
    and above, with gaps between them, under detach, ``forward``,
    ``retire_forwarding`` and a detach followed by re-attach with a
    narrowed range (the tail path of ``split_full_segment``); an
    attach is refused exactly when it overlaps, and the entries keep
    their attach order."""
    rng = random.Random(seed)
    tree = PartitionTree(partition_id=1)
    edges = sorted(rng.sample(range(1, 1000), n_segments + 1))
    if rng.random() < 0.5:
        edges[0] = None
    if rng.random() < 0.5:
        edges[-1] = None
    model = {}
    order = list(range(n_segments))
    rng.shuffle(order)
    for i in order:
        low, high = edges[i], edges[i + 1]
        if high is not None and rng.random() < 0.3:
            # Leave a gap below the next range.
            high = rng.randint((low or 0) + 1, high)
        tree.attach(i + 1, KeyRange(low, high), f"seg-{i + 1}")
        model[i + 1] = (low, high, f"seg-{i + 1}")
    next_id = n_segments + 1
    probes = list(range(-20, 1021, 7))

    def check():
        keys = probes + [b + d for low, high, _t in model.values()
                         for b in (low, high) if b is not None
                         for d in (-1, 0, 1)]
        for key in keys:
            assert tree.find(key) == _linear_find(model, key), key
        assert [sid for sid, _r, _t in tree.entries()] == list(model)

    check()
    for _ in range(20):
        if not model:
            break
        sid = rng.choice(list(model))
        low, high, target = model[sid]
        action = rng.random()
        if isinstance(target, Forwarding):
            tree.retire_forwarding(sid)
            del model[sid]
        elif action < 0.15:
            tree.detach(sid)
            del model[sid]
        elif action < 0.4:
            # Attach a fresh range, or re-attach ``sid`` over a new one
            # in place: refused iff it overlaps another segment's range,
            # and a refusal leaves the tree as it was.
            attach_id = next_id if action < 0.3 else sid
            low = rng.choice([None, rng.randrange(0, 1000)])
            high = rng.choice([None, rng.randrange(1000, 1100),
                               (low or 0) + rng.randint(1, 40)])
            key_range = KeyRange(low, high)
            clash = any(KeyRange(lo, hi).overlaps(key_range)
                        for other, (lo, hi, _t) in model.items()
                        if other != attach_id)
            try:
                tree.attach(attach_id, key_range, f"seg-{attach_id}")
            except ValueError:
                assert clash
            else:
                assert not clash
                model[attach_id] = (low, high, f"seg-{attach_id}")
                next_id += attach_id == next_id
        elif action < 0.5:
            node = rng.randrange(4)
            tree.forward(sid, node)
            model[sid] = (low, high, Forwarding(sid, node))
        else:
            lo = -50 if low is None else low
            hi = 1100 if high is None else high
            if hi - lo < 2:
                continue
            split = rng.randrange(lo + 1, hi)
            tree.detach(sid)
            del model[sid]
            tree.attach(sid, KeyRange(low, split), target)
            model[sid] = (low, split, target)
            if rng.random() < 0.5:
                tree.attach(next_id, KeyRange(split, high), f"seg-{next_id}")
                model[next_id] = (split, high, f"seg-{next_id}")
                next_id += 1
        check()


def _scan_find(model, key):
    """Reference lookup: the first entry whose range holds ``key`` — the
    linear ``contains`` scan the range map replaced."""
    for key_range, value in model.values():
        if key_range.contains(key):
            return value
    return None


def _scan_ordered(model):
    """Reference view: every entry re-sorted by low key, unbounded below
    first — the sort every ``register`` used to make."""
    entries = list(model.values())
    entries.sort(key=lambda e: (e[0].low is not None, e[0].low))
    return entries


def _random_range(rng):
    low = rng.choice([None, rng.randrange(0, 1000)])
    high = rng.choice([None, (low or 0) + rng.randint(1, 60)])
    return KeyRange(low, high)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_property_range_map_matches_linear_reference(seed):
    """The master's table and a partition's top index against linear
    references under random streams: register / unregister / split /
    unsplit / begin-finish-abort move on the GPT, and attach / detach /
    forward / retire on the tree.  ``find`` / ``locate``,
    ``locate_range`` / ``find_range``, the sorted view, the insertion
    order and the overlap ``ValueError`` all agree with the scans."""
    rng = random.Random(seed)
    gpt, tree = GlobalPartitionTable(), PartitionTree(partition_id=1)
    gpt_model, tree_model = {}, {}  # id -> (range, value), put order
    next_id = 1
    probes = [rng.randrange(-10, 1100) for _ in range(12)]

    def check():
        bounds = [b for key_range, _v in [*gpt_model.values(),
                                          *tree_model.values()]
                  for b in (key_range.low, key_range.high) if b is not None]
        for key in probes + [b + d for b in bounds for d in (-1, 0)]:
            assert tree.find(key) == _scan_find(tree_model, key)
            expected = _scan_find(gpt_model, key)
            if expected is None:
                with pytest.raises(KeyError):
                    gpt.locate("t", key)
            else:
                assert gpt.locate("t", key) is expected
        window = _random_range(rng)
        assert gpt.locate_range("t", window) == [
            loc for r, loc in _scan_ordered(gpt_model) if r.overlaps(window)]
        assert tree.find_range(window) == [
            v for r, v in tree_model.values() if r.overlaps(window)]
        assert gpt.partitions("t") == _scan_ordered(gpt_model)
        assert tree.ordered() == _scan_ordered(tree_model)
        assert [(i, r, v) for i, r, v in tree.entries()] == [
            (i, r, v) for i, (r, v) in tree_model.items()]
        ordered = _scan_ordered(tree_model)
        assert tree.covered_range() == (
            KeyRange(ordered[0][0].low, ordered[-1][0].high)
            if ordered else None)

    gpt.register("t", KeyRange(None, None), PartitionLocation(next_id, 0))
    gpt_model[next_id] = gpt.partitions("t")[0]
    next_id += 1
    check()
    for _ in range(40):
        action = rng.random()
        if action < 0.5:
            # --- the master's table ---
            pid = rng.choice(list(gpt_model)) if gpt_model else None
            key_range, location = gpt_model.get(pid, (None, None))
            if action < 0.12 or pid is None:
                key_range = _random_range(rng)
                clash = any(r.overlaps(key_range)
                            for r, _l in gpt_model.values())
                location = PartitionLocation(next_id, rng.randrange(4))
                try:
                    gpt.register("t", key_range, location)
                except ValueError:
                    assert clash
                else:
                    assert not clash
                    gpt_model[next_id] = (key_range, location)
                    next_id += 1
                with pytest.raises(ValueError):
                    gpt.register("t", key_range, location)  # same id
            elif action < 0.17:
                gpt.unregister("t", pid)
                del gpt_model[pid]
            elif action < 0.3:
                lo = -50 if key_range.low is None else key_range.low
                hi = 1100 if key_range.high is None else key_range.high
                if hi - lo < 2 or location.is_moving:
                    continue
                low_range, high_range = key_range.split_at(
                    rng.randrange(lo + 1, hi))
                gpt.split("t", pid, high_range.low, next_id, 3)
                gpt_model[pid] = (low_range, location)
                gpt_model[next_id] = (high_range, gpt.locate(
                    "t", high_range.low))
                next_id += 1
            elif action < 0.38:
                pairs = [(a, b) for a, (ra, _la) in gpt_model.items()
                         for b, (rb, _lb) in gpt_model.items()
                         if a != b and ra.high is not None
                         and ra.high == rb.low]
                if not pairs:
                    continue
                lower, upper = rng.choice(pairs)
                merged = KeyRange(gpt_model[lower][0].low,
                                  gpt_model[upper][0].high)
                keeper, absorbed = rng.sample([lower, upper], 2)
                epoch = gpt.epoch_of("t", keeper)
                gpt.unsplit("t", keeper, absorbed)
                assert gpt.epoch_of("t", keeper) == epoch + 1
                del gpt_model[absorbed]
                gpt_model[keeper] = (merged, gpt_model[keeper][1])
            elif not location.is_moving:
                gpt.begin_move("t", pid, rng.randrange(4))
                assert gpt.locate_range("t", key_range) == [location]
            elif rng.random() < 0.5:
                gpt.finish_move("t", pid)
            else:
                gpt.abort_move("t", pid)
        else:
            # --- a partition's top index ---
            sid = rng.choice(list(tree_model)) if tree_model else None
            key_range, target = tree_model.get(sid, (None, None))
            if action < 0.7 or sid is None:
                attach_id = next_id if sid is None or action < 0.62 else sid
                key_range = _random_range(rng)
                clash = any(r.overlaps(key_range)
                            for other, (r, _v) in tree_model.items()
                            if other != attach_id)
                try:
                    tree.attach(attach_id, key_range, f"seg-{attach_id}")
                except ValueError:
                    assert clash
                else:
                    assert not clash
                    tree_model[attach_id] = (key_range, f"seg-{attach_id}")
                    next_id += attach_id == next_id
            elif isinstance(target, Forwarding):
                tree.retire_forwarding(sid)
                del tree_model[sid]
            elif action < 0.8:
                tree.detach(sid)
                del tree_model[sid]
            else:
                node = rng.randrange(4)
                tree.forward(sid, node)
                tree_model[sid] = (key_range, Forwarding(sid, node))
        check()


@pytest.mark.parametrize("partitions", [10, 1_000])
def test_locate_makes_at_most_two_contains_calls(partitions, monkeypatch):
    """A bare table's ``locate`` costs the same at 10 and at 1 000
    partitions: no scan of ``KeyRange.contains`` over its ranges."""
    gpt = GlobalPartitionTable()
    edges = [None, *range(10, 10 * partitions, 10), None]
    for pid in range(partitions):
        gpt.register("t", KeyRange(edges[pid], edges[pid + 1]),
                     PartitionLocation(pid, node_id=pid % 4))
    calls = []
    contains = KeyRange.contains
    monkeypatch.setattr(KeyRange, "contains",
                        lambda self, key: calls.append(key) or contains(self, key))
    keys = random.Random(partitions).choices(range(-5, 10 * partitions + 5),
                                             k=500)
    for key in keys:
        assert gpt.locate("t", key).partition_id == max(0, min(
            key // 10, partitions - 1))
    assert len(calls) <= 2 * len(keys)


def test_journal_holds_only_its_open_segment_moves():
    """After N closed moves the journal holds exactly its open ones, and
    ``stats()`` still counts every move it ever opened."""
    journal = MoveJournal()
    entries = [journal.open_segment_move(sid, 1, 2, 4096, 1024)
               for sid in range(200)]
    for entry in entries[:-3]:
        journal.advance(entry, DONE if entry.segment_id % 2 else ABORTED)
    held = [value for attr in vars(journal).values() if isinstance(attr, dict)
            for value in attr.values() if isinstance(value, SegmentMoveEntry)]
    assert held == journal.open_segment_moves() == entries[-3:]
    assert journal.resumable_segment_move(0, 1, 2) is None
    assert journal.resumable_segment_move(199, 1, 2) is entries[-1]
    summary = journal.stats()
    assert (summary["moves_total"], summary["open_moves"]) == (200, 3)
    assert summary["first_try_moves"] + summary["rolled_back_moves"] == 197
