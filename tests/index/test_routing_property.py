"""Model-based tests: the global partition table and partition tree
against dict/interval reference models under random operation streams."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index import (
    GlobalPartitionTable,
    KeyRange,
    PartitionLocation,
    PartitionTree,
)
from repro.index.partition_tree import Forwarding


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
