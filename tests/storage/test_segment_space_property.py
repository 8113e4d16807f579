"""A segment's dead set and room bounds against the linear scans they
replaced.

Random streams of transactional inserts, updates and deletes — committed,
aborted, or crash-aborted after the commit stamped them — interleaved
with chunked vacuums at random horizons and both ``split_full_segment``
paths run on small pages.  Every placement must pick the page and slot
the cursor-then-first-fit scan picks, every vacuum must reclaim what the
full physical scan reclaims in the same order, and after every step the
dead set, each version's recorded slot and the room bounds must agree
with the pages.
"""

import math
import random
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import catalog as catalog_module
from repro.cluster.catalog import Catalog, successor
from repro.sim import Environment
from repro.storage import Column, RecordVersion, Schema, Segment
from repro.storage.page import SLOT_BYTES, Page
from repro.storage.segment import SegmentFullError
from repro.txn import TransactionManager, mvcc
from repro.txn.manager import TransactionAborted

KV = Schema([Column("id"), Column("v", "str", width=60)], key=("id",))


def true_room(page):
    """What ``Page.fits`` admits, from the page's bytes and slots."""
    extra_slot = 0 if page._free_slots else SLOT_BYTES
    return page.capacity_bytes - page.used_bytes - extra_slot


def reference_placement(segment, version):
    """The linear placement: the fill cursor's page, else the first
    page from page 0 with room, else a new page; and the slot that
    page hands out next."""
    pages = segment.pages
    fits = [version.size_bytes <= true_room(page) for page in pages]
    if pages and fits[segment._fill_cursor]:
        page_no = segment._fill_cursor
    else:
        page_no = fits.index(True) if True in fits else len(pages)
    if page_no == len(pages):
        return page_no, 0
    page = pages[page_no]
    return page_no, (page._free_slots[-1] if page._free_slots
                     else len(page._slots))


def reference_vacuum(segment, horizon, limit):
    """The full-scan vacuum: reclaimable versions in physical order."""
    reclaim = []
    for page_no, slot, version in segment.scan_versions():
        if version.deleted_ts is not None and version.deleted_ts < horizon:
            reclaim.append((page_no, slot))
            if limit is not None and len(reclaim) >= limit:
                return reclaim, False
    return reclaim, True


class CheckedSegment(Segment):
    """A segment whose every placement is compared with the reference."""

    def insert_version(self, version, allow_overflow=False):
        expected = reference_placement(self, version)
        refused = (expected[0] == len(self.pages) >= self.max_pages
                   and not allow_overflow)
        try:
            location = super().insert_version(version, allow_overflow)
        except SegmentFullError:
            assert refused
            raise
        assert not refused
        assert location == expected
        assert self._fill_cursor == expected[0]
        return location


def check_segment(segment):
    stored = list(segment.scan_versions())
    assert segment.dead == {
        (page_no, slot): version for page_no, slot, version in stored
        if version.deleted_ts is not None
    }
    for page_no, slot, version in stored:
        assert (version.page_no, version.slot) == (page_no, slot)
        assert version.home is segment
    bounds, leaves = segment._bounds, segment._leaves
    assert len(segment.pages) <= leaves
    for page_no, page in enumerate(segment.pages):
        assert bounds[leaves + page_no] >= true_room(page)
    for node in range(1, leaves):
        assert bounds[node] == max(bounds[2 * node], bounds[2 * node + 1])


def stall(txn, redo):
    """A commit stage that parks the commit after its stamp."""
    yield "stalled"


class Model:
    def __init__(self):
        self.env = Environment()
        self.tm = TransactionManager(self.env)
        self.tm.commit_stages.append(stall)
        catalog = Catalog(segment_max_pages=3, page_bytes=320)
        catalog.define_table("kv", KV)
        self.partition = catalog.new_partition("kv", node_id=0)
        self.open = []

    def segments(self):
        return [self.partition.segments[sid]
                for sid in sorted(self.partition.segments)]

    def write(self, rng, kind, key, width):
        if not self.open:
            self.open.append(self.tm.begin())
        txn = rng.choice(self.open)
        version = RecordVersion.make(KV, (key, "v" * width), txn.txn_id)
        try:
            if kind == "insert":
                self._insert(version, txn)
                return
            segment = self.partition.segment_for(key)
            if segment is None:
                return
            if kind == "update":
                mvcc.update(segment, key, version, txn)
            else:
                mvcc.delete(segment, key, txn)
        except (TransactionAborted, mvcc.NotVisibleError, RuntimeError):
            # RuntimeError: a full segment (SegmentFullError) whose
            # split found no median or left the key's half full.
            self.finish(txn, "abort")

    def _insert(self, version, txn):
        segment = self.partition.ensure_segment_for(version.key)
        try:
            mvcc.insert(segment, version, txn)
        except SegmentFullError:
            self.partition.split_full_segment(segment, version.key)
            mvcc.insert(self.partition.segment_for(version.key), version, txn)

    def finish(self, txn, how):
        self.open.remove(txn)
        if how == "abort":
            self.tm.abort(txn)
        elif how == "commit":
            self.env.run(until=self.env.process(self.tm.commit(txn)))
        else:
            # Stamped, then rolled back while its commit was in flight.
            txn.redo = [(0, None)]
            commit = self.tm.commit(txn)
            assert next(commit) == "stalled"
            self.tm.abort(txn)
            commit.close()

    def vacuum(self, rng, horizon, limit):
        segments = self.segments()
        if not segments:
            return
        segment = rng.choice(segments)
        expected, exhausted = reference_vacuum(segment, horizon, limit)
        gone = [segment.pages[p].get(s) for p, s in expected]
        free_slots = [list(page._free_slots) for page in segment.pages]
        for page_no, slot in expected:
            free_slots[page_no].append(slot)
        assert mvcc.vacuum_chunk(segment, horizon, limit) == (
            len(expected), exhausted)
        assert [list(page._free_slots) for page in segment.pages] \
            == free_slots
        for version in gone:
            assert all(v is not version
                       for _p, _s, v in segment.versions_for(version.key))

    def split(self, rng, tail):
        segments = [s for s in self.segments() if s.record_count]
        if not segments:
            return
        segment = rng.choice(segments)
        keys = [key for key, _chain in segment.index_scan()]
        pending = successor(keys[-1]) if tail else keys[0]
        try:
            self.partition.split_full_segment(segment, pending)
        except RuntimeError:
            assert len(keys) == 1  # a one-key segment has no median


#: (operation, weight) of a random stream.
OPS = (("insert", 25), ("update", 25), ("delete", 10), ("begin", 3),
       ("commit", 20), ("abort", 3), ("crash", 4), ("vacuum", 8),
       ("split", 4))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32),
       n_ops=st.integers(min_value=1, max_value=400))
def test_property_dead_set_and_room_bounds_match_the_linear_scans(seed, n_ops):
    rng = random.Random(seed)
    names = [name for name, _weight in OPS]
    weights = [weight for _name, weight in OPS]
    with mock.patch.object(catalog_module, "Segment", CheckedSegment):
        model = Model()
        for kind in rng.choices(names, weights, k=n_ops):
            if kind in ("insert", "update", "delete"):
                model.write(rng, kind, rng.randrange(24), rng.randrange(61))
            elif kind == "begin":
                model.open.append(model.tm.begin())
            elif kind in ("commit", "abort", "crash"):
                if model.open:
                    model.finish(rng.choice(model.open), kind)
            elif kind == "vacuum":
                # Half the vacuums may reclaim every stamped delete.
                top = model.tm.oracle.current + 1
                horizon = top if rng.random() < 0.5 else rng.randrange(top)
                model.vacuum(rng, horizon, rng.choice([None, 1, 2, 3]))
            else:
                model.split(rng, rng.random() < 0.5)
            for segment in model.segments():
                check_segment(segment)


def test_churn_visits_only_dead_versions_and_probes_few_pages():
    """Updates, deletes and re-inserts over a 64-page segment, vacuumed
    after every round at the true horizon, with a reader parked now and
    then: vacuum visits little more than what it reclaims, and placement
    probes about one page, not a first-fit walk from page 0."""
    rng = random.Random(7)
    env = Environment()
    tm = TransactionManager(env)
    segment = Segment(1, "t", max_pages=64, page_bytes=1024)
    probes = placements = visited = vacuumed = 0
    searching = False
    fits = Page.fits
    find = segment._find_page_with_room

    def counting_fits(page, version):
        nonlocal probes
        probes += searching
        return fits(page, version)

    def counting_find(version, allow_overflow=False):
        nonlocal placements, searching
        placements += 1
        searching = True
        try:
            return find(version, allow_overflow)
        finally:
            searching = False

    segment._find_page_with_room = counting_find

    def commit(txn):
        env.run(until=env.process(tm.commit(txn)))

    def row(key, txn):
        return RecordVersion.make(KV, (key, "v" * rng.randrange(61)),
                                  txn.txn_id)

    boot = tm.begin()
    for key in range(600):
        mvcc.insert(segment, row(key, boot), boot)
    commit(boot)
    live = set(range(600))
    reader = None
    with mock.patch.object(Page, "fits", counting_fits):
        for _round in range(60):
            if reader is None and rng.random() < 0.3:
                reader = tm.begin()
            elif reader is not None and rng.random() < 0.5:
                commit(reader)
                reader = None
            txn = tm.begin()
            for key in rng.sample(range(600), 40):
                if key not in live:
                    mvcc.insert(segment, row(key, txn), txn)
                    live.add(key)
                elif rng.random() < 0.3:
                    mvcc.delete(segment, key, txn)
                    live.discard(key)
                else:
                    mvcc.update(segment, key, row(key, txn), txn)
            commit(txn)
            visited += len(segment.dead)
            vacuumed += mvcc.vacuum(segment, tm.oldest_active_begin_ts())
    assert placements > 1000 and vacuumed > 1000
    assert visited / vacuumed <= 1.5
    assert probes / placements <= math.log2(segment.page_count) + 1
