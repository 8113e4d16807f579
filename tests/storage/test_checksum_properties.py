"""Property tests for the checksum layer: round-trip for arbitrary
payloads, detection of arbitrary byte flips, and the torn-tail
discipline (a torn prefix never replays as committed)."""

import dataclasses
import zlib

import hypothesis.strategies as st
from hypothesis import assume, given, settings
import pytest

from repro.hardware import Disk, SSD_SPEC
from repro.sim import Environment
from repro.storage.checksum import (
    IntegrityError,
    canonical_bytes,
    checksum_bytes,
    checksum_of,
    verify,
)
from repro.storage.record import RecordVersion, Schema, Column
from repro.txn.recovery import integrity_scan
from repro.txn.wal import LogManager

# Values that survive repr-canonicalisation bit-exactly: what rows and
# WAL payloads are actually made of.
scalars = st.one_of(
    st.integers(min_value=-2**40, max_value=2**40),
    st.text(max_size=24),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
)
payloads = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.tuples(inner, inner),
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=6), inner, max_size=3),
    ),
    max_leaves=12,
)


@given(payloads)
@settings(max_examples=200, deadline=None)
def test_checksum_round_trip(payload):
    verify(payload, checksum_of(payload), where="prop")  # does not raise


@given(payloads, payloads)
@settings(max_examples=200, deadline=None)
def test_distinct_payloads_rarely_collide_and_always_differ_in_bytes(a, b):
    if canonical_bytes(a) == canonical_bytes(b):
        assert checksum_of(a) == checksum_of(b)
    # (CRC32 collisions across distinct bytes are possible but the
    # canonical-bytes equality above is the identity that matters.)


@given(payloads, st.integers(min_value=0, max_value=10**9),
       st.integers(min_value=0, max_value=7))
@settings(max_examples=200, deadline=None)
def test_any_byte_flip_is_detected(payload, pos, bit):
    """CRC32 detects every single-byte corruption of the canonical
    serialisation (burst errors <= 32 bits are guaranteed caught)."""
    data = canonical_bytes(payload)
    index = pos % len(data)
    flipped = (data[:index]
               + bytes([data[index] ^ (1 << bit)])
               + data[index + 1:])
    assert flipped != data
    assert checksum_bytes(flipped) != zlib.crc32(data)


@given(st.lists(st.tuples(st.integers(0, 10**6), st.text(max_size=16)),
                min_size=1, max_size=8))
@settings(max_examples=100, deadline=None)
def test_record_version_round_trip_and_garble_detection(rows):
    schema = Schema([Column("id"), Column("v", "str", width=32)],
                    key=("id",))
    for key, text in rows:
        version = RecordVersion.make(schema, (key, text), created_by=1)
        assert version.clean  # born verified: hashed from the bytes in hand
        assert version.checksum == checksum_of((key, (key, text)))
        known = RecordVersion.make(schema, (key, text), created_by=2,
                                   checksum=version.checksum)
        assert known.clean and known.checksum == version.checksum
        version.verify(where="prop")
        version.clean = False
        version.verify(where="prop")  # idempotent
        version.values = (key, text + "!")
        version.clean = False
        with pytest.raises(IntegrityError):
            version.verify(where="prop")


def _log(env):
    return LogManager(env, Disk(env, SSD_SPEC), name="prop")


@given(st.sampled_from(["insert", "update"]), payloads, payloads)
@settings(max_examples=100, deadline=None)
def test_replaced_log_record_is_unverified_and_fails_after_payload_change(
        kind, values, other):
    """``append`` leaves a record verified; ``dataclasses.replace`` —
    how a fault rots a record — yields an unverified copy, which fails
    as soon as its row bytes differ (the header chains the row CRC and
    ``verify`` recomputes it from the payload)."""
    log = _log(Environment(seed=1))
    log.append(3, kind, ("t", 7, values))
    record = log.records[0]
    assert record.verified
    assert record.row_crc == checksum_of((7, values))
    same = dataclasses.replace(record)
    assert not same.verified
    same.verify(where="prop")
    assert same.verified
    if canonical_bytes(other) == canonical_bytes(values):
        return
    rotten = dataclasses.replace(record, payload=("t", 7, other))
    assert not rotten.verified
    with pytest.raises(IntegrityError):
        rotten.verify(where="prop")
    assert not rotten.verified


@given(st.sampled_from(["insert", "update"]), payloads,
       st.one_of(payloads,
                 st.tuples(st.text(max_size=3), scalars, payloads),
                 st.tuples(st.just("§rot"), payloads)))
@settings(max_examples=200, deadline=None)
def test_any_payload_substituted_into_a_row_record_raises_integrity_error(
        kind, values, substitute):
    """Whatever shape replaces a row record's payload — another row, a
    scalar, the injector's two-field rot wrapper — ``verify`` raises
    ``IntegrityError`` and nothing else."""
    log = _log(Environment(seed=1))
    log.append(3, kind, ("t", 7, values))
    record = log.records[0]
    assume(canonical_bytes(substitute) != canonical_bytes(record.payload))
    rotten = dataclasses.replace(record, payload=substitute)
    with pytest.raises(IntegrityError):
        rotten.verify(where="prop")


@given(st.lists(payloads, min_size=1, max_size=6),
       st.integers(min_value=0, max_value=5))
@settings(max_examples=60, deadline=None)
def test_torn_prefix_never_replays_as_committed(tails, torn_after):
    """Garbling any suffix of the log (the torn flush) makes
    integrity_scan discard exactly that suffix; the transactions whose
    commits fell in it never come back committed."""
    env = Environment(seed=1)
    log = _log(env)
    for txn_id, payload in enumerate(tails, start=1):
        log.append(txn_id, "update", ("t", txn_id, payload))
        log.append(txn_id, "commit")
    torn_from = min(torn_after, log.live_records - 1) + 0
    keep = log.live_records - torn_from if torn_from else log.live_records
    # Garble every record from index ``keep`` on — a torn multi-record
    # flush.
    for index in range(keep, log.live_records):
        record = log.records[index]
        log.records[index] = dataclasses.replace(
            record, payload=("§torn", record.payload)
        )
    records, discarded = integrity_scan(log, 0)
    assert discarded == log.live_records - keep
    assert len(records) == keep
    for record in records:
        record.verify(where="prop")
    # Commits inside the torn suffix are gone; only fully-durable
    # transactions can be treated as committed.
    surviving_commits = {r.txn_id for r in records if r.kind == "commit"}
    torn_commits = {
        r.txn_id for r in
        [log.records[i] for i in range(keep, log.live_records)]
    }
    assert not (surviving_commits
                & {t for t in torn_commits
                   if t not in surviving_commits})


@given(st.lists(payloads, min_size=2, max_size=5))
@settings(max_examples=60, deadline=None)
def test_mid_log_garble_raises(tails):
    env = Environment(seed=1)
    log = _log(env)
    for txn_id, payload in enumerate(tails, start=1):
        log.append(txn_id, "update", ("t", txn_id, payload))
        log.append(txn_id, "commit")
    record = log.records[0]
    log.records[0] = dataclasses.replace(record,
                                         payload=("§rot", record.payload))
    with pytest.raises(IntegrityError):
        integrity_scan(log, 0)


@given(st.lists(payloads, min_size=1, max_size=5),
       st.integers(min_value=1, max_value=3))
@settings(max_examples=60, deadline=None)
def test_discard_tail_then_append_stays_verifiable(tails, extra):
    env = Environment(seed=1)
    log = _log(env)
    for txn_id, payload in enumerate(tails, start=1):
        log.append(txn_id, "update", ("t", txn_id, payload))
        log.append(txn_id, "commit")
    record = log.records[-1]
    log.records[log.live_records - 1] = dataclasses.replace(
        record, payload=("§torn", record.payload)
    )
    _records, discarded = integrity_scan(log, 0)
    assert discarded == 1
    log.discard_tail(discarded)
    for txn_id in range(1000, 1000 + extra):
        log.append(txn_id, "update", ("t", txn_id, "post"))
        log.append(txn_id, "commit")
    records, discarded2 = integrity_scan(log, 0)
    assert discarded2 == 0
    lsns = [r.lsn for r in records]
    assert lsns == sorted(lsns)
