"""Property tests for the checksum layer: round-trip for arbitrary
payloads, detection of arbitrary byte flips, and the torn-tail
discipline (a torn prefix never replays as committed)."""

import dataclasses
import enum
import os
import pathlib
import subprocess
import sys
import zlib

import hypothesis.strategies as st
from hypothesis import assume, given, settings
import pytest

import repro
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

# What rows and WAL payloads are actually made of.
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
        moved = version.copy(created_by=2)
        assert moved.clean and moved.checksum == version.checksum
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


# -- the encoding: marshal format 2 of the normal form ------------------


def test_string_sharing_and_interning_do_not_change_the_bytes():
    """Format 2 writes every string in full: equal rows hash equal
    however their strings are shared or interned (formats 3 and 4
    would emit a back-reference for the repeated object)."""
    shared = "".join(["warehouse", "-", "7"])
    other = "".join(["warehouse", "-", "7"])
    assert shared is not other
    interned = sys.intern("warehouse-7")
    rows = [(shared, shared), (shared, other), (interned, other),
            (interned, interned), ("warehouse-7", "warehouse-7")]
    assert len({canonical_bytes(row) for row in rows}) == 1
    assert len({canonical_bytes((1, row)) for row in rows}) == 1


_HASHSEED_PROBE = (
    "from repro.storage.checksum import canonical_bytes\n"
    "payload = ({'b': {'x', 'y', 'z'}, 'a': [1, 2.5]}, "
    "frozenset({'p', 'q', 'r', 's'}))\n"
    "print(canonical_bytes(payload).hex())\n"
)


def test_set_and_dict_bytes_do_not_depend_on_the_hash_seed():
    src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    outputs = set()
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        outputs.add(subprocess.run(
            [sys.executable, "-c", _HASHSEED_PROBE], env=env,
            capture_output=True, text=True, check=True,
        ).stdout)
    assert len(outputs) == 1


def test_list_equals_tuple_and_dict_order_does_not_matter():
    assert checksum_of([1, "a", [2.0, None]]) == checksum_of(
        (1, "a", (2.0, None)))
    assert checksum_of({"a": 1, "b": (2, 3)}) == checksum_of(
        {"b": [2, 3], "a": 1})


class _Colour(enum.IntEnum):
    RED = 1


class _Tag(str):
    pass


@pytest.mark.parametrize("value, base", [(_Colour.RED, 1),
                                         (_Tag("red"), "red")])
def test_scalar_subclass_round_trips_and_differs_from_its_base(value, base):
    payload = ("t", 7, (value, 2))
    verify(payload, checksum_of(payload), where="prop")
    assert canonical_bytes(payload) != canonical_bytes(("t", 7, (base, 2)))
    assert canonical_bytes(value) != canonical_bytes(base)


@given(st.integers(min_value=-2**31, max_value=2**31 - 1))
@settings(max_examples=100, deadline=None)
def test_every_low_bit_int_flip_is_detected(value):
    """The fault injector's ``v ^ 1 << k`` (k < 16) on an int32 field
    always moves the row's CRC."""
    row = (value, "payload", 3.5)
    crc = checksum_of((value, row))
    for k in range(16):
        flipped = value ^ (1 << k)
        assert checksum_of((value, (flipped,) + row[1:])) != crc
        assert checksum_of((flipped, row)) != crc


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_key_of_matches_the_column_walk(data):
    """``Schema.key_of`` returns what a walk of the key columns does: a
    scalar for a one-column key, a tuple for a composite one."""
    width = data.draw(st.integers(min_value=1, max_value=6))
    names = [f"c{i}" for i in range(width)]
    key = data.draw(st.lists(st.sampled_from(names), min_size=1,
                             max_size=width, unique=True))
    schema = Schema([Column(name) for name in names], key=key)
    row = tuple(data.draw(st.lists(st.integers(), min_size=width,
                                   max_size=width)))
    indexes = [names.index(k) for k in key]
    expected = (row[indexes[0]] if len(indexes) == 1
                else tuple(row[i] for i in indexes))
    assert schema.key_of(row) == expected
    assert type(schema.key_of(row)) is type(expected)
