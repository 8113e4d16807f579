"""WAL row records chain their row's CRC, and every log record keeps
its verdict until its bytes are replaced."""

import dataclasses

import pytest

from repro.hardware import Disk, SSD_SPEC
from repro.sim import Environment
from repro.storage.checksum import IntegrityError, checksum_of
from repro.txn import LogManager
from repro.txn import wal as wal_module


def make_log():
    env = Environment()
    return LogManager(env, Disk(env, SSD_SPEC, name="logdisk"))


@pytest.fixture()
def hashed(monkeypatch):
    """Every object the WAL module hashes, in call order."""
    seen = []

    def recording(obj):
        seen.append(obj)
        return checksum_of(obj)

    monkeypatch.setattr(wal_module, "checksum_of", recording)
    return seen


def test_known_row_crc_is_chained_not_rehashed(hashed):
    log = make_log()
    row = (7, (7, "seven"))
    crc = checksum_of(row)
    log.append(1, "insert", ("kv", *row), row_crc=crc)
    record = log.records[0]
    assert record.row_crc == crc
    assert row not in hashed
    # The stored CRC is what a fresh verify derives from the payload.
    dataclasses.replace(record).verify()


def test_unknown_row_crc_is_computed_once(hashed):
    log = make_log()
    log.append(1, "update", ("kv", 7, (7, "seven")))
    assert hashed.count((7, (7, "seven"))) == 1
    assert log.records[0].row_crc == checksum_of((7, (7, "seven")))


def test_verified_record_returns_without_hashing(hashed):
    log = make_log()
    log.append(1, "insert", ("kv", 7, (7, "seven")))
    log.append(1, "commit")
    hashed.clear()
    log.verify_all(where="test")
    assert hashed == []


def test_other_shapes_cover_the_whole_payload():
    log = make_log()
    log.append(1, "insert")  # no payload
    log.append(1, "delete", ("kv", 7))
    log.append(1, "update", ["kv", 7, (7, "seven")])  # not a tuple
    for record in log.records:
        assert record.row_crc is None
        dataclasses.replace(record).verify()


def test_verify_all_raises_the_first_failure():
    log = make_log()
    for key in range(4):
        log.append(1, "insert", ("kv", key, (key, "v")))
    for index in (1, 3):
        record = log.records[index]
        log.records[index] = dataclasses.replace(
            record, payload=("§rot", record.payload))
    with pytest.raises(IntegrityError) as caught:
        log.verify_all(where="test")
    assert caught.value.detail == log.records[1].lsn
    assert caught.value.where == "test"
