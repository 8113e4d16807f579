"""Tests for schemas and record versions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import Column, RecordVersion, Schema
from repro.storage.record import VERSION_HEADER_BYTES


def order_schema():
    return Schema(
        columns=[
            Column("o_id", "int"),
            Column("o_w_id", "int"),
            Column("o_carrier", "str", width=16),
            Column("o_amount", "float"),
        ],
        key=("o_w_id", "o_id"),
    )


def test_column_validation():
    with pytest.raises(ValueError):
        Column("bad", "blob")
    with pytest.raises(ValueError):
        Column("s", "str", width=0)


def test_schema_validation():
    with pytest.raises(ValueError):
        Schema(columns=[], key=("x",))
    with pytest.raises(ValueError):
        Schema(columns=[Column("a")], key=())
    with pytest.raises(ValueError):
        Schema(columns=[Column("a")], key=("b",))
    with pytest.raises(ValueError):
        Schema(columns=[Column("a"), Column("a")], key=("a",))


def test_composite_key_extraction():
    schema = order_schema()
    assert schema.key_of((7, 3, "x", 1.5)) == (3, 7)


def test_single_key_is_scalar():
    schema = Schema(columns=[Column("id"), Column("v")], key=("id",))
    assert schema.key_of((42, 0)) == 42


def test_sizeof_counts_columns():
    schema = order_schema()
    size = schema.sizeof((1, 2, "abcd", 3.0))
    assert size == 8 + 8 + (2 + 4) + 8


def test_sizeof_caps_strings_at_declared_width():
    schema = Schema(columns=[Column("s", "str", width=4)], key=("s",))
    assert schema.sizeof(("abcdefgh",)) == 2 + 4


def test_sizeof_wrong_arity():
    schema = order_schema()
    with pytest.raises(ValueError):
        schema.sizeof((1, 2))


def test_validate_types():
    schema = order_schema()
    schema.validate((1, 2, "ok", 3.5))
    with pytest.raises(TypeError):
        schema.validate(("1", 2, "ok", 3.5))
    with pytest.raises(TypeError):
        schema.validate((1, 2, 99, 3.5))
    schema.validate((1, 2, "ok", 3))  # int acceptable as float


def test_record_version_make():
    schema = order_schema()
    version = RecordVersion.make(schema, (5, 1, "x", 9.0), created_by=77)
    assert version.key == (1, 5)
    assert version.created_by == 77
    assert version.created_ts is None
    assert version.deleted_by is None
    assert version.size_bytes == schema.sizeof((5, 1, "x", 9.0)) + VERSION_HEADER_BYTES


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 99), st.text(max_size=40),
       st.floats(allow_nan=False))
def test_moved_copy_equals_make_on_the_same_row(o_id, w_id, text, amount):
    """A record move re-inserts a copy: it matches ``make`` on the same
    row in key, values, size and CRC, is born clean, and is a new
    version owned by its creator."""
    schema = order_schema()
    row = (o_id, w_id, text, amount)
    source = RecordVersion.make(schema, row, created_by=1)
    source.deleted_by = 7
    copy = source.copy(created_by=9)
    made = RecordVersion.make(schema, row, created_by=9)
    assert copy is not source and copy.clean
    assert (copy.key, copy.values, copy.size_bytes, copy.checksum) == \
        (made.key, made.values, made.size_bytes, made.checksum)
    assert (copy.created_by, copy.created_ts, copy.deleted_by,
            copy.deleted_ts, copy.home) == (9, None, None, None, None)


def test_short_and_long_rows_raise_value_error():
    """The arity is checked before the key is taken: a short row
    against a schema keyed on its last column raises the same
    ValueError as a long one, not an IndexError."""
    schema = Schema(columns=[Column("a"), Column("b", "str", width=8),
                             Column("id")], key=("id",))
    with pytest.raises(ValueError, match="row has 2 values"):
        RecordVersion.make(schema, (1, "x"), created_by=1)
    with pytest.raises(ValueError, match="row has 4 values"):
        RecordVersion.make(schema, (1, "x", 2, 3), created_by=1)
