"""Records, schemas, and record versions.

Records are schema-typed tuples.  Under MVCC every logical record is a
chain of :class:`RecordVersion` objects — "modifying a record creates a
new version of it without deleting the old one immediately"
(Sect. 3.5) — and each version occupies real page space, which is how
the MVCC storage overhead of Fig. 3 is measured rather than assumed.
"""

from __future__ import annotations

import dataclasses
import itertools
import operator
import typing

from repro.storage.checksum import checksum_of, verify

_KIND_BASE_WIDTH = {"int": 8, "float": 8, "str": 2, "blob": 4}
_KINDS = set(_KIND_BASE_WIDTH)


@dataclasses.dataclass(frozen=True)
class Column:
    """One column: a name, a kind, and a declared width.

    ``str`` columns account their actual (capped) value length; ``blob``
    columns always account their full declared width regardless of the
    stored placeholder — the scaling device that lets experiments carry
    paper-scale byte volumes without paper-scale Python object counts.
    """

    name: str
    kind: str = "int"
    width: int = 0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown column kind {self.kind!r}")
        if self.kind in ("str", "blob") and self.width <= 0:
            raise ValueError(
                f"{self.kind} column {self.name!r} needs a positive width"
            )

    def sizeof(self, value: typing.Any) -> int:
        if self.kind == "str":
            return _KIND_BASE_WIDTH["str"] + min(len(value), self.width)
        if self.kind == "blob":
            return _KIND_BASE_WIDTH["blob"] + self.width
        return _KIND_BASE_WIDTH[self.kind]


class RowSizer:
    """The compiled sizing plan of rows of ``columns``: a row of empty
    strings has the fixed size, and each str value adds its length
    capped at its column's width — the sum of :meth:`Column.sizeof`
    over a row, without a call per value.  ``sizer(row)`` sizes one
    row, ``sizer.vector(rows)`` a batch column by column."""

    __slots__ = ("fixed_bytes", "_str_indexes", "_str_widths")

    def __init__(self, columns: typing.Sequence[Column]):
        self.fixed_bytes = sum(c.sizeof("") for c in columns)
        self._str_indexes = tuple(
            i for i, c in enumerate(columns) if c.kind == "str")
        self._str_widths = tuple(columns[i].width for i in self._str_indexes)

    def __call__(self, values: typing.Sequence[typing.Any]) -> int:
        return self.fixed_bytes + sum(map(
            min, map(len, map(values.__getitem__, self._str_indexes)),
            self._str_widths,
        ))

    def vector(self, rows: typing.Sequence[typing.Sequence[typing.Any]]) -> int:
        total = self.fixed_bytes * len(rows)
        for index, width in zip(self._str_indexes, self._str_widths):
            total += sum(map(min, map(len, map(operator.itemgetter(index),
                                               rows)),
                             itertools.repeat(width)))
        return total


class Schema:
    """An ordered set of columns with a (possibly composite) primary key."""

    def __init__(self, columns: typing.Sequence[Column],
                 key: typing.Sequence[str]):
        if not columns:
            raise ValueError("schema needs at least one column")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate column names in {names}")
        if not key:
            raise ValueError("schema needs a primary key")
        for k in key:
            if k not in names:
                raise ValueError(f"key column {k!r} is not in the schema")
        self.columns = tuple(columns)
        self.key = tuple(key)
        self._index = {c.name: i for i, c in enumerate(self.columns)}
        self._key_indexes = tuple(self._index[k] for k in self.key)
        #: The primary key of a row: scalar for single-column keys,
        #: tuple for composite keys.
        self.key_of = operator.itemgetter(*self._key_indexes)
        self._sizer = RowSizer(self.columns)

    def column_index(self, name: str) -> int:
        if name not in self._index:
            raise KeyError(f"no column {name!r}")
        return self._index[name]

    def sizeof(self, values: typing.Sequence[typing.Any]) -> int:
        """Serialised byte size of a row (used for page fill and wire
        transfer accounting)."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values, schema has {len(self.columns)} columns"
            )
        return self._sizer(values)

    def validate(self, values: typing.Sequence[typing.Any]) -> None:
        """Cheap type check of a row against the schema."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values, schema has {len(self.columns)} columns"
            )
        for column, value in zip(self.columns, values):
            if column.kind == "int" and not isinstance(value, int):
                raise TypeError(f"column {column.name!r} expects int, got {value!r}")
            if column.kind == "float" and not isinstance(value, (int, float)):
                raise TypeError(f"column {column.name!r} expects float, got {value!r}")
            if column.kind in ("str", "blob") and not isinstance(value, str):
                raise TypeError(f"column {column.name!r} expects str, got {value!r}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cols = ", ".join(c.name for c in self.columns)
        return f"<Schema ({cols}) key={self.key}>"


#: Version-header overhead per stored version (timestamps, txn ids).
VERSION_HEADER_BYTES = 24


@dataclasses.dataclass(slots=True)
class RecordVersion:
    """One version of a logical record, as stored in a page slot.

    Commit timestamps are ``None`` while the creating/deleting
    transaction is still in flight; visibility checks resolve those
    through the transaction table (see :mod:`repro.txn.mvcc`).
    """

    key: typing.Any
    values: tuple
    size_bytes: int
    created_by: int
    created_ts: int | None = None
    deleted_by: int | None = None
    deleted_ts: int | None = None
    #: The segment currently storing this version (maintained by
    #: ``Segment.insert_version``); lets undo/GC find a version even
    #: after a segment split relocated it.
    home: typing.Any = dataclasses.field(default=None, repr=False, compare=False)
    #: Where in ``home`` it is stored (set with ``home``): the key of
    #: the segment's dead set, so commit and abort reach their entry
    #: without a walk of the version chain.
    page_no: int = dataclasses.field(default=-1, repr=False, compare=False)
    slot: int = dataclasses.field(default=-1, repr=False, compare=False)
    #: CRC32 over the immutable payload (key + values), computed by
    #: :meth:`make` and carried over by :meth:`copy`.  ``None`` for
    #: hand-built versions (legacy rows and test fixtures) — those
    #: verify trivially.  The MVCC header fields
    #: (``created_ts``/``deleted_by``/``deleted_ts``) mutate after
    #: creation and are deliberately outside the covered payload.
    checksum: int | None = dataclasses.field(
        default=None, repr=False, compare=False
    )
    #: The cached verdict: ``make`` sets it (the CRC was just taken
    #: from the bytes in hand), and the fault injector and scrub repair
    #: clear it when they rewrite the stored bytes — so pages re-hash a
    #: row only on the next fetch after a modelled fault touched it.
    clean: bool = dataclasses.field(default=False, repr=False, compare=False)

    @classmethod
    def make(cls, schema: Schema, values: typing.Sequence[typing.Any],
             created_by: int) -> "RecordVersion":
        """A new version, born verified: its CRC is taken from the
        bytes in hand."""
        values = tuple(values)
        # Sized first: ``sizeof`` checks the arity, so a short row
        # raises ValueError before its key is taken.
        size_bytes = schema.sizeof(values) + VERSION_HEADER_BYTES
        key = schema.key_of(values)
        return cls(
            key=key,
            values=values,
            size_bytes=size_bytes,
            created_by=created_by,
            checksum=checksum_of((key, values)),
            clean=True,
        )

    def copy(self, created_by: int) -> "RecordVersion":
        """A new version of this row created by ``created_by`` — the
        row a record move re-inserts, taken from a version a page read
        has just verified.  Key, values, size and CRC are carried over
        and the copy is born ``clean``, as a moved segment keeps its
        bytes' CRC (Sect. 4.3): nothing is re-sized or re-hashed."""
        return RecordVersion(self.key, self.values, self.size_bytes,
                             created_by, checksum=self.checksum, clean=True)

    def verify(self, *, where: str = "page-read") -> None:
        """Raise ``IntegrityError`` unless the payload still matches
        the checksum it was created with; caches a clean verdict until
        the stored bytes change again."""
        if self.clean:
            return
        verify((self.key, self.values), self.checksum,
               where=where, detail=self.key)
        self.clean = True
