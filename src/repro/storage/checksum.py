"""CRC32 end-to-end data integrity.

Every stored record version and every WAL record carries a CRC32 over
a canonical serialization of its immutable payload.  One rule decides
when a row's bytes are hashed: **where they are created, and again only
after a modelled fault has touched them.**  A version is hashed once by
``RecordVersion.make``; a moved row is ``RecordVersion.copy`` of its
source, which carries the source CRC over without re-hashing; a WAL
row record's CRC covers its header plus that same row CRC instead of
re-walking the values.  Every trust boundary — a page read, a WAL
replay, a replica shipment, a scrub pass — still calls ``verify``, and
each object caches the verdict (``RecordVersion.clean``,
``LogRecord.verified``) until the fault injector rewrites its bytes.
A mismatch raises :class:`IntegrityError` — corrupted bytes are never
returned to a caller as data.

The covered bytes are ``marshal.dumps(form, 2)`` of a normal form
built from exact plain values (ints, floats, strings, bytes, bools,
``None`` and tuples of them).  A row or WAL payload already *is* its
normal form (``_plain``); anything else is reduced by ``canonical``:
lists become tuples, dicts are key-sorted, sets are sorted by ``repr``,
so logically equal payloads always hash equal.  A dataclass instance
(a checkpoint record, say) is covered field by field, in declaration
order, behind its type name.  A scalar subclass (an ``IntEnum``, a
``str`` subclass) becomes its type name and ``repr``, which marshal
can encode and which stays distinct from the base value.  Any other
object contributes only its type name: its in-memory identity is not
byte-addressable in this simulation, so pretending to checksum it
would only manufacture false confidence (and its default ``repr`` — a
memory address — would break bit-identical reruns).

Format 2 and no other: formats 3 and 4 write back-references and
interning flags, so two equal rows whose strings happen to be shared
or interned differently would encode, and hash, differently.  Format 2
writes every string in full, a float as its 8 IEEE bytes and an int as
a type byte plus little-endian digits — so the fault injector's
low-bit int flip is a 1-bit change of the covered bytes.

CRC32 detects every burst error of 32 bits or fewer, which covers the
single-byte and small-burst flips the fault injector models (and that
real bit rot overwhelmingly looks like).
"""

from __future__ import annotations

import dataclasses
import marshal
import typing
import zlib

from repro.errors import TransientError


class IntegrityError(TransientError):
    """A checksum verification failed: the stored bytes do not match
    the checksum they were written with.  The corrupted object is
    *never* returned as data — callers repair from a replica, fence
    the partition, or (for a torn WAL tail) discard the suffix."""

    def __init__(self, message: str, *, where: str = "",
                 detail: typing.Any = None):
        super().__init__(message)
        #: Which trust boundary caught it ("page-read", "wal-replay",
        #: "replica-ship", "scrub", ...).
        self.where = where
        #: Free-form context (key, LSN, node id, ...).
        self.detail = detail


_SCALARS = (int, float, str, bytes, bool, type(None))
_SCALAR_TYPES = frozenset(_SCALARS)


def _plain(obj: typing.Any) -> bool:
    """True when ``obj`` already *is* its own canonical form: exact
    scalars and tuples thereof — the shape of every row and WAL payload
    on the hot path.  Exact types only; scalar subclasses (enums, ...)
    take the slow path so both paths produce identical bytes."""
    if type(obj) in _SCALAR_TYPES:
        return True
    if type(obj) is tuple:
        for item in obj:
            if not _plain(item):
                return False
        return True
    return False


def canonical(obj: typing.Any) -> typing.Any:
    """Reduce ``obj`` to a normal form of exact plain values (see the
    module docstring).  Deterministic across processes for everything
    the storage and WAL layers persist."""
    if type(obj) in _SCALAR_TYPES:
        return obj
    if isinstance(obj, _SCALARS):
        return ("obj", type(obj).__name__, repr(obj))
    if isinstance(obj, (tuple, list)):
        return tuple([canonical(x) for x in obj])
    if isinstance(obj, (set, frozenset)):
        return ("set",) + tuple(sorted(map(repr, obj)))
    if isinstance(obj, dict):
        return ("dict",) + tuple(
            (repr(k), canonical(v)) for k, v in sorted(
                obj.items(), key=lambda kv: repr(kv[0])
            )
        )
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return ("obj", type(obj).__name__) + tuple(
            canonical(getattr(obj, f.name)) for f in dataclasses.fields(obj)
        )
    return ("obj", type(obj).__name__)


def canonical_bytes(obj: typing.Any) -> bytes:
    """The byte string a checksum covers."""
    return marshal.dumps(obj if _plain(obj) else canonical(obj), 2)


def checksum_of(obj: typing.Any) -> int:
    """CRC32 over the canonical serialization of ``obj``."""
    return zlib.crc32(canonical_bytes(obj))


def checksum_bytes(data: bytes) -> int:
    """CRC32 over raw bytes (the property-test entry point: flip a
    byte in the canonical serialization and the CRC must move)."""
    return zlib.crc32(data)


def verify(obj: typing.Any, expected: int | None, *, where: str,
           detail: typing.Any = None) -> None:
    """Raise :class:`IntegrityError` when ``obj`` no longer matches
    ``expected``.  ``None`` means "no checksum stored" (legacy rows
    built before the integrity layer, or hand-built test fixtures) and
    verifies trivially."""
    if expected is None:
        return
    actual = checksum_of(obj)
    if actual != expected:
        raise IntegrityError(
            f"checksum mismatch at {where}: stored 0x{expected & 0xffffffff:08x}, "
            f"computed 0x{actual & 0xffffffff:08x}",
            where=where, detail=detail,
        )
