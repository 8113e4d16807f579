"""The one base class of what a client may retry.

Every exception class in the package belongs to one of two families
(DESIGN §16).  A :class:`TransientError` says the attempt failed for a
reason a later attempt can outlive — a conflict, a lock timeout, a
node, link or disk that is down, a partition mid-failover, a checksum
mismatch the scrubber will repair or fence, a row in flight between the
two ends of a move; clients roll back, back off and retry these, and
nothing else.  Everything else derives from ``RuntimeError`` /
``ValueError`` and is a defect, a refused call or control flow internal
to one layer: no retry loop catches it, so it crashes its process and
``Environment.run`` fails with the traceback.  A builtin ``KeyError``
or ``IndexError`` is a defect by the time it reaches a client, which is
why no class derives from their common base.  Imports nothing.
"""


class TransientError(Exception):
    """An attempt failed for a reason a retry can outlive."""
