"""Property test: WAL recycling never outruns its horizons.

``CheckpointManager.recycling_horizon`` is the safety valve of WAL
recycling: whatever interleaving of appends, replication lag, open
moves, and checkpoints occurs, ``truncate_before(horizon)`` must never
drop a record that

  * REDO still needs (LSN >= the checkpoint's ``redo_lsn``),
  * a lagging replica has not acknowledged (LSN >= acked horizon), or
  * a still-open move's recovery trail pins (LSN >= oldest PREPARE).

Hypothesis drives randomized op sequences against a real
:class:`LogManager` and a pure-Python mirror of the surviving LSNs; the
stubs stand in for the replication manager and move journal so the
horizon arithmetic — not the sim plumbing — is what gets exercised.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.hardware import Disk, SSD_SPEC
from repro.sim import Environment
from repro.txn import LogManager
from repro.txn.checkpoint import CheckpointManager


class StubReplication:
    """Per-node acked-LSN watermark with a settable lag."""

    def __init__(self):
        self.pin = None

    def acked_horizon(self, node_id):
        return self.pin


class StubJournal:
    """Open-move PREPARE pins, FIFO like the real journal's entries."""

    def __init__(self, wal):
        self.wal = wal
        self.open_pins = []

    def oldest_open_move_lsn(self):
        return min(self.open_pins) if self.open_pins else None


class StubWorker:
    def __init__(self, wal):
        self.node_id = 1
        self.wal = wal


class StubCluster:
    def __init__(self, env):
        self.env = env


OP = st.one_of(
    st.tuples(st.just("append"), st.integers(1, 4)),
    st.tuples(st.just("commit"), st.integers(1, 4)),
    st.tuples(st.just("ack"), st.just(0)),           # replica caught up
    st.tuples(st.just("lag"), st.integers(0, 12)),   # replica N behind tail
    st.tuples(st.just("open_move"), st.just(0)),
    st.tuples(st.just("close_move"), st.just(0)),
    st.tuples(st.just("checkpoint"), st.just(0)),
)


@settings(max_examples=80, deadline=None)
@given(ops=st.lists(OP, min_size=1, max_size=100))
def test_recycling_never_crosses_any_horizon(ops):
    env = Environment()
    disk = Disk(env, SSD_SPEC, name="logdisk")
    log = LogManager(env, disk)
    worker = StubWorker(log)
    replication = StubReplication()
    journal = StubJournal(log)
    manager = CheckpointManager(StubCluster(env), replication)

    surviving = []          # mirror of the LSNs the log must still hold
    active = set()          # txns with logged, uncommitted writes

    for op, arg in ops:
        if op == "append":
            surviving.append(log.append(arg, "insert", payload=arg))
            active.add(arg)
        elif op == "commit":
            if arg in active:
                surviving.append(log.append(arg, "commit"))
                active.discard(arg)
        elif op == "ack":
            replication.pin = None
        elif op == "lag":
            replication.pin = max(log._next_lsn - arg, 1)
        elif op == "open_move":
            lsn = log.append(0, "segment_move_prepare")
            surviving.append(lsn)
            journal.open_pins.append(lsn)
        elif op == "close_move":
            if journal.open_pins:
                journal.open_pins.pop(0)
                surviving.append(log.append(0, "segment_move_commit"))
        elif op == "checkpoint":
            lsn = log.append(0, "checkpoint")
            surviving.append(lsn)
            oldest = log.oldest_active_redo_lsn()
            redo = lsn if oldest is None else min(oldest, lsn)
            horizon = manager.recycling_horizon(worker, redo, journal)

            # The horizon respects every pin individually.
            assert horizon <= redo
            if replication.pin is not None:
                assert horizon <= replication.pin
            if journal.open_pins:
                assert horizon <= min(journal.open_pins)

            log.truncate_before(horizon)
            surviving = [l for l in surviving if l >= horizon]

        # The log holds exactly the records the model says must survive:
        # recycling dropped nothing at or above any horizon, and exactly
        # everything below the last one.
        assert [r.lsn for r in log.records] == surviving
        # Open transactions' first writes are never recycled away.
        oldest = log.oldest_active_redo_lsn()
        if oldest is not None:
            assert oldest >= log.records[0].lsn or oldest in surviving
