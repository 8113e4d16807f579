"""Deterministic fault injection — fail-stop *and* gray failures.

A :class:`FaultInjector` executes a schedule of fault events against
the simulated hardware.  The fail-stop kinds are abrupt node crashes
and restarts, severed NIC links, and failed data disks.  The *gray*
kinds model the partial failures that dominate on wimpy commodity
hardware — faults that degrade or corrupt without killing anything:

* ``bit_rot`` — flip bytes in a committed stored row or a replica-log
  record on the node; the stored checksum no longer matches, so the
  next read (or scrub pass) raises ``IntegrityError`` instead of
  returning garbage.
* ``torn_write`` — a crash mid-commit-flush that persists only a
  prefix of the final log write: the victim's WAL gains an in-flight
  transaction whose commit record fails its checksum, and the node
  crashes.  Recovery must discard the torn tail and must NOT replay
  the transaction as committed (it was never acknowledged).
* ``slow_disk`` / ``restore_speed`` — a deterministic latency
  multiplier on every disk of the node (a limping drive that still
  answers); the latency-outlier detector, not the heartbeat detector,
  is what catches this.
* ``flaky_link`` / ``heal_link`` — seeded frame loss and extra delay
  on the node's NIC without severing it.

Schedules are either laid out explicitly (``crash_at`` etc.) or drawn
from the simulation's seeded RNG (``random_faults``), so the same seed
always yields the same fault times on the same nodes — experiment runs
are exactly repeatable.  Unknown kinds are rejected with ``ValueError``
at schedule-build time, never silently at replay.

Restart semantics after ``fail_disk`` are deliberate: ``restart``
restores *compute* (the machine boots), but failed media stay failed —
a dead drive does not heal because the chassis power-cycled.  The
separate ``replace_disk`` kind models swapping the drive: the device
works again but its contents are gone (``Disk.repair``), so callers
must re-replicate onto it.

Crashing a node also aborts every in-flight transaction that touched
it: their locks must release immediately, or survivors would block on
a dead lock holder until timeout.  (The aborted clients observe
``TransactionAborted`` and retry through the normal bounded-retry
path.)
"""

from __future__ import annotations

import dataclasses
import itertools
import typing

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster
    from repro.cluster.worker import WorkerNode

#: Supported fault kinds.
FAULT_KINDS = (
    "crash", "restart", "sever_link", "restore_link", "fail_disk",
    "replace_disk",
    # Gray (non-fail-stop) kinds.
    "bit_rot", "torn_write", "slow_disk", "restore_speed",
    "flaky_link", "heal_link",
)

#: Kinds that injure a node (and are refused for the master — the
#: paper's coordinator is a fixed single point).  Gray kinds count:
#: corrupting or limping the coordinator is off the table too.
_DESTRUCTIVE = ("crash", "sever_link", "fail_disk",
                "bit_rot", "torn_write", "slow_disk", "flaky_link")

#: Default degradation parameters (overridable per event via ``args``).
DEFAULT_SLOW_FACTOR = 8.0
DEFAULT_LOSS_PROBABILITY = 0.05
DEFAULT_EXTRA_DELAY = 0.02

#: Synthetic transaction ids for torn in-flight commits; decremented
#: per event so ids never collide with real transactions (positive) or
#: the replica/redo pseudo-ids (-1, -2).
_TORN_TXN_BASE = -1000


#: Schedule-order tie-breaker for same-timestamp events.
_EVENT_SEQ = itertools.count()


@dataclasses.dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    Sort order is ``(at, seq)``: same-timestamp events replay in the
    order they were scheduled.  Tie-breaking on the event *fields*
    (the old ``order=True`` behaviour) silently reordered e.g. a
    ``sever_link`` scheduled before a ``restore_link`` at the same
    instant (``restore_link`` < ``sever_link`` as strings), inverting
    the schedule's meaning.  Equality deliberately ignores ``seq`` so
    identically-seeded schedules still compare equal.
    """

    at: float
    kind: str
    node_id: int
    #: Kind-specific parameters: ``(factor,)`` for ``slow_disk``,
    #: ``(loss_probability, extra_delay)`` for ``flaky_link``, empty
    #: otherwise.  Part of equality: two schedules agree only when
    #: their degradations do too.
    args: tuple = ()
    #: Monotonically increasing creation sequence number.
    seq: int = dataclasses.field(
        default_factory=lambda: next(_EVENT_SEQ), compare=False
    )

    def __lt__(self, other: "FaultEvent"):
        if not isinstance(other, FaultEvent):
            return NotImplemented
        return (self.at, self.seq) < (other.at, other.seq)


@dataclasses.dataclass
class Corruption:
    """Ledger entry for one injected corruption.

    The torture experiment's integrity invariant audits this ledger at
    the end of a run: every entry must have been *detected* (a read
    raised ``IntegrityError``), and *resolved* — repaired from a
    replica, fenced behind an unavailable partition, or discarded as a
    torn tail.  A corrupted row that was silently read as data would
    show up here as an unresolved entry whose bytes differ from the
    original.
    """

    at: float
    kind: str              # bit_rot | torn_write
    node_id: int
    target: str            # "page" | "replica-log" | "wal-tail"
    table: str | None = None
    partition_id: int | None = None
    key: typing.Any = None
    lsn: int | None = None
    txn_id: int | None = None
    #: The pristine payload, for end-of-run cross-checking.
    original: typing.Any = None


class FaultInjector:
    """Replays a fault schedule as a simulation process; every fault
    applied is a ``fault`` event on the cluster's timeline."""

    def __init__(self, cluster: "Cluster"):
        self.cluster = cluster
        self.env = cluster.env
        #: Drawing randomness from the environment's seeded RNG keeps
        #: the schedule a pure function of the simulation seed.
        self.rng = self.env.rng
        self.schedule: list[FaultEvent] = []
        #: Every corruption injected, for the integrity cross-check.
        self.corruptions: list[Corruption] = []
        self._torn_seq = itertools.count()

    # -- schedule construction ----------------------------------------------

    def at(self, at: float, kind: str, node_id: int,
           *args: float) -> "FaultInjector":
        """Schedule one fault.  Unknown kinds, bad parameters, and bad
        node ids are rejected here — at schedule-build time — never
        silently at replay."""
        if kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {kind!r}; supported: {FAULT_KINDS}"
            )
        if (kind in _DESTRUCTIVE
                and node_id == self.cluster.master.worker.node_id):
            raise ValueError("refusing to injure the master node")
        self.cluster.worker(node_id)  # validate the id early
        if kind == "slow_disk":
            factor = args[0] if args else DEFAULT_SLOW_FACTOR
            if factor < 1.0:
                raise ValueError(f"slow factor must be >= 1, got {factor}")
            args = (factor,)
        elif kind == "flaky_link":
            loss = args[0] if args else DEFAULT_LOSS_PROBABILITY
            delay = args[1] if len(args) > 1 else DEFAULT_EXTRA_DELAY
            if not 0.0 <= loss < 1.0:
                raise ValueError(
                    f"loss probability must be in [0, 1), got {loss}"
                )
            if delay < 0.0:
                raise ValueError(f"extra delay must be >= 0, got {delay}")
            args = (loss, delay)
        elif args:
            raise ValueError(f"fault kind {kind!r} takes no parameters")
        self.schedule.append(FaultEvent(at, kind, node_id, args))
        return self

    def crash_at(self, at: float, node_id: int) -> "FaultInjector":
        return self.at(at, "crash", node_id)

    def restart_at(self, at: float, node_id: int) -> "FaultInjector":
        return self.at(at, "restart", node_id)

    def sever_link_at(self, at: float, node_id: int) -> "FaultInjector":
        return self.at(at, "sever_link", node_id)

    def restore_link_at(self, at: float, node_id: int) -> "FaultInjector":
        return self.at(at, "restore_link", node_id)

    def fail_disk_at(self, at: float, node_id: int) -> "FaultInjector":
        return self.at(at, "fail_disk", node_id)

    def replace_disk_at(self, at: float, node_id: int) -> "FaultInjector":
        return self.at(at, "replace_disk", node_id)

    def bit_rot_at(self, at: float, node_id: int) -> "FaultInjector":
        return self.at(at, "bit_rot", node_id)

    def torn_write_at(self, at: float, node_id: int) -> "FaultInjector":
        return self.at(at, "torn_write", node_id)

    def slow_disk_at(self, at: float, node_id: int,
                     factor: float = DEFAULT_SLOW_FACTOR) -> "FaultInjector":
        return self.at(at, "slow_disk", node_id, factor)

    def restore_speed_at(self, at: float, node_id: int) -> "FaultInjector":
        return self.at(at, "restore_speed", node_id)

    def flaky_link_at(self, at: float, node_id: int,
                      loss_probability: float = DEFAULT_LOSS_PROBABILITY,
                      extra_delay: float = DEFAULT_EXTRA_DELAY
                      ) -> "FaultInjector":
        return self.at(at, "flaky_link", node_id, loss_probability,
                       extra_delay)

    def heal_link_at(self, at: float, node_id: int) -> "FaultInjector":
        return self.at(at, "heal_link", node_id)

    def random_faults(self, count: int, window: tuple[float, float],
                      kinds: typing.Sequence[str] = ("crash",)
                      ) -> "FaultInjector":
        """Draw ``count`` faults uniformly over ``window`` from the
        seeded RNG, each on a non-master node."""
        master_id = self.cluster.master.worker.node_id
        nodes = [w.node_id for w in self.cluster.workers
                 if w.node_id != master_id]
        lo, hi = window
        for _ in range(count):
            at = self.rng.uniform(lo, hi)
            kind = self.rng.choice(list(kinds))
            node_id = self.rng.choice(list(nodes))
            self.at(at, kind, node_id)
        return self

    # -- execution -----------------------------------------------------------

    def run(self):
        """Generator: the injector process — apply the schedule in
        time order, then exit."""
        for event in sorted(self.schedule):
            delay = event.at - self.env.now
            if delay > 0:
                yield self.env.timeout(delay)
            self.apply(event)

    def apply(self, event: FaultEvent) -> None:
        """Apply one fault immediately (also usable outside ``run``)."""
        worker = self.cluster.worker(event.node_id)
        if event.kind == "crash":
            worker.machine.crash()
            self.cluster.txns.abort_touching(worker)
        elif event.kind == "restart":
            # Booting takes sim time; run it as its own process so the
            # injector keeps pace with the rest of the schedule.  Note:
            # a restart restores COMPUTE only — disks failed via
            # ``fail_disk`` stay failed (the drive is physically dead);
            # schedule ``replace_disk`` to swap the device.
            self.env.process(worker.machine.power_on())
        elif event.kind == "sever_link":
            worker.port.sever()
            self.cluster.txns.abort_touching(worker)
        elif event.kind == "restore_link":
            worker.port.restore()
        elif event.kind == "fail_disk":
            for disk in worker.disk_space.disks:
                if not disk.failed:
                    disk.fail()
                    break
            self.cluster.txns.abort_touching(worker)
        elif event.kind == "replace_disk":
            # Drive swap: the device serves again but its contents are
            # gone (``Disk.repair``) — re-replication must refill it.
            for disk in worker.disk_space.disks:
                if disk.failed:
                    disk.repair()
                    break
        elif event.kind == "bit_rot":
            self._apply_bit_rot(event, worker)
        elif event.kind == "torn_write":
            self._apply_torn_write(event, worker)
        elif event.kind == "slow_disk":
            factor = event.args[0] if event.args else DEFAULT_SLOW_FACTOR
            for disk in self._node_disks(worker):
                disk.slow_down(factor)
        elif event.kind == "restore_speed":
            for disk in self._node_disks(worker):
                disk.restore_speed()
        elif event.kind == "flaky_link":
            loss = event.args[0] if event.args else DEFAULT_LOSS_PROBABILITY
            delay = (event.args[1] if len(event.args) > 1
                     else DEFAULT_EXTRA_DELAY)
            worker.port.make_flaky(loss, delay)
        elif event.kind == "heal_link":
            worker.port.heal()
        else:  # pragma: no cover - guarded by at()
            raise ValueError(f"unknown fault kind {event.kind!r}")
        self.cluster.note("fault", event.kind, event.node_id,
                          detail=" ".join(f"{arg:g}" for arg in event.args))

    # -- gray-fault mechanics -------------------------------------------------

    @staticmethod
    def _node_disks(worker: "WorkerNode"):
        """Every distinct device on the node (data disks + log disk):
        a limping controller/backplane slows them all."""
        disks = list(worker.disk_space.disks)
        if worker.log_disk not in disks:
            disks.append(worker.log_disk)
        return disks

    def _garble(self, values: tuple) -> tuple:
        """Flip bits in one field of a stored row (always changes it)."""
        i = self.rng.randrange(len(values)) if len(values) > 1 else 0
        v = values[i]
        if isinstance(v, bool):
            new: typing.Any = not v
        elif isinstance(v, int):
            new = v ^ (1 << self.rng.randrange(16))
        elif isinstance(v, float):
            new = -(v + 1.0)
        elif isinstance(v, str) and v:
            pos = self.rng.randrange(len(v))
            new = v[:pos] + chr(ord(v[pos]) ^ 1) + v[pos + 1:]
        else:
            new = ("§rot", repr(v))
        return values[:i] + (new,) + values[i + 1:]

    def _apply_bit_rot(self, event: FaultEvent,
                       worker: "WorkerNode") -> None:
        """Corrupt stored bytes on the node: a committed row in one of
        its data pages, or — when it hosts replicas — a record of a
        replica log.  The checksum stays what it was, so the next read
        of the target raises ``IntegrityError``."""
        page_targets = self._page_rot_candidates(worker)
        log_targets = self._replica_log_candidates(worker)
        pick_log = bool(log_targets) and (
            not page_targets or self.rng.random() < 0.5
        )
        if pick_log:
            replica_set, replica, index = log_targets[
                self.rng.randrange(len(log_targets))
            ]
            record = replica.log.records[index]
            rotten = dataclasses.replace(
                record, payload=("§rot", record.payload)
            )
            replica.log.records[index] = rotten
            self.corruptions.append(Corruption(
                at=self.env.now, kind="bit_rot", node_id=worker.node_id,
                target="replica-log", table=replica_set.table,
                partition_id=replica_set.partition_id, lsn=record.lsn,
                original=record.payload,
            ))
            return
        if not page_targets:
            return  # nothing stored on this node yet: the rot hit free space
        partition, version = page_targets[
            self.rng.randrange(len(page_targets))
        ]
        original = version.values
        version.values = self._garble(version.values)
        version.clean = False
        self.corruptions.append(Corruption(
            at=self.env.now, kind="bit_rot", node_id=worker.node_id,
            target="page", table=partition.table.name,
            partition_id=partition.partition_id, key=version.key,
            original=original,
        ))

    def _page_rot_candidates(self, worker: "WorkerNode"):
        """Committed, checksummed rows stored on the node, in a
        deterministic order."""
        candidates = []
        for pid in sorted(worker.partitions):
            partition = worker.partitions[pid]
            for sid in sorted(partition.segments):
                segment = partition.segments[sid]
                for page in segment.pages:
                    for _slot, version in page.versions():
                        if (version.checksum is not None
                                and version.created_ts is not None
                                and version.deleted_ts is None):
                            candidates.append((partition, version))
        return candidates

    def _replica_log_candidates(self, worker: "WorkerNode"):
        """Checksummed records of replica logs hosted on the node."""
        candidates = []
        replica_sets = self.cluster.catalog.replica_sets_holding_on(
            worker.node_id
        )
        for replica_set in sorted(replica_sets,
                                  key=lambda rs: rs.partition_id):
            for replica in replica_set.replicas:
                if replica.holder_node_id != worker.node_id or replica.stale:
                    continue
                for index, record in enumerate(replica.log.records):
                    if record.checksum is not None \
                            and record.kind in ("insert", "update", "delete"):
                        candidates.append((replica_set, replica, index))
        return candidates

    def _apply_torn_write(self, event: FaultEvent,
                          worker: "WorkerNode") -> None:
        """Crash the node mid-commit-flush: its WAL tail gains an
        in-flight transaction whose commit record persisted only
        partially (its checksum fails).  The transaction was never
        acknowledged — recovery must discard the torn suffix and must
        not replay it as committed."""
        txn_id = _TORN_TXN_BASE - next(self._torn_seq)
        log = worker.wal
        log.append(txn_id, "update",
                   ("__torn__", txn_id, (txn_id, "half-written")))
        commit_lsn = log.append(txn_id, "commit")
        # Garble the commit record in place: the stored checksum stays,
        # the bytes no longer match — exactly what a torn sector reads
        # like.
        index = log.live_records - 1
        record = log.records[index]
        log.records[index] = dataclasses.replace(
            record, payload=("§torn", txn_id)
        )
        self.corruptions.append(Corruption(
            at=self.env.now, kind="torn_write", node_id=worker.node_id,
            target="wal-tail", lsn=commit_lsn, txn_id=txn_id,
        ))
        worker.machine.crash()
        self.cluster.txns.abort_touching(worker)
