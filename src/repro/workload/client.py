"""The OLTP client model.

"In each experiment, we spawned a number of OLTP clients, sending
queries to the DBMS.  Each client submits a randomly selected query at
specified intervals.  If the query is answered, the next query is
delayed until the subsequent interval ...  By limiting the maximum
throughput at the client side, this experiment differs from traditional
benchmarking." (Sect. 5.1)
"""

from __future__ import annotations

import typing

from repro.hardware.disk import DiskFailedError
from repro.hardware.network import LinkDownError
from repro.metrics.breakdown import CostBreakdown
from repro.storage.checksum import IntegrityError
from repro.txn.manager import TransactionAborted
from repro.txn.locks import LockTimeoutError
from repro.workload.tpcc_txns import DEFAULT_MIX, TRANSACTIONS, TpccContext

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.workload.driver import WorkloadDriver

#: A query is abandoned after this many conflict-retries.
MAX_RETRIES = 8

#: ... or once its retries have burned this much total time, whichever
#: comes first.  Under sustained overload, attempts themselves get slow
#: (lock waits, failover timeouts), and a per-attempt cap alone lets a
#: query camp on the cluster for minutes — the time cap turns that
#: invisible queueing into an explicit, counted "abandoned" outcome.
RETRY_BUDGET_SECONDS = 30.0

#: First retry waits this long; each further retry doubles it ...
BACKOFF_BASE_SECONDS = 0.01
#: ... up to this cap (long enough to ride out a failover window
#: without hammering the master, short enough to notice recovery).
BACKOFF_CAP_SECONDS = 0.5

#: Transient errors worth retrying: aborts/conflicts, lock timeouts,
#: routing races and down nodes (LookupError covers NodeDownError and
#: PartitionUnavailableError), and hardware faults observed mid-query.
#: IntegrityError is retryable too: a checksum mismatch is *surfaced*
#: (never silently read past) and the scrub daemon repairs or fences
#: the row, so a later retry either succeeds or fails fast on an
#: unavailable partition.
RETRYABLE = (TransactionAborted, LockTimeoutError, LookupError,
             DiskFailedError, LinkDownError, IntegrityError)


def backoff_delay(attempt: int) -> float:
    """Exponential backoff for the ``attempt``-th retry (0-based)."""
    return min(BACKOFF_BASE_SECONDS * (2 ** attempt), BACKOFF_CAP_SECONDS)


class OltpClient:
    """One closed-loop client with a fixed submit interval."""

    def __init__(self, client_id: int, ctx: TpccContext,
                 driver: "WorkloadDriver", interval: float,
                 mix: list[tuple[str, float]] | None = None,
                 retry_budget: float = RETRY_BUDGET_SECONDS):
        if interval <= 0:
            raise ValueError("client interval must be positive")
        if retry_budget <= 0:
            raise ValueError("retry budget must be positive")
        self.client_id = client_id
        self.ctx = ctx
        self.driver = driver
        self.interval = interval
        self.mix = mix or DEFAULT_MIX
        self.retry_budget = retry_budget
        self.queries_done = 0
        self.queries_failed = 0
        self.queries_abandoned = 0
        self.retries = 0

    def _pick(self) -> str:
        roll = self.ctx.rng.random()
        acc = 0.0
        for name, weight in self.mix:
            acc += weight
            if roll < acc:
                return name
        return self.mix[-1][0]

    def run(self, until: float):
        """Generator process: the client's closed submit loop."""
        env = self.ctx.cluster.env
        next_submit = env.now
        while env.now < until:
            if next_submit > env.now:
                yield env.timeout(next_submit - env.now)
            if env.now >= until:
                break
            submit_time = env.now
            yield from self._one_query()
            # "the next query is delayed until the subsequent interval"
            next_submit = submit_time + self.interval

    def _one_query(self):
        env = self.ctx.cluster.env
        cluster = self.ctx.cluster
        name = self._pick()
        body = TRANSACTIONS[name]
        start = env.now
        for attempt in range(MAX_RETRIES):
            if attempt and env.now - start > self.retry_budget:
                # Give up early: the retries have already burned the
                # whole budget.  Distinct from exhausting MAX_RETRIES —
                # this is shed load under overload, and the report
                # counts it separately.
                self.queries_abandoned += 1
                self.driver.note_abandoned(name, start, env.now,
                                           attempts=attempt)
                return
            breakdown = CostBreakdown()
            txn = cluster.txns.begin(cc=self.ctx.cc, breakdown=breakdown)
            try:
                yield from cluster.network.rpc_delay()  # client -> master
                yield from cluster.master.plan()
                result = yield from body(self.ctx, txn)
                yield from cluster.txns.commit(txn)
            except RETRYABLE:
                # Conflict, lock timeout, routing race, down node, or a
                # hardware fault observed mid-query: roll back and retry
                # with exponential backoff — failover may be re-routing
                # the partition in the meantime.
                cluster.txns.abort_if_active(txn)
                self.driver.note_conflict(name)
                self.retries += 1
                yield env.timeout(backoff_delay(attempt))
                continue
            self.queries_done += 1
            history = cluster.txns.history
            if history is not None:
                # The client-visible acknowledgement: only the *last*
                # attempt's transaction produced the result the client
                # saw; its real-time window is the full query interval.
                history.record_ack(txn.txn_id, name, start, env.now,
                                   attempts=attempt + 1)
            self.driver.note_completion(
                name, start, env.now, breakdown, result,
                attempts=attempt + 1,
            )
            return
        self.queries_failed += 1
        self.driver.note_failure(name, start, env.now, attempts=MAX_RETRIES)
