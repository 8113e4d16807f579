"""The OLTP client model.

"In each experiment, we spawned a number of OLTP clients, sending
queries to the DBMS.  Each client submits a randomly selected query at
specified intervals.  If the query is answered, the next query is
delayed until the subsequent interval ...  By limiting the maximum
throughput at the client side, this experiment differs from traditional
benchmarking." (Sect. 5.1)
"""

from __future__ import annotations

import functools
import random
import typing

from repro.errors import TransientError
from repro.metrics.breakdown import CostBreakdown
from repro.workload.tpcc_txns import DEFAULT_MIX, TRANSACTIONS, TpccContext

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster
    from repro.txn.manager import Transaction
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


def backoff_delay(attempt: int) -> float:
    """Exponential backoff for the ``attempt``-th retry (0-based)."""
    return min(BACKOFF_BASE_SECONDS * (2 ** attempt), BACKOFF_CAP_SECONDS)


def pick_kind(rng: random.Random, mix) -> str:
    """Draw one transaction kind from the weighted ``mix``."""
    roll = rng.random()
    acc = 0.0
    for name, weight in mix:
        acc += weight
        if roll < acc:
            return name
    return mix[-1][0]


def run_request(cluster: "Cluster", kind: str,
                body: typing.Callable[["Transaction"], typing.Generator],
                begin: typing.Callable[[], "Transaction"], submitted: float,
                retry_budget: float, retries_by_class: dict[str, int]):
    """Generator: the one request loop — ``begin()``, client RPC, plan,
    ``body(txn)``, commit — of the closed-loop clients, the open-loop
    session engine and the ``kv`` writers; ``kind`` names the request on
    its ack.  A :class:`TransientError` rolls the attempt back and
    retries it with exponential backoff (failover may be re-routing the
    partition meanwhile), counted under its class name in
    ``retries_by_class``; anything else is a defect and propagates.

    The request owns one :class:`CostBreakdown`, hung on every
    attempt's transaction as ``txn.breakdown``, so an aborted attempt's
    stalls stay charged; at the ack it is closed over ``submitted`` ..
    now and recorded on the history's ack.

    Returns ``(txn, result, attempts)`` once acknowledged: only the
    last attempt's transaction produced what the client saw, in the
    real-time window ``submitted`` .. now.  A request that gave up
    returns ``(None, None, attempts)`` — ``MAX_RETRIES`` when it
    exhausted them, fewer when its retries had burned ``retry_budget``
    seconds, which reports count separately as shed load."""
    env = cluster.env
    start = env.now
    breakdown = CostBreakdown()
    for attempt in range(MAX_RETRIES):
        if attempt and env.now - start > retry_budget:
            return None, None, attempt
        txn = begin()
        txn.breakdown = breakdown
        try:
            yield from cluster.network.rpc_delay()  # client -> master
            yield from cluster.master.plan()
            result = yield from body(txn)
            yield from cluster.txns.commit(txn)
        except TransientError as exc:
            cluster.txns.abort_if_active(txn)
            name = type(exc).__name__
            retries_by_class[name] = retries_by_class.get(name, 0) + 1
            yield env.timeout(backoff_delay(attempt))
            continue
        breakdown.close(env.now - submitted)
        history = cluster.txns.history
        if history is not None:
            history.record_ack(txn.txn_id, kind, submitted, env.now,
                               attempt + 1, breakdown)
        return txn, result, attempt + 1
    return None, None, MAX_RETRIES


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

    def run(self, until: float):
        """Generator process: the client's closed submit loop."""
        env = self.ctx.cluster.env
        driver = self.driver
        begin = functools.partial(self.ctx.cluster.txns.begin, cc=self.ctx.cc)
        next_submit = env.now
        while env.now < until:
            if next_submit > env.now:
                yield env.timeout(next_submit - env.now)
            if env.now >= until:
                break
            start = env.now
            name = pick_kind(self.ctx.rng, self.mix)
            txn, result, attempts = yield from run_request(
                self.ctx.cluster, name,
                functools.partial(TRANSACTIONS[name], self.ctx), begin,
                start, self.retry_budget, driver.retries_by_class)
            if txn is not None:
                self.queries_done += 1
                driver.note_completion(name, start, env.now, txn.breakdown,
                                       result, attempts=attempts)
            elif attempts < MAX_RETRIES:
                self.queries_abandoned += 1
                driver.note_abandoned(name, start, env.now, attempts=attempts)
            else:
                self.queries_failed += 1
                driver.note_failure(name, start, env.now, attempts=attempts)
            # "the next query is delayed until the subsequent interval"
            next_submit = start + self.interval
