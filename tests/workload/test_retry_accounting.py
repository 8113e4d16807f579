"""Retry/backoff accounting: retried commits are counted separately
from first-try commits, failures record the retries they burned."""

import pytest

from repro import Cluster, Environment
from repro.metrics.breakdown import CostBreakdown
from repro.txn.manager import TransactionAborted
from repro.workload import client as client_mod
from repro.workload.client import (
    BACKOFF_BASE_SECONDS, BACKOFF_CAP_SECONDS, MAX_RETRIES, OltpClient,
    backoff_delay,
)
from repro.workload.driver import WorkloadDriver
from repro.workload.tpcc_schema import TpccConfig
from repro.workload.tpcc_txns import TpccContext


def test_backoff_is_exponential_and_capped():
    assert backoff_delay(0) == BACKOFF_BASE_SECONDS
    assert backoff_delay(1) == 2 * BACKOFF_BASE_SECONDS
    assert backoff_delay(2) == 4 * BACKOFF_BASE_SECONDS
    assert backoff_delay(20) == BACKOFF_CAP_SECONDS
    delays = [backoff_delay(a) for a in range(MAX_RETRIES)]
    assert delays == sorted(delays)


def make_driver(retry_budget=None):
    env = Environment()
    cluster = Cluster(env, node_count=2, initially_active=2,
                      buffer_pages_per_node=64)
    ctx = TpccContext(cluster, TpccConfig(warehouses=1))
    return env, cluster, WorkloadDriver(cluster, ctx, clients=1,
                                        client_interval=1.0,
                                        retry_budget=retry_budget)


def test_driver_separates_first_try_from_retried():
    env, _cluster, driver = make_driver()
    bd = CostBreakdown()
    driver.note_completion("new_order", 0.0, 0.1, bd, None, attempts=1)
    driver.note_completion("new_order", 0.0, 0.4, bd, None, attempts=3)
    driver.note_failure("payment", 0.0, 1.0, attempts=MAX_RETRIES)
    summary = driver.retry_summary()
    assert summary["first_try_completions"] == 1
    assert summary["retried_completions"] == 1
    # 2 retries from the retried commit + 7 from the exhausted failure.
    assert summary["retries_total"] == 2 + (MAX_RETRIES - 1)
    assert summary["exhausted_failures"] == 1
    assert summary["retried_fraction"] == 0.5


def test_retry_summary_counts_a_retried_commit():
    env, _cluster, driver = make_driver()
    driver.note_completion("new_order", 0.0, 0.1, CostBreakdown(), None,
                           attempts=2)
    summary = driver.retry_summary()
    assert summary["retried_completions"] == 1
    assert summary["first_try_completions"] == 0
    assert summary["retries_total"] == 1


class _Flaky:
    """Aborts the first ``failures`` calls, then succeeds."""

    def __init__(self, failures):
        self.failures = failures
        self.calls = 0

    def __call__(self, ctx, txn):
        self.calls += 1
        if self.calls <= self.failures:
            ctx.cluster.txns.abort(txn)
            raise TransactionAborted("injected conflict")
        return {"kind": "flaky"}
        yield  # pragma: no cover - makes this a generator function


def run_flaky_client(failures, retry_budget=None):
    env, cluster, driver = make_driver(retry_budget)
    flaky = _Flaky(failures)
    client = driver.clients[0]
    client.mix = [("flaky", 1.0)]
    saved = dict(client_mod.TRANSACTIONS)
    client_mod.TRANSACTIONS["flaky"] = flaky
    try:
        env.run(until=env.process(client.run(until=0.5)))
    finally:
        client_mod.TRANSACTIONS.clear()
        client_mod.TRANSACTIONS.update(saved)
    return env, driver, client


def test_client_counts_retries_and_backs_off():
    env, driver, client = run_flaky_client(failures=2)
    assert client.queries_done == 1
    assert driver.retries_by_class == {"TransactionAborted": 2}
    assert driver.retried_completions == 1
    assert driver.first_try_completions == 0
    assert driver.retries_total == 2
    assert driver.conflicts == 2
    # Two backoffs elapsed: 10ms + 20ms (plus rpc/plan sim time).
    assert env.now >= backoff_delay(0) + backoff_delay(1)


def test_client_exhausts_retries_cleanly():
    env, driver, client = run_flaky_client(failures=MAX_RETRIES + 5)
    assert client.queries_failed == 1
    assert client.queries_done == 0
    assert driver.total_failed == 1
    assert driver.retries_total == MAX_RETRIES - 1
    summary = driver.retry_summary()
    assert summary["exhausted_failures"] == 1
    assert summary["retried_fraction"] == 0.0
    # The default budget (30 s) is far above what a handful of 10 ms
    # backoffs can burn: nothing was abandoned on this path.
    assert client.queries_abandoned == 0
    assert summary["abandoned_requests"] == 0


def test_client_abandons_when_retry_budget_burned():
    """A tiny total-retry-time budget turns the same conflict storm
    into an *abandoned* query (gave up early) instead of an exhausted
    one — counted separately from MAX_RETRIES exhaustion."""
    env, driver, client = run_flaky_client(failures=MAX_RETRIES + 5,
                                           retry_budget=0.005)
    assert client.queries_abandoned == 1
    assert client.queries_failed == 0
    assert client.queries_done == 0
    assert driver.total_abandoned == 1
    assert driver.total_failed == 0
    summary = driver.retry_summary()
    assert summary["abandoned_requests"] == 1
    assert summary["exhausted_failures"] == 0


def test_retry_budget_validation():
    env, cluster, driver = make_driver()
    ctx = driver.ctx
    with pytest.raises(ValueError):
        OltpClient(0, ctx, driver, interval=1.0, retry_budget=0.0)
