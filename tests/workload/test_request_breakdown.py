"""One cost breakdown per request, closed at its ack: the request loop
hangs it on every attempt's transaction, so an aborted attempt's stalls
stay charged, and ``other`` is the rest of the response — the seven
buckets sum to ack − submitted.  A stall charged twice leaves ``other``
negative, and the audit names the request."""

import pytest

from repro.audit import HistoryRecorder, audit_history
from repro.audit.history import ACK
from repro.metrics.breakdown import COMPONENTS
from repro.traffic import ConstantArrivals, SessionEngine, TenantClass
from repro.txn.manager import TransactionAborted
from repro.workload.driver import WorkloadDriver
from repro.workload.tpcc_schema import TpccConfig
from repro.workload.tpcc_txns import TpccContext
from tests.workload.conftest import make_cluster

#: Seconds each attempt of the stalling body waits and charges.
STALL = 0.05


class _Stalling:
    """Waits ``STALL`` seconds each attempt and charges the wait to
    ``charge`` (``twice`` charges it a second time: the defect the
    audit must catch); aborts the first ``failures`` attempts."""

    def __init__(self, failures=0, charge="locking", twice=False):
        self.failures = failures
        self.charge = charge
        self.twice = twice
        self.calls = 0

    def __call__(self, ctx, txn):
        self.calls += 1
        env = ctx.cluster.env
        t0 = env.now
        yield env.timeout(STALL)
        for _ in range(2 if self.twice else 1):
            txn.breakdown.add(self.charge, env.now - t0)
        if self.calls <= self.failures:
            raise TransactionAborted("injected")
        return {"kind": "stalling"}


def closed_loop():
    env, cluster = make_cluster()
    recorder = HistoryRecorder().attach(cluster)
    ctx = TpccContext(cluster, TpccConfig(warehouses=1))
    driver = WorkloadDriver(cluster, ctx, clients=1, client_interval=1.0,
                            mix=[("stalling", 1.0)])
    env.run(until=env.process(driver.clients[0].run(until=0.5)))
    return recorder, driver


def open_loop():
    env, cluster = make_cluster()
    recorder = HistoryRecorder().attach(cluster)
    engine = SessionEngine(
        cluster, TpccConfig(warehouses=1),
        [TenantClass(name="web", users=10, arrivals=ConstantArrivals(0.8),
                     mix=(("stalling", 1.0),))],
        seed=1, batch=1, executors=1)
    env.run(until=env.process(engine.run(2.0)))
    return recorder, engine


def acks(recorder):
    return [op for op in recorder.ops if op.kind == ACK]


@pytest.mark.parametrize("loop", [closed_loop, open_loop],
                         ids=["closed-loop", "session-engine"])
def test_a_retried_request_keeps_both_attempts_charges(install_body, loop):
    install_body("stalling", _Stalling(failures=1))
    recorder, _runner = loop()
    first, *rest = acks(recorder)
    assert first.attempts == 2
    assert first.costs.locking == pytest.approx(2 * STALL)
    assert [op.costs.locking for op in rest] == pytest.approx(
        [STALL] * len(rest))
    for op in [first, *rest]:
        assert sum(op.costs.as_dict().values()) == pytest.approx(
            op.t1 - op.t0, abs=1e-9)
        # The client RPC and a retry's back-off are no component's
        # wait: they are the rest.
        assert op.costs.other > 0
    assert audit_history(recorder).ok


def test_the_closed_loop_reports_the_acked_breakdown(install_body):
    install_body("stalling", _Stalling(failures=1))
    recorder, driver = closed_loop()
    [(_end, breakdown)] = driver.breakdown_samples
    [ack] = acks(recorder)
    assert breakdown is ack.costs
    assert breakdown.total == pytest.approx(ack.t1 - ack.t0, abs=1e-9)


def test_a_double_charge_is_reported_naming_the_request(install_body):
    install_body("stalling", _Stalling(charge="logging", twice=True))
    recorder, _driver = closed_loop()
    [ack] = acks(recorder)
    assert ack.costs.other < 0
    [anomaly] = [a for a in audit_history(recorder).anomalies
                 if a.kind == "double-charge"]
    assert anomaly.txns == (ack.txn_id,)
    assert anomaly.table == "stalling"
    assert f"txn {ack.txn_id} (stalling)" in anomaly.description
    for component in COMPONENTS:
        assert component in anomaly.description
    assert f"logging {2000 * STALL:.3f}" in anomaly.description
