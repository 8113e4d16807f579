"""A bug must crash, not retry: a builtin ``KeyError`` / ``IndexError``
raised below a client is a defect — it must fail ``env.run`` with the
original exception as the cause, and nothing may be booked as retried,
failed or abandoned (the way ``BTree.max_key``'s ``IndexError`` once
lived as thousands of quietly abandoned requests)."""

import pytest

from repro.sim.engine import SimulationError
from repro.traffic import ConstantArrivals, SessionEngine, TenantClass
from repro.workload.driver import WorkloadDriver
from repro.workload.tpcc_schema import TpccConfig
from repro.workload.tpcc_txns import TpccContext
from tests.workload.conftest import make_cluster

DEFECTS = [KeyError("dict miss in a bug"), IndexError("list index out of range")]


def raising(exc):
    """A TPC-C body that raises ``exc``."""
    def body(ctx, txn):
        raise exc
        yield  # pragma: no cover - makes this a generator function
    return body


@pytest.mark.parametrize("defect", DEFECTS, ids=lambda e: type(e).__name__)
def test_defect_under_oltp_client_fails_the_run(install_body, defect):
    install_body("defect", raising(defect))
    env, cluster = make_cluster()
    ctx = TpccContext(cluster, TpccConfig(warehouses=1))
    driver = WorkloadDriver(cluster, ctx, clients=1, client_interval=1.0,
                            mix=[("defect", 1.0)])
    client = driver.clients[0]
    env.process(client.run(until=0.5), name="client-0")
    with pytest.raises(SimulationError, match="client-0") as crash:
        env.run(until=5.0)
    assert crash.value.__cause__ is defect
    assert driver.conflicts == 0 and driver.retries_total == 0
    assert driver.total_failed == 0 and driver.total_abandoned == 0
    assert driver.total_completed == 0
    assert (client.queries_done, client.queries_failed,
            client.queries_abandoned) == (0, 0, 0)


@pytest.mark.parametrize("defect", DEFECTS, ids=lambda e: type(e).__name__)
def test_defect_under_session_engine_fails_the_run(install_body, defect):
    install_body("defect", raising(defect))
    env, cluster = make_cluster()
    engine = SessionEngine(
        cluster, TpccConfig(warehouses=1),
        [TenantClass(name="web", users=10, arrivals=ConstantArrivals(5.0),
                     mix=(("defect", 1.0),))],
        batch=1, executors=2)
    env.process(engine.run(2.0), name="engine")
    with pytest.raises(SimulationError, match="executor-") as crash:
        env.run(until=10.0)
    assert crash.value.__cause__ is defect
    stats = engine.admission.stats()
    assert stats["completed"] == 0 and stats["abandoned"] == 0
    assert engine.runtimes["web"].conflicts == 0
    assert engine.runtimes["web"].executed == 0


def test_defect_inside_update_record_is_not_taken_for_a_routed_miss(
        install_body, monkeypatch):
    """``MasterNode.update`` routes on only for the typed "not visible
    here" miss; a ``KeyError`` from below ``update_record`` (here: the
    page lookup) used to be translated into one, become a
    ``RoutedMissError`` and be retried eight times."""
    from repro.cluster.worker import WorkerNode
    from repro.experiments.harness import kv_cluster_rows

    defect = KeyError("node 0: unknown page 7")

    def broken_dirty_page(self, segment, page_no, txn):
        raise defect
        yield  # pragma: no cover - makes this a generator function

    def body(ctx, txn):
        yield from ctx.cluster.master.update("kv", 1, (1, "new"), txn)

    install_body("defect", body)
    env, cluster = make_cluster()
    kv_cluster_rows(cluster, 0, rows=4)
    monkeypatch.setattr(WorkerNode, "_dirty_page", broken_dirty_page)
    ctx = TpccContext(cluster, TpccConfig(warehouses=1))
    driver = WorkloadDriver(cluster, ctx, clients=1, client_interval=1.0,
                            mix=[("defect", 1.0)])
    env.process(driver.clients[0].run(until=0.5), name="client-0")
    with pytest.raises(SimulationError, match="client-0") as crash:
        env.run(until=60.0)
    assert crash.value.__cause__ is defect
    assert driver.retries_total == 0 and driver.total_failed == 0
