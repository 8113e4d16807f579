"""One notion of "transient": the request loop retries every
``TransientError`` subclass — aborting the attempt, backing off and
counting the retry under the class's name — and the exception classes
of the package form a closed, two-family hierarchy."""

import importlib
import pkgutil

import pytest

import repro
from repro.errors import TransientError
from repro.traffic import ConstantArrivals, SessionEngine, TenantClass
from repro.workload.client import backoff_delay
from repro.workload.driver import WorkloadDriver
from repro.workload.tpcc_schema import TpccConfig
from repro.workload.tpcc_txns import TpccContext
from tests.workload.conftest import make_cluster


def package_exception_classes() -> list[type]:
    """Every exception class defined under ``src/repro``."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)
    found, frontier = set(), [BaseException]
    while frontier:
        for sub in frontier.pop().__subclasses__():
            if sub not in found:
                found.add(sub)
                frontier.append(sub)
    return sorted((c for c in found if c.__module__.startswith("repro.")),
                  key=lambda c: c.__name__)


EXCEPTION_CLASSES = package_exception_classes()
TRANSIENT_CLASSES = [c for c in EXCEPTION_CLASSES
                     if issubclass(c, TransientError) and c is not TransientError]


def test_exception_hierarchy_is_closed():
    """Two families and nothing else: what a client may retry, and
    ``RuntimeError`` / ``ValueError`` for defects and internal control
    flow.  No class may derive from a builtin lookup error — that is
    how a bug's ``KeyError`` used to get retried."""
    assert {c.__name__ for c in TRANSIENT_CLASSES} == {
        "TransactionAborted", "WriteConflictError", "DuplicateKeyError",
        "LockTimeoutError", "NodeDownError", "PartitionUnavailableError",
        "RoutedMissError", "DiskFailedError", "LinkDownError",
        "IntegrityError",
    }
    for cls in EXCEPTION_CLASSES:
        assert issubclass(cls, (TransientError, RuntimeError, ValueError)), cls
        assert not issubclass(cls, LookupError), cls
        assert not (issubclass(cls, TransientError)
                    and issubclass(cls, (RuntimeError, ValueError))), cls


class _Flaky:
    """Raises ``cls`` on the first ``failures`` calls — leaving the
    rollback to the loop — then succeeds."""

    def __init__(self, cls, failures=2):
        self.cls = cls
        self.failures = failures
        self.calls = 0
        self.txns = []

    def __call__(self, ctx, txn):
        self.calls += 1
        self.txns.append(txn)
        if self.calls <= self.failures:
            raise self.cls("injected")
        return {"kind": "flaky"}
        yield  # pragma: no cover - makes this a generator function


def assert_aborted_then_committed(flaky, cluster):
    *failed, last = flaky.txns
    assert [t.state.value for t in failed] == ["aborted"] * flaky.failures
    assert last.state.value == "committed"
    assert cluster.txns.aborted_count == flaky.failures
    assert cluster.txns.active_count == 0


@pytest.mark.parametrize("cls", TRANSIENT_CLASSES, ids=lambda c: c.__name__)
def test_oltp_client_retries_every_transient_class(install_body, cls):
    flaky = _Flaky(cls)
    install_body("flaky", flaky)
    env, cluster = make_cluster()
    ctx = TpccContext(cluster, TpccConfig(warehouses=1))
    driver = WorkloadDriver(cluster, ctx, clients=1, client_interval=1.0,
                            mix=[("flaky", 1.0)])
    client = driver.clients[0]
    env.run(until=env.process(client.run(until=0.5)))
    assert client.queries_done == 1
    assert_aborted_then_committed(flaky, cluster)
    assert driver.retries_by_class == {cls.__name__: 2}
    assert driver.conflicts == 2 and driver.retries_total == 2
    summary = driver.retry_summary()
    assert summary["retries_by_class"] == {cls.__name__: 2}
    assert summary["retried_completions"] == 1
    assert env.now >= backoff_delay(0) + backoff_delay(1)


@pytest.mark.parametrize("cls", TRANSIENT_CLASSES, ids=lambda c: c.__name__)
def test_session_engine_retries_every_transient_class(install_body, cls):
    flaky = _Flaky(cls)
    install_body("flaky", flaky)
    env, cluster = make_cluster()
    engine = SessionEngine(
        cluster, TpccConfig(warehouses=1),
        [TenantClass(name="web", users=10, arrivals=ConstantArrivals(0.8),
                     mix=(("flaky", 1.0),))],
        seed=1, batch=1, executors=1)
    env.run(until=env.process(engine.run(2.0)))
    assert flaky.calls == flaky.failures + engine.admission.completed
    assert engine.admission.completed >= 1
    assert engine.admission.stats()["abandoned"] == 0
    runtime = engine.runtimes["web"]
    assert runtime.retries_by_class == {cls.__name__: 2}
    assert runtime.conflicts == 2
    row = engine.tenant_report()["web"]
    assert row["conflicts"] == 2
    assert row["retries_by_class"] == {cls.__name__: 2}
    assert [t.state.value for t in flaky.txns[:2]] == ["aborted"] * 2
    assert cluster.txns.active_count == 0
