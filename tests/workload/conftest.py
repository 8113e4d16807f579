"""Shared rig of the request-loop tests: a bare two-node cluster and a
way to run a hand-made TPC-C body through the real clients."""

import pytest

from repro import Cluster, Environment
from repro.workload.tpcc_txns import TRANSACTIONS


def make_cluster():
    env = Environment()
    cluster = Cluster(env, node_count=2, initially_active=2,
                      buffer_pages_per_node=64)
    return env, cluster


@pytest.fixture
def install_body():
    """``install_body(name, body)`` registers a TPC-C transaction body
    for the duration of one test."""
    saved = dict(TRANSACTIONS)
    yield TRANSACTIONS.__setitem__
    TRANSACTIONS.clear()
    TRANSACTIONS.update(saved)
