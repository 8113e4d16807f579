"""The one repartitioning pipeline: a scheme supplies its cut and its
ship step, and ``migrate_fraction`` drives all three the same way."""

import pytest

from repro.core import (
    LogicalPartitioning,
    PhysicalPartitioning,
    PhysiologicalPartitioning,
)
from tests.core.conftest import read_all

#: Each scheme and the targets of its spans in the order they move:
#: physical partitioning goes bottom-up, the ownership schemes top-down
#: (so each global-table split lands inside the remaining source range).
SPAN_ORDERS = [
    (PhysicalPartitioning, [2, 3]),
    (LogicalPartitioning, [3, 2]),
    (PhysiologicalPartitioning, [3, 2]),
]


@pytest.mark.parametrize("make_scheme, order", SPAN_ORDERS,
                         ids=[make.name for make, _order in SPAN_ORDERS])
def test_migrate_fraction_runs_each_scheme_through_one_pipeline(
        migration_cluster, make_scheme, order):
    env, cluster = migration_cluster
    scheme = make_scheme()
    source = cluster.workers[0]

    def go():
        targets = []
        for node_id in (2, 3):
            yield from cluster.power_on(node_id)
            targets.append(cluster.worker(node_id))
        return (yield from scheme.migrate_fraction(
            cluster, "kv", source, targets, 0.5))

    reports = env.run(until=env.process(go()))

    assert [r.target_node for r in reports] == order
    for report in reports:
        assert (report.scheme, report.table, report.source_node) == (
            scheme.name, "kv", source.node_id)
        assert report.records_moved > 0 and report.bytes_copied > 0
        assert (report.segments_moved > 0) == (scheme.name != "logical")
        assert report.started_at < report.finished_at
    assert reports[0].finished_at <= reports[1].started_at
    assert sum(r.records_moved for r in reports) >= 200
    assert read_all(env, cluster) == []
    locations = [loc for _r, loc in cluster.master.gpt.partitions("kv")]
    assert not any(loc.is_moving for loc in locations)
    # Ownership follows the spans: bottom to top, the source keeps the
    # lower half and the upper half went to the targets in span order.
    expected = [0] if scheme.name == "physical" else [0, 2, 3]
    assert [loc.node_id for loc in locations] == expected
