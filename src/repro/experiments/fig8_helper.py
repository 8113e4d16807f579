"""Fig. 8 — "Improving the benchmark results for physiological
partitioning": helper nodes during rebalancing.

"we conducted a final experiment, where we powered up additional nodes
to assist the present ones ...  we used the helper nodes for log
shipping and provision of additional buffer space using rDMA ...
including additional nodes increases power consumption, but improves
query response times.  Overall, energy efficiency gets worse ..., but,
in turn, performance increases." (Sect. 5.2)

Two runs of the Fig. 6 physiological experiment: plain, and with two
helper nodes engaged for the duration of the rebalance.
"""

from __future__ import annotations

import dataclasses

from repro.experiments.fig6_schemes import Fig6Config, Fig6Result, run_fig6
from repro.experiments.harness import shape_violations
from repro.metrics.report import render_table


@dataclasses.dataclass
class Fig8Result:
    plain: Fig6Result
    helped: Fig6Result

    @property
    def violations(self) -> list[str]:
        """Helpers improve responsiveness at the cost of two more active
        nodes: means over each variant's own rebalance window."""
        return shape_violations("Fig. 8", {
            name: {"resp_ms": cell.response_around_move()[1],
                   "watts": cell.mean_between(cell.watts, 0.0,
                                              cell.migration_seconds)}
            for name, cell in vars(self).items()
        }, ["helped['resp_ms'] < plain['resp_ms']",
            "helped['watts'] > plain['watts'] + 10"])

    def comparison_rows(self) -> list[list]:
        """During-rebalance means for the four panels."""
        rows = []
        for label, result in (("physiological", self.plain),
                              ("physiological + helper", self.helped)):
            window = (0.0, result.migration_seconds)
            rows.append([
                label,
                _fmt(result.mean_between(result.qps, *window)),
                _fmt(result.mean_between(result.response_ms, *window)),
                _fmt(result.mean_between(result.watts, *window)),
                _fmt(result.mean_between(result.joules_per_query, *window),
                     3),
                round(result.migration_seconds, 1),
            ])
        return rows

    def to_table(self) -> str:
        return render_table(
            ["variant", "qps", "resp ms", "watts", "J/query",
             "migration s"],
            self.comparison_rows(),
            title="Fig. 8 — helper nodes during rebalancing "
                  "(means over the rebalance window)",
        )


def _fmt(value, digits: int = 1):
    return None if value is None else round(value, digits)


def run_fig8(config: Fig6Config | None = None,
             helper_nodes: tuple[int, ...] = (4, 5)) -> Fig8Result:
    base = config or Fig6Config()
    if max(helper_nodes) >= base.node_count:
        raise ValueError("helper node ids exceed the cluster size")
    plain = run_fig6("physiological", base)
    helped_config = dataclasses.replace(base, helper_nodes=helper_nodes)
    helped = run_fig6("physiological", helped_config)
    return Fig8Result(plain=plain, helped=helped)
