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

from repro.experiments import harness
from repro.experiments.fig6_schemes import Fig6Config, Fig6Result, run_fig6


def shape(result: harness.Result) -> list[str]:
    """Helpers improve responsiveness at the cost of two more active
    nodes: means over each variant's own rebalance window."""
    return harness.shape_violations("Fig. 8", result.counters, [
        "helped['resp_ms'] < plain['resp_ms']",
        "helped['watts'] > plain['watts'] + 10"])


def fig8_from_cells(plain: Fig6Result, helped: Fig6Result) -> harness.Result:
    """Fig. 8 out of two Fig. 6 physiological cells, plain and with
    helper nodes engaged: each panel's mean over the cell's own
    rebalance window."""
    result = harness.Result(
        "Fig. 8 — helper nodes during rebalancing (means over the "
        "rebalance window; plain: physiological, helped: + helper nodes)", {
            name: {**{panel: harness.mean_between(series, 0.0,
                                                  cell.migration_seconds)
                      for panel, series in cell.series.items()},
                   "migration_seconds": cell.migration_seconds}
            for name, cell in (("plain", plain), ("helped", helped))
        }, [], [])
    result.violations = shape(result)
    return result


def run_cells(config: Fig6Config | None = None,
              helper_nodes: tuple[int, ...] = (4, 5)
              ) -> tuple[Fig6Result, Fig6Result]:
    """The Fig. 6 physiological run, plain and with ``helper_nodes``
    engaged for the duration of the rebalance (Figs. 7 and 8)."""
    base = config or Fig6Config()
    if max(helper_nodes) >= base.node_count:
        raise ValueError("helper node ids exceed the cluster size")
    plain = run_fig6("physiological", base)
    helped_config = dataclasses.replace(base, helper_nodes=helper_nodes)
    return plain, run_fig6("physiological", helped_config)


def run_fig8(config: Fig6Config | None = None,
             helper_nodes: tuple[int, ...] = (4, 5)) -> harness.Result:
    return fig8_from_cells(*run_cells(config, helper_nodes))
