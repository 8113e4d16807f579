"""Fig. 7 — "Impact factors on query runtime when rebalancing".

A per-query time breakdown (logging, latching, locking, network I/O,
disk I/O, other) in three regimes:

* normal operation,
* while rebalancing (plain physiological),
* rebalancing improved (physiological + helper nodes, i.e. the Fig. 8
  configuration: log shipping + rDMA buffer).

"From the increase in runtimes, we can deduce that critical sections
are disk I/O and locking ...  the time spent for network communication
remains unchanged ...  logging takes significantly longer when
rebalancing." (Sect. 5.2)
"""

from __future__ import annotations

import types

from repro.experiments import harness
from repro.experiments.fig6_schemes import Fig6Config, Fig6Result
from repro.experiments.fig8_helper import run_cells
from repro.metrics.breakdown import COMPONENTS


def shape(result: harness.Result) -> list[str]:
    """Slower while rebalancing, helpers claw part of it back, and
    disk I/O, locking or logging is what grew."""
    counters = result.counters
    return harness.shape_violations("Fig. 7", {
        "mean_response_ms": counters["mean_response_ms"], "max": max,
        **{regime: types.SimpleNamespace(**counters[regime])
           for regime in ("normal", "rebalancing")},
    }, ["mean_response_ms['rebalancing'] > mean_response_ms['normal']",
        "mean_response_ms['improved'] < mean_response_ms['rebalancing']",
        "max(rebalancing.disk_io - normal.disk_io, "
        "rebalancing.locking - normal.locking, "
        "rebalancing.logging - normal.logging) > 0"])


def _ms(breakdown: dict, response_ms: float) -> dict[str, float]:
    """A breakdown in ms per query; ``other`` also takes the response
    time no component accounted for."""
    unaccounted = max(response_ms - 1000.0 * sum(breakdown.values()), 0.0)
    return {component: 1000.0 * breakdown[component]
            + (unaccounted if component == "other" else 0.0)
            for component in COMPONENTS}


def fig7_from_cells(plain: Fig6Result, helped: Fig6Result) -> harness.Result:
    """Fig. 7 out of two Fig. 6 physiological cells: plain, and with
    helper nodes engaged.  The regimes' mean response ms, and each
    regime's breakdown in ms per query."""
    def response_ms(cell, lo, hi):
        return harness.mean_between(cell.series["resp_ms"], lo, hi) or 0.0

    mean_response_ms = {
        "normal": response_ms(plain, -plain.counters["run"]["warmup"], 0),
        "rebalancing": response_ms(plain, 0, plain.migration_seconds),
        "improved": response_ms(helped, 0, helped.migration_seconds)}
    breakdowns = {"normal": plain.counters["breakdown normal"],
                  "rebalancing": plain.counters["breakdown rebalancing"],
                  "improved": helped.counters["breakdown rebalancing"]}
    result = harness.Result(
        "Fig. 7 — query runtime breakdown when rebalancing (ms per query; "
        "improved: with helper nodes)", {
            "mean_response_ms": mean_response_ms,
            **{regime: _ms(breakdown, mean_response_ms[regime])
               for regime, breakdown in breakdowns.items()},
        }, [], [])
    result.violations = shape(result)
    return result


def run_fig7(config: Fig6Config | None = None) -> harness.Result:
    return fig7_from_cells(*run_cells(config))
