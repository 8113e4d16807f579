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


def _ms(breakdown: dict) -> dict[str, float]:
    """A mean breakdown in ms per query."""
    return {component: 1000.0 * breakdown[component]
            for component in COMPONENTS}


def fig7_from_cells(plain: Fig6Result, helped: Fig6Result) -> harness.Result:
    """Fig. 7 out of two Fig. 6 physiological cells: plain, and with
    helper nodes engaged.  Each regime's breakdown in ms per query, and
    its mean response: the total of that breakdown, since every
    request's buckets sum to its response."""
    breakdowns = {"normal": _ms(plain.counters["breakdown normal"]),
                  "rebalancing": _ms(plain.counters["breakdown rebalancing"]),
                  "improved": _ms(helped.counters["breakdown rebalancing"])}
    result = harness.Result(
        "Fig. 7 — query runtime breakdown when rebalancing (ms per query; "
        "improved: with helper nodes)", {
            "mean_response_ms": {regime: sum(breakdown.values())
                                 for regime, breakdown in breakdowns.items()},
            **breakdowns,
        }, [], [])
    result.violations = shape(result)
    return result


def run_fig7(config: Fig6Config | None = None) -> harness.Result:
    return fig7_from_cells(*run_cells(config))
