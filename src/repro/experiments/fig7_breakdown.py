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

import dataclasses

from repro.experiments.fig6_schemes import Fig6Config, Fig6Result
from repro.experiments.fig8_helper import run_fig8
from repro.experiments.harness import shape_violations
from repro.metrics.breakdown import COMPONENTS, CostBreakdown
from repro.metrics.report import render_table


@dataclasses.dataclass
class Fig7Result:
    normal: CostBreakdown
    rebalancing: CostBreakdown
    improved: CostBreakdown
    mean_response_ms: dict[str, float]

    @property
    def violations(self) -> list[str]:
        """Slower while rebalancing, helpers claw part of it back, and
        disk I/O, locking or logging is what grew."""
        return shape_violations("Fig. 7", {**vars(self), "max": max}, [
            "mean_response_ms['rebalancing'] > mean_response_ms['normal']",
            "mean_response_ms['improved'] < mean_response_ms['rebalancing']",
            "max(rebalancing.disk_io - normal.disk_io, "
            "rebalancing.locking - normal.locking, "
            "rebalancing.logging - normal.logging) > 0"])

    def _row(self, label: str, breakdown: CostBreakdown,
             response_ms: float) -> list:
        accounted_ms = breakdown.total * 1000.0
        other_ms = max(response_ms - accounted_ms, 0.0) + breakdown.other * 1000
        cells = [label]
        for component in COMPONENTS:
            if component == "other":
                cells.append(round(other_ms, 2))
            else:
                cells.append(round(getattr(breakdown, component) * 1000, 2))
        cells.append(round(response_ms, 2))
        return cells

    def to_table(self) -> str:
        rows = [
            self._row("normal operation", self.normal,
                      self.mean_response_ms["normal"]),
            self._row("while rebalancing", self.rebalancing,
                      self.mean_response_ms["rebalancing"]),
            self._row("rebalancing improved", self.improved,
                      self.mean_response_ms["improved"]),
        ]
        headers = ["regime"] + [f"{c} ms" for c in COMPONENTS] + ["total ms"]
        return render_table(
            headers, rows,
            title="Fig. 7 — query runtime breakdown when rebalancing",
        )


def fig7_from_cells(plain: Fig6Result, helped: Fig6Result) -> Fig7Result:
    """Fig. 7 out of two Fig. 6 physiological cells: plain, and with
    helper nodes engaged."""
    before, rebalancing, _after = plain.response_around_move()
    improved = helped.response_around_move()[1]
    return Fig7Result(
        normal=plain.breakdown_normal,
        rebalancing=plain.breakdown_rebalancing,
        improved=helped.breakdown_rebalancing,
        mean_response_ms={"normal": before or 0.0,
                          "rebalancing": rebalancing or 0.0,
                          "improved": improved or 0.0},
    )


def run_fig7(config: Fig6Config | None = None,
             helper_nodes: tuple[int, ...] = (4, 5)) -> Fig7Result:
    cells = run_fig8(config, helper_nodes)
    return fig7_from_cells(cells.plain, cells.helped)
