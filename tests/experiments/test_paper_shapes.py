"""The paper's shapes, checked on every PR: each figure at its quick
preset must report ``violations == []`` — the orderings, crossovers and
recovery behaviour of Sect. 3.1 / Figs. 1-3 / 6-8 and of the failover,
scale-in and chaos extensions — and each gate must be able to fail,
naming the figure, the inequality and both numbers.

The runs come from ``tests/determinism/harness.py`` (once per process,
shared with the golden comparison): the four quick Fig. 6 cells —
physical, logical, physiological, physiological + helpers — also yield
Figs. 7 and 8.  The fig9 and chaos families are lists of runs, judged
by their runs and their sweep's gate over the runs' counters.
"""

import copy

import pytest

from repro.experiments import chaos_moves, elasticity, fig9_failover
from repro.experiments.fig6_schemes import SCHEMES, cross_scheme_violations
from tests.determinism.harness import result_of

pytestmark = pytest.mark.timeout(600)

FIGURES = ["power", "fig1", "fig2", "fig3", "fig6_physical", "fig6_logical",
           "fig6_physiological", "fig7", "fig8", "scale_in", "fig9", "chaos"]


def fig6_cells() -> dict:
    return {scheme: result_of(f"fig6_{scheme}") for scheme in SCHEMES}


#: The sweeps' gates: claims that span a family's runs.
SWEEP_GATES = {"fig9": fig9_failover.suite, "chaos": chaos_moves.suite}


def violations(family, result) -> list[str]:
    if family not in SWEEP_GATES:
        return result.violations
    return ([v for run in result for v in run.violations]
            + SWEEP_GATES[family](result).violations)


@pytest.mark.parametrize("family", FIGURES)
def test_the_papers_shape_holds(family):
    assert violations(family, result_of(family)) == []


def test_fig6_orderings_across_the_schemes_hold():
    assert cross_scheme_violations(fig6_cells()) == []


# -- the gates can fail ------------------------------------------------------

def swap(mapping, a, b):
    mapping[a], mapping[b] = mapping[b], mapping[a]


OPERATORS = ("<", "<=", ">", ">=", "==")


def set_series(series, value):
    series[:] = [(t, value) for t, _v in series]


#: (family, doctor one field, figure, the inequality that no longer
#: holds, its two numbers as read off the doctored result).
DOCTORED = [
    ("power", lambda r: setattr(r, "full_load_watts", 300.0),
     "Sect. 3.1", "full_load_watts <= 285", lambda r: (300.0, 285)),
    ("fig1", lambda r: swap(r.records_per_second, "project_remote_buffered",
                            "project_remote_vectorized"),
     "Fig. 1", "project_remote_buffered > project_remote_vectorized",
     lambda r: (r.records_per_second["project_remote_buffered"],
                r.records_per_second["project_remote_vectorized"])),
    ("fig2", lambda r: r.offloaded_qps.update({100: r.local_qps[100]}),
     "Fig. 2", "offloaded_qps[high] > 1.3 * local_qps[high]",
     lambda r: (r.local_qps[100], 1.3 * r.local_qps[100])),
    ("fig3", lambda r: r.tpm["mvcc"].update(r.tpm["locking"]),
     "Fig. 3", "gain(writes) >= 0.30", lambda r: (0.0, 0.30)),
    ("fig6_physical", lambda r: setattr(r, "rebalance_finished", 500.0),
     "Fig. 6 [physical]", "rebalance_finished < config.warmup + config.tail",
     lambda r: (500.0, 180.0)),
    ("fig6_logical", lambda r: set_series(r.response_ms, 100.0),
     "Fig. 6 [logical]", "during > 1.2 * before", lambda r: (100.0, 120.0)),
    ("fig6_physiological", lambda r: setattr(r, "records_moved", 80),
     "Fig. 6 [physiological]", "records_moved > 10 * config.tpcc.warehouses",
     lambda r: (80, 80)),
    ("fig7", lambda r: swap(r.mean_response_ms, "normal", "rebalancing"),
     "Fig. 7", "mean_response_ms['rebalancing'] > mean_response_ms['normal']",
     lambda r: (r.mean_response_ms["rebalancing"],
                r.mean_response_ms["normal"])),
    ("fig8", lambda r: swap(vars(r), "plain", "helped"),
     "Fig. 8", "helped['resp_ms'] < plain['resp_ms']",
     lambda r: (r.helped.response_around_move()[1],
                r.plain.response_around_move()[1])),
    ("scale_in", lambda r: set_series(r.watts, 100.0),
     "Scale-in", "after['watts'] < before['watts'] - 25",
     lambda r: (100.0, 75.0)),
    ("fig9", lambda r: r[1].counters["run"].update(lost_commits=1),
     "Fig. 9", "k[2].lost_commits == 0", lambda r: (1, 0)),
    ("chaos", lambda r: [run.counters["run"].update(
        resumed_move_completed=False) for run in r],
     "chaos", "moves_done_by_chunk_resume > 0", lambda r: (0, 0)),
]


@pytest.mark.parametrize("family, doctor, figure, claim, numbers", DOCTORED,
                         ids=[entry[0] for entry in DOCTORED])
def test_a_doctored_result_names_figure_inequality_and_numbers(
        family, doctor, figure, claim, numbers):
    result = copy.deepcopy(result_of(family))
    assert violations(family, result) == []
    doctor(result)
    (op,) = [token for token in claim.split() if token in OPERATORS]
    left, right = numbers(result)
    assert (f"{figure}: {claim} does not hold "
            f"({left:.6g} {op} {right:.6g})") in violations(family, result)


def test_a_missing_sample_fails_its_claim():
    runs = copy.deepcopy(result_of("fig9"))
    runs[1].counters["run"]["detection_seconds"] = None
    assert fig9_failover.suite(runs).violations == [
        "Fig. 9: k[2].detection_seconds >= 0 does not hold (no samples)"]


def test_doctored_cross_scheme_and_cross_mode_gates_fail():
    cells = copy.deepcopy(fig6_cells())
    swap(cells, "physical", "physiological")
    settled = max(cell.migration_seconds for cell in cells.values()) + 20
    after = {name: cell.mean_between(cell.response_ms, settled,
                                     cell.config.tail)
             for name, cell in cells.items()}
    assert (f"Fig. 6: after['physical'] > 2 * after['logical'] does not hold "
            f"({after['physical']:.6g} > {2 * after['logical']:.6g})"
            ) in cross_scheme_violations(cells)

    auto, static = copy.deepcopy(result_of("elasticity"))
    joules = auto.counters["run"]["energy_joules"]
    static.counters["run"]["energy_joules"] = joules - 1.0
    assert elasticity.compare([auto, static]).violations == [
        f"elasticity (seed 0): static.energy_joules > "
        f"autoscale.energy_joules does not hold "
        f"({joules - 1.0:.6g} > {joules:.6g})"]
