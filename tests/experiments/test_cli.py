"""The experiments CLI: its sweep table and its argument surface."""

import copy
import dataclasses
import pickle

import pytest

from repro import experiments
from repro.experiments import fig1_operators
from repro.experiments.__main__ import COMMANDS, SWEEPS, build_parser, main
from tests.determinism.harness import result_of


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_every_sweep_row_parses_and_is_runnable(name):
    args = build_parser().parse_args(
        [name, "--seeds", "0", "1", "--audit", "--jobs", "2"])
    assert args.experiment == name and args.seeds == [0, 1]
    assert name in COMMANDS
    sweep = SWEEPS[name]
    for config in (sweep.quick(), sweep.full()):
        # What the generic runner does to every row's config.
        cell = dataclasses.replace(config, seed=3, audit=True)
        assert cell.seed == 3 and cell.audit
        modes = list(sweep.modes(cell))
        assert modes
        if isinstance(modes[0], str):
            assert dataclasses.replace(cell, mode=modes[0]).mode == modes[0]
    pickle.dumps(sweep.run)      # run_tasks ships it to worker processes


def test_elasticity_takes_seeds_and_the_old_seed_flag_is_gone(capsys):
    args = build_parser().parse_args(["elasticity", "--seeds", "0"])
    assert args.seeds == [0]
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(["elasticity", "--seed", "0"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


def test_a_sweep_runs_end_to_end_through_the_table(capsys):
    assert main(["chaos", "--seeds", "0", "--audit"]) == 0
    out = capsys.readouterr().out
    assert "chaos — seed 0" in out and "chaos — 1 schedules" in out
    assert "\naudit\ncounter" in out and "ops_recorded" in out
    assert "VIOLATION" not in out


def test_a_figure_whose_shape_is_violated_exits_with_its_table(monkeypatch):
    """Every command is its own gate: swap two Fig. 1 bars and ``fig1``
    leaves through ``SystemExit`` carrying the table and the violated
    inequality — the path a failed sweep takes."""
    doctored = copy.deepcopy(result_of("fig1"))
    rates = doctored.counters["records_per_second"]
    rates["tbscan_local"], rates["project_local"] = (
        rates["project_local"], rates["tbscan_local"])
    doctored.violations = fig1_operators.shape(doctored)
    monkeypatch.setattr(experiments, "run_fig1", lambda: doctored)
    with pytest.raises(SystemExit) as exit_info:
        main(["fig1"])
    report = str(exit_info.value.code)
    assert report == doctored.to_table()
    violation = ("VIOLATION: Fig. 1: tbscan_local > project_local does not "
                 f"hold ({rates['tbscan_local']:.6g} > "
                 f"{rates['project_local']:.6g})")
    assert report.count(violation) == 1


def test_unaudited_fig9_fails_on_a_lost_commit_at_k2():
    runs = copy.deepcopy(result_of("fig9"))
    assert all(run.ok for run in runs)
    runs[1].counters["run"]["lost_commits"] = 1
    gate = SWEEPS["fig9"].gate(None, runs)
    assert not gate.ok
    assert gate.to_table().splitlines()[1:] == [
        "VIOLATION: Fig. 9: k[2].lost_commits == 0 does not hold (1 == 0)"]
