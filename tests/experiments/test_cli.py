"""The experiments CLI: its sweep table and its argument surface."""

import dataclasses
import pickle

import pytest

from repro.experiments.__main__ import COMMANDS, SWEEPS, build_parser, main


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
    assert "1 schedules, 0 invariant violations" in out
    assert "audit: 0 isolation anomalies" in out
