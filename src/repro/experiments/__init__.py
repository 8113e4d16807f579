"""Experiment harness: one module per table/figure in the paper's
evaluation, each reproducing the corresponding workload, sweep, and
reported series (see DESIGN.md's per-experiment index and EXPERIMENTS.md
for paper-vs-measured)."""

from repro.experiments.power_validation import run_power_validation
from repro.experiments.fig1_operators import run_fig1
from repro.experiments.fig2_offloading import run_fig2
from repro.experiments.fig3_mvcc import run_fig3
from repro.experiments.fig6_schemes import Fig6Config, run_fig6
from repro.experiments.fig7_breakdown import run_fig7
from repro.experiments.fig8_helper import run_fig8
from repro.experiments.fig9_failover import Fig9Config, run_fig9_single
from repro.experiments.scale_in import ScaleInConfig, run_scale_in
from repro.experiments.chaos_moves import ChaosConfig, run_chaos
from repro.experiments.endurance import EnduranceConfig, run_endurance
from repro.experiments.elasticity import ElasticityConfig, run_elasticity
from repro.experiments.read_scaling import (
    ReadScalingConfig,
    run_read_scaling,
)
from repro.experiments.torture import TortureConfig, run_torture

__all__ = [
    "ChaosConfig",
    "ElasticityConfig",
    "EnduranceConfig",
    "Fig6Config",
    "Fig9Config",
    "run_fig1",
    "run_fig2",
    "run_fig3",
    "run_fig6",
    "run_fig7",
    "run_fig8",
    "run_fig9_single",
    "run_chaos",
    "run_elasticity",
    "run_endurance",
    "run_power_validation",
    "run_read_scaling",
    "run_scale_in",
    "run_torture",
    "ReadScalingConfig",
    "ScaleInConfig",
    "TortureConfig",
]
