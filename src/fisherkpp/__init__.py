"""Shifted BDF2-IMEX solver for the 2D Fisher-KPP equation.

Diffusion is treated implicitly and the reaction explicitly, with both
terms collocated at a shifted time t^{n+beta} (beta > 1). Works on
uniform and tanh-graded time grids and ships a convergence-study harness.
"""

from .analysis import (
    ConvergenceTable,
    l2_error,
    linf_error,
    observed_order,
    spatial_sweep,
    temporal_sweep,
)
from .coeffs import StepCoefficients, nonuniform_coeffs, uniform_coeffs
from .linsolve import ShiftedOperator, cg_solve, direct_solve_small
from .problems import Nonlinearity, ProblemSpec, example1, example2, f_eval
from .spatial import SpaceGrid, apply_laplacian, boundary_contribution
from .stepper import RunReport, bdf_imex_step, integrate, rk_init
from .timegrid import TimeGrid, graded_grid, time_grid, uniform_grid

__version__ = "0.1.0"

__all__ = [
    "ConvergenceTable", "Nonlinearity", "ProblemSpec", "RunReport",
    "ShiftedOperator", "SpaceGrid", "StepCoefficients",
    "TimeGrid", "apply_laplacian", "bdf_imex_step",
    "boundary_contribution", "cg_solve", "direct_solve_small", "example1",
    "example2", "f_eval", "graded_grid", "integrate", "l2_error",
    "linf_error", "nonuniform_coeffs", "observed_order",
    "rk_init", "spatial_sweep", "temporal_sweep", "time_grid", "uniform_coeffs",
    "uniform_grid",
]
