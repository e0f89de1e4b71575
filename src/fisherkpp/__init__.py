"""Shifted BDF2-IMEX solver for the 2D Fisher-KPP equation.

Diffusion is treated implicitly and the reaction explicitly, with both
terms collocated at a shifted time t^{n+beta} (beta > 1). Works on
uniform and tanh-graded time grids and ships a convergence-study harness.
"""

__version__ = "0.1.0"
