"""Frequency projectors attached to a dyadic block set.

project(f, blocks, j) applies the block multiplier; the companion projector
reproduces it (companion o project = project).  The square function collects
the block energies pointwise through the batched block kernel.
unit_ball_volume is omega_d, the volume of the unit ball in dimension d.
"""

from __future__ import annotations

import math

import numpy as np

from .dyadic_partition import DyadicBlockSet
from .torus_grid import GridFunction, apply_symbol, weighted_block_energy


def project(f: GridFunction, blocks: DyadicBlockSet, j: int) -> GridFunction:
    """P_j f: multiply the spectrum by block j's table and transform back."""
    return apply_symbol(f, blocks.symbol(j))


def project_companion(f: GridFunction, blocks: DyadicBlockSet, j: int) -> GridFunction:
    return apply_symbol(f, blocks.companion(j))


def block_energy_sum(f: GridFunction, blocks: DyadicBlockSet) -> np.ndarray:
    """sum_j |P_j f|^2, the block kernel at rank one with weight 1.

    Operator densities go through the same kernel, so the density of the
    rank-one operator |f><f| reproduces this array bit for bit.
    """
    return weighted_block_energy(f.grid, f.values[None], [1.0], blocks.symbols)


def square_function(f: GridFunction, blocks: DyadicBlockSet) -> GridFunction:
    """(sum_j |P_j f|^2)^(1/2) as a real nonnegative grid function."""
    return GridFunction(f.grid, np.sqrt(block_energy_sum(f, blocks)))


def unit_ball_volume(dimension: int) -> float:
    return math.pi ** (dimension / 2.0) / math.gamma(dimension / 2.0 + 1.0)
