"""Frequency projectors attached to a dyadic block set.

project(f, blocks, j) applies the block multiplier; the companion projector
reproduces it (companion o project = project).  The square function collects
the block energies pointwise, and random sign multipliers build the
sum_j r_j Psi_j symbols used by randomized decoupling arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dyadic_partition import SMOOTH, DyadicBlockSet
from .errors import GridMismatchError
from .torus_grid import GridFunction, apply_symbol, weighted_block_energy


@dataclass(frozen=True)
class SignVector:
    """A vector of +-1 signs indexed from first_index upward."""

    first_index: int
    signs: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(s not in (-1, 1) for s in self.signs):
            raise ValueError("sign entries must be +1 or -1")

    def __len__(self) -> int:
        return len(self.signs)

    def sign(self, index: int) -> int:
        offset = index - self.first_index
        if not 0 <= offset < len(self.signs):
            raise IndexError(f"sign index {index} outside the vector's range")
        return self.signs[offset]

    @classmethod
    def random(cls, first_index: int, count: int, rng: np.random.Generator) -> "SignVector":
        draws = rng.integers(0, 2, size=count) * 2 - 1
        return cls(first_index, tuple(int(s) for s in draws))

    @classmethod
    def for_blocks(cls, blocks: DyadicBlockSet, rng: np.random.Generator) -> "SignVector":
        return cls.random(blocks.j_min, blocks.block_count, rng)


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


def random_sign_multiplier(
    f: GridFunction, blocks: DyadicBlockSet, signs: SignVector
) -> GridFunction:
    """Apply sum_j r_j Psi_j; the symbol stays bounded by 1 in modulus."""
    if signs.first_index != blocks.j_min or len(signs) != blocks.block_count:
        raise GridMismatchError(
            f"sign vector covering [{signs.first_index}, "
            f"{signs.first_index + len(signs) - 1}] does not match blocks "
            f"[{blocks.j_min}, {blocks.j_max}]"
        )
    table = np.zeros(blocks.grid.shape)
    for j in blocks.block_indices:
        table = table + signs.sign(j) * blocks.symbol(j)
    return apply_symbol(f, table)


def unit_ball_volume(dimension: int) -> float:
    return math.pi ** (dimension / 2.0) / math.gamma(dimension / 2.0 + 1.0)


def bernstein_bound_constant(dimension: int) -> float:
    """Constant C_B with max|P_j f| <= C_B 2^(j d / 2) ||P_j f||_2 for interior j.

    Cauchy-Schwarz over the block's spectral support gives the volume of the
    ball of radius 2 over (2 pi)^d; the factor 2 absorbs the discrepancy
    between the lattice point count and the continuum volume at desk sizes.
    """
    ball = unit_ball_volume(dimension) * 2.0**dimension
    return 2.0 * math.sqrt(ball / (2.0 * math.pi) ** dimension)


def frequency_comparability_bounds(j: int) -> tuple[float, float]:
    """Rayleigh-quotient range of the Laplacian on an interior block, [4^(j-1), 4^(j+1)]."""
    return 2.0 ** (2 * (j - 1)), 2.0 ** (2 * (j + 1))
