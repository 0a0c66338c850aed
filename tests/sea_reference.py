"""The materialized Fermi sea that sea_ladder's tests compare against.

fermi_sea(grid, mu) holds every plane wave with |xi|^2 <= mu as one
operator of unit weights, in sea_ladder's order: (|xi|^2, flat lattice
index).  No section builds it; sea_ladder streams the same waves' |.|^2
tables as outer products of one-axis rows.  plane_waves materializes the
waves from fock_operator's module binding of _axis_waves, the one-axis
waves the ladder transforms, so a test that patches them patches this sea
too.  gram_excess is the dense Gram residual that sea_ladder's
spectral certificate must bound.  bit_exact names the seas whose ladder
tables equal the transform of the materialized waves bit for bit.
"""

import numpy as np

import lplab.fock_operator
from lplab import FiniteRankOperator


def plane_waves(grid, modes) -> np.ndarray:
    """The normalized waves L^{-d/2} e^{i xi x} of ``modes``, as [r, N, .., N].

    Each wave is the product of waves of the one-axis table on the modes
    the waves use, appended one axis at a time: the scaled wave (L^{-d/2})
    on axis 0 and plain waves on the rest, so a constant factor multiplies
    by 1 + 0j exactly.
    """
    factors = np.stack(np.unravel_index(modes, grid.shape))
    axis_modes = np.unique(factors)
    table = lplab.fock_operator._axis_waves(grid, axis_modes)
    rows = np.searchsorted(axis_modes, factors)
    functions = table[1][rows[0]]
    for axis, row in enumerate(rows[1:], start=1):
        # Append one axis: [r, N, ..] times [r, 1, .., 1, N].
        functions = functions[..., None] * table[0][row].reshape((len(row),) + (1,) * axis + (-1,))
    return functions


def factor_counts(grid, modes) -> np.ndarray:
    """The number of non-constant one-axis factors of each wave of ``modes``."""
    return np.count_nonzero(np.stack(np.unravel_index(modes, grid.shape)), axis=0)


def bit_exact(grid, chemical_potential) -> bool:
    """Whether every wave of the sea has at most one non-constant factor, so
    that the ladder's tables of its waves are the transform's, bit for bit:
    every sea at d = 1, and the first shell (|xi|^2 <= 1) above it."""
    modes = lplab.fock_operator._sea_modes(grid, chemical_potential)
    return bool(np.all(factor_counts(grid, modes) <= 1))


def fermi_sea(grid, chemical_potential) -> FiniteRankOperator:
    """Projection onto the plane waves with |xi|^2 <= chemical_potential."""
    modes = lplab.fock_operator._sea_modes(grid, chemical_potential)
    return FiniteRankOperator(grid, np.ones(modes.size), plane_waves(grid, modes))


def gram_excess(sea: FiniteRankOperator, rank: int | None = None) -> float:
    """max |G_kl - delta_kl| of the dense Gram matrix G = h^d W^* W^T of the
    first ``rank`` waves W of a materialized sea (all of them by default)."""
    waves = sea.eigenfunctions.reshape(sea.rank, -1)[:rank]
    gram = sea.grid.cell_volume * (waves.conj() @ waves.T)
    return float(np.max(np.abs(gram - np.eye(len(waves)))))
