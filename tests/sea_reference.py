"""The materialized Fermi sea that sea_ladder's tests compare against.

fermi_sea(grid, mu) holds every plane wave with |xi|^2 <= mu as one
operator of unit weights, in sea_ladder's order: (|xi|^2, flat lattice
index).  No section builds it; sea_ladder streams the same waves, and its
w and rho must equal this operator's bit for bit.  The waves come from
fock_operator's module binding of _plane_waves, so a test that patches the
generator patches this sea too.  gram_excess is the dense Gram residual
that sea_ladder's spectral certificate must bound.
"""

import numpy as np

import lplab.fock_operator
from lplab import FiniteRankOperator


def fermi_sea(grid, chemical_potential) -> FiniteRankOperator:
    """Projection onto the plane waves with |xi|^2 <= chemical_potential."""
    modes = lplab.fock_operator._sea_modes(grid, chemical_potential)
    waves = lplab.fock_operator._plane_waves(grid, modes)
    return FiniteRankOperator(grid, np.ones(modes.size), waves)


def gram_excess(sea: FiniteRankOperator, rank: int | None = None) -> float:
    """max |G_kl - delta_kl| of the dense Gram matrix G = h^d W^* W^T of the
    first ``rank`` waves W of a materialized sea (all of them by default)."""
    waves = sea.eigenfunctions.reshape(sea.rank, -1)[:rank]
    gram = sea.grid.cell_volume * (waves.conj() @ waves.T)
    return float(np.max(np.abs(gram - np.eye(len(waves)))))
