"""The materialized Fermi sea that sea_ladder's tests compare against.

fermi_sea(grid, mu) holds every plane wave with |xi|^2 <= mu as one
operator of unit weights, in sea_ladder's order: (|xi|^2, flat lattice
index).  No section builds it; sea_ladder streams the same waves, and its
w and rho must equal this operator's bit for bit.  The waves come from
fock_operator's module binding of _plane_waves, so a test that patches the
generator patches this sea too.
"""

import numpy as np

import lplab.fock_operator
from lplab import FiniteRankOperator


def fermi_sea(grid, chemical_potential) -> FiniteRankOperator:
    """Projection onto the plane waves with |xi|^2 <= chemical_potential."""
    modes = lplab.fock_operator._sea_modes(grid, chemical_potential)
    waves = lplab.fock_operator._plane_waves(grid, modes)
    return FiniteRankOperator(grid, np.ones(modes.size), waves)
