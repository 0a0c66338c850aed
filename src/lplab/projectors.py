"""unit_ball_volume is omega_d, the volume of the unit ball in dimension d.

Frequency projections and the square function live in torus_grid's batched
block kernel (block_energy_stack); dyadic_partition tabulates the block and
companion symbols they apply.
"""

from __future__ import annotations

import math


def unit_ball_volume(dimension: int) -> float:
    return math.pi ** (dimension / 2.0) / math.gamma(dimension / 2.0 + 1.0)
