"""Block projectors: reconstruction, reproduction, disjointness, signed
block sums, and the finite-size Bernstein and frequency-comparability bounds.

A projection P_j f is written out here in plain numpy, one forward and one
inverse transform per block; the square function is the lp sampler's block
kernel, block_energy_stack on the fft_stack of a one-member stack.
"""

import numpy as np
import pytest

from lplab import (
    diagonal_block_bound,
    plane_wave,
    random_band_limited,
    unit_ball_volume,
)
from lplab.torus_grid import block_energy_stack, fft_stack, kinetic_forms, lp_norms


def apply_symbol(f, table):
    """table(D) f on the grid."""
    return np.fft.ifftn(table * np.fft.fftn(f))


def project(f, blocks, j):
    return apply_symbol(f, blocks.symbol(j))


def project_companion(f, blocks, j):
    return apply_symbol(f, blocks.companion(j))


def lp_norm(grid, f, p):
    return lp_norms(grid, np.abs(f)[None], p)[0]


def block_energy_sum(f, blocks):
    """sum_j |P_j f|^2 as the lp sampler computes it."""
    spectra = fft_stack(blocks.grid, f[None])[:, None]
    return block_energy_stack(blocks.grid, spectra, np.ones((1, 1)), blocks.symbols)[0]


class TestReconstruction:
    def test_blocks_sum_back_to_input(self, blocks1, blocks2):
        for blocks, seed in ((blocks1, 7), (blocks2, 8)):
            f = random_band_limited(blocks.grid, decay=0.5, seed=seed)[0]
            total = np.zeros(blocks.grid.shape, dtype=complex)
            for j in blocks.block_indices:
                total = total + project(f, blocks, j)
            scale = np.abs(f).max()
            np.testing.assert_allclose(total, f, atol=1e-12 * scale)

    def test_companion_reproduces_projection(self, blocks1):
        f = random_band_limited(blocks1.grid, decay=1.0, seed=9)[0]
        for j in blocks1.block_indices:
            piece = project(f, blocks1, j)
            again = project_companion(piece, blocks1, j)
            scale = max(np.abs(piece).max(), 1e-300)
            np.testing.assert_allclose(again, piece, atol=1e-12 * scale)

    def test_far_blocks_have_disjoint_symbols(self, blocks1, blocks2):
        for blocks in (blocks1, blocks2):
            for j in blocks.block_indices:
                for k in blocks.block_indices:
                    if abs(j - k) >= 2:
                        product = blocks.symbol(j) * blocks.symbol(k)
                        assert np.count_nonzero(product) == 0

    def test_far_block_projection_composes_to_noise_floor(self, blocks1):
        f = random_band_limited(blocks1.grid, decay=0.5, seed=10)[0]
        piece = project(project(f, blocks1, 2), blocks1, 5)
        assert np.abs(piece).max() <= 1e-12 * np.abs(f).max()

    def test_plane_wave_lands_in_its_blocks(self, blocks1):
        # Mode 16 sits at radius 2^4, on the boundary shared by blocks 4, 5.
        u = plane_wave(blocks1.grid, [16])
        energies = [
            lp_norm(blocks1.grid, project(u, blocks1, j), 2) ** 2 for j in blocks1.block_indices
        ]
        total = sum(energies)
        assert energies[4] / total > 0.99
        for j, energy in zip(blocks1.block_indices, energies):
            if abs(j - 4) > 1:
                assert energy <= 1e-20 * total


class TestSquareFunction:
    def test_square_function_within_parseval_window(self, blocks1, blocks2):
        # sum_j Psi_j^2 lies in [1/2, 1], so ||Sf||_2 does too, relative to ||f||_2.
        for blocks, seed in ((blocks1, 11), (blocks2, 12)):
            f = random_band_limited(blocks.grid, decay=0.7, seed=seed)[0]
            square_function = np.sqrt(block_energy_sum(f, blocks))
            ratio = lp_norm(blocks.grid, square_function, 2) / lp_norm(blocks.grid, f, 2)
            assert np.sqrt(0.5) - 1e-9 <= ratio <= 1.0 + 1e-9

    def test_energy_sum_is_real_nonnegative(self, blocks1):
        f = random_band_limited(blocks1.grid, decay=1.0, seed=13)[0]
        energies = block_energy_sum(f, blocks1)
        assert energies.dtype.kind == "f"
        assert energies.min() >= 0.0


def signed_block_sum(f, blocks, signs):
    """Apply sum_j r_j Psi_j, the symbol of a randomized block decomposition."""
    table = sum(r * blocks.symbol(j) for j, r in zip(blocks.block_indices, signs))
    return apply_symbol(f, table)


class TestBernstein:
    # Cauchy-Schwarz over block j's spectral support bounds |P_j f|^2
    # pointwise by B_j ||f||_2^2, where B_j = L^-d sum_xi Psi_j(xi)^2 is the
    # density bound of the rank-one operator |f><f| / ||f||_2^2.
    @pytest.mark.parametrize("seed", range(5))
    def test_interior_sup_bound_1d(self, blocks1, seed):
        f = random_band_limited(blocks1.grid, decay=0.3, seed=100 + seed)[0]
        l2sq = lp_norm(blocks1.grid, f, 2) ** 2
        for j in blocks1.interior_indices:
            sup = np.abs(project(f, blocks1, j)).max()
            assert sup**2 <= diagonal_block_bound(blocks1, j) * l2sq * (1 + 1e-9), f"block {j}"

    @pytest.mark.parametrize("seed", range(3))
    def test_interior_sup_bound_2d(self, blocks2, seed):
        f = random_band_limited(blocks2.grid, decay=0.3, seed=200 + seed)[0]
        l2sq = lp_norm(blocks2.grid, f, 2) ** 2
        for j in blocks2.interior_indices:
            sup = np.abs(project(f, blocks2, j)).max()
            assert sup**2 <= diagonal_block_bound(blocks2, j) * l2sq * (1 + 1e-9), f"block {j}"

    def test_constant_prefactor_values(self):
        np.testing.assert_allclose(unit_ball_volume(1), 2.0, rtol=1e-14)
        np.testing.assert_allclose(unit_ball_volume(2), np.pi, rtol=1e-14)
        np.testing.assert_allclose(unit_ball_volume(3), 4.0 * np.pi / 3.0, rtol=1e-14)


class TestFrequencyComparability:
    @pytest.mark.parametrize("seed", range(4))
    def test_rayleigh_quotient_inside_window(self, blocks1, seed):
        # An interior block lives on 2^(j-1) <= |xi| <= 2^(j+1); the chain's
        # spectral floor 4^j / 4 is the lower end.
        f = random_band_limited(blocks1.grid, decay=0.5, seed=300 + seed)[0]
        for j in blocks1.interior_indices:
            piece = project(f, blocks1, j)
            l2sq = lp_norm(blocks1.grid, piece, 2) ** 2
            if l2sq == 0.0:
                continue
            quotient = kinetic_forms(blocks1.grid, piece[None], 1.0)[0] / l2sq
            low, high = 4.0 ** (j - 1), 4.0 ** (j + 1)
            assert low * (1 - 1e-9) <= quotient <= high * (1 + 1e-9), f"block {j}"


class TestSignMultiplier:
    def test_all_plus_signs_give_identity(self, blocks1):
        f = random_band_limited(blocks1.grid, decay=0.8, seed=14)[0]
        out = signed_block_sum(f, blocks1, [1] * blocks1.block_count)
        np.testing.assert_allclose(out, f, atol=1e-12 * np.abs(f).max())

    @pytest.mark.parametrize("seed", range(6))
    def test_non_expansive(self, blocks1, seed):
        rng = np.random.default_rng(400 + seed)
        f = random_band_limited(blocks1.grid, decay=0.5, seed=500 + seed)[0]
        out = signed_block_sum(f, blocks1, rng.integers(0, 2, blocks1.block_count) * 2 - 1)
        assert lp_norm(blocks1.grid, out, 2) <= lp_norm(blocks1.grid, f, 2) * (1 + 1e-12)

    def test_involution(self, blocks1):
        # Applying the same sign pattern twice multiplies by (sum r_j Psi_j)^2,
        # which is below 1 only where blocks of opposite sign overlap.
        f = random_band_limited(blocks1.grid, decay=0.5, seed=15)[0]
        signs = np.random.default_rng(16).integers(0, 2, blocks1.block_count) * 2 - 1
        twice = signed_block_sum(signed_block_sum(f, blocks1, signs), blocks1, signs)
        assert lp_norm(blocks1.grid, twice, 2) <= lp_norm(blocks1.grid, f, 2) * (1 + 1e-12)
        # The squared symbol is nonnegative and at most 1, so no Fourier
        # coefficient is amplified.
        coeffs_in = np.abs(np.fft.fftn(f))
        coeffs_out = np.abs(np.fft.fftn(twice))
        assert np.all(coeffs_out <= coeffs_in + 1e-10 * coeffs_in.max())
