"""Grid geometry, transforms against a direct-sum oracle, and spectral calculus."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lplab
from lplab import (
    GridMismatchError,
    TorusGrid,
    ZeroModeSingularityError,
    abs_squared,
    plane_wave,
)
from lplab.torus_grid import (
    forward_transform_stack,
    inverse_transform_stack,
    kinetic_forms,
    laplacian_power,
    lp_norms,
    zero_mode_offenders,
)

TAU = 2.0 * np.pi


def random_function(grid, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)


def forward(grid, f):
    """The coefficients of one grid field, through the stack transform."""
    return forward_transform_stack(grid, f[None])[0]


def apply_multiplier(grid, f, table):
    """table(D) f through one forward and one inverse stack transform."""
    return inverse_transform_stack(grid, (table * forward(grid, f))[None])[0]


def norm(grid, f, p):
    return lp_norms(grid, np.abs(f)[None], p)[0]


def form(grid, f, power):
    return kinetic_forms(grid, f[None], power)[0]


class TestGridValidation:
    def test_dimension_out_of_range(self):
        with pytest.raises(ValueError, match="dimension"):
            TorusGrid(4, TAU, 16)
        with pytest.raises(ValueError, match="dimension"):
            TorusGrid(0, TAU, 16)

    def test_points_must_be_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            TorusGrid(1, TAU, 12)

    def test_points_minimum(self):
        with pytest.raises(ValueError, match="power of two"):
            TorusGrid(1, TAU, 4)

    def test_box_length_positive(self):
        for length in (-1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="box_length must be finite and positive"):
                TorusGrid(1, length, 16)

    def test_size_cap(self):
        with pytest.raises(ValueError, match="size cap"):
            TorusGrid(3, TAU, 512)  # 512^3 > 2^24

    def test_geometry_accessors(self, grid2):
        assert grid2.shape == (64, 64)
        assert grid2.size == 64 * 64
        assert grid2.spacing == pytest.approx(TAU / 64)
        assert grid2.cell_volume == pytest.approx((TAU / 64) ** 2)
        assert grid2.volume == pytest.approx(TAU**2)
        assert grid2.zero_mode_index == (0, 0)

    def test_frequencies_are_integer_lattice(self, grid1):
        # With L = 2 pi the dual lattice step is exactly 1.
        xi = grid1.axis_frequencies
        assert xi[0] == 0.0
        np.testing.assert_allclose(xi[1], 1.0, rtol=1e-15)
        np.testing.assert_allclose(xi[grid1.points_per_axis // 2], -128.0, rtol=1e-15)

    @pytest.mark.parametrize("d,n", [(2, 256), (3, 32)])
    def test_frequency_norms_build_no_meshgrid(self, d, n, traced_peak):
        """|xi|^2 equals the sum of the squared frequency meshgrids bit for
        bit, and its table is the only grid-sized array it allocates."""
        grid = TorusGrid(d, TAU, n)
        grid.axis_frequencies
        nsq, peak = traced_peak(lambda: grid.frequency_norms_squared)
        assert "frequency_grids" not in grid.__dict__
        # The table and one ufunc buffer of 64 KiB; the meshgrids were d more tables.
        assert peak <= 1.5 * nsq.nbytes, peak / nsq.nbytes
        reference = np.zeros(grid.shape)
        for component in grid.frequency_grids:
            reference = reference + component**2
        np.testing.assert_array_equal(nsq, reference)

    def test_mode_index_wraps_negatives(self, grid1):
        assert grid1.mode_index([3]) == (3,)
        assert grid1.mode_index([-1]) == (255,)

    def test_mode_index_rejects_bad_modes(self, grid1, grid2):
        with pytest.raises(GridMismatchError, match="coordinates"):
            grid1.mode_index([1, 2])
        with pytest.raises(GridMismatchError, match="outside"):
            grid1.mode_index([128])  # valid range is [-128, 128)
        with pytest.raises(GridMismatchError, match="outside"):
            grid2.mode_index([0, -33])


class TestTransformOracle:
    """Compare the FFT-based transform with a literal O(N^2) quadrature sum."""

    def direct_forward(self, grid, f):
        flat_values = f.reshape(-1)
        points = np.stack([g.reshape(-1) for g in grid.coordinate_grids])
        freqs = np.stack([g.reshape(-1) for g in grid.frequency_grids])
        coeffs = np.empty(grid.size, dtype=complex)
        for idx in range(grid.size):
            phase = np.exp(-1j * (freqs[:, idx][:, None] * points).sum(axis=0))
            coeffs[idx] = grid.cell_volume * np.sum(flat_values * phase)
        return coeffs.reshape(grid.shape)

    def test_forward_matches_direct_sum_1d(self, small1):
        f = random_function(small1, seed=11)
        expected = self.direct_forward(small1, f)
        actual = forward(small1, f)
        np.testing.assert_allclose(actual, expected, atol=1e-12 * np.abs(expected).max())

    def test_forward_matches_direct_sum_2d(self, small2):
        f = random_function(small2, seed=12)
        expected = self.direct_forward(small2, f)
        actual = forward(small2, f)
        np.testing.assert_allclose(actual, expected, atol=1e-12 * np.abs(expected).max())

    def test_round_trip(self, grid1, grid2):
        for grid, seed in ((grid1, 21), (grid2, 22)):
            stack = np.stack([random_function(grid, seed + k) for k in range(3)])
            back = inverse_transform_stack(grid, forward_transform_stack(grid, stack))
            np.testing.assert_allclose(back, stack, atol=1e-12)

    def test_parseval(self, grid1, grid2):
        for grid, seed in ((grid1, 31), (grid2, 32)):
            f = random_function(grid, seed)
            physical = grid.cell_volume * np.sum(abs_squared(f))
            coeffs = forward(grid, f)
            spectral = np.sum(abs_squared(coeffs)) / grid.volume
            assert abs(physical - spectral) <= 1e-12 * physical

    def test_plane_wave_has_single_coefficient(self, grid1):
        u = plane_wave(grid1, [5])
        coeffs = forward(grid1, u)
        idx = grid1.mode_index([5])
        # Unit amplitude transforms to L^d at the mode, 0 elsewhere.
        np.testing.assert_allclose(coeffs[idx], TAU, rtol=1e-12)
        rest = coeffs.copy()
        rest[idx] = 0.0
        assert np.abs(rest).max() <= 1e-12 * TAU

    def test_plane_wave_values(self, small1):
        u = plane_wave(small1, [3], amplitude=2.0 - 1.0j)
        x = small1.axis_coordinates
        expected = (2.0 - 1.0j) * np.exp(3j * x)
        np.testing.assert_allclose(u, expected, rtol=1e-14)


class TestNorms:
    def test_l2_matches_inner_product(self, grid1):
        f = random_function(grid1, seed=41)
        self_pairing = grid1.cell_volume * np.vdot(f, f)
        assert abs(self_pairing.imag) <= 1e-14 * self_pairing.real
        np.testing.assert_allclose(norm(grid1, f, 2), np.sqrt(self_pairing.real), rtol=1e-12)

    def test_constant_norm_closed_form(self, grid2):
        # ||c||_p = |c| L^{d/p} for a constant on the torus.
        c = 3.0 + 4.0j
        f = np.full(grid2.shape, c)
        for p in (1.0, 1.5, 2.0, 4.0):
            np.testing.assert_allclose(norm(grid2, f, p), 5.0 * TAU ** (2.0 / p), rtol=1e-12)

    @given(scale=st.floats(min_value=1e-3, max_value=1e3), p=st.sampled_from([0.75, 1.0, 2.0, 3.0]))
    @settings(max_examples=40, deadline=None)
    def test_homogeneity(self, scale, p):
        grid = TorusGrid(1, TAU, 16)
        f = random_function(grid, seed=43)
        np.testing.assert_allclose(
            norm(grid, scale * f, p), scale * norm(grid, f, p), rtol=1e-12
        )

    def test_triangle_inequality(self, grid1):
        f = random_function(grid1, seed=44)
        g = random_function(grid1, seed=45)
        for p in (1.0, 2.0, 3.0):
            bound = norm(grid1, f, p) + norm(grid1, g, p)
            assert norm(grid1, f + g, p) <= bound * (1 + 1e-12)

    def test_quasinorm_below_one(self, grid1):
        # For p < 1 the reverse triangle inequality holds for disjoint supports:
        # ||f + g||_p^p = ||f||_p^p + ||g||_p^p, so ||f + g||_p >= ||f||_p + ||g||_p.
        values = random_function(grid1, seed=47)
        f, g = values.copy(), values.copy()
        f[grid1.points_per_axis // 2 :] = 0.0
        g[: grid1.points_per_axis // 2] = 0.0
        for p in (0.25, 0.5, 0.75):
            total = norm(grid1, f + g, p)
            parts = [norm(grid1, h, p) for h in (f, g)]
            np.testing.assert_allclose(total**p, parts[0] ** p + parts[1] ** p, rtol=1e-12)
            assert total >= sum(parts)

    def test_invalid_exponent(self, grid1):
        f = random_function(grid1, seed=46)
        with pytest.raises(ValueError, match="lp_norms requires p > 0"):
            norm(grid1, f, 0.0)
        with pytest.raises(ValueError, match="lp_norms requires p > 0"):
            norm(grid1, f, -1.0)


class TestApplySymbol:
    def test_identity_symbol(self, grid1):
        f = random_function(grid1, seed=51)
        out = apply_multiplier(grid1, f, np.ones(grid1.shape))
        np.testing.assert_allclose(out, f, atol=1e-12)

    def test_composition_matches_product(self, grid2):
        f = random_function(grid2, seed=52)
        rng = np.random.default_rng(53)
        s = rng.uniform(0.0, 1.0, grid2.shape)
        t = rng.uniform(0.0, 1.0, grid2.shape)
        one_pass = apply_multiplier(grid2, f, s * t)
        two_pass = apply_multiplier(grid2, apply_multiplier(grid2, f, s), t)
        np.testing.assert_allclose(two_pass, one_pass, atol=1e-12)


LAPLACIAN_GRIDS = [TorusGrid(1, TAU, 256), TorusGrid(2, 3.0, 64), TorusGrid(3, TAU, 16)]


def kinetic_forms_table(grid, power):
    """The table kinetic_forms built inline before laplacian_power."""
    nsq = grid.frequency_norms_squared.reshape(-1)
    if power < 0:
        weights = np.zeros(nsq.shape)
        mask = nsq > 0
        weights[mask] = nsq[mask] ** power
    else:
        weights = nsq**power
    return weights.reshape(grid.shape)


def spectral_trace_table(grid, power):
    """The table the operator kinetic trace built inline (power >= 0 only)."""
    return grid.frequency_norms_squared**power


def contract_table(grid, a):
    """The table validate_contract built inline for the contract power a = -s."""
    nsq = grid.frequency_norms_squared.reshape(-1)
    zero_col = int(np.flatnonzero(nsq == 0.0)[0])
    weights = np.zeros(nsq.shape)
    positive = nsq > 0
    weights[positive] = nsq[positive] ** (-a)
    if a == 0.0:
        weights[zero_col] = 1.0
    return weights.reshape(grid.shape)


class TestLaplacianPower:
    @pytest.mark.parametrize("grid", LAPLACIAN_GRIDS, ids=["d1", "d2", "d3"])
    @pytest.mark.parametrize("s", [-1.0, -0.25, 0.0, 1.0, 2.0])
    def test_equals_the_inline_tables(self, grid, s):
        table = laplacian_power(grid, s)
        assert np.array_equal(table, kinetic_forms_table(grid, s))
        assert np.array_equal(table, contract_table(grid, -s))
        if s >= 0:
            assert np.array_equal(table, spectral_trace_table(grid, s))

    def test_zero_mode_offenders(self, grid1):
        spectra = np.fft.fftn(random_function(grid1, seed=57))[None].repeat(3, axis=0)
        spectra[1, 0] = 0.0  # mean zero
        spectra[2] = 0.0  # the zero field carries no mass anywhere
        energy = abs_squared(spectra)
        assert zero_mode_offenders(energy).tolist() == [True, False, False]


class TestKineticForm:
    def test_plane_wave_closed_form(self, grid1, grid2):
        # One Fourier coefficient of size L^d: form = |xi|^{2 power} L^d.
        u = plane_wave(grid1, [3])
        np.testing.assert_allclose(form(grid1, u, 1.0), 9.0 * TAU, rtol=1e-12)
        v = plane_wave(grid2, [3, -4])
        np.testing.assert_allclose(form(grid2, v, 1.0), 25.0 * TAU**2, rtol=1e-12)
        np.testing.assert_allclose(form(grid2, v, 0.5), 5.0 * TAU**2, rtol=1e-12)

    def test_physical_space_gradient_oracle(self, grid1, grid2):
        # Differentiate axis by axis in physical space and integrate; Parseval
        # makes this an independent route to the same quadratic form.
        for grid, seed in ((grid1, 61), (grid2, 62)):
            f = random_function(grid, seed)
            coeffs = np.fft.fftn(f)
            gradient_energy = 0.0
            for axis_freqs in grid.frequency_grids:
                derivative = np.fft.ifftn(1j * axis_freqs * coeffs)
                gradient_energy += grid.cell_volume * np.sum(abs_squared(derivative))
            np.testing.assert_allclose(form(grid, f, 1.0), gradient_energy, rtol=1e-12)

    def test_power_zero_is_squared_l2(self, grid2):
        f = random_function(grid2, seed=63)
        np.testing.assert_allclose(form(grid2, f, 0.0), norm(grid2, f, 2) ** 2, rtol=1e-12)

    def test_negative_power_requires_zero_mean(self, grid1):
        # One field with zero-mode mass refuses the whole stack.
        stack = np.stack([plane_wave(grid1, [4]), np.ones(grid1.shape, dtype=complex)])
        with pytest.raises(ZeroModeSingularityError):
            kinetic_forms(grid1, stack, -0.5)
        assert kinetic_forms(grid1, stack[:1], -0.5)[0] > 0.0

    def test_negative_power_on_zero_mean_input(self, grid1):
        u = plane_wave(grid1, [4])
        np.testing.assert_allclose(form(grid1, u, -1.0), TAU / 16.0, rtol=1e-12)

    def test_zero_function_negative_power(self, grid1):
        zero = np.zeros(grid1.shape, dtype=complex)
        assert form(grid1, zero, -1.0) == 0.0
