"""Inequality checkers against closed forms and brute-force oracles."""

import itertools
import json
import math

import numpy as np
import pytest

import lplab
from lplab import (
    CheckSample,
    ConfigurationError,
    ContractViolationError,
    DegenerateInputError,
    FiniteRankOperator,
    GridMismatchError,
    RatioReport,
    SignEnsemble,
    TorusGrid,
    UnsupportedFamilyError,
    build_blocks,
    duality_identity_check,
    envelope_for,
    estimate_envelope,
    exponent_key,
    fermi_lattice_oracle,
    fermi_sweep,
    generalized_lt_check,
    khinchine_reports,
    lt_chain_check,
    philox_generator,
    plane_wave,
    random_band_limited,
    random_orthonormal_frame,
    sequence_lemma_bound,
    sequence_lemma_trials,
    sign_sum_samples,
    single_spike,
    summed_block_density,
)
from lplab.inequality_lab import (
    gns_exponent,
    _gns_samples,
    _lp_density_samples,
    _lp_function_samples,
    _sign_blocks,
)
from lplab.torus_grid import block_energy_stack, fft_stack, spectral_trace
from sea_reference import fermi_sea

TAU = 2.0 * np.pi
EXACT = SignEnsemble.exact()


def normalized_wave(grid, mode):
    return plane_wave(grid, mode, amplitude=grid.volume**-0.5)


def rank_one(grid, u, weight=1.0):
    return FiniteRankOperator(grid, np.array([weight]), u[None])


def sign_sum(a, p, ensemble=EXACT):
    """The sample of one coefficient array at one exponent."""
    return sign_sum_samples([a], [p], ensemble)[0][0]


def lp_samples(u, exponents, blocks):
    """The square-function samples of one member, one per exponent."""
    return _lp_function_samples(blocks.grid, u[None], exponents, blocks, 0)[0]


def density_samples(op, exponents, blocks):
    """The density samples of one operator, one per exponent."""
    return _lp_density_samples(op.grid, [op], exponents, blocks, 0)[0]


def gns_sample(grid, u):
    """The gns sample of one member at its critical exponent."""
    return _gns_samples(grid, u[None], [None], None, 0)[0][0]


@pytest.fixture(scope="module")
def blocks3():
    return build_blocks(TorusGrid(3, TAU, 16))


class TestKhinchine:
    def brute_moment(self, coefficients, p):
        a = np.asarray(coefficients, dtype=complex)
        total = 0.0
        for signs in itertools.product((-1.0, 1.0), repeat=a.size):
            total += abs(np.dot(signs, a)) ** p
        return total / 2.0 ** a.size

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_moment_beyond_binary64_names_p(self):
        # Eight terms of 16 sum to |S| = 2^7 with probability 2^-7, so
        # E|S|^300 >= 2^2093, above 2^1024.
        with pytest.raises(DegenerateInputError, match="at p = 300 leave the binary64"):
            sign_sum_samples(np.full((2, 8), 16.0), [2.0, 300.0], SignEnsemble.exact())

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_l2_power_beyond_binary64_names_p(self):
        # The sign sums of an antisymmetric tensor cancel, so its moment is 0,
        # but its l2 power (2e20)^16 is above 2^1024.
        tensor = np.array([[[0.0, 1e10], [-1e10, 0.0]]])
        with pytest.raises(DegenerateInputError, match="at p = 32 leave the binary64"):
            sign_sum_samples(tensor, [32.0], SignEnsemble.exact())

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_expectation_matches_brute_force(self, p):
        rng = np.random.default_rng(60)
        a = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        sample = sign_sum(a, p)
        expected = self.brute_moment(a, p)
        np.testing.assert_allclose(sample.lhs, expected, rtol=1e-12)
        np.testing.assert_allclose(
            sample.ratio, expected / np.sum(np.abs(a) ** 2) ** (p / 2), rtol=1e-12
        )

    def test_two_equal_coefficients_at_p_one(self):
        # E|r_1 + r_2| = 1 while the l2 side is sqrt(2); the lower ratio is
        # exactly 1 / sqrt(2), the extremal pair of the lower inequality.
        sample = sign_sum([1.0, 1.0], 1.0)
        assert sample.lhs == 1.0
        np.testing.assert_allclose(sample.ratio, 1.0 / math.sqrt(2.0), atol=1e-15)

    def test_p_two_is_an_identity(self):
        rng = np.random.default_rng(61)
        a = rng.standard_normal(9)
        np.testing.assert_allclose(sign_sum(a, 2.0).ratio, 1.0, rtol=1e-12)

    def test_invariance_under_flips_and_permutations(self):
        rng = np.random.default_rng(62)
        a = rng.standard_normal(7)
        base = sign_sum(a, 3.0).lhs
        flipped = sign_sum(a * (-1.0) ** np.arange(7), 3.0).lhs
        shuffled = sign_sum(a[::-1], 3.0).lhs
        np.testing.assert_allclose(flipped, base, rtol=1e-12)
        np.testing.assert_allclose(shuffled, base, rtol=1e-12)

    def test_enumeration_cap(self):
        with pytest.raises(ValueError, match="at most 20"):
            sign_sum(np.ones(21), 2.0)

    def test_exponent_floor(self):
        with pytest.raises(ValueError, match="p >= 1"):
            sign_sum([1.0], 0.5)

    def test_zero_coefficients_degenerate(self):
        ((first, zero, last),) = sign_sum_samples([[1.0, 0.0], [0.0, 0.0], [0.0, 2.0]], [2.0], EXACT)
        assert zero == CheckSample(1, 1, 0.0, 0.0, math.inf, degenerate=True)
        assert not first.degenerate and not last.degenerate
        assert first.ratio == last.ratio == 1.0

    def test_stack_shape_refused(self):
        for coefficients in ([1.0, 1.0], np.ones((1, 2, 2, 2))):
            with pytest.raises(ConfigurationError, match=r"\[c, n\] or \[c, J, K\]"):
                sign_sum_samples(coefficients, [2.0], EXACT)

    def test_monte_carlo_tracks_exact(self):
        rng = np.random.default_rng(63)
        a = rng.standard_normal(10)
        exact = sign_sum(a, 1.5)
        mc_ensemble = SignEnsemble.monte_carlo(samples=200_000, seed=64)
        mc = sign_sum(a, 1.5, mc_ensemble)
        np.testing.assert_allclose(mc.lhs, exact.lhs, rtol=0.02)
        again = sign_sum(a, 1.5, mc_ensemble)
        assert again.lhs == mc.lhs

    def test_monte_carlo_signs_are_not_a_coefficient_draw(self):
        # A khinchine run passes one seed to its coefficients, array i drawn
        # from philox_generator(seed, i) on stream 0, and to its signs.
        seed, terms, samples = 2027, 12, 64
        (signs,) = _sign_blocks(terms, SignEnsemble.monte_carlo(samples, seed))
        for index in range(8):
            bits = philox_generator(seed, index).integers(0, 2, size=(samples, terms))
            assert not np.array_equal(signs.real > 0, bits == 1), index

    def test_ensemble_validation(self):
        with pytest.raises(ValueError, match="mode"):
            SignEnsemble("quasi")
        with pytest.raises(ValueError, match="at least one"):
            SignEnsemble.monte_carlo(samples=0, seed=1)


class TestTensorKhinchine:
    def brute_tensor_moment(self, matrix, p):
        m = np.asarray(matrix, dtype=complex)
        n = max(m.shape)
        total = 0.0
        for signs in itertools.product((-1.0, 1.0), repeat=n):
            r = np.asarray(signs)
            value = r[: m.shape[0]] @ m @ r[: m.shape[1]]
            total += abs(value) ** p
        return total / 2.0**n

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_matches_brute_force(self, p):
        rng = np.random.default_rng(65)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        sample = sign_sum(m, p)
        np.testing.assert_allclose(sample.rhs, self.brute_tensor_moment(m, p), rtol=1e-12)
        assert not sample.degenerate

    def test_corner_spike_is_extremal(self):
        m = np.zeros((2, 3))
        m[0, 1] = 1.0
        sample = sign_sum(m, 1.5)
        assert sample.rhs == 1.0
        assert sample.ratio == 1.0

    def test_antisymmetric_input_cancels_identically(self):
        # Shared signs make the quadratic form r^T M r, which an antisymmetric
        # matrix kills for every sign vector.
        m = np.array([[0.0, 1.0], [-1.0, 0.0]])
        sample = sign_sum(m, 2.0)
        assert sample.rhs == 0.0
        assert sample.degenerate
        assert sample.ratio == math.inf

    def test_rectangular_shapes_accepted(self):
        rng = np.random.default_rng(66)
        m = rng.standard_normal((2, 5))
        np.testing.assert_allclose(
            sign_sum(m, 2.0).rhs, self.brute_tensor_moment(m, 2.0), rtol=1e-12
        )

    def test_zero_matrix_degenerate(self):
        spike = np.zeros((3, 3))
        spike[0, 0] = 1.0
        ((zero, spike),) = sign_sum_samples([np.zeros((3, 3)), spike], [2.0], EXACT)
        assert zero == CheckSample(0, 1, 0.0, 0.0, math.inf, degenerate=True)
        assert not spike.degenerate and spike.ratio == 1.0


class TestLpFunctionCheck:
    def test_single_block_wave_has_unit_ratio(self, grid1, blocks1, blocks3):
        # Mode 16 sits on block 4's plateau at d = 1 and mode (4, 0, 0) on
        # block 2's at d = 3, so the square function equals the modulus of
        # the wave itself.
        for blocks, mode in ((blocks1, [16]), (blocks3, (4, 0, 0))):
            for sample in lp_samples(plane_wave(blocks.grid, mode), [1.5, 2.0, 3.0], blocks):
                np.testing.assert_allclose(sample.ratio, 1.0, rtol=1e-12)

    def test_p_two_closed_form(self, grid1, blocks1):
        values = np.stack(
            [random_band_limited(grid1, decay=0.6, seed=700 + seed)[0] for seed in range(5)]
        )
        for (sample,) in _lp_function_samples(grid1, values, [2.0], blocks1, 0):
            np.testing.assert_allclose(sample.ratio, sample.closed_form, rtol=1e-12)
            assert math.sqrt(0.5) - 1e-12 <= sample.ratio <= 1.0 + 1e-12

    def test_exponent_floor(self, small1):
        with pytest.raises(ValueError, match="p > 1"):
            estimate_envelope("lp", [(2.0, None), (1.0, None)], small1, 2, 1)

    def test_zero_input_degenerate(self, grid1, blocks1):
        values = np.stack([np.zeros(grid1.shape, dtype=complex), plane_wave(grid1, [4])])
        zero, wave = _lp_function_samples(grid1, values, [1.5, 2.0], blocks1, 0)
        assert zero == [CheckSample(0, 1, 0.0, 0.0, math.inf, degenerate=True)] * 2
        assert zero[1].closed_form is None
        assert not any(sample.degenerate for sample in wave)
        assert wave[1].closed_form is not None


class TestLpDensityCheck:
    def test_rank_one_reduces_to_scalar_check(self, grid1, blocks1, blocks3):
        # For a rank-one weight-one operator the density pipeline must follow
        # the scalar pipeline exactly: same accumulations, same floats.
        for blocks, seed in ((blocks1, 710), (blocks3, 711)):
            grid = blocks.grid
            (u,) = random_band_limited(grid, decay=0.8, seed=seed)
            op = rank_one(grid, u)
            spectra = fft_stack(grid, u[None])[:, None]
            energy = block_energy_stack(grid, spectra, np.ones((1, 1)), blocks.symbols)[0]
            np.testing.assert_array_equal(summed_block_density(op, blocks), energy)
            ps = [0.75, 1.0, 1.5, 2.0]
            scalar_samples = lp_samples(u, [2.0 * p for p in ps], blocks)
            for density_sample, scalar_sample in zip(density_samples(op, ps, blocks), scalar_samples):
                np.testing.assert_allclose(
                    density_sample.ratio, scalar_sample.ratio**2, rtol=1e-12
                )

    def test_sharp_fermi_sea_is_exact(self, grid1, sharp1):
        # Every sea mode lies in exactly one sharp block, and both densities
        # are flat, so the comparison collapses to an identity.
        sea = fermi_sea(grid1, 16.5)
        (sample,) = density_samples(sea, [1.5], sharp1)
        np.testing.assert_allclose(sample.ratio, 1.0, rtol=1e-12)

    def test_rank_recorded(self, grid2, blocks2):
        op = random_orthonormal_frame(grid2, rank=4, decay=0.8, seed=711)
        (sample,) = density_samples(op, [1.0], blocks2)
        assert sample.rank == 4
        assert math.isfinite(sample.ratio) and sample.ratio > 0

    def test_exponent_floor(self, small1):
        with pytest.raises(ValueError, match="p > 1/2"):
            estimate_envelope("lp_density", [(0.5, None)], small1, 2, 1, 0.8, rank=2)


class TestDuality:
    def test_random_pairs_within_tolerance(self, grid1, blocks1, grid2, blocks2):
        blocks3 = build_blocks(TorusGrid(3, TAU, 16))
        for blocks, seed in ((blocks1, 720), (blocks2, 721), (blocks3, 722)):
            grid = blocks.grid
            (f,) = random_band_limited(grid, decay=0.7, seed=seed)
            (g,) = random_band_limited(grid, decay=0.7, seed=seed + 50)
            assert duality_identity_check(f, g, blocks) <= 1e-10

    def test_orthogonal_waves(self, grid1, blocks1):
        f = plane_wave(grid1, [3])
        g = plane_wave(grid1, [7])
        assert duality_identity_check(f, g, blocks1) <= 1e-14

    def test_zero_input_returns_zero(self, grid1, blocks1):
        zero = np.zeros(grid1.shape, dtype=complex)
        assert duality_identity_check(zero, zero, blocks1) == 0.0

    def test_sharp_family_rejected(self, grid1, sharp1):
        f = plane_wave(grid1, [3])
        with pytest.raises(UnsupportedFamilyError):
            duality_identity_check(f, f, sharp1)

    def test_grid_mismatch(self, grid1, blocks1, small1, grid2):
        # Either field off the block set's grid shape is refused.
        f = plane_wave(grid1, [3])
        for wrong in (plane_wave(small1, [3]), plane_wave(grid2, [3, 0]), f[None]):
            with pytest.raises(GridMismatchError, match="do not fit grid shape"):
                duality_identity_check(f, wrong, blocks1)
            with pytest.raises(GridMismatchError, match="do not fit grid shape"):
                duality_identity_check(wrong, f, blocks1)

    def test_one_forward_and_two_inverse_transforms(self, grid1, grid2, monkeypatch):
        calls = {"fftn": 0, "ifftn": 0}
        for name in calls:
            original = getattr(np.fft, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        for grid in (TorusGrid(1, TAU, 16), grid1, grid2):
            blocks = build_blocks(grid)
            (f,) = random_band_limited(grid, decay=0.7, seed=723)
            (g,) = random_band_limited(grid, decay=0.7, seed=724)
            calls.update(fftn=0, ifftn=0)
            duality_identity_check(f, g, blocks)
            assert calls == {"fftn": 1, "ifftn": 2}, (blocks.block_count, calls)


class TestGnsCheck:
    @pytest.mark.parametrize("mode", [1, 4, 16])
    def test_plane_wave_closed_form_1d(self, grid1, mode):
        # Single-mode ratio: (|xi| L)^(-d/(d+2)).
        sample = gns_sample(grid1, plane_wave(grid1, [mode]))
        np.testing.assert_allclose(sample.ratio, (mode * TAU) ** (-1.0 / 3.0), rtol=1e-12)

    def test_plane_wave_closed_form_2d_and_3d(self, grid2, blocks3):
        # |xi| = 5 at d = 2 and 3 at d = 3: (3 * 2 pi)^(-3/5) = 0.1717193856864170.
        for grid, mode, expected in (
            (grid2, [3, 4], (5.0 * TAU) ** (-0.5)),
            (blocks3.grid, (1, 2, 2), 0.1717193856864170),
        ):
            sample = gns_sample(grid, plane_wave(grid, mode))
            np.testing.assert_allclose(sample.ratio, expected, rtol=1e-12)

    def test_scale_invariance(self, grid1):
        (u,) = random_band_limited(grid1, decay=1.5, seed=730, zero_mean=True)
        values = np.stack([17.5 * u, u])
        (scaled,), (plain,) = _gns_samples(grid1, values, [None], None, 0)
        np.testing.assert_allclose(scaled.ratio, plain.ratio, rtol=1e-12)

    def test_constant_degenerates(self, grid1):
        sample = gns_sample(grid1, np.full(grid1.shape, 2.0 + 0j))
        assert sample == CheckSample(0, 1, 0.0, 0.0, math.inf, degenerate=True)

    def test_zero_degenerates(self, grid1):
        values = np.stack([np.zeros(grid1.shape, dtype=complex), plane_wave(grid1, [4])])
        (zero,), (wave,) = _gns_samples(grid1, values, [None], None, 0)
        assert zero == CheckSample(0, 1, 0.0, 0.0, math.inf, degenerate=True)
        assert not wave.degenerate

    def test_member_whose_integral_underflows_is_refused(self, grid1):
        """The ratio is scale invariant, but at 2^-200 times a member the
        integral of |u|^6 underflows while ||u||_2 does not: the check
        refuses, naming p and the member, rather than report ratio 0."""
        (u,) = random_band_limited(grid1, decay=1.5, seed=730, zero_mean=True)
        values = np.stack([u, 2.0**-200 * u, np.zeros(grid1.shape, dtype=complex)])
        with pytest.raises(DegenerateInputError, match="p = 6 of member 4 leaves the binary64"):
            _gns_samples(grid1, values, [6.0], None, 3)


class TestLiebThirring:
    def test_small_fermi_sea_closed_form(self, grid1):
        # Modes {0, 1, -1}: kinetic trace 2, flat density 3 / L, and the
        # cubed-density integral is 27 / L^2.
        sea = fermi_sea(grid1, 1.1)
        result = generalized_lt_check(sea, 0.0, 1.0)
        assert result.rank == 3
        np.testing.assert_allclose(result.kinetic, 2.0, rtol=1e-12)
        np.testing.assert_allclose(result.density_power_integral, 27.0 / TAU**2, rtol=1e-12)
        np.testing.assert_allclose(result.ratio, 2.0 * TAU**2 / 27.0, rtol=1e-12)

    def test_weak_bound_scales_with_rank(self, grid1, grid2):
        for grid, mu in ((grid1, 16.5), (grid2, 4.5)):
            (result,), _ = fermi_sweep(grid, [mu])
            np.testing.assert_allclose(
                result["weak_ratio"] / result["ratio"],
                result["rank"] ** (2.0 / grid.dimension),
                rtol=1e-12,
            )

    def test_weight_homogeneity(self, grid1):
        # Halving every weight scales the ratio by 2^{2/d}: the kinetic side
        # is linear, the density side degree 1 + 2/d.
        op = random_orthonormal_frame(grid1, rank=4, decay=0.8, seed=740, weights="ones")
        halved = FiniteRankOperator(grid1, 0.5 * op.eigenvalues, op.eigenfunctions)
        full = generalized_lt_check(op, 0.0, 1.0)
        half = generalized_lt_check(halved, 0.0, 1.0)
        np.testing.assert_allclose(half.ratio, full.ratio * 2.0**2.0, rtol=1e-12)

    @pytest.mark.parametrize("dim_fixture,mode", [("grid1", [4]), ("grid2", [3, 1])])
    def test_rank_one_matches_gns_power(self, request, dim_fixture, mode):
        grid = request.getfixturevalue(dim_fixture)
        u = normalized_wave(grid, mode)
        op = rank_one(grid, u)
        p = 2.0 + 4.0 / grid.dimension
        lt_ratio = generalized_lt_check(op, 0.0, 1.0).ratio
        gns_ratio = gns_sample(grid, u).ratio
        np.testing.assert_allclose(lt_ratio, gns_ratio ** (-p), rtol=1e-9)

    def test_contract_enforced(self, grid1):
        functions = np.stack([normalized_wave(grid1, [1])])
        op = FiniteRankOperator(grid1, np.array([1.5]), functions)
        with pytest.raises(ContractViolationError, match="unit_ball"):
            generalized_lt_check(op, 0.0, 1.0)

    def test_zero_mode_sea_degenerates(self, grid1):
        with pytest.raises(DegenerateInputError):
            generalized_lt_check(fermi_sea(grid1, 0.5), 0.0, 1.0)

    def test_zero_density_is_refused(self, grid1):
        op = rank_one(grid1, normalized_wave(grid1, [2]), weight=0.0)
        with pytest.raises(DegenerateInputError, match="zero density"):
            generalized_lt_check(op, 0.0, 1.0)

    @pytest.mark.parametrize("mu", [math.inf, math.nan], ids=["inf", "nan"])
    def test_non_finite_potential_is_refused(self, grid1, mu):
        for build in (fermi_sea, fermi_lattice_oracle):
            with pytest.raises(ConfigurationError, match="chemical potential must be positive"):
                build(grid1, mu)

    def test_oracle_agrees_with_pipeline(self, grid1, grid2):
        for grid, mu in ((grid1, 9.5), (grid1, 33.0), (grid2, 8.5)):
            oracle = fermi_lattice_oracle(grid, mu)
            result = generalized_lt_check(fermi_sea(grid, mu), 0.0, 1.0)
            assert type(oracle) is type(result)
            assert (oracle.rank, oracle.power_a, oracle.power_b, oracle.exponent) == (
                result.rank, 0.0, 1.0, 1.0 + 2.0 / grid.dimension
            )
            np.testing.assert_allclose(result.ratio, oracle.ratio, rtol=1e-10)

    def test_sweep_rows(self, grid1):
        ladder = [1.1, 4.5, 16.5]
        rows, _ = fermi_sweep(grid1, ladder)
        assert [row["rank"] for row in rows] == [3, 5, 9]
        for row in rows:
            assert row["oracle_gap"] <= 1e-10
            assert row["ratio"] > 0
        # The finite-sum ratio climbs toward its continuum value in 1d.
        assert rows[0]["ratio"] < rows[1]["ratio"] < rows[2]["ratio"]


ONE_SITE_GRIDS = {1: TorusGrid(1, TAU, 64), 2: TorusGrid(2, TAU, 16), 3: TorusGrid(3, TAU, 16)}


class TestOneSiteSums:
    """The Lieb-Thirring sides and the chain's t0 read torus_grid's one power
    quadrature and one Laplacian trace; the forms they replaced are kept here
    as references."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_chain_kinetic_is_the_lieb_thirring_kinetic(self, d):
        grid = ONE_SITE_GRIDS[d]
        op = random_orthonormal_frame(grid, rank=3, decay=0.7, seed=770 + d)
        chain = lt_chain_check(op, build_blocks(grid))
        assert chain.kinetic == generalized_lt_check(op, 0.0, 1.0).kinetic
        w = op.spectral_density
        assert chain.kinetic == float(np.sum(grid.frequency_norms_squared * w) / grid.volume)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_density_integral_is_the_grid_quadrature(self, d):
        grid = ONE_SITE_GRIDS[d]
        op = random_orthonormal_frame(grid, rank=3, decay=0.7, seed=780 + d)
        rho = op.density_values ** (1.0 + 2.0 / d)
        expected = float(grid.cell_volume * rho.sum())
        assert generalized_lt_check(op, 0.0, 1.0).density_power_integral == expected


class TestChain:
    def test_single_interior_wave_is_exact(self, grid1, blocks1):
        # Mode 4 lives on block 2's plateau: the block decomposition loses
        # nothing and the spectral floor 2^{2j}/4 = 4 is attained.
        op = rank_one(grid1, normalized_wave(grid1, [4]))
        result = lt_chain_check(op, blocks1)
        assert result.passed
        np.testing.assert_allclose(result.kinetic, 16.0, rtol=1e-12)
        np.testing.assert_allclose(result.block_kinetic, result.kinetic, rtol=1e-12)
        np.testing.assert_allclose(
            result.block_density_bound, result.kinetic / 4.0, rtol=1e-12
        )

    def test_random_frames_pass(self, grid1, blocks1, grid2, blocks2):
        grid3 = TorusGrid(3, TAU, 16)
        for grid, blocks in ((grid1, blocks1), (grid2, blocks2), (grid3, build_blocks(grid3))):
            for seed in range(4):
                op = random_orthonormal_frame(grid, rank=3, decay=0.6, seed=750 + seed)
                result = lt_chain_check(op, blocks)
                assert result.passed, (grid.dimension, seed, result)
                assert result.block_kinetic <= result.kinetic * (1 + 1e-9)
                assert result.block_density_bound <= result.block_kinetic * (1 + 1e-9)

    def test_fermi_sea_passes(self, grid2, blocks2):
        result = lt_chain_check(fermi_sea(grid2, 8.5), blocks2)
        assert result.passed

    def test_sharp_family_rejected(self, grid1, sharp1):
        op = rank_one(grid1, normalized_wave(grid1, [4]))
        with pytest.raises(UnsupportedFamilyError):
            lt_chain_check(op, sharp1)

    def test_contract_enforced(self, grid1, blocks1):
        op = rank_one(grid1, normalized_wave(grid1, [4]), weight=2.0)
        with pytest.raises(ContractViolationError):
            lt_chain_check(op, blocks1)


class TestSequenceLemma:
    def test_single_spike_saturates(self):
        for d in (1, 2, 3):
            result = sequence_lemma_bound(single_spike(d, 3), d)
            assert result.passed
            assert abs(result.ratio - 1.0) <= 1e-12

    def test_cap_violation_rejected(self):
        with pytest.raises(ValueError, match="admissibility cap"):
            sequence_lemma_bound({2: 5.0}, 1)

    def test_all_zero_sequence(self):
        result = sequence_lemma_bound({j: 0.0 for j in range(-3, 4)}, 2)
        assert result.passed
        assert result.lhs == 0.0 and result.rhs == 0.0

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError, match="admissibility"):
            sequence_lemma_bound({0: -0.25}, 1)

    def test_dimension_guard(self):
        with pytest.raises(ValueError, match="dimension"):
            sequence_lemma_bound({0: 0.5}, 4)

    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_random_trials_pass(self, dimension):
        summary = sequence_lemma_trials(dimension, trials=300, seed=77)
        assert summary["failures"] == 0
        assert summary["passed"]
        assert abs(summary["spike_ratio"] - 1.0) <= 1e-12
        assert summary["max_ratio"] <= summary["max_constant"] * (1 + 1e-12)


class TestGeneralizedLT:
    def test_trivial_powers_give_unit_ratio(self, grid1):
        op = random_orthonormal_frame(grid1, rank=3, decay=0.8, seed=761, power_bound=0.0)
        result = generalized_lt_check(op, 0.0, 0.0)
        assert result.exponent == 1.0
        np.testing.assert_allclose(result.ratio, 1.0, rtol=1e-10)

    def test_negative_power_pair_3d(self):
        grid = TorusGrid(3, TAU, 16)
        op = random_orthonormal_frame(grid, rank=2, decay=1.0, seed=762, power_bound=-1.0)
        result = generalized_lt_check(op, -1.0, 1.0)
        assert result.exponent == 3.0
        assert math.isfinite(result.ratio) and result.ratio > 0
        np.testing.assert_allclose(
            result.kinetic, spectral_trace(grid, op.spectral_density, 1.0), rtol=1e-12
        )

    def test_power_domain_guards(self, grid1):
        op = random_orthonormal_frame(grid1, rank=2, decay=1.0, seed=763, power_bound=0.0)
        with pytest.raises(ConfigurationError, match="exceed -d/2"):
            generalized_lt_check(op, -0.5, 1.0)
        with pytest.raises(ConfigurationError, match="nonnegative"):
            generalized_lt_check(op, 0.0, -1.0)

    def test_constant_eigenfunction_degenerates_at_b1(self, grid1):
        # tr (-Laplacian) gamma vanishes on the zero mode: the comparison is
        # refused, not reported as ratio 0.  At b = 0 the kinetic side is the
        # trace, 1, and the ratio is defined.
        op = rank_one(grid1, normalized_wave(grid1, [0]))
        with pytest.raises(DegenerateInputError, match="zero mode"):
            generalized_lt_check(op, 0.0, 1.0)
        np.testing.assert_allclose(generalized_lt_check(op, 0.0, 0.0).kinetic, 1.0, rtol=1e-12)

    def test_density_integral_that_underflows_is_refused(self, grid1):
        """At a = -0.4999 the exponent is q = 1 + 2/(1 - 0.9998) = 10001: the
        integral of rho^q underflows for a positive density, and the check
        names q.  The same frame with zero eigenvalues has zero density."""
        op = random_orthonormal_frame(grid1, rank=4, decay=1.0, seed=2029, power_bound=-0.4999)
        with pytest.raises(DegenerateInputError, match="q = 10001 leaves the binary64 range"):
            generalized_lt_check(op, -0.4999, 1.0)
        with pytest.raises(DegenerateInputError, match="zero density"):
            generalized_lt_check(op.reweighted(np.zeros(4)), -0.4999, 1.0)

    def test_power_whose_symbol_overflows_is_refused(self, grid1):
        # The largest |xi|^(2b) at d1 n256 is 128^(2b) = 2^(14 b).
        op = random_orthonormal_frame(grid1, rank=2, decay=1.0, seed=763, power_bound=0.0)
        with pytest.raises(ConfigurationError, match="power b = 80 puts"):
            generalized_lt_check(op, 0.0, 80.0)

    def test_contract_enforced(self):
        grid = TorusGrid(1, 2.0 * TAU, 16)
        u = normalized_wave(grid, [1])  # |xi| = 1/2, heavy under (-Laplacian)^{-1}
        op = rank_one(grid, u)
        with pytest.raises(ContractViolationError, match="power_bounded"):
            generalized_lt_check(op, 1.0, 1.0)


class TestRatioReport:
    def samples(self):
        return [
            CheckSample(0, 1, 1.0, 2.0, 0.5),
            CheckSample(1, 1, 3.0, 2.0, 1.5),
            CheckSample(2, 1, 0.0, 0.0, math.inf, degenerate=True),
        ]

    def test_aggregates_skip_degenerates(self):
        report = RatioReport(
            name="lp", p=2.0, family="smooth", profile_kind="exp",
            grid=None, seed=1, samples=self.samples(),
        )
        assert report.sample_count == 3
        assert report.degenerate_count == 1
        assert report.ratio_min == 0.5
        assert report.ratio_max == 1.5
        np.testing.assert_allclose(report.ratio_mean, 1.0)
        np.testing.assert_allclose(report.ratio_median, 1.0)
        assert report.passed is None  # no envelope attached: unjudged

    @pytest.mark.parametrize(
        "computed",
        ["degenerate_count", "ratio_min", "ratio_max", "ratio_mean", "ratio_median",
         "min_sample_id", "max_sample_id", "passed"],
    )
    def test_computed_fields_are_not_constructor_arguments(self, computed):
        with pytest.raises(TypeError, match=computed):
            RatioReport(
                name="lp", p=2.0, family="smooth", profile_kind="exp",
                grid=None, seed=1, samples=self.samples(), **{computed: 0},
            )

    def test_envelope_gates_pass(self):
        inside = RatioReport(
            name="lp", p=2.0, family="smooth", profile_kind="exp",
            grid=None, seed=1, samples=self.samples(), envelope=(0.25, 2.0),
        )
        assert inside.passed
        outside = RatioReport(
            name="lp", p=2.0, family="smooth", profile_kind="exp",
            grid=None, seed=1, samples=self.samples(), envelope=(0.6, 2.0),
        )
        assert not outside.passed

    def test_envelope_with_no_finite_samples_fails(self):
        only_degenerate = [CheckSample(0, 1, 0.0, 0.0, math.inf, degenerate=True)]
        report = RatioReport(
            name="lp", p=2.0, family="smooth", profile_kind="exp",
            grid=None, seed=1, samples=only_degenerate, envelope=(0.5, 2.0),
        )
        assert not report.passed

    def test_cell_holds_aggregates_not_samples(self):
        grid = {"dimension": 1, "box_length": TAU, "points_per_axis": 256}
        samples = [CheckSample(7, 1, 2.0, 4.0, 0.5)] + self.samples() + [
            # 7 comes first but ties the minimum at a higher id than 0.
            CheckSample(3, 1, 0.3, 3.0, 0.1, degenerate=True),  # below it, but degenerate
            CheckSample(4, 1, 1.0, 0.0, math.inf),  # above the maximum, but not finite
        ]
        report = RatioReport(
            name="gns", p=6.0, family="smooth", profile_kind="exp",
            grid=grid, seed=9, samples=samples, envelope=(0.4, 1.6),
        )
        assert report.to_dict() == {
            "name": "gns",
            "p": 6.0,
            "family": "smooth",
            "profile_kind": "exp",
            "grid": grid,
            "seed": 9,
            "sample_count": 6,
            "degenerate_count": 2,
            "aggregates": {"min": 0.5, "max": 1.5, "mean": 2.5 / 3, "median": 0.5},
            "min_sample_id": 0,
            "max_sample_id": 1,
            "envelope": [0.4, 1.6],
            "passed": True,
        }

    def test_ids_of_an_empty_cell_are_null(self):
        only_degenerate = [CheckSample(0, 1, 0.0, 0.0, math.inf, degenerate=True)]
        cell = RatioReport(
            name="lp", p=2.0, family="smooth", profile_kind="exp",
            grid=None, seed=1, samples=only_degenerate,
        ).to_dict()
        assert cell["min_sample_id"] is None and cell["max_sample_id"] is None
        assert cell["aggregates"] == {"min": None, "max": None, "mean": None, "median": None}


class TestEnvelopeEstimation:
    CORPUS = dict(samples=6, seed=81, decay=0.8)

    def test_deterministic(self, small1):
        (first,) = estimate_envelope("lp", [(2.0, None)], small1, **self.CORPUS)
        (second,) = estimate_envelope("lp", [(2.0, None)], small1, **self.CORPUS)
        assert first.samples == second.samples
        assert first.to_dict() == second.to_dict()

    @pytest.mark.parametrize("family", [lplab.SMOOTH, lplab.SHARP])
    def test_gns_reports_name_no_block_family(self, family):
        """gns builds no blocks, so its reports say "none" whatever family
        and profile the call passes."""
        grid = TorusGrid(1, 2 * math.pi, 64)
        blocks = dict(family=family, profile_kind="quintic")
        (report,) = estimate_envelope("gns", [(6.0, None)], grid, 2, 1, 1.5, **blocks)
        assert (report.family, report.profile_kind) == ("none", "none")
        (lp,) = estimate_envelope("lp", [(2.0, None)], grid, 2, 1, 1.5, **blocks)
        profile = "indicator" if family == lplab.SHARP else "quintic"
        assert (lp.family, lp.profile_kind) == (family, profile)

    def test_gns_refuses_any_other_exponent(self, small1):
        """A gns report labelled p measures the ratio at p: 2 + 4/d is the only p."""
        (report,) = estimate_envelope("gns", [(6.0, None)], small1, **self.CORPUS)
        assert report.p == 6.0
        for p in (3.0, 2.0, math.inf):
            with pytest.raises(ConfigurationError, match="requires p = 2 \\+ 4/d = 6, got"):
                estimate_envelope("gns", [(6.0, None), (p, None)], small1, **self.CORPUS)

    def test_unknown_checker(self, small1):
        with pytest.raises(ConfigurationError, match="unknown checker"):
            estimate_envelope("sobolev", [(2.0, None)], small1, **self.CORPUS)

    def test_envelope_applied(self, small1):
        report, impossible = estimate_envelope(
            "lp", [(2.0, (1e-6, 1e6)), (2.0, (0.999, 1.0))], small1, **self.CORPUS
        )
        assert report.passed
        assert not impossible.passed

    def test_density_checker_over_frames(self, small1):
        (report,) = estimate_envelope("lp_density", [(1.0, None)], small1, 4, 82, 0.8, rank=2)
        assert report.sample_count == 4
        assert all(s.rank == 2 for s in report.samples)

    @pytest.mark.parametrize("checker", ["lp", "gns"])
    @pytest.mark.parametrize("frame", [{"rank": 2}, {"weights": "ones"}])
    def test_a_field_checker_takes_no_frame_settings(self, small1, checker, frame):
        """Only lp_density draws frames: a rank or weights elsewhere is refused."""
        with pytest.raises(ConfigurationError, match="takes no rank or weights"):
            estimate_envelope(checker, [(6.0, None)], small1, **self.CORPUS, **frame)

    def test_the_report_echoes_the_grid_fields(self, small1):
        (report,) = estimate_envelope("lp", [(2.0, None)], small1, **self.CORPUS)
        assert report.to_dict()["grid"] == {
            "dimension": 1, "box_length": TAU, "points_per_axis": 16,
        }


class TestKhinchineReports:
    def test_classical_report_batch(self):
        reports = khinchine_reports(shape=(6,), p_list=[1.0, 2.0], count=20, seed=83)
        assert [r.p for r in reports] == [1.0, 2.0]
        for report in reports:
            assert report.sample_count == 20
            assert report.degenerate_count == 0
            assert report.ratio_min > 0
        # p = 2 is an identity, so the whole batch pins ratio 1.
        np.testing.assert_allclose(reports[1].ratio_min, 1.0, rtol=1e-10)
        np.testing.assert_allclose(reports[1].ratio_max, 1.0, rtol=1e-10)

    def test_tensor_report_batch(self):
        reports = khinchine_reports(shape=(4, 4), p_list=[2.0], count=15, seed=84)
        (report,) = reports
        assert report.sample_count == 15
        assert report.ratio_max >= report.ratio_min > 0

    def test_envelope_lookup_used(self):
        envelopes = {"khinchine": {"d0": {"1": [0.5, 1.5]}}}
        reports = khinchine_reports(
            shape=(4,), p_list=[1.0], count=10, seed=85, envelopes=envelopes
        )
        assert reports[0].envelope == (0.5, 1.5)

    def test_every_sign_sum_entry_refuses_exponents_below_one(self, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("drew coefficients before checking the exponents")

        monkeypatch.setattr(lplab.corpus, "_rekeyed_generators", no_draws)
        for shape in ((4,), (4, 4)):
            with pytest.raises(ConfigurationError, match="requires p >= 1, got 0.5"):
                khinchine_reports(shape=shape, p_list=[2.0, 0.5], count=3, seed=86)
        for coefficients in ([[1.0, 1.0]], [[[1.0]]]):
            with pytest.raises(ConfigurationError, match="requires p >= 1, got 0.9"):
                sign_sum_samples(coefficients, [2.0, 0.9], EXACT)


class TestEnvelopeLookup:
    def test_lookup_paths(self):
        envelopes = {
            "lp": {"d1": {"1.5": [0.7, 1.1]}},
            "khinchine": {"d0": {"2": [0.9, 1.1]}},
        }
        assert envelope_for(envelopes, "lp", 1, 1.5) == (0.7, 1.1)
        assert envelope_for(envelopes, "lp", 2, 1.5) is None
        assert envelope_for(envelopes, "gns", 1, 6.0) is None
        assert envelope_for(envelopes, "khinchine", 0, 2.0) == (0.9, 1.1)

    def test_float_key_normalization(self):
        envelopes = {"lp": {"d1": {"2": [0.9, 1.1]}}}
        assert envelope_for(envelopes, "lp", 1, 2.0) == (0.9, 1.1)

    def test_a_cell_judges_only_its_own_exponent(self):
        # format(p, "g") keeps six digits: these exponents print as "2".
        envelopes = {"lp": {"d1": {"2": [0.9, 1.1]}}}
        for p in (2.0000001, 1.9999999, 2.000001):
            assert format(p, "g") == "2"
            assert envelope_for(envelopes, "lp", 1, p) is None, p

    def test_a_d3_gns_cell_keyed_by_exponent_key_is_judged(self, tmp_path):
        # 2 + 4/3 has no six-digit "g" form that reads back as itself.
        p = gns_exponent(3)
        assert format(p, "g") == "3.33333"
        assert exponent_key(p) == repr(p)
        path = tmp_path / "envelopes.json"
        path.write_text(json.dumps({"gns": {"d3": {exponent_key(p): [0.1, 1.0]}}}))
        envelopes = lplab.load_envelopes(path)
        assert envelope_for(envelopes, "gns", 3, p) == (0.1, 1.0)
        assert envelope_for(envelopes, "gns", 3, 3.33333) is None

    def test_exponent_keys_keep_the_packaged_spellings(self):
        packaged = {
            key
            for by_dim in lplab.load_envelopes().values()
            for by_p in by_dim.values()
            for key in by_p
        }
        assert packaged == {"0.6", "0.75", "1", "1.5", "2", "3", "4", "6"}
        assert {exponent_key(float(key)) for key in packaged} == packaged
        assert exponent_key(2.0000001) == "2.0000001"

    def test_a_key_that_does_not_read_as_its_exponent_key_is_refused(self, tmp_path):
        for key in ("2.0", "3.33333333333333335", "nan", "all"):
            path = tmp_path / "envelopes.json"
            path.write_text(json.dumps({"gns": {"d3": {key: [0.1, 1.0]}}}))
            with pytest.raises(ConfigurationError, match="exponent_key"):
                lplab.load_envelopes(path)

    def test_packaged_envelopes_load(self):
        envelopes = lplab.load_envelopes()
        assert isinstance(envelopes, dict)
        for name in ("lp", "lp_density", "gns", "khinchine", "khinchine_tensor"):
            assert name in envelopes
