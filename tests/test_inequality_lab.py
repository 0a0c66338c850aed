"""Inequality checkers against closed forms and brute-force oracles."""

import itertools
import math

import numpy as np
import pytest

import lplab
from lplab import (
    CheckSample,
    ConfigurationError,
    ContractViolationError,
    CorpusSpec,
    DegenerateInputError,
    FiniteRankOperator,
    GridFunction,
    RatioReport,
    SignEnsemble,
    TorusGrid,
    UnsupportedFamilyError,
    constant_function,
    duality_identity_check,
    envelope_for,
    estimate_envelope,
    fermi_lattice_oracle,
    fermi_sea,
    fermi_sweep,
    generalized_lt_check,
    gns_check,
    khinchine_ratio,
    khinchine_reports,
    khinchine_tensor_ratio,
    kinetic_trace,
    lieb_thirring_check,
    lp_density_check,
    lp_function_check,
    lt_chain_check,
    parseval_square_ratio,
    plane_wave,
    random_band_limited,
    random_orthonormal_frame,
    sequence_lemma_bound,
    sequence_lemma_trials,
    single_spike,
    summed_block_density,
    tensor_khinchine_reports,
)
from lplab.projectors import block_energy_sum

TAU = 2.0 * np.pi
EXACT = SignEnsemble.exact()


def normalized_wave(grid, mode):
    return plane_wave(grid, mode, amplitude=grid.volume**-0.5)


def rank_one(grid, u, weight=1.0):
    return FiniteRankOperator(grid, np.array([weight]), u.values[None])


class TestKhinchine:
    def brute_moment(self, coefficients, p):
        a = np.asarray(coefficients, dtype=complex)
        total = 0.0
        for signs in itertools.product((-1.0, 1.0), repeat=a.size):
            total += abs(np.dot(signs, a)) ** p
        return total / 2.0 ** a.size

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_expectation_matches_brute_force(self, p):
        rng = np.random.default_rng(60)
        a = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        result = khinchine_ratio(a, p, EXACT)
        expected = self.brute_moment(a, p)
        np.testing.assert_allclose(result.expectation, expected, rtol=1e-12)
        np.testing.assert_allclose(
            result.lower_ratio, expected / np.sum(np.abs(a) ** 2) ** (p / 2), rtol=1e-12
        )

    def test_two_equal_coefficients_at_p_one(self):
        # E|r_1 + r_2| = 1 while the l2 side is sqrt(2); the lower ratio is
        # exactly 1 / sqrt(2), the extremal pair of the lower inequality.
        result = khinchine_ratio([1.0, 1.0], 1.0, EXACT)
        assert result.expectation == 1.0
        np.testing.assert_allclose(result.lower_ratio, 1.0 / math.sqrt(2.0), atol=1e-15)

    def test_p_two_is_an_identity(self):
        rng = np.random.default_rng(61)
        a = rng.standard_normal(9)
        result = khinchine_ratio(a, 2.0, EXACT)
        np.testing.assert_allclose(result.lower_ratio, 1.0, rtol=1e-12)
        np.testing.assert_allclose(result.upper_ratio, 1.0, rtol=1e-12)

    def test_invariance_under_flips_and_permutations(self):
        rng = np.random.default_rng(62)
        a = rng.standard_normal(7)
        base = khinchine_ratio(a, 3.0, EXACT).expectation
        flipped = khinchine_ratio(a * (-1.0) ** np.arange(7), 3.0, EXACT).expectation
        shuffled = khinchine_ratio(a[::-1], 3.0, EXACT).expectation
        np.testing.assert_allclose(flipped, base, rtol=1e-12)
        np.testing.assert_allclose(shuffled, base, rtol=1e-12)

    def test_enumeration_cap(self):
        with pytest.raises(ValueError, match="at most 20"):
            khinchine_ratio(np.ones(21), 2.0, EXACT)

    def test_exponent_floor(self):
        with pytest.raises(ValueError, match="p >= 1"):
            khinchine_ratio([1.0], 0.5, EXACT)

    def test_zero_coefficients_degenerate(self):
        with pytest.raises(DegenerateInputError):
            khinchine_ratio(np.zeros(4), 2.0, EXACT)

    def test_monte_carlo_tracks_exact(self):
        rng = np.random.default_rng(63)
        a = rng.standard_normal(10)
        exact = khinchine_ratio(a, 1.5, EXACT)
        mc_ensemble = SignEnsemble.monte_carlo(samples=200_000, seed=64)
        mc = khinchine_ratio(a, 1.5, mc_ensemble)
        np.testing.assert_allclose(mc.expectation, exact.expectation, rtol=0.02)
        again = khinchine_ratio(a, 1.5, mc_ensemble)
        assert again.expectation == mc.expectation

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
        result = khinchine_tensor_ratio(m, p, EXACT)
        np.testing.assert_allclose(
            result.expectation, self.brute_tensor_moment(m, p), rtol=1e-12
        )
        assert not result.degenerate

    def test_corner_spike_is_extremal(self):
        m = np.zeros((2, 3))
        m[0, 1] = 1.0
        result = khinchine_tensor_ratio(m, 1.5, EXACT)
        assert result.expectation == 1.0
        assert result.ratio == 1.0

    def test_antisymmetric_input_cancels_identically(self):
        # Shared signs make the quadratic form r^T M r, which an antisymmetric
        # matrix kills for every sign vector.
        m = np.array([[0.0, 1.0], [-1.0, 0.0]])
        result = khinchine_tensor_ratio(m, 2.0, EXACT)
        assert result.expectation == 0.0
        assert result.degenerate
        assert result.ratio == math.inf

    def test_rectangular_shapes_accepted(self):
        rng = np.random.default_rng(66)
        m = rng.standard_normal((2, 5))
        result = khinchine_tensor_ratio(m, 2.0, EXACT)
        np.testing.assert_allclose(
            result.expectation, self.brute_tensor_moment(m, 2.0), rtol=1e-12
        )

    def test_zero_matrix_degenerate(self):
        with pytest.raises(DegenerateInputError):
            khinchine_tensor_ratio(np.zeros((3, 3)), 2.0, EXACT)


class TestLpFunctionCheck:
    def test_single_block_wave_has_unit_ratio(self, grid1, blocks1):
        # Mode 16 sits on block 4's plateau, so the square function equals
        # the modulus of the wave itself.
        u = plane_wave(grid1, [16])
        for p in (1.5, 2.0, 3.0):
            sample = lp_function_check(u, p, blocks1)
            np.testing.assert_allclose(sample.ratio, 1.0, rtol=1e-12)

    def test_p_two_closed_form(self, grid1, blocks1):
        for seed in range(5):
            u = random_band_limited(grid1, decay=0.6, seed=700 + seed)
            sample = lp_function_check(u, 2.0, blocks1)
            np.testing.assert_allclose(
                sample.ratio, parseval_square_ratio(u, blocks1), rtol=1e-12
            )
            assert math.sqrt(0.5) - 1e-12 <= sample.ratio <= 1.0 + 1e-12

    def test_exponent_floor(self, grid1, blocks1):
        u = plane_wave(grid1, [4])
        with pytest.raises(ValueError, match="p > 1"):
            lp_function_check(u, 1.0, blocks1)

    def test_zero_input_degenerate(self, grid1, blocks1):
        zero = GridFunction(grid1, np.zeros(grid1.shape, dtype=complex))
        with pytest.raises(DegenerateInputError):
            lp_function_check(zero, 2.0, blocks1)
        with pytest.raises(DegenerateInputError):
            parseval_square_ratio(zero, blocks1)


class TestLpDensityCheck:
    def test_rank_one_reduces_to_scalar_check(self, grid1, blocks1):
        # For a rank-one weight-one operator the density pipeline must follow
        # the scalar pipeline exactly: same accumulations, same floats.
        u = random_band_limited(grid1, decay=0.8, seed=710)
        op = rank_one(grid1, u)
        np.testing.assert_array_equal(
            summed_block_density(op, blocks1).values, block_energy_sum(u, blocks1)
        )
        for p in (0.75, 1.0, 1.5, 2.0):
            density_sample = lp_density_check(op, p, blocks1)
            scalar_sample = lp_function_check(u, 2.0 * p, blocks1)
            np.testing.assert_allclose(
                density_sample.ratio, scalar_sample.ratio**2, rtol=1e-12
            )

    def test_sharp_fermi_sea_is_exact(self, grid1, sharp1):
        # Every sea mode lies in exactly one sharp block, and both densities
        # are flat, so the comparison collapses to an identity.
        sea = fermi_sea(grid1, 16.5)
        sample = lp_density_check(sea, 1.5, sharp1)
        np.testing.assert_allclose(sample.ratio, 1.0, rtol=1e-12)

    def test_rank_recorded(self, grid2, blocks2):
        op = random_orthonormal_frame(grid2, rank=4, decay=0.8, seed=711)
        sample = lp_density_check(op, 1.0, blocks2)
        assert sample.rank == 4
        assert math.isfinite(sample.ratio) and sample.ratio > 0

    def test_exponent_floor(self, grid1, blocks1):
        op = rank_one(grid1, plane_wave(grid1, [4]))
        with pytest.raises(ValueError, match="p > 1/2"):
            lp_density_check(op, 0.5, blocks1)


class TestDuality:
    def test_random_pairs_within_tolerance(self, grid1, blocks1, grid2, blocks2):
        for blocks, seed in ((blocks1, 720), (blocks2, 721)):
            grid = blocks.grid
            f = random_band_limited(grid, decay=0.7, seed=seed)
            g = random_band_limited(grid, decay=0.7, seed=seed + 50)
            assert duality_identity_check(f, g, blocks) <= 1e-10

    def test_orthogonal_waves(self, grid1, blocks1):
        f = plane_wave(grid1, [3])
        g = plane_wave(grid1, [7])
        assert duality_identity_check(f, g, blocks1) <= 1e-14

    def test_zero_input_returns_zero(self, grid1, blocks1):
        zero = GridFunction(grid1, np.zeros(grid1.shape, dtype=complex))
        assert duality_identity_check(zero, zero, blocks1) == 0.0

    def test_sharp_family_rejected(self, grid1, sharp1):
        f = plane_wave(grid1, [3])
        with pytest.raises(UnsupportedFamilyError):
            duality_identity_check(f, f, sharp1)


class TestGnsCheck:
    @pytest.mark.parametrize("mode", [1, 4, 16])
    def test_plane_wave_closed_form_1d(self, grid1, mode):
        # Single-mode ratio: (|xi| L)^(-d/(d+2)).
        sample = gns_check(plane_wave(grid1, [mode]))
        np.testing.assert_allclose(sample.ratio, (mode * TAU) ** (-1.0 / 3.0), rtol=1e-12)

    def test_plane_wave_closed_form_2d(self, grid2):
        sample = gns_check(plane_wave(grid2, [3, 4]))
        np.testing.assert_allclose(sample.ratio, (5.0 * TAU) ** (-0.5), rtol=1e-12)

    def test_scale_invariance(self, grid1):
        u = random_band_limited(grid1, decay=1.5, seed=730, zero_mean=True)
        scaled = GridFunction(grid1, 17.5 * u.values)
        np.testing.assert_allclose(
            gns_check(scaled).ratio, gns_check(u).ratio, rtol=1e-12
        )

    def test_constant_degenerates(self, grid1):
        with pytest.raises(DegenerateInputError, match="constant"):
            gns_check(constant_function(grid1, 2.0))

    def test_zero_degenerates(self, grid1):
        zero = GridFunction(grid1, np.zeros(grid1.shape, dtype=complex))
        with pytest.raises(DegenerateInputError):
            gns_check(zero)


class TestLiebThirring:
    def test_small_fermi_sea_closed_form(self, grid1):
        # Modes {0, 1, -1}: kinetic trace 2, flat density 3 / L, and the
        # cubed-density integral is 27 / L^2.
        sea = fermi_sea(grid1, 1.1)
        result = lieb_thirring_check(sea)
        assert result.rank == 3
        np.testing.assert_allclose(result.kinetic, 2.0, rtol=1e-12)
        np.testing.assert_allclose(result.density_power_integral, 27.0 / TAU**2, rtol=1e-12)
        np.testing.assert_allclose(result.ratio, 2.0 * TAU**2 / 27.0, rtol=1e-12)

    def test_weak_bound_scales_with_rank(self, grid1, grid2):
        for grid, mu in ((grid1, 16.5), (grid2, 4.5)):
            result = lieb_thirring_check(fermi_sea(grid, mu))
            np.testing.assert_allclose(
                result.weak_ratio / result.ratio,
                result.rank ** (2.0 / grid.dimension),
                rtol=1e-12,
            )

    def test_weight_homogeneity(self, grid1):
        # Halving every weight scales the ratio by 2^{2/d}: the kinetic side
        # is linear, the density side degree 1 + 2/d.
        op = random_orthonormal_frame(grid1, rank=4, decay=0.8, seed=740, weights="ones")
        halved = FiniteRankOperator(
            grid1, 0.5 * op.eigenvalues, op.eigenfunctions, contract=op.contract
        )
        full = lieb_thirring_check(op)
        half = lieb_thirring_check(halved)
        np.testing.assert_allclose(half.ratio, full.ratio * 2.0**2.0, rtol=1e-12)

    @pytest.mark.parametrize("dim_fixture,mode", [("grid1", [4]), ("grid2", [3, 1])])
    def test_rank_one_matches_gns_power(self, request, dim_fixture, mode):
        grid = request.getfixturevalue(dim_fixture)
        u = normalized_wave(grid, mode)
        op = rank_one(grid, u)
        p = 2.0 + 4.0 / grid.dimension
        lt_ratio = lieb_thirring_check(op).ratio
        gns_ratio = gns_check(u).ratio
        np.testing.assert_allclose(lt_ratio, gns_ratio ** (-p), rtol=1e-9)

    def test_contract_enforced(self, grid1):
        functions = np.stack([normalized_wave(grid1, [1]).values])
        op = FiniteRankOperator(grid1, np.array([1.5]), functions)
        with pytest.raises(ContractViolationError, match="unit-ball"):
            lieb_thirring_check(op)

    def test_zero_mode_sea_degenerates(self, grid1):
        with pytest.raises(DegenerateInputError):
            lieb_thirring_check(fermi_sea(grid1, 0.5))

    def test_oracle_agrees_with_pipeline(self, grid1, grid2):
        for grid, mu in ((grid1, 9.5), (grid1, 33.0), (grid2, 8.5)):
            oracle = fermi_lattice_oracle(grid, mu)
            result = lieb_thirring_check(fermi_sea(grid, mu))
            assert oracle["rank"] == result.rank
            np.testing.assert_allclose(result.ratio, oracle["ratio"], rtol=1e-10)

    def test_sweep_rows(self, grid1):
        ladder = [1.1, 4.5, 16.5]
        rows = fermi_sweep(grid1, ladder)
        assert [row["rank"] for row in rows] == [3, 5, 9]
        for row in rows:
            assert row["oracle_gap"] <= 1e-10
            assert row["ratio"] > 0
        # The finite-sum ratio climbs toward its continuum value in 1d.
        assert rows[0]["ratio"] < rows[1]["ratio"] < rows[2]["ratio"]


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

    def test_random_frames_pass(self, grid1, blocks1):
        for seed in range(4):
            op = random_orthonormal_frame(grid1, rank=3, decay=0.6, seed=750 + seed)
            result = lt_chain_check(op, blocks1)
            assert result.passed, result.to_dict()
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
    def test_reduces_bitwise_to_plain_check(self, grid1):
        op = random_orthonormal_frame(grid1, rank=3, decay=0.8, seed=760, power_bound=0.0)
        general = generalized_lt_check(op, 0.0, 1.0)
        plain = lieb_thirring_check(op)
        assert general.kinetic == plain.kinetic
        assert general.density_power_integral == plain.density_power_integral
        assert general.ratio == plain.ratio
        assert general.exponent == 1.0 + 2.0 / grid1.dimension

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
            result.kinetic, kinetic_trace(op, 1.0), rtol=1e-12
        )

    def test_power_domain_guards(self, grid1):
        op = random_orthonormal_frame(grid1, rank=2, decay=1.0, seed=763, power_bound=0.0)
        with pytest.raises(ConfigurationError, match="exceed -d/2"):
            generalized_lt_check(op, -0.5, 1.0)
        with pytest.raises(ConfigurationError, match="nonnegative"):
            generalized_lt_check(op, 0.0, -1.0)

    def test_contract_enforced(self):
        grid = TorusGrid(1, 2.0 * TAU, 16)
        u = normalized_wave(grid, [1])  # |xi| = 1/2, heavy under (-Laplacian)^{-1}
        op = rank_one(grid, u)
        with pytest.raises(ContractViolationError, match="power-bounded"):
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
        assert report.passed  # no envelope attached

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

    def test_dict_round_trip(self):
        report = RatioReport(
            name="gns", p=6.0, family="smooth", profile_kind="exp",
            grid={"dimension": 1, "box_length": TAU, "points_per_axis": 256},
            seed=9, samples=self.samples(), envelope=(0.4, 1.6),
        )
        back = RatioReport.from_dict(report.to_dict())
        assert back.to_dict() == report.to_dict()


class TestEnvelopeEstimation:
    def spec(self, count=6):
        return CorpusSpec("random_band_limited", count=count, seed=81, params={"decay": 0.8})

    def test_deterministic(self, small1):
        (first,) = estimate_envelope(self.spec(), "lp", [(2.0, None)], small1)
        (second,) = estimate_envelope(self.spec(), "lp", [(2.0, None)], small1)
        assert first.to_dict() == second.to_dict()

    def test_gns_defaults_exponent(self, small1):
        (report,) = estimate_envelope(self.spec(), "gns", [(None, None)], small1)
        assert report.p == 6.0

    def test_unknown_checker(self, small1):
        with pytest.raises(ConfigurationError, match="unknown checker"):
            estimate_envelope(self.spec(), "sobolev", [(2.0, None)], small1)

    def test_envelope_applied(self, small1):
        report, impossible = estimate_envelope(
            self.spec(), "lp", [(2.0, (1e-6, 1e6)), (2.0, (0.999, 1.0))], small1
        )
        assert report.passed
        assert not impossible.passed

    def test_density_checker_over_frames(self, small1):
        spec = CorpusSpec(
            "random_orthonormal_frame", count=4, seed=82, params={"rank": 2, "decay": 0.8}
        )
        (report,) = estimate_envelope(spec, "lp_density", [(1.0, None)], small1)
        assert report.sample_count == 4
        assert all(s.rank == 2 for s in report.samples)


class TestKhinchineReports:
    def test_classical_report_batch(self):
        reports = khinchine_reports(n_terms=6, p_list=[1.0, 2.0], count=20, seed=83)
        assert [r.p for r in reports] == [1.0, 2.0]
        for report in reports:
            assert report.sample_count == 20
            assert report.degenerate_count == 0
            assert report.ratio_min > 0
        # p = 2 is an identity, so the whole batch pins ratio 1.
        np.testing.assert_allclose(reports[1].ratio_min, 1.0, rtol=1e-10)
        np.testing.assert_allclose(reports[1].ratio_max, 1.0, rtol=1e-10)

    def test_tensor_report_batch(self):
        reports = tensor_khinchine_reports(n_terms=4, p_list=[2.0], count=15, seed=84)
        (report,) = reports
        assert report.sample_count == 15
        assert report.ratio_max >= report.ratio_min > 0

    def test_envelope_lookup_used(self):
        envelopes = {"khinchine": {"d0": {"1": [0.5, 1.5]}}}
        reports = khinchine_reports(
            n_terms=4, p_list=[1.0], count=10, seed=85, envelopes=envelopes
        )
        assert reports[0].envelope == (0.5, 1.5)


class TestEnvelopeLookup:
    def test_lookup_paths(self):
        envelopes = {
            "lp": {"d1": {"1.5": [0.7, 1.1], "all": [0.5, 2.0]}},
            "khinchine": {"d0": {"2": [0.9, 1.1]}},
        }
        assert envelope_for(envelopes, "lp", 1, 1.5) == (0.7, 1.1)
        assert envelope_for(envelopes, "lp", 1, None) == (0.5, 2.0)
        assert envelope_for(envelopes, "lp", 2, 1.5) is None
        assert envelope_for(envelopes, "gns", 1, 6.0) is None
        assert envelope_for(envelopes, "khinchine", 0, 2.0) == (0.9, 1.1)

    def test_float_key_normalization(self):
        envelopes = {"lp": {"d1": {"2": [0.9, 1.1]}}}
        assert envelope_for(envelopes, "lp", 1, 2.0) == (0.9, 1.1)

    def test_packaged_envelopes_load(self):
        envelopes = lplab.load_envelopes()
        assert isinstance(envelopes, dict)
        for name in ("lp", "lp_density", "gns", "khinchine", "khinchine_tensor"):
            assert name in envelopes
