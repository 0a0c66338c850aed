"""Finite-rank operators: densities, kinetic traces, Fermi seas and contract
validation."""

import numpy as np
import pytest

from lplab import (
    ContractViolationError,
    FiniteRankOperator,
    GridMismatchError,
    TorusGrid,
    UNIT_BALL,
    ZeroModeSingularityError,
    abs_squared,
    diagonal_block_bound,
    plane_wave,
    power_bounded,
    random_orthonormal_frame,
    require_contract,
    summed_block_density,
    unit_ball_volume,
    validate_contract,
)
from lplab.torus_grid import block_energy_stack, fft_stack, power_integrals, spectral_trace
from sea_reference import fermi_sea

TAU = 2.0 * np.pi


def kinetic_trace(op, power):
    """tr (-Laplacian)^power gamma from the operator's spectral density."""
    return spectral_trace(op.grid, op.spectral_density, power)


def integral(grid, density):
    """h^d sum_x density(x) of a nonnegative density."""
    return power_integrals(grid, density[None], 1.0)[0]


def conjugated_density(op, blocks, j):
    """The density sum_k lambda_k |P_j u_k|^2 of P_j gamma P_j."""
    spectra = fft_stack(op.grid, op.eigenfunctions[None])
    return block_energy_stack(op.grid, spectra, op.eigenvalues[None], blocks.symbol(j)[None])[0]


def normalized_wave(grid, mode):
    return plane_wave(grid, mode, amplitude=grid.volume**-0.5)


def wave_operator(grid, modes, weights):
    functions = np.stack([normalized_wave(grid, m) for m in modes])
    return FiniteRankOperator(grid, np.asarray(weights, dtype=float), functions)


class TestConstruction:
    def test_rank_and_trace(self, grid1):
        op = wave_operator(grid1, [[0], [1], [-1]], [1.0, 1.0, 1.0])
        assert op.rank == 3
        np.testing.assert_allclose(kinetic_trace(op, 0.0), 3.0, rtol=1e-15)

    @pytest.mark.parametrize("power", [np.inf, -np.inf, np.nan])
    def test_power_bounded_needs_a_finite_power(self, power):
        with pytest.raises(ValueError, match="finite power"):
            power_bounded(power)

    def test_eigenvalue_validation(self, grid1):
        u = normalized_wave(grid1, [1])[None]
        with pytest.raises(ValueError, match="nonnegative"):
            FiniteRankOperator(grid1, np.array([-0.5]), u)
        with pytest.raises(ValueError, match="nonempty"):
            FiniteRankOperator(grid1, np.array([]), np.empty((0, 256), dtype=complex))

    def test_shape_validation(self, grid1):
        with pytest.raises(GridMismatchError):
            FiniteRankOperator(grid1, np.array([1.0]), np.zeros((1, 8), dtype=complex))


class TestDensity:
    def test_two_waves_give_flat_density(self, grid1):
        op = wave_operator(grid1, [[1], [5]], [1.0, 1.0])
        np.testing.assert_allclose(op.density_values, 2.0 / TAU, rtol=1e-14)

    def test_rank_one_density_is_weighted_modulus(self, grid2):
        op = random_orthonormal_frame(grid2, rank=1, decay=1.0, seed=71)
        lam = op.eigenvalues[0]
        expected = lam * abs_squared(op.eigenfunctions[0])
        np.testing.assert_array_equal(op.density_values, expected)

    def test_density_linear_in_weights(self, grid1):
        op = random_orthonormal_frame(grid1, rank=3, decay=1.0, seed=72)
        doubled = FiniteRankOperator(op.grid, 2.0 * op.eigenvalues, op.eigenfunctions)
        np.testing.assert_array_equal(doubled.density_values, 2.0 * op.density_values)

    def test_density_integrates_to_trace(self, grid1, grid2):
        for grid, seed in ((grid1, 73), (grid2, 74)):
            op = random_orthonormal_frame(grid, rank=4, decay=0.8, seed=seed)
            mass = integral(grid, op.density_values)
            np.testing.assert_allclose(mass, kinetic_trace(op, 0.0), rtol=1e-10)

    def test_density_never_negative(self, grid1):
        op = random_orthonormal_frame(grid1, rank=5, decay=0.5, seed=75)
        assert op.density_values.min() >= 0.0


class TestConjugatedDensity:
    def test_plane_wave_block_weight(self, grid1, blocks1):
        # A normalized wave at radius 2^j picks up the squared symbol value.
        op = wave_operator(grid1, [[16]], [1.0])
        for j in blocks1.block_indices:
            rho_j = conjugated_density(op, blocks1, j)
            symbol_value = blocks1.symbol(j)[grid1.mode_index([16])]
            np.testing.assert_allclose(rho_j, symbol_value**2 / TAU, atol=1e-14 / TAU)

    def test_grid_mismatch(self, grid1, blocks2):
        op = wave_operator(grid1, [[1]], [1.0])
        with pytest.raises(GridMismatchError, match="different grids"):
            summed_block_density(op, blocks2)

    def test_block_masses_fill_parseval_window(self, grid2, blocks2, sharp2):
        # Pointwise the pieces interfere, but in integrated form the block
        # densities carry between half and all of the full mass (the squared
        # smooth symbols sum to a value in [1/2, 1]; sharp squares sum to 1).
        op = random_orthonormal_frame(grid2, rank=3, decay=0.8, seed=76)
        mass = integral(grid2, op.density_values)
        smooth_mass = sum(
            integral(grid2, conjugated_density(op, blocks2, j))
            for j in blocks2.block_indices
        )
        assert 0.5 * mass * (1 - 1e-10) <= smooth_mass <= mass * (1 + 1e-10)
        sharp_mass = sum(
            integral(grid2, conjugated_density(op, sharp2, j))
            for j in sharp2.block_indices
        )
        np.testing.assert_allclose(sharp_mass, mass, rtol=1e-10)


class TestKineticTrace:
    def test_matches_eigenvalue_sum(self, grid1):
        op = wave_operator(grid1, [[0], [3], [-5]], [1.0, 0.5, 0.25])
        np.testing.assert_allclose(
            kinetic_trace(op, 1.0), 0.5 * 9.0 + 0.25 * 25.0, rtol=1e-12
        )
        np.testing.assert_allclose(kinetic_trace(op, 0.0), 1.75, rtol=1e-12)

    def test_negative_power_rejected(self, grid1):
        # A negative power is refused on zero-mode mass, the one Laplacian
        # trace's rule; a mean-zero operator takes it.
        op = wave_operator(grid1, [[0], [1]], [1.0, 1.0])
        with pytest.raises(ZeroModeSingularityError, match="zero-mode singularity"):
            kinetic_trace(op, -0.5)
        mean_zero = wave_operator(grid1, [[1], [-2]], [1.0, 1.0])
        np.testing.assert_allclose(kinetic_trace(mean_zero, -0.5), 1.0 + 0.5, rtol=1e-12)


class TestDiagonalBlockBound:
    def test_lattice_count_bound_interior(self, blocks1, blocks2):
        # B_j is at most (points in the support ball) / L^d, and the support
        # radius 2^{j+1} ball holds about vol(B_2) 2^{jd} (L / 2 pi)^d points.
        for blocks, dim in ((blocks1, 1), (blocks2, 2)):
            prefactor = 2.0 * unit_ball_volume(dim) * 2.0**dim / TAU**dim
            for j in blocks.interior_indices:
                bound = diagonal_block_bound(blocks, j)
                assert bound <= prefactor * 2.0 ** (j * dim) * (1 + 1e-12), f"j={j}"

    def test_covering_sea_saturates_bound(self, grid1, blocks1):
        # A Fermi sea containing every mode of block 3's support makes the
        # conjugated density exactly B_3, a flat profile.
        sea = fermi_sea(grid1, chemical_potential=260.0)
        rho3 = conjugated_density(sea, blocks1, 3)
        bound = diagonal_block_bound(blocks1, 3)
        np.testing.assert_allclose(rho3.max(), bound, rtol=1e-10)

    def test_pointwise_bound_for_unit_ball_operators(self, grid1, blocks1):
        for seed in range(3):
            op = random_orthonormal_frame(grid1, rank=6, decay=0.4, seed=900 + seed)
            for j in blocks1.block_indices:
                peak = conjugated_density(op, blocks1, j).max()
                assert peak <= diagonal_block_bound(blocks1, j) * (1 + 1e-10)


class TestFermiSea:
    def test_low_potential_keeps_only_zero_mode(self, grid1):
        sea = fermi_sea(grid1, chemical_potential=0.5)
        assert sea.rank == 1
        np.testing.assert_allclose(
            sea.eigenfunctions[0], TAU**-0.5, rtol=1e-15
        )

    def test_rank_counts_lattice_modes(self, grid1, grid2):
        assert fermi_sea(grid1, 1.1).rank == 3
        assert fermi_sea(grid1, 4.5).rank == 5
        assert fermi_sea(grid2, 1.1).rank == 5
        assert fermi_sea(grid2, 2.5).rank == 9

    def test_trace_equals_rank(self, grid1):
        sea = fermi_sea(grid1, 16.5)
        np.testing.assert_allclose(kinetic_trace(sea, 0.0), sea.rank, rtol=1e-12)

    def test_sea_satisfies_unit_ball_contract(self, grid2):
        sea = fermi_sea(grid2, 4.5)
        report = validate_contract(sea, UNIT_BALL)
        assert report.passed, report.checks

    def test_flat_density(self, grid1):
        sea = fermi_sea(grid1, 9.5)
        np.testing.assert_allclose(sea.density_values, sea.rank / TAU, rtol=1e-12)

    def test_invalid_potential(self, grid1):
        with pytest.raises(ValueError, match="positive"):
            fermi_sea(grid1, 0.0)


class TestContracts:
    def test_orthonormal_frame_passes_unit_ball(self, grid1):
        op = random_orthonormal_frame(grid1, rank=4, decay=1.0, seed=81)
        report = validate_contract(op, UNIT_BALL)
        assert report.passed
        assert report.margin <= 1e-10

    def test_eigenvalue_excess_sets_margin(self, grid1):
        op = wave_operator(grid1, [[1], [2]], [1.5, 0.5])
        report = validate_contract(op, UNIT_BALL)
        assert not report.passed
        np.testing.assert_allclose(report.margin, 0.5, atol=1e-12)

    def test_require_contract_raises(self, grid1):
        op = wave_operator(grid1, [[1], [2]], [1.5, 0.5])
        with pytest.raises(ContractViolationError, match="unit_ball"):
            require_contract(op, UNIT_BALL)

    def test_power_bounded_plane_waves(self, grid1):
        # With L = 2 pi every nonzero mode has |xi| >= 1, so lambda = 1 sits
        # exactly on the boundary |xi|^{2a} for mode 1 and well inside for 2.
        for mode in ([1], [2]):
            op = wave_operator(grid1, [mode], [1.0])
            report = validate_contract(op, power_bounded(1.0))
            assert report.passed, (mode, report.checks)

    def test_power_bounded_fails_below_unit_frequency(self):
        # A longer box pushes mode 1 to |xi| = 1/2; the weight |xi|^{-2} = 4
        # then exceeds the allowed unit bound by 3.
        grid = TorusGrid(1, 2.0 * TAU, 16)
        op = wave_operator(grid, [[1]], [1.0])
        report = validate_contract(op, power_bounded(1.0))
        assert not report.passed
        np.testing.assert_allclose(report.margin, 3.0, rtol=1e-9)

    def test_negative_power_zero_mean_requirement(self, grid1):
        op = wave_operator(grid1, [[0]], [1.0])
        with pytest.raises(ZeroModeSingularityError):
            validate_contract(op, power_bounded(-0.5))

    def test_positive_power_flags_nonzero_mean(self, grid1):
        op = wave_operator(grid1, [[0]], [1.0])
        report = validate_contract(op, power_bounded(1.0))
        assert not report.passed
        assert report.margin == np.inf

    def test_power_zero_reduces_to_weight_check(self, grid1):
        good = wave_operator(grid1, [[1]], [1.0])
        assert validate_contract(good, power_bounded(0.0)).passed
        bad = wave_operator(grid1, [[1]], [1.5])
        report = validate_contract(bad, power_bounded(0.0))
        assert not report.passed
        np.testing.assert_allclose(report.margin, 0.5, atol=1e-10)
