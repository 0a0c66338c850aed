"""Bump profiles, exact partition sums, and block bookkeeping."""

import csv

import numpy as np
import pytest

import lplab
from lplab import (
    BumpProfile,
    ConfigurationError,
    TorusGrid,
    UnsupportedFamilyError,
    block_squared_sum,
    block_table,
    build_blocks,
    write_block_table_csv,
)
from lplab.dyadic_partition import PROFILE_KINDS

TAU = 2.0 * np.pi


class TestBumpProfile:
    @pytest.mark.parametrize("kind", PROFILE_KINDS)
    def test_plateau_and_support(self, kind):
        phi = BumpProfile(kind)
        r = np.array([0.0, 0.3, 1.0, 2.0, 3.5])
        values = phi(r)
        np.testing.assert_array_equal(values[:3], [1.0, 1.0, 1.0])
        np.testing.assert_array_equal(values[3:], [0.0, 0.0])

    @pytest.mark.parametrize("kind", PROFILE_KINDS)
    def test_midpoint_symmetry(self, kind):
        # Both glues satisfy phi(r) + phi(3 - r) = 1 on the ramp, so the
        # midpoint value is exactly one half.
        phi = BumpProfile(kind)
        assert phi(1.5) == 0.5
        r = np.linspace(1.05, 1.95, 37)
        np.testing.assert_allclose(phi(r) + phi(3.0 - r), 1.0, atol=1e-15)

    @pytest.mark.parametrize("kind", PROFILE_KINDS)
    def test_monotone_decreasing(self, kind):
        phi = BumpProfile(kind)
        r = np.linspace(0.0, 2.5, 401)
        values = phi(r)
        assert np.all(np.diff(values) <= 1e-15)
        assert np.all(values >= 0.0) and np.all(values <= 1.0)

    def test_annulus_bump(self):
        phi = BumpProfile("exp")

        def psi(r):
            return phi(r) - phi(2.0 * np.asarray(r))

        assert psi(1.0) == 1.0
        assert psi(0.5) == 0.0
        assert psi(2.0) == 0.0
        assert psi(0.49) == 0.0
        assert psi(2.01) == 0.0
        inside = psi(np.linspace(0.55, 1.95, 50))
        assert np.all(inside >= 0.0)

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError, match="profile kind"):
            BumpProfile("cubic")


class TestBlockConstruction:
    def test_block_range_1d(self, blocks1):
        # L = 2 pi, N = 256: lattice radii run 1 .. 128, scales 0 .. 7.
        assert blocks1.j_min == 0
        assert blocks1.j_max == 7
        assert blocks1.block_count == 8
        assert list(blocks1.interior_indices) == [1, 2, 3, 4, 5, 6]

    def test_block_range_2d(self, blocks2):
        # Radii run 1 .. 32 sqrt(2), so the top scale is 6.
        assert blocks2.j_min == 0
        assert blocks2.j_max == 6

    def test_coarsest_grid_still_has_three_blocks(self):
        blocks = build_blocks(TorusGrid(1, TAU, 8))
        assert blocks.block_count == 3

    def test_partition_sums_to_one_exactly(self, blocks1, blocks2, sharp1, sharp2):
        for blocks in (blocks1, blocks2, sharp1, sharp2):
            assert blocks.partition_residual() == 0.0

    def test_partition_exact_for_quintic_and_odd_boxes(self):
        for dim, n, box in ((1, 64, 1.0), (2, 16, 10.0), (3, 16, TAU)):
            grid = TorusGrid(dim, box, n)
            blocks = build_blocks(grid, profile_kind="quintic")
            assert blocks.partition_residual() == 0.0

    def test_unknown_family(self, grid1):
        with pytest.raises(UnsupportedFamilyError, match="family"):
            build_blocks(grid1, family="wavelet")

    def test_symbol_index_bounds(self, blocks1):
        with pytest.raises(IndexError):
            blocks1.symbol(blocks1.j_max + 1)
        with pytest.raises(IndexError):
            blocks1.symbol(blocks1.j_min - 1)

    def test_radial_symmetry_2d(self, blocks2):
        # Lattice points sharing a radius share every symbol value.
        radii = blocks2.grid.frequency_norms.reshape(-1)
        order = np.argsort(radii, kind="stable")
        for j in blocks2.block_indices:
            table = blocks2.symbol(j).reshape(-1)[order]
            sorted_radii = radii[order]
            same_radius = np.diff(sorted_radii) <= 1e-12 * np.maximum(sorted_radii[1:], 1.0)
            np.testing.assert_allclose(
                np.diff(table)[same_radius], 0.0, atol=1e-12
            )


def overlap_count(blocks, mode):
    """Number of blocks whose multiplier is nonzero at the lattice mode."""
    index = blocks.grid.mode_index(mode)
    return np.count_nonzero([table[index] for table in blocks.symbols])


class TestOverlap:
    def test_smooth_overlap_at_most_two(self, blocks1, blocks2):
        for mode in ([0], [1], [3], [17], [100], [-128]):
            assert 1 <= overlap_count(blocks1, mode) <= 2
        for mode in ([0, 0], [1, 1], [5, -3], [20, 20], [-32, -32]):
            assert 1 <= overlap_count(blocks2, mode) <= 2

    def test_sharp_overlap_exactly_one(self, sharp1, sharp2):
        for mode in ([0], [1], [3], [17], [100], [-128]):
            assert overlap_count(sharp1, mode) == 1
        for mode in ([0, 0], [1, 1], [5, -3], [20, 20], [-32, -32]):
            assert overlap_count(sharp2, mode) == 1

    def test_squared_sum_bounds(self, blocks1, blocks2, sharp1):
        # With at most two active blocks summing to 1, the sum of squares
        # sits in [1/2, 1]; the sharp family attains 1 everywhere.
        for blocks in (blocks1, blocks2):
            squares = block_squared_sum(blocks)
            assert squares.min() >= 0.5 - 1e-12
            assert squares.max() <= 1.0 + 1e-12
        np.testing.assert_array_equal(block_squared_sum(sharp1), 1.0)


class TestCompanions:
    def test_companion_reproduces_symbol_exactly(self, blocks1, blocks2):
        for blocks in (blocks1, blocks2):
            for j in blocks.block_indices:
                product = blocks.companion(j) * blocks.symbol(j)
                np.testing.assert_array_equal(product, blocks.symbol(j))

    def test_companion_bounded_by_one(self, blocks1):
        for j in blocks1.block_indices:
            table = blocks1.companion(j)
            assert table.min() >= 0.0
            assert table.max() <= 1.0

    def test_companions_are_tabulated_on_first_read(self, grid1):
        blocks = build_blocks(grid1)
        assert "companions" not in blocks.__dict__
        first = blocks.companion(blocks.j_min)
        assert "companions" in blocks.__dict__
        assert blocks.companions.shape == blocks.symbols.shape
        assert np.shares_memory(first, blocks.companions)
        assert blocks.companions is blocks.companions

    def test_sharp_family_has_no_companions(self, sharp1):
        with pytest.raises(UnsupportedFamilyError, match="smooth"):
            sharp1.companions
        with pytest.raises(UnsupportedFamilyError, match="smooth"):
            sharp1.companion(sharp1.j_min)


class TestBlockTable:
    def test_rows_cover_blocks_and_radii(self, blocks1):
        rows = block_table(blocks1)
        unique_radii = np.unique(blocks1.grid.frequency_norms.reshape(-1))
        assert len(rows) == blocks1.block_count * unique_radii.size
        js = {row[0] for row in rows}
        assert js == set(blocks1.block_indices)

    def test_csv_round_trip(self, blocks1, tmp_path):
        path = tmp_path / "table.csv"
        write_block_table_csv(blocks1, path)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["j", "xi_norm", "symbol", "companion"]
        assert len(rows) == 1 + len(block_table(blocks1))
        # Zero radius row of the lowest block: symbol and companion both 1.
        first = rows[1]
        assert int(first[0]) == blocks1.j_min
        assert float(first[1]) == 0.0
        assert float(first[2]) == 1.0
        assert float(first[3]) == 1.0

    def test_csv_without_companions(self, sharp1, tmp_path):
        path = tmp_path / "sharp.csv"
        write_block_table_csv(sharp1, path)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert all(row[3] == "" for row in rows[1:])
