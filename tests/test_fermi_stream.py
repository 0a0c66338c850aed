"""The streamed Fermi ladder against the seas it no longer builds.

fock_operator.sea_ladder generates the top rung's waves in pieces; every
rung's w and rho, and every fermi_sweep row and chain, must equal those of
the rung's own materialized sea bit for bit, a wave off the unit sphere
must fail the unit-ball contract, and the sweep must hold no stack of waves.
"""

import numpy as np
import pytest

import lplab.fock_operator
import lplab.torus_grid
from lplab import (
    ContractViolationError,
    TorusGrid,
    build_blocks,
    fermi_lattice_oracle,
    fermi_sweep,
    lieb_thirring_check,
    lt_chain_check,
)
from lplab.fock_operator import sea_ladder
from lplab.inequality_lab import kinetic_chain
from sea_reference import fermi_sea

TAU = 2.0 * np.pi
GRIDS = {1: (1, 256), 2: (2, 64), 3: (3, 16)}
LADDERS = {
    1: ([1.5, 4.5, 16.5, 64.5], [16.5, 1.5, 64.5, 16.5]),
    2: ([1.5, 2.5, 8.5, 16.5], [8.5, 1.5, 8.5, 2.5]),
    3: ([1.5, 2.5, 4.5, 8.5], [4.5, 8.5, 1.5, 4.5]),
}


def _grid(d):
    dim, n = GRIDS[d]
    return TorusGrid(dim, TAU, n)


def _chunk(grid, chunk_fields, monkeypatch):
    if chunk_fields is not None:
        # Rank chunks of 3 waves put rung boundaries inside chunks.
        monkeypatch.setattr(
            lplab.torus_grid, "FIELD_CHUNK_BYTES", chunk_fields * grid.size * 16
        )


@pytest.mark.parametrize("chunk_fields", [None, 3])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_ladder_densities_equal_the_materialized_seas(d, chunk_fields, monkeypatch):
    grid = _grid(d)
    _chunk(grid, chunk_fields, monkeypatch)
    ladder = LADDERS[d][1]
    rungs = sea_ladder(grid, ladder)
    assert len(rungs) == len(ladder)
    for mu, (rank, w, rho) in zip(ladder, rungs):
        sea = fermi_sea(grid, mu)
        assert rank == sea.rank
        np.testing.assert_array_equal(rho, sea.density_values)
        np.testing.assert_array_equal(w, sea.spectral_density)


@pytest.mark.parametrize("chunk_fields", [None, 3])
@pytest.mark.parametrize("order", ["sorted", "unsorted_repeated"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_rows_and_chains_equal_the_materialized_seas(d, order, chunk_fields, monkeypatch):
    grid = _grid(d)
    _chunk(grid, chunk_fields, monkeypatch)
    ladder = LADDERS[d][order == "unsorted_repeated"]
    blocks = build_blocks(grid)
    rows, densities = fermi_sweep(grid, ladder)
    assert len(rows) == len(densities) == len(ladder)
    for mu, row, w in zip(ladder, rows, densities):
        sea = fermi_sea(grid, mu)
        expected = lieb_thirring_check(sea)
        assert row["rank"] == sea.rank
        assert row["ratio"] == expected.ratio
        assert row["weak_ratio"] == expected.weak_ratio
        assert row["oracle_ratio"] == fermi_lattice_oracle(grid, mu)["ratio"]
        np.testing.assert_array_equal(w, sea.spectral_density)
        assert kinetic_chain(grid, w, blocks) == lt_chain_check(sea, blocks)


@pytest.mark.parametrize("wave", [0, 7, 92])
def test_a_wave_off_the_unit_sphere_fails_the_contract(wave, monkeypatch):
    grid = _grid(3)
    generate = lplab.fock_operator._plane_waves

    def perturbed(grid, modes, rows=slice(None), leading=slice(None), out=None):
        waves = generate(grid, modes, rows, leading, out)
        assert out is None or waves is out
        first = rows.indices(len(modes))[0]
        if first <= wave < first + len(waves):
            # Scaled inside the buffer the ladder reads the slab from.
            waves[wave - first] *= 1.0 + 1e-6
        return waves

    monkeypatch.setattr(lplab.fock_operator, "_plane_waves", perturbed)
    with pytest.raises(ContractViolationError, match="unit_ball contract"):
        fermi_sweep(grid, [2.5, 8.5])


def test_sweep_holds_no_stack_of_waves(traced_peak):
    grid = TorusGrid(3, TAU, 32)
    top_rank = fermi_lattice_oracle(grid, 16.5)["rank"]
    stack_bytes = top_rank * grid.size * np.dtype(complex).itemsize
    assert top_rank == 257
    (rows, _), peak = traced_peak(fermi_sweep, grid, [2.5, 4.5, 16.5])
    assert [row["rank"] for row in rows] == [19, 33, 257]
    assert peak < stack_bytes / 4, (peak, stack_bytes)


def test_ladder_holds_one_slab_and_its_float_copy(traced_peak):
    """The Gram pass generates each first-axis slab into one complex buffer
    and copies its parts into one float buffer of the same bytes; the
    transform pass runs after both are freed."""
    grid = TorusGrid(3, TAU, 32)
    grid.frequency_norms_squared  # the grid's own table is not the ladder's
    slab_bytes = 257 * 32**2 * np.dtype(complex).itemsize
    rungs, peak = traced_peak(sea_ladder, grid, [2.5, 4.5, 16.5])
    assert [rank for rank, _, _ in rungs] == [19, 33, 257]
    assert peak <= 2.5 * slab_bytes, (peak / slab_bytes)
