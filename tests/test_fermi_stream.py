"""The streamed Fermi ladder against the seas it no longer builds.

fock_operator.sea_ladder generates the top rung's waves in pieces; every
rung's w and rho, and every fermi_sweep row and chain, must equal those of
the rung's own materialized sea bit for bit.  Its spectral certificate B
must bound the dense Gram residual of every rung, so a wave off the unit
sphere or mixed with another fails the unit-ball contract, and a repeated
mode is refused, and so is a rung the lattice clips.  The sweep must hold no stack of waves and no Gram matrix:
its peak does not grow with the rank.
"""

import numpy as np
import pytest

import lplab.fock_operator
import lplab.torus_grid
from lplab import (
    ConfigurationError,
    ContractViolationError,
    TorusGrid,
    build_blocks,
    fermi_lattice_oracle,
    fermi_sweep,
    lieb_thirring_check,
    lt_chain_check,
)
from lplab.fock_operator import GRAM_TOLERANCE, _sea_modes, nyquist_shell, sea_ladder
from lplab.inequality_lab import kinetic_chain
from sea_reference import fermi_sea, gram_excess

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
        weak_bound = float(sea.rank) ** (2.0 / d) * expected.kinetic
        assert row["weak_ratio"] == weak_bound / expected.density_power_integral
        assert row["oracle_ratio"] == fermi_lattice_oracle(grid, mu).ratio
        np.testing.assert_array_equal(w, sea.spectral_density)
        assert kinetic_chain(grid, w, blocks) == lt_chain_check(sea, blocks)


@pytest.mark.parametrize("wave", [0, 7, 92])
def test_a_wave_off_the_unit_sphere_fails_the_contract(wave, monkeypatch):
    grid = _grid(3)
    generate = lplab.fock_operator._plane_waves

    def perturbed(grid, modes, rows=slice(None), out=None):
        waves = generate(grid, modes, rows, out)
        assert out is None or waves is out
        first = rows.indices(len(modes))[0]
        if first <= wave < first + len(waves):
            # Scaled inside the buffer the ladder transforms.
            waves[wave - first] *= 1.0 + 1e-6
        return waves

    monkeypatch.setattr(lplab.fock_operator, "_plane_waves", perturbed)
    with pytest.raises(ContractViolationError, match="unit_ball contract"):
        fermi_sweep(grid, [2.5, 8.5])


def test_sweep_holds_no_stack_of_waves(traced_peak):
    grid = TorusGrid(3, TAU, 32)
    top_rank = fermi_lattice_oracle(grid, 16.5).rank
    stack_bytes = top_rank * grid.size * np.dtype(complex).itemsize
    assert top_rank == 257
    (rows, _), peak = traced_peak(fermi_sweep, grid, [2.5, 4.5, 16.5])
    assert [row["rank"] for row in rows] == [19, 33, 257]
    assert peak < stack_bytes / 4, (peak, stack_bytes)


# Small grids and two-rung ladders for the certificate: ranks (5, 9),
# (9, 29) and (7, 19).
CERTIFIED = {
    1: (TorusGrid(1, TAU, 64), [4.5, 16.5]),
    2: (TorusGrid(2, TAU, 16), [2.5, 8.5]),
    3: (TorusGrid(3, TAU, 8), [1.5, 2.5]),
}


def _perturb_one_wave(monkeypatch, grid, top_mu, row, kind, eps):
    """Patch the wave generator so that wave ``row`` of the sea is scaled by
    1 + eps ("scale"), gains eps times a neighbouring wave of the sea ("mix"),
    or moves a share eps of itself onto the first mode outside the sea
    ("swap").  The sweep and the materialized sea read the same patch."""
    generate = lplab.fock_operator._plane_waves
    modes = _sea_modes(grid, 4.0 * top_mu)  # the sea, then the modes beyond it
    rank = fermi_lattice_oracle(grid, top_mu).rank
    partner = {"scale": None, "mix": 1 if row == 0 else row - 1, "swap": rank}[kind]

    def perturbed(grid, sea_modes, rows=slice(None), out=None):
        waves = generate(grid, sea_modes, rows, out)
        first = rows.indices(len(sea_modes))[0]
        if first <= row < first + len(waves):
            wave = waves[row - first]
            if kind == "scale":
                wave *= 1.0 + eps
            else:
                other = generate(grid, modes, slice(partner, partner + 1))[0]
                if kind == "swap":
                    wave *= 1.0 - eps
                wave += eps * other
        return waves

    monkeypatch.setattr(lplab.fock_operator, "_plane_waves", perturbed)


@pytest.mark.parametrize("eps", [1e-12, 1e-9, 1e-6])
@pytest.mark.parametrize("kind", ["scale", "mix", "swap"])
@pytest.mark.parametrize("row", ["first", "middle", "last"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_the_certificate_bounds_the_dense_gram_residual(d, row, kind, eps, monkeypatch):
    grid, ladder = CERTIFIED[d]
    ranks = [fermi_lattice_oracle(grid, mu).rank for mu in ladder]
    wave = {"first": 0, "middle": ranks[-1] // 2, "last": ranks[-1] - 1}[row]
    _perturb_one_wave(monkeypatch, grid, ladder[-1], wave, kind, eps)
    sea = fermi_sea(grid, ladder[-1])
    references = [gram_excess(sea, rank) for rank in ranks]
    bounds = []
    report = lplab.fock_operator._unit_ball_report

    def recorded(contract, excess, top_eigenvalue):
        bounds.append(excess)
        return report(contract, excess, top_eigenvalue)

    monkeypatch.setattr(lplab.fock_operator, "_unit_ball_report", recorded)
    try:
        sea_ladder(grid, ladder)
        raised = False
    except ContractViolationError as error:
        assert "unit_ball contract" in str(error)
        raised = True
    # Each rung is judged on its own B, and the sweep stops at the first
    # rung that fails.
    assert len(bounds) == (1 if raised and bounds[0] > GRAM_TOLERANCE else 2)
    for bound, reference in zip(bounds, references):
        assert bound >= reference - 1e-13, (bound, reference)
    assert raised == (bounds[-1] > GRAM_TOLERANCE)
    if max(references) > GRAM_TOLERANCE:
        assert raised


def test_a_repeated_mode_is_refused_before_any_wave(monkeypatch):
    grid = _grid(2)
    sea_modes = lplab.fock_operator._sea_modes

    def repeated(grid, chemical_potential):
        modes = sea_modes(grid, chemical_potential)
        return np.append(modes, modes[-1])

    def no_waves(*args, **kwargs):
        raise AssertionError("generated waves for a sea that repeats a mode")

    monkeypatch.setattr(lplab.fock_operator, "_sea_modes", repeated)
    monkeypatch.setattr(lplab.fock_operator, "_plane_waves", no_waves)
    with pytest.raises(ContractViolationError, match="unit_ball contract: a mode repeats"):
        sea_ladder(grid, [2.5, 8.5])


@pytest.mark.parametrize("d", [1, 2, 3])
def test_a_rung_the_lattice_clips_is_refused_before_any_wave(d, monkeypatch):
    """(pi N / L)^2 is the |xi|^2 of the mode -N/2, whose +N/2 partner the
    lattice lacks: just below it a sea holds each axis's -N/2 < k < N/2, at
    or above it the sea is refused."""
    grid = TorusGrid(d, TAU, 8)
    shell = nyquist_shell(grid)
    assert shell == 16.0
    ((rank, _, _),) = sea_ladder(grid, [np.nextafter(shell, 0.0)])
    assert rank == fermi_lattice_oracle(grid, 15.5).rank
    if d == 1:
        assert rank == 7

    def no_waves(*args, **kwargs):
        raise AssertionError("generated waves for a clipped sea")

    monkeypatch.setattr(lplab.fock_operator, "_plane_waves", no_waves)
    for ladder in ([shell], [1.5, 2.0 * shell]):
        with pytest.raises(ConfigurationError, match="reaches the Nyquist shell 16.0"):
            sea_ladder(grid, ladder)


def test_the_peak_does_not_grow_with_the_rank(traced_peak):
    grid = TorusGrid(2, TAU, 64)
    grid.frequency_norms_squared  # the grid's own table is not the ladder's
    low, low_peak = traced_peak(sea_ladder, grid, [100.5])
    high, high_peak = traced_peak(sea_ladder, grid, [900.5])
    assert [low[0][0], high[0][0]] == [317, 2821]
    assert high_peak <= 1.1 * low_peak, (low_peak, high_peak)


def test_ladder_holds_only_the_transform_pass_buffers(traced_peak):
    """One chunk of waves in one complex buffer, transformed in place; its
    two |.|^2 tables in float buffers of the same bytes, and the im^2
    temporary of one table; then w, rho and each rung's copy of both."""
    grid = TorusGrid(3, TAU, 32)
    grid.frequency_norms_squared  # the grid's own table is not the ladder's
    field_bytes = grid.size * np.dtype(complex).itemsize
    chunk_bytes = len(range(257)[lplab.torus_grid.field_chunks(grid, 257, 1)[0]]) * field_bytes
    ladder = [2.5, 4.5, 16.5]
    rungs, peak = traced_peak(sea_ladder, grid, ladder)
    assert [rank for rank, _, _ in rungs] == [19, 33, 257]
    bound = 2.5 * chunk_bytes + (1 + len(ladder)) * field_bytes
    assert peak <= bound, (peak, bound)
