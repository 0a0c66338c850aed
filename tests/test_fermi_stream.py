"""The streamed Fermi ladder against the seas it no longer builds.

fock_operator.sea_ladder transforms one table of one-axis waves and builds
each wave's |.|^2 tables as outer products of its rows.  A wave with at
most one non-constant factor gets the tables of the transform of its
materialized wave bit for bit, so on rungs of such waves (and at d = 1)
every w and rho, fermi_sweep row and chain equals the rung's materialized
sea's; on the other rungs w and rho stay within a stated bound of the
exact Fermi-ball values, and rows and chains within a stated relative
bound of the materialized sea's.  The spectral certificate B must bound
the dense Gram residual of every rung, so a one-axis row off the unit
sphere or mixed with another fails the unit-ball contract, a repeated mode
is refused, and so is a rung the lattice clips.  The sweep must hold no
stack of waves, no complex field and no Gram matrix: its peak does not
grow with the rank.
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
    generalized_lt_check,
    lt_chain_check,
)
from lplab.fock_operator import GRAM_TOLERANCE, _sea_modes, nyquist_shell, sea_ladder
from lplab.inequality_lab import kinetic_chain
from lplab.torus_grid import abs_squared, forward_transform_stack
from sea_reference import bit_exact, factor_counts, fermi_sea, gram_excess, plane_waves

TAU = 2.0 * np.pi
GRIDS = {1: (1, 256), 2: (2, 64), 3: (3, 16)}
LADDERS = {
    1: ([1.5, 4.5, 16.5, 64.5], [16.5, 1.5, 64.5, 16.5]),
    2: ([1.5, 2.5, 8.5, 16.5], [8.5, 1.5, 8.5, 2.5]),
    3: ([1.5, 2.5, 4.5, 8.5], [4.5, 8.5, 1.5, 4.5]),
}


# Bounds on the rungs whose waves are not all bit-exact: w and rho against
# the exact Fermi-ball values, relative to L^d and rank / L^d, and the
# sweep's ratios and chains against the materialized sea's, relative to
# the ratio and to the chain's kinetic trace.  Measured deviations sit
# below 1e-15 at these grids.
BALL_RTOL = 1e-14
SEA_RTOL = 1e-13


def _grid(d):
    dim, n = GRIDS[d]
    return TorusGrid(dim, TAU, n)


def _chunk(grid, chunk_fields, monkeypatch):
    if chunk_fields is not None:
        # Rank chunks of 3 waves put rung boundaries inside chunks.
        monkeypatch.setattr(
            lplab.torus_grid, "FIELD_CHUNK_BYTES", chunk_fields * grid.size * 16
        )


def test_the_bit_exact_rungs_are_d1_and_the_first_shell():
    assert [bit_exact(_grid(1), mu) for mu in LADDERS[1][0]] == [True] * 4
    for d in (2, 3):
        assert [bit_exact(_grid(d), mu) for mu in LADDERS[d][0]] == [True, False, False, False]
        assert fermi_lattice_oracle(_grid(d), 1.5).rank == 2 * d + 1


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
        # The Fermi ball: w = L^d on the sea's modes and 0 elsewhere, and
        # the constant density rank / L^d.
        ball = np.zeros(grid.size)
        ball[_sea_modes(grid, mu)] = grid.volume
        assert np.max(np.abs(w.reshape(-1) - ball)) <= BALL_RTOL * grid.volume
        assert np.max(np.abs(rho - rank / grid.volume)) <= BALL_RTOL * rank / grid.volume
        if bit_exact(grid, mu):
            np.testing.assert_array_equal(rho, sea.density_values)
            np.testing.assert_array_equal(w, sea.spectral_density)


def _chain_terms(chain):
    return np.array([chain.kinetic, chain.block_kinetic, chain.block_density_bound])


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
        expected = generalized_lt_check(sea, 0.0, 1.0)
        weak_bound = float(sea.rank) ** (2.0 / d) * expected.kinetic
        ratios = [expected.ratio, weak_bound / expected.density_power_integral]
        chain, reference = kinetic_chain(grid, w, blocks), lt_chain_check(sea, blocks)
        assert row["rank"] == sea.rank
        assert row["oracle_ratio"] == fermi_lattice_oracle(grid, mu).ratio
        if bit_exact(grid, mu):
            assert [row["ratio"], row["weak_ratio"]] == ratios
            np.testing.assert_array_equal(w, sea.spectral_density)
            assert chain == reference
        else:
            np.testing.assert_allclose([row["ratio"], row["weak_ratio"]], ratios, rtol=SEA_RTOL)
            gap = np.abs(_chain_terms(chain) - _chain_terms(reference))
            assert np.all(gap <= SEA_RTOL * reference.kinetic), (gap, reference)
            assert chain.passed == reference.passed


def _first_factor_mode(grid, mode):
    """The axis mode of a wave's first non-constant factor; the constant
    mode 0 for the zero mode."""
    return next((int(m) for m in np.unravel_index(mode, grid.shape) if m != 0), 0)


def _perturb_axis_row(monkeypatch, mode, change, partner=None):
    """Patch fock_operator's one-axis waves so that ``change(wave, other)``
    edits the wave of the axis mode ``mode`` in place, in its plain and in
    its scaled half alike; ``other`` is the same half's wave of the axis
    mode ``partner``.  The sweep and the materialized sea read the same
    patch."""
    axis_waves = lplab.fock_operator._axis_waves

    def perturbed(grid, axis_modes):
        table = axis_waves(grid, axis_modes)
        others = [None, None] if partner is None else axis_waves(grid, [partner])[:, 0]
        for waves, other in zip(table, others):
            for row in np.flatnonzero(axis_modes == mode):
                change(waves[row], other)
        return table

    monkeypatch.setattr(lplab.fock_operator, "_axis_waves", perturbed)


@pytest.mark.parametrize("wave", [0, 7, 92])
def test_a_wave_off_the_unit_sphere_fails_the_contract(wave, monkeypatch):
    """Scaling the one-axis wave of a wave's first non-constant factor (the
    constant wave for the zero mode) takes that wave, and every other wave
    with the same factor, off the unit sphere."""
    grid = _grid(3)
    mode = _first_factor_mode(grid, _sea_modes(grid, 8.5)[wave])
    assert mode == {0: 0, 7: 1, 92: 14}[wave]  # 14 is the axis mode -2

    def scale(wave, other):
        wave *= 1.0 + 1e-6

    _perturb_axis_row(monkeypatch, mode, scale)
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


def _perturb_one_row(monkeypatch, grid, top_mu, position, kind, eps):
    """Patch the one-axis waves so that a mode of the top sea's one-axis sea
    (its first, middle or last, in (|xi|^2, index) order) is scaled by
    1 + eps ("scale"), gains eps times the wave of a neighbouring mode of
    that sea ("mix"), or moves a share eps of itself onto the first mode
    outside it ("swap").  Every wave with that factor moves with it; at
    d = 1 these are the waves of the sea."""
    line = TorusGrid(1, grid.box_length, grid.points_per_axis)
    modes = _sea_modes(line, 4.0 * top_mu)  # the one-axis sea, then the modes beyond it
    count = _sea_modes(line, top_mu).size
    index = {"first": 0, "middle": count // 2, "last": count - 1}[position]
    partner = {"scale": None, "mix": 1 if index == 0 else index - 1, "swap": count}[kind]

    def change(wave, other):
        if kind == "scale":
            wave *= 1.0 + eps
        else:
            if kind == "swap":
                wave *= 1.0 - eps
            wave += eps * other

    _perturb_axis_row(
        monkeypatch, modes[index], change, None if partner is None else modes[partner]
    )


@pytest.mark.parametrize("eps", [1e-12, 1e-9, 1e-6])
@pytest.mark.parametrize("kind", ["scale", "mix", "swap"])
@pytest.mark.parametrize("row", ["first", "middle", "last"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_the_certificate_bounds_the_dense_gram_residual(d, row, kind, eps, monkeypatch):
    grid, ladder = CERTIFIED[d]
    ranks = [fermi_lattice_oracle(grid, mu).rank for mu in ladder]
    _perturb_one_row(monkeypatch, grid, ladder[-1], row, kind, eps)
    sea = fermi_sea(grid, ladder[-1])
    references = [gram_excess(sea, rank) for rank in ranks]
    bounds = []
    report = lplab.fock_operator._contract_report

    def recorded(contract, excess, top_eigenvalue):
        bounds.append(excess)
        return report(contract, excess, top_eigenvalue)

    monkeypatch.setattr(lplab.fock_operator, "_contract_report", recorded)
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
    monkeypatch.setattr(lplab.fock_operator, "_axis_waves", no_waves)
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

    monkeypatch.setattr(lplab.fock_operator, "_axis_waves", no_waves)
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
    """One chunk's |c_k|^2 and |u_k|^2 in two float tables it reuses, w, rho
    and each rung's copy of both: no complex field of the grid.  The
    one-axis tables and the index arrays beside them stay below four
    [2, N, N] complex tables."""
    grid = TorusGrid(3, TAU, 32)
    grid.frequency_norms_squared  # the grid's own table is not the ladder's
    field_bytes = grid.size * np.dtype(float).itemsize
    width = len(range(257)[lplab.torus_grid.field_chunks(grid, 257, 1)[0]])
    line_bytes = 2 * grid.points_per_axis**2 * np.dtype(complex).itemsize
    ladder = [2.5, 4.5, 16.5]
    rungs, peak = traced_peak(sea_ladder, grid, ladder)
    assert [rank for rank, _, _ in rungs] == [19, 33, 257]
    bound = (2 * width + 2 + 2 * len(ladder)) * field_bytes + 4 * line_bytes
    assert peak <= bound, (peak, bound)


def _axis_plane_waves(grid):
    """Flat indices of every mode with at most one non-constant factor."""
    modes = np.arange(grid.size)
    return modes[factor_counts(grid, modes) <= 1]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_a_wave_with_one_non_constant_factor_has_the_transform_bits(d):
    """Its |c_k|^2 and |u_k|^2 tables from one-axis rows equal those of the
    transform of the materialized wave: a constant factor contributes
    exact powers of two.  This keeps every such rung's values."""
    grid = _grid(d)
    modes = _axis_plane_waves(grid)
    assert modes.size == d * (grid.points_per_axis - 1) + 1
    waves = plane_waves(grid, modes)
    tables = np.empty((2, modes.size) + grid.shape)
    # The table on every axis mode, the constant first: a wave's row on an
    # axis is its mode index there.
    squares = lplab.fock_operator._axis_squares(grid, np.arange(grid.points_per_axis))
    factors = np.stack(np.unravel_index(modes, grid.shape))
    spectral, physical = lplab.fock_operator._wave_squares(squares, factors, tables)
    np.testing.assert_array_equal(spectral, abs_squared(forward_transform_stack(grid, waves)))
    np.testing.assert_array_equal(physical, abs_squared(waves))


def test_the_sweep_makes_one_transform(monkeypatch):
    """The one-axis table is transformed once, whatever the rank: the
    d3 n32 sweep to rank 257 made one 3-d transform per wave."""
    calls = []

    def counted(name, transform):
        def call(*args, **kwargs):
            calls.append(name)
            return transform(*args, **kwargs)

        return call

    for name in np.fft.__all__:
        if not name.endswith(("freq", "shift")):
            monkeypatch.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
    rows, _ = fermi_sweep(TorusGrid(3, TAU, 32), [2.5, 4.5, 16.5])
    assert [row["rank"] for row in rows] == [19, 33, 257]
    assert calls == ["fftn"]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_the_oracle_refuses_a_sea_the_lattice_clips(d):
    """fermi_lattice_oracle takes sea_ladder's refusal at the Nyquist shell:
    at or above it the lattice sea is clipped, not a Fermi ball."""
    grid = TorusGrid(d, TAU, 16)
    shell = nyquist_shell(grid)
    assert shell == 64.0
    below = np.nextafter(shell, 0.0)
    assert fermi_lattice_oracle(grid, below).rank == sea_ladder(grid, [below])[0][0]
    for mu in (shell, 64.5, 1e6):
        with pytest.raises(ConfigurationError, match="reaches the Nyquist shell 64.0"):
            fermi_lattice_oracle(grid, mu)
