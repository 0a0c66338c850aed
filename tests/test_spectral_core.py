"""The batched spectral operator core against the per-pair transform loops.

The reference functions below are the loop implementations the batched
kernel replaced, written in plain numpy: one forward and one inverse
transform per (eigenfunction, block) pair, and one Parseval kinetic form
per eigenfunction.  The batched results sum in another order, so they are
compared at rtol 1e-12; pointwise densities also get an absolute floor of
1e-12 times their peak, because a transform's rounding error is relative to
the field's norm, not to the value at each point.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import lplab.corpus
from lplab import (
    SHARP,
    SMOOTH,
    FiniteRankOperator,
    TorusGrid,
    block_squared_sum,
    build_blocks,
    estimate_envelope,
    lt_chain_check,
    random_band_limited,
    random_orthonormal_frame,
    summed_block_density,
)
from lplab.inequality_lab import _lp_density_samples, _lp_function_samples
from lplab.torus_grid import block_energy_stack, fft_stack, spectral_trace

TAU = 2.0 * np.pi
RTOL = 1e-12

GRIDS = {
    1: TorusGrid(1, TAU, 128),
    2: TorusGrid(2, TAU, 32),
    3: TorusGrid(3, TAU, 32),
}


def apply_symbol(f, table):
    """table(D) f, one forward and one inverse transform."""
    return np.fft.ifftn(table * np.fft.fftn(f))


def project(f, blocks, j):
    return apply_symbol(f, blocks.symbol(j))


def kinetic_form(grid, f, power):
    """L^{-d} sum_xi |xi|^(2 power) |coeffs(xi)|^2 for power >= 0, with the
    zero mode counted at power 0 only."""
    coeffs = grid.cell_volume * np.fft.fftn(f)
    nsq = grid.frequency_norms_squared
    table = np.where(nsq > 0, nsq ** float(power), 1.0 if power == 0 else 0.0)
    return float(np.sum(table * np.abs(coeffs) ** 2) / grid.volume)


def reference_summed_density(op, blocks):
    """sum_j sum_k lambda_k |P_j u_k|^2, one transform pair per (k, j)."""
    acc = np.zeros(op.grid.shape)
    for j in blocks.block_indices:
        for k in range(op.rank):
            piece = apply_symbol(op.eigenfunctions[k], blocks.symbol(j))
            acc = acc + float(op.eigenvalues[k]) * np.abs(piece) ** 2
    return acc


def reference_kinetic_trace(op, power):
    return sum(
        float(op.eigenvalues[k]) * kinetic_form(op.grid, op.eigenfunctions[k], power)
        for k in range(op.rank)
    )


def scalar_block_energy(u, blocks):
    """sum_j |P_j u|^2 as the lp sampler computes it: block_energy_stack on
    the fft_stack of a one-member stack."""
    spectra = fft_stack(blocks.grid, u[None])[:, None]
    return block_energy_stack(blocks.grid, spectra, np.ones((1, 1)), blocks.symbols)[0]


def reference_chain(op, blocks):
    """The three chain rungs through physical space, pair by pair."""
    t0 = reference_kinetic_trace(op, 1)
    t1 = 0.0
    for j in blocks.block_indices:
        for k in range(op.rank):
            t1 += float(op.eigenvalues[k]) * kinetic_form(
                op.grid, project(op.eigenfunctions[k], blocks, j), 1
            )
    t2 = 0.0
    for j in blocks.interior_indices:
        rho_j = np.zeros(op.grid.shape)
        for k in range(op.rank):
            piece = project(op.eigenfunctions[k], blocks, j)
            rho_j = rho_j + float(op.eigenvalues[k]) * np.abs(piece) ** 2
        t2 += 0.25 * 2.0 ** (2 * j) * float(op.grid.cell_volume * rho_j.sum())
    return t0, t1, t2


def assert_fields_close(actual, expected):
    np.testing.assert_allclose(
        actual, expected, rtol=RTOL, atol=RTOL * float(np.max(np.abs(expected)))
    )


def block_set(grid, family, profile_kind):
    return build_blocks(grid, family, profile_kind)


cases = st.fixed_dictionaries(
    {
        "dimension": st.sampled_from([1, 2, 3]),
        "family": st.sampled_from([SMOOTH, SHARP]),
        "profile": st.sampled_from(["exp", "quintic"]),
        "rank": st.integers(min_value=1, max_value=8),
        "decay": st.sampled_from([0.5, 1.0, 1.5]),
        "seed": st.integers(min_value=0, max_value=2**16),
    }
)


# The largest case: rank 8 at d=3 spans eight chunks of the block kernel.
D3_RANK8 = {"dimension": 3, "rank": 8, "decay": 1.0, "seed": 7}
D3_SMOOTH = dict(D3_RANK8, family=SMOOTH, profile="quintic")
D3_SHARP = dict(D3_RANK8, family=SHARP, profile="exp")


def frame_of(case):
    grid = GRIDS[case["dimension"]]
    op = random_orthonormal_frame(
        grid, rank=case["rank"], decay=case["decay"], seed=case["seed"]
    )
    return op, block_set(grid, case["family"], case["profile"])


class TestAgainstLoops:
    @given(case=cases)
    @example(case=D3_SMOOTH)
    @example(case=D3_SHARP)
    @settings(max_examples=12, deadline=None, derandomize=True)
    def test_summed_density_matches_pair_loop(self, case):
        op, blocks = frame_of(case)
        assert_fields_close(
            summed_block_density(op, blocks), reference_summed_density(op, blocks)
        )

    @given(case=cases, power=st.sampled_from([0.0, 0.5, 1.0, 2.0]))
    @example(case=D3_SMOOTH, power=1.0)
    @settings(max_examples=12, deadline=None, derandomize=True)
    def test_kinetic_trace_matches_per_eigenfunction_sum(self, case, power):
        op, _ = frame_of(case)
        np.testing.assert_allclose(
            spectral_trace(op.grid, op.spectral_density, power),
            reference_kinetic_trace(op, power),
            rtol=RTOL,
        )

    @given(case=cases.filter(lambda c: c["family"] == SMOOTH))
    @example(case=D3_SMOOTH)
    @settings(max_examples=10, deadline=None, derandomize=True)
    def test_chain_matches_transform_chain_and_is_ordered(self, case):
        op, blocks = frame_of(case)
        result = lt_chain_check(op, blocks)
        expected = reference_chain(op, blocks)
        actual = (result.kinetic, result.block_kinetic, result.block_density_bound)
        np.testing.assert_allclose(actual, expected, rtol=RTOL)
        assert result.passed
        t0, t1, t2 = actual
        assert t2 <= t1 * (1.0 + RTOL) and t1 <= t0 * (1.0 + RTOL)

    def test_single_block_density_matches_pair_loop(self):
        grid = GRIDS[3]
        op = random_orthonormal_frame(grid, rank=3, decay=1.0, seed=61)
        blocks = block_set(grid, SMOOTH, "exp")
        for j in blocks.block_indices:
            expected = np.zeros(grid.shape)
            for k in range(op.rank):
                piece = apply_symbol(op.eigenfunctions[k], blocks.symbol(j))
                expected = expected + float(op.eigenvalues[k]) * np.abs(piece) ** 2
            spectra = fft_stack(grid, op.eigenfunctions[None])
            actual = block_energy_stack(grid, spectra, op.eigenvalues[None], blocks.symbol(j)[None])[0]
            assert_fields_close(actual, expected)


class TestClosedForms:
    @given(case=cases)
    @settings(max_examples=12, deadline=None, derandomize=True)
    def test_rank_one_reduces_bit_for_bit(self, case):
        grid = GRIDS[case["dimension"]]
        blocks = block_set(grid, case["family"], case["profile"])
        values = random_band_limited(grid, case["decay"], seed=case["seed"])
        op = FiniteRankOperator(grid, [1.0], values)
        expected = scalar_block_energy(values[0], blocks)
        assert np.array_equal(summed_block_density(op, blocks), expected)

    @given(case=cases)
    @settings(max_examples=12, deadline=None, derandomize=True)
    def test_ratio_at_p2_is_parseval_closed_form(self, case):
        grid = GRIDS[case["dimension"]]
        blocks = block_set(grid, case["family"], case["profile"])
        values = random_band_limited(grid, case["decay"], seed=case["seed"])
        ((sample,),) = _lp_function_samples(grid, values, [2.0], blocks, 0)
        assert sample.ratio == pytest.approx(sample.closed_form, rel=RTOL)

    @given(case=cases)
    @example(case=D3_SHARP)
    @settings(max_examples=12, deadline=None, derandomize=True)
    def test_density_mass_ratio_is_parseval_closed_form(self, case):
        # At p = 1 the density ratio is a ratio of masses:
        # sum_xi (sum_j Psi_j^2) w / sum_xi w.
        op, blocks = frame_of(case)
        w = np.zeros(op.grid.shape)
        for k in range(op.rank):
            coeffs = np.fft.fftn(op.eigenfunctions[k])
            w = w + float(op.eigenvalues[k]) * np.abs(coeffs) ** 2
        closed = float(np.sum(block_squared_sum(blocks) * w) / np.sum(w))
        ((sample,),) = _lp_density_samples(op.grid, [op], [1.0], blocks, 0)
        assert sample.ratio == pytest.approx(closed, rel=RTOL)

    def test_density_is_weighted_sum_of_moduli(self):
        op = random_orthonormal_frame(GRIDS[3], rank=8, decay=1.0, seed=62)
        expected = sum(
            float(op.eigenvalues[k]) * np.abs(op.eigenfunctions[k]) ** 2
            for k in range(op.rank)
        )
        assert_fields_close(op.density_values, expected)


class TestTransformCounts:
    @pytest.fixture
    def fft_calls(self, monkeypatch):
        calls = {"fftn": 0, "ifftn": 0}
        for name in calls:
            original = getattr(np.fft, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        return calls

    @pytest.mark.parametrize("family", [SMOOTH, SHARP])
    def test_summed_density_is_one_transform_pair(self, grid1, family, fft_calls):
        op = random_orthonormal_frame(grid1, rank=8, decay=1.0, seed=63)
        blocks = build_blocks(grid1, family)
        fft_calls.update(fftn=0, ifftn=0)
        summed_block_density(op, blocks)
        assert fft_calls == {"fftn": 1, "ifftn": 1}

    def test_chain_makes_no_inverse_transform(self, grid1, blocks1, fft_calls):
        op = random_orthonormal_frame(grid1, rank=8, decay=1.0, seed=64)
        fft_calls.update(fftn=0, ifftn=0)
        lt_chain_check(op, blocks1)
        assert fft_calls["ifftn"] == 0

    def test_envelope_builds_each_member_once(self, small1, monkeypatch):
        drawn = []
        original = lplab.corpus.random_band_limited

        def counted(*args, **kwargs):
            drawn.append((kwargs["index"], kwargs["count"]))
            return original(*args, **kwargs)

        monkeypatch.setattr(lplab.corpus, "random_band_limited", counted)
        reports = estimate_envelope("lp", [(1.5, None), (2.0, None), (3.0, None)], small1, 5, 65)
        assert [r.p for r in reports] == [1.5, 2.0, 3.0]
        assert drawn == [(0, 5)]
