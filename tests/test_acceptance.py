"""End-to-end acceptance gate, one test per release check.

``pytest tests/test_acceptance.py -v`` prints one pass/fail line per check.
Desk configuration throughout: d=1 with N=256 and d=2 with N=64 on the 2*pi
box, smooth family, default profile.  Ratio envelopes come from the packaged
calibration data and are loaded, never recomputed, here.
"""

import math

import numpy as np
import pytest

from lplab import (
    CorpusSpec,
    FiniteRankOperator,
    SignEnsemble,
    duality_identity_check,
    envelope_for,
    estimate_envelope,
    fermi_sweep,
    generalized_lt_check,
    khinchine_reports,
    lieb_thirring_check,
    load_envelopes,
    lt_chain_check,
    plane_wave,
    power_bounded,
    random_band_limited,
    random_orthonormal_frame,
    sequence_lemma_trials,
    sign_sum_samples,
    summed_block_density,
    validate_contract,
)
from lplab.cli import DENSITY_RANK_SLACK, run
from lplab.inequality_lab import _lp_density_samples, _lp_function_samples
from lplab.torus_grid import block_energy_stack, fft_stack
from sea_reference import fermi_sea

LP_EXPONENTS = (1.5, 2.0, 3.0, 4.0)
DENSITY_EXPONENTS = (0.75, 1.0, 1.5, 2.0, 3.0)
SIGN_EXPONENTS = (1.0, 1.5, 2.0, 3.0)


def test_gate_1_partition_reconstruction_duality(grid1, grid2, blocks1, blocks2):
    """Pointwise partition residual, block-sum reconstruction, pairing identity."""
    for blocks in (blocks1, blocks2):
        assert blocks.partition_residual() <= 1e-12
    functions_checked = 0
    for grid, blocks, count in ((grid1, blocks1, 60), (grid2, blocks2, 40)):
        for index in range(count):
            (f,) = random_band_limited(grid, 1.0, seed=4101, index=2 * index)
            (g,) = random_band_limited(grid, 1.0, seed=4101, index=2 * index + 1)
            spectrum = np.fft.fftn(f)
            total = np.zeros(grid.shape, dtype=complex)
            for j in blocks.block_indices:
                total = total + np.fft.ifftn(blocks.symbol(j) * spectrum)
            scale = float(np.max(np.abs(f)))
            assert float(np.max(np.abs(total - f))) <= 1e-12 * scale
            assert duality_identity_check(f, g, blocks) <= 1e-10
            functions_checked += 1
    assert functions_checked == 100
    print("gate 1: partition, reconstruction and duality pass on 100 functions")


def test_gate_2_square_function_envelope(grid1, grid2, blocks1):
    """Square-function ratios sit in the frozen envelopes and are seed-stable."""
    envelopes = load_envelopes()
    spec = CorpusSpec("random_band_limited", 200, 2024, {"decay": 1.0})
    base_reports = {}
    for grid, dim in ((grid1, 1), (grid2, 2)):
        exponents = [(p, envelope_for(envelopes, "lp", dim, p)) for p in LP_EXPONENTS]
        reports = estimate_envelope(spec, "lp", exponents, grid)
        for (p, envelope), report in zip(exponents, reports):
            assert envelope is not None
            assert report.p == p
            assert report.degenerate_count == 0
            assert report.passed
            if dim == 1:
                base_reports[p] = report
            print(
                f"gate 2: lp d{dim} p={p:g} ratios "
                f"[{report.ratio_min:.6f}, {report.ratio_max:.6f}] "
                f"inside [{envelope[0]:.6f}, {envelope[1]:.6f}]"
            )
    values = random_band_limited(grid1, 1.0, seed=2024, count=25)
    for (sample,) in _lp_function_samples(grid1, values, [2.0], blocks1, 0):
        assert abs(sample.ratio - sample.closed_form) <= 1e-12
    fresh_spec = CorpusSpec("random_band_limited", 200, 777, {"decay": 1.0})
    fresh_reports = estimate_envelope(fresh_spec, "lp", [(p, None) for p in LP_EXPONENTS], grid1)
    for p, fresh in zip(LP_EXPONENTS, fresh_reports):
        base = base_reports[p]
        assert abs(fresh.ratio_min - base.ratio_min) <= 0.2 * base.ratio_min
        assert abs(fresh.ratio_max - base.ratio_max) <= 0.2 * base.ratio_max
        lo, hi = envelope_for(envelopes, "lp", 1, p)
        assert lo <= fresh.ratio_min and fresh.ratio_max <= hi


def test_gate_3_density_blocks_rank_uniform(grid1, blocks1):
    """Rank-one densities collapse to the scalar pipeline; ranks to 32 stay in the slack envelope."""
    envelopes = load_envelopes()
    values = random_band_limited(grid1, 1.0, seed=2025, count=10)
    ops = [FiniteRankOperator(grid1, [1.0], u[None]) for u in values]
    # The square-function energy as the lp sampler computes it.
    spectra = fft_stack(grid1, values)[:, None]
    energies = block_energy_stack(grid1, spectra, np.ones((10, 1)), blocks1.symbols)
    for op, energy in zip(ops, energies):
        assert np.array_equal(summed_block_density(op, blocks1), energy)
    scalars = _lp_function_samples(grid1, values, [2.0 * p for p in DENSITY_EXPONENTS], blocks1, 0)
    densities = _lp_density_samples(grid1, ops, DENSITY_EXPONENTS, blocks1, 0)
    for scalar_samples, density_samples in zip(scalars, densities, strict=True):
        for scalar, dens in zip(scalar_samples, density_samples, strict=True):
            assert dens.ratio == pytest.approx(scalar.ratio**2, rel=1e-12)
    for rank in (1, 2, 4, 8, 16, 32):
        spec = CorpusSpec(
            "random_orthonormal_frame",
            20,
            2025,
            {"rank": rank, "decay": 1.0, "weights": "uniform"},
        )
        exponents = []
        for p in DENSITY_EXPONENTS:
            lo, hi = envelope_for(envelopes, "lp_density", 1, p)
            exponents.append((p, (lo / DENSITY_RANK_SLACK, hi * DENSITY_RANK_SLACK)))
        for report in estimate_envelope(spec, "lp_density", exponents, grid1):
            assert report.sample_count == 20 and report.degenerate_count == 0
            assert report.passed
        print(f"gate 3: rank {rank} inside the widened envelope at all exponents")


def test_gate_4_sign_sum_comparisons():
    """Exact sign enumeration bounds linear and tensor sums at the recorded constants."""
    envelopes = load_envelopes()
    exact = SignEnsemble.exact()
    for report in khinchine_reports((12,), SIGN_EXPONENTS, 500, 2027, envelopes=envelopes):
        assert report.envelope is not None
        assert report.degenerate_count == 0
        assert report.passed
    for report in khinchine_reports((8, 8), SIGN_EXPONENTS, 500, 2028, envelopes=envelopes):
        assert report.envelope is not None
        assert report.degenerate_count == 0
        assert report.passed
    spike = np.zeros((3, 3))
    spike[0, 0] = 1.0
    for (result,) in sign_sum_samples([spike], SIGN_EXPONENTS, exact):
        assert result.ratio == 1.0
        assert not result.degenerate
    ((pair,),) = sign_sum_samples([[1.0, 1.0]], [1.0], exact)
    assert abs(pair.ratio - 1.0 / math.sqrt(2.0)) <= 1e-12
    print("gate 4: 500-sample sign-sum envelopes and the exact witnesses pass")


def test_gate_5_kinetic_chain(grid1, grid2, blocks1, blocks2):
    """Kinetic trace dominates block kinetics, which dominate quarter-weighted block masses."""
    cases = []
    for index in range(8):
        op = random_orthonormal_frame(grid1, rank=1 + index % 4, decay=1.0, seed=5205, index=index)
        cases.append((op, blocks1))
    for index in range(4):
        op = random_orthonormal_frame(grid2, rank=1 + index, decay=1.0, seed=5206, index=index)
        cases.append((op, blocks2))
    for mu in (1.1, 4.2, 9.5, 30.5):
        cases.append((fermi_sea(grid1, mu), blocks1))
    for mu in (2.2, 6.5):
        cases.append((fermi_sea(grid2, mu), blocks2))
    for op, blocks in cases:
        result = lt_chain_check(op, blocks)
        assert result.passed
        assert result.block_kinetic <= result.kinetic * (1.0 + 1e-10)
        assert result.block_density_bound <= result.block_kinetic * (1.0 + 1e-10)
    wave = plane_wave(grid1, (4,), amplitude=grid1.volume**-0.5)
    single = FiniteRankOperator(grid1, [1.0], wave[None])
    result = lt_chain_check(single, blocks1)
    assert result.kinetic == pytest.approx(16.0, rel=1e-12)
    assert result.block_kinetic == pytest.approx(result.kinetic, rel=1e-12)
    assert result.block_density_bound == pytest.approx(result.kinetic / 4.0, rel=1e-12)
    print(f"gate 5: chain holds on {len(cases)} operators plus the one-plateau wave")


def test_gate_6_sequence_bound():
    """Random admissible sequences obey the split bound; the spike saturates it."""
    for dimension in (1, 2, 3):
        outcome = sequence_lemma_trials(dimension, trials=10_000, seed=2030)
        assert outcome["failures"] == 0
        assert abs(outcome["spike_ratio"] - 1.0) <= 1e-12
        assert outcome["passed"]
        print(
            f"gate 6: d={dimension} 10000 trials, 0 failures, "
            f"max ratio {outcome['max_ratio']:.6f}"
        )


def test_gate_7_fermi_ladder(grid1):
    """Fermi ladder: oracle agreement, oracle-direction monotonicity, tail convergence, weak-bound gap."""
    ladder = (1.1, 9.5, 49.5, 225.5, 961.5, 3969.5)
    rows, _ = fermi_sweep(grid1, ladder)
    assert [row["rank"] for row in rows] == [3, 7, 15, 31, 63, 127]
    for row in rows:
        assert row["ratio"] > 0.0
        assert row["oracle_gap"] <= 1e-10
    ratios = [row["ratio"] for row in rows]
    oracle = [row["oracle_ratio"] for row in rows]
    # The lattice sums fix the trend: with modes |m| <= M the ratio is
    # tau^2 M (M + 1) / (3 (2M + 1)^2), strictly rising toward pi^2 / 3.
    assert all(later > earlier for earlier, later in zip(oracle, oracle[1:]))
    assert all(later > earlier for earlier, later in zip(ratios, ratios[1:]))
    assert abs(ratios[-1] - ratios[-2]) <= 0.02 * ratios[-2]
    assert ratios[-1] == pytest.approx(math.pi**2 / 3.0, rel=0.02)
    for row in rows:
        if row["rank"] >= 16:
            assert row["weak_ratio"] >= 0.5 * row["rank"] ** 2.0 * row["ratio"]
    print(
        "gate 7: ladder ratios "
        + ", ".join(f"{value:.6f}" for value in ratios)
        + f" converge toward {math.pi ** 2 / 3.0:.6f}"
    )


def test_gate_8_generalized_powers(grid1, grid2):
    """Pair (0, 1) reproduces the base comparison bit for bit; shifted pairs stay finite and contract-clean."""
    probes = [fermi_sea(grid1, 9.5), fermi_sea(grid2, 2.2)]
    for index in range(3):
        probes.append(
            random_orthonormal_frame(grid1, rank=3, decay=1.0, seed=5208, index=index)
        )
    for op in probes:
        base = lieb_thirring_check(op)
        general = generalized_lt_check(op, 0.0, 1.0)
        assert general.kinetic == base.kinetic
        assert general.density_power_integral == base.density_power_integral
        assert general.ratio == base.ratio
        assert general.exponent == 1.0 + 2.0 / op.grid.dimension
    for index in range(6):
        op = random_orthonormal_frame(
            grid2, rank=2 + index % 3, decay=1.0, seed=5209, index=index, power_bound=1.0
        )
        assert validate_contract(op, power_bounded(1.0)).passed
        for b in (1.0, 2.0):
            result = generalized_lt_check(op, 1.0, b)
            assert math.isfinite(result.ratio) and result.ratio > 0.0
    for index in range(6):
        op = random_orthonormal_frame(
            grid1, rank=2, decay=1.0, seed=5210, index=index, power_bound=-0.25
        )
        assert validate_contract(op, power_bounded(-0.25)).passed
        result = generalized_lt_check(op, -0.25, 1.0)
        assert math.isfinite(result.ratio) and result.ratio > 0.0
    print("gate 8: generalized power pairs agree with and extend the base check")


def test_gate_9_reports_are_reproducible(tmp_path):
    """One seed, any worker count, byte-identical report files."""

    def emit(label, *argv):
        out = tmp_path / f"{label}.json"
        assert run([*argv, "--out", str(out)]) == 0
        return out.read_bytes()

    lp = ["lp", "--dim", "1", "--samples", "24", "--p", "1.5", "--p", "2"]
    assert emit("lp_b", *lp) == emit("lp_a", *lp)
    density = ["lp-density", "--dim", "1", "--samples", "8", "--rank", "1",
               "--rank", "2", "--p", "1", "--p", "2"]
    assert emit("density_b", *density) == emit("density_a", *density)
    # Only `lplab all` takes --jobs.
    assert emit("all_j2", "all", "--jobs", "2") == emit("all_j1", "all", "--jobs", "1")
    print("gate 9: lp, lp-density and all reports byte-identical across reruns and workers")
