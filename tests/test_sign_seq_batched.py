"""The batched sequence bound, the spike table and the chunked sign-sum pass
against the per-item code they replaced.

The references below are the one-dict sequence bound, the one-member spike
draw and the one-vector sign-sum loop.  The batched sequence kernel sums the
same columns in the same order and calls the same C library pow and log2,
so ratios and constants are compared at rtol 1e-15, split indices and
verdicts exactly.  The sign-sum pass keeps one sign product per vector and
reduces each row of its magnitude table as the loop reduced each vector, so
its samples are compared field for field.
"""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import lplab.inequality_lab
import lplab.torus_grid
from lplab import (
    CheckSample,
    SignEnsemble,
    khinchine_reports,
    philox_generator,
    sequence_lemma_bound,
    sequence_lemma_trials,
    spike_sequences,
)
from lplab.inequality_lab import DEGENERACY_RTOL, _sequence_lemma_rows, _sign_blocks
from lplab.torus_grid import abs_squared


def reference_bound(alpha: dict, dimension: int):
    """(lhs, rhs, split_index, constant, ratio, passed) for one sequence."""
    d = int(dimension)
    items = sorted((int(j), float(v)) for j, v in alpha.items())
    for j, value in items:
        cap = 2.0 ** (j * d)
        if value < 0 or value > cap * (1.0 + 1e-12):
            raise ValueError(f"alpha_{j} = {value} violates the admissibility cap {cap}")
    total = sum(v for _, v in items)
    rhs = sum(2.0 ** (2 * j) * v for j, v in items)
    exponent = 1.0 + 2.0 / d
    lhs = total**exponent
    if rhs == 0.0:
        return lhs, rhs, None, None, 0.0, lhs == 0.0
    head_constant = 1.0 / (1.0 - 2.0 ** (-d))

    def two_term_bound(j_split: int) -> float:
        return head_constant * 2.0 ** (d * j_split) + 2.0 ** (-2 * j_split) * rhs

    critical = math.log2(2.0 * rhs / (head_constant * d)) / (d + 2.0)
    split = min((math.floor(critical), math.ceil(critical)), key=two_term_bound)
    constant = two_term_bound(split) ** exponent / rhs
    ratio = lhs / rhs
    return lhs, rhs, split, constant, ratio, lhs <= constant * rhs * (1.0 + 1e-12)


def reference_member(dimension: int, lo: int, hi: int, seed: int, index: int) -> dict:
    """Member ``index`` of a spike corpus, drawn on its own."""
    length = hi - lo + 1
    rng = philox_generator(seed, index)
    betas = rng.uniform(0.0, 1.0, size=length)
    keep_probability = rng.uniform(0.1, 0.9)
    mask = rng.uniform(0.0, 1.0, size=length) < keep_probability
    return {
        j: float(betas[j - lo] * mask[j - lo] * 2.0 ** (j * dimension))
        for j in range(lo, hi + 1)
    }


@st.composite
def tables(draw):
    """Admissible tables on windows inside (-40, 40), with an all-zero row
    and a saturated single-spike row appended."""
    dimension = draw(st.sampled_from([1, 2, 3]))
    lo = draw(st.integers(-40, 40))
    hi = draw(st.integers(lo, min(lo + 30, 40)))
    length = hi - lo + 1
    rows = draw(st.integers(1, 5))
    fractions = draw(
        arrays(float, (rows, length), elements=st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
    )
    spike = np.zeros((1, length))
    spike[0, draw(st.integers(0, length - 1))] = 1.0
    fractions = np.vstack([fractions, np.zeros((1, length)), spike])
    indices = np.arange(lo, hi + 1)
    return dimension, indices, fractions * np.ldexp(1.0, indices * dimension)


class TestSequenceKernel:
    @given(case=tables())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_matches_per_sequence_reference(self, case):
        dimension, indices, table = case
        rows = _sequence_lemma_rows(indices, table, dimension)
        for r, values in enumerate(table):
            lhs, rhs, split, constant, ratio, passed = reference_bound(
                dict(zip(indices.tolist(), values.tolist())), dimension
            )
            assert rows.passed[r] == passed
            assert rows.bounded[r] == (split is not None)
            assert rows.lhs[r] == pytest.approx(lhs, rel=1e-15, abs=0.0)
            assert rows.rhs[r] == pytest.approx(rhs, rel=1e-15, abs=0.0)
            assert rows.ratio[r] == pytest.approx(ratio, rel=1e-15, abs=0.0)
            if split is not None:
                assert rows.split_index[r] == split
                assert rows.constant[r] == pytest.approx(constant, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_one_row_call_matches_reference(self, dimension):
        for alpha in ({3: 2.0 ** (3 * dimension)}, {-1: 0.0, 2: 0.0}, {0: 0.5, -2: 0.01}):
            result = sequence_lemma_bound(alpha, dimension)
            assert (
                result.lhs, result.rhs, result.split_index, result.constant,
                result.ratio, result.passed,
            ) == reference_bound(alpha, dimension)

    def test_inadmissible_row_inside_a_batch(self):
        table = spike_sequences(2, (-3, 3), count=6, seed=5)
        values = table.values.copy()
        values[4, 5] = 2.0 ** (2 * 2) * 1.5
        with pytest.raises(ValueError) as expected:
            reference_bound(dict(zip(table.indices.tolist(), values[4].tolist())), 2)
        with pytest.raises(ValueError, match="admissibility cap") as batched:
            _sequence_lemma_rows(table.indices, values, 2)
        assert str(batched.value) == str(expected.value)

    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_trials_match_reference_loop(self, dimension):
        summary = sequence_lemma_trials(dimension, trials=400, seed=91)
        results = [
            reference_bound(reference_member(dimension, -10, 10, 91, i), dimension)
            for i in range(400)
        ]
        assert summary["failures"] == sum(not r[5] for r in results) == 0
        assert summary["max_ratio"] == max(r[4] for r in results)
        assert summary["max_constant"] == max(r[3] for r in results if r[3] is not None)

    def test_no_trials_is_refused(self):
        with pytest.raises(lplab.ConfigurationError, match="trial count"):
            sequence_lemma_trials(1, trials=0, seed=1)


class TestSpikeTable:
    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_rows_equal_per_member_draws(self, dimension):
        table = spike_sequences(dimension, count=1000, seed=2030)
        assert table.values.shape == (1000, 21)
        assert table.indices.tolist() == list(range(-10, 11))
        for index in (0, 1, 57, 999):
            reference = reference_member(dimension, -10, 10, 2030, index)
            assert np.array_equal(table.values[index], list(reference.values()))

    def test_member_is_a_view_of_its_row(self):
        table = spike_sequences(3, (-40, 40), count=60, seed=7)
        reference = reference_member(3, -40, 40, 7, 57)
        assert table.indices.tolist() == list(reference)
        assert np.array_equal(table.values[57], list(reference.values()))


class TestSignTable:
    def test_one_enumeration_per_call(self, monkeypatch):
        """12 exact terms take 32 arrays per chunk, so 50 arrays make two
        chunks; the 4096 sign rows are kept for both and enumerated once."""
        calls = []
        original = lplab.inequality_lab._sign_rows

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(lplab.inequality_lab, "_sign_rows", counted)
        khinchine_reports((12,), [1.0, 2.0], 50, 2027)
        assert calls == [(0, 4096, 12)]
        calls.clear()
        khinchine_reports((8, 8), [1.0, 2.0], 50, 2028)
        assert calls == [(0, 256, 8)]

    @pytest.mark.parametrize(
        "ensemble", [SignEnsemble.exact(), SignEnsemble.monte_carlo(300, 11)], ids=["exact", "mc"]
    )
    def test_rebuilt_blocks_give_the_same_reports(self, monkeypatch, ensemble):
        """With 4 x 20 sign entries the most that is kept, these ensembles
        are rebuilt for each chunk of 3 classical arrays."""
        kept = khinchine_reports((7,), [1.0, 3.0], 20, 4, ensemble)
        kept_tensor = khinchine_reports((5, 5), [1.5], 20, 4, ensemble)
        passes = []
        original = lplab.inequality_lab._sign_blocks

        def counted(count, ensemble):
            passes.append(count)
            return original(count, ensemble)

        monkeypatch.setattr(lplab.inequality_lab, "_KEPT_ENSEMBLE_ROWS", 4)
        monkeypatch.setattr(lplab.inequality_lab, "_sign_blocks", counted)
        monkeypatch.setattr(
            lplab.torus_grid, "FIELD_CHUNK_BYTES", 3 * ensemble_rows(7, ensemble) * 8
        )
        rebuilt = khinchine_reports((7,), [1.0, 3.0], 20, 4, ensemble)
        assert passes == [7] * 7
        rebuilt_tensor = khinchine_reports((5, 5), [1.5], 20, 4, ensemble)
        assert [r.samples for r in rebuilt] == [r.samples for r in kept]
        assert [r.samples for r in rebuilt_tensor] == [r.samples for r in kept_tensor]

    @pytest.mark.parametrize("terms, rows", [(3, 1), (12, 7), (200, 100), (12, 32_768)])
    def test_budgeted_blocks_join_into_one_unsplit_draw(self, monkeypatch, terms, rows):
        """Blocks of FIELD_CHUNK_BYTES hold ``rows`` sign vectors each, and
        numpy's integers(0, 2) stream gives the same bits however it is split."""
        samples = 2 * rows + 1
        monkeypatch.setattr(lplab.torus_grid, "FIELD_CHUNK_BYTES", rows * terms * 16)
        blocks = list(_sign_blocks(terms, SignEnsemble.monte_carlo(samples, 61)))
        assert [len(block) for block in blocks] == [rows, rows, 1]
        unsplit = philox_generator(61, 0, 1).integers(0, 2, size=(samples, terms))
        np.testing.assert_array_equal(np.concatenate(blocks), np.where(unsplit, 1.0, -1.0))

    def test_monte_carlo_signs_fit_the_budget(self, traced_peak):
        """100 terms of 20,000 draws are 32 MB of complex signs, 20 terms
        6.4 MB; the pass holds a few budgets of them at a time."""
        ensemble = SignEnsemble.monte_carlo(20_000, 5)
        for terms in (100, 20):
            _, peak = traced_peak(khinchine_reports, (terms,), [2.0], 2, 5, ensemble)
            assert peak < 4 * lplab.torus_grid.FIELD_CHUNK_BYTES, (terms, peak)

    @pytest.mark.parametrize(
        "axes", [1, 2], ids=["khinchine_reports", "tensor_khinchine_reports"]
    )
    def test_empty_runs_are_refused(self, axes):
        with pytest.raises(lplab.ConfigurationError, match="term count"):
            khinchine_reports((0,) * axes, [1.0], 5, 1)
        with pytest.raises(lplab.ConfigurationError, match="sample count"):
            khinchine_reports((3,) * axes, [1.0], 0, 1)


def linear_sum_magnitudes(coefficients, signs):
    """|sum_j a_j r_j| for every sign vector of the table, in order."""
    return np.concatenate([np.abs(rows @ coefficients) for rows in signs])


def tensor_sum_magnitudes(matrix, signs):
    """|sum_jk a_jk r_j r_k| over one shared sign sequence of length max(J, K)."""
    rows_j, cols_k = matrix.shape
    parts = []
    for rows in signs:
        left = rows[:, :rows_j]
        right = rows[:, :cols_k]
        parts.append(np.abs(((left @ matrix) * right).sum(axis=1)))
    return np.concatenate(parts)


def reference_sign_samples(n_terms, p_list, count, seed, ensemble, tensor):
    """One list of samples per exponent, each vector drawn and summed on its own."""
    signs = list(_sign_blocks(n_terms, ensemble))
    per_p = {float(p): [] for p in p_list}
    shape = (2, n_terms, n_terms) if tensor else (2, n_terms)
    for index in range(count):
        draws = philox_generator(seed, index).standard_normal(size=shape)
        coefficients = draws[0] + 1j * draws[1]
        if tensor:
            magnitudes = tensor_sum_magnitudes(coefficients, signs)
        else:
            magnitudes = linear_sum_magnitudes(coefficients, signs)
        l2 = float(np.sum(abs_squared(coefficients)))
        for p, samples in per_p.items():
            expectation = float(np.mean(magnitudes**p))
            l2_power = l2 ** (p / 2.0)
            if tensor:
                degenerate = expectation < DEGENERACY_RTOL * l2_power
                ratio = math.inf if degenerate else l2_power / expectation
                samples.append(CheckSample(index, 1, l2_power, expectation, ratio, degenerate))
            else:
                samples.append(
                    CheckSample(index, 1, expectation, l2_power, expectation / l2_power)
                )
    return list(per_p.values())


def ensemble_rows(n_terms, ensemble):
    return 2**n_terms if ensemble.mode == "exact" else ensemble.samples


class TestSignSumPass:
    PS = [1.0, 1.5, 2.0, 3.0]

    def check(self, n_terms, count, seed, ensemble, tensor, ps=PS):
        shape = (n_terms, n_terms) if tensor else (n_terms,)
        reports = khinchine_reports(shape, ps, count, seed, ensemble)
        expected = reference_sign_samples(n_terms, ps, count, seed, ensemble, tensor)
        assert [r.p for r in reports] == list(dict.fromkeys(float(p) for p in ps))
        for report, samples in zip(reports, expected, strict=True):
            assert len(report.samples) == count
            for got, want in zip(report.samples, samples):
                assert dataclasses.astuple(got) == dataclasses.astuple(want)

    @pytest.mark.parametrize(
        "n_terms, tensor", [(12, False), (8, True), (5, False), (5, True)]
    )
    def test_exact_terms(self, n_terms, tensor):
        # 12 exact terms take 32 vectors per chunk, so 45 leaves a partial chunk.
        self.check(n_terms, 45, 2027, SignEnsemble.exact(), tensor)

    @pytest.mark.parametrize("tensor", [False, True])
    @pytest.mark.parametrize("samples", [4096, 300])
    def test_monte_carlo(self, tensor, samples):
        self.check(8 if tensor else 12, 40, 2028, SignEnsemble.monte_carlo(samples, 11), tensor)

    @pytest.mark.parametrize("tensor", [False, True])
    def test_one_vector(self, tensor):
        self.check(6, 1, 5, SignEnsemble.exact(), tensor)

    def test_repeated_exponent_gives_one_report(self):
        self.check(6, 7, 5, SignEnsemble.exact(), False, ps=[2.0, 1.0, 2])

    @pytest.mark.parametrize("vectors", [1, 3])
    @pytest.mark.parametrize("tensor", [False, True])
    def test_small_chunks(self, monkeypatch, vectors, tensor):
        ensemble = SignEnsemble.exact() if tensor else SignEnsemble.monte_carlo(300, 4)
        n_terms = 6 if tensor else 9
        monkeypatch.setattr(
            lplab.torus_grid, "FIELD_CHUNK_BYTES", vectors * ensemble_rows(n_terms, ensemble) * 8
        )
        self.check(n_terms, 10, 17, ensemble, tensor)

    def test_rebuilt_table_one_vector_per_chunk(self):
        """At 20 exact terms one vector's rows exceed the chunk budget, so
        every vector makes its own pass over the 16 sign blocks."""
        assert 2**20 * 8 > lplab.torus_grid.FIELD_CHUNK_BYTES
        self.check(20, 2, 9, SignEnsemble.exact(), False, ps=[1.0, 3.0])


def test_error_text_names_the_cap():
    with pytest.raises(ValueError, match=re.escape("alpha_2 = 5.0 violates the admissibility cap 4.0")):
        sequence_lemma_bound({2: 5.0, 3: 1.0}, 1)
