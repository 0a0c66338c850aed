"""The batched sequence bound, the spike table and the shared sign table
against the per-sequence code they replaced.

The references below are the one-dict sequence bound and the one-member
spike draw.  The batched kernel sums the same columns in the same order and
calls the same C library pow and log2, so ratios and constants are compared
at rtol 1e-15, split indices and verdicts exactly.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import lplab.inequality_lab
from lplab import (
    CorpusSpec,
    SignEnsemble,
    TorusGrid,
    khinchine_reports,
    philox_generator,
    sequence_lemma_bound,
    sequence_lemma_trials,
    spike_sequences,
    tensor_khinchine_reports,
)
from lplab.inequality_lab import _sequence_lemma_rows


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
        for index in (0, 1, 57, 999):
            reference = reference_member(dimension, -10, 10, 2030, index)
            assert np.array_equal(table.values[index], list(reference.values()))
            assert table[index] == reference

    def test_member_is_a_view_of_its_row(self):
        spec = CorpusSpec(
            "spike_sequence", count=60, seed=7, params={"dimension": 3, "j_range": [-40, 40]}
        )
        table = spike_sequences(3, (-40, 40), count=60, seed=7)
        assert spec.member(TorusGrid(3, 2.0 * np.pi, 8), 57) == table[57]
        assert table[57] == reference_member(3, -40, 40, 7, 57)


class TestSignTable:
    def test_one_enumeration_per_call(self, monkeypatch):
        calls = []
        original = lplab.inequality_lab._sign_rows

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(lplab.inequality_lab, "_sign_rows", counted)
        khinchine_reports(12, [1.0, 2.0], 50, 2027)
        assert calls == [(0, 4096, 12)]
        calls.clear()
        tensor_khinchine_reports(8, [1.0, 2.0], 50, 2028)
        assert calls == [(0, 256, 8)]

    @pytest.mark.parametrize(
        "ensemble", [SignEnsemble.exact(), SignEnsemble.monte_carlo(300, 11)], ids=["exact", "mc"]
    )
    def test_rebuilt_blocks_give_the_same_reports(self, monkeypatch, ensemble):
        """Past the table budget the blocks are rebuilt on every pass."""
        kept = khinchine_reports(7, [1.0, 3.0], 20, 4, ensemble)
        kept_tensor = tensor_khinchine_reports(5, [1.5], 20, 4, ensemble)
        monkeypatch.setattr(lplab.inequality_lab, "SIGN_TABLE_BYTES", 0)
        rebuilt = khinchine_reports(7, [1.0, 3.0], 20, 4, ensemble)
        rebuilt_tensor = tensor_khinchine_reports(5, [1.5], 20, 4, ensemble)
        assert [r.to_dict() for r in rebuilt] == [r.to_dict() for r in kept]
        assert [r.to_dict() for r in rebuilt_tensor] == [r.to_dict() for r in kept_tensor]

    @pytest.mark.parametrize("reports", [khinchine_reports, tensor_khinchine_reports])
    def test_empty_runs_are_refused(self, reports):
        with pytest.raises(lplab.ConfigurationError, match="term count"):
            reports(0, [1.0], 5, 1)
        with pytest.raises(lplab.ConfigurationError, match="sample count"):
            reports(3, [1.0], 0, 1)


def test_error_text_names_the_cap():
    with pytest.raises(ValueError, match=re.escape("alpha_2 = 5.0 violates the admissibility cap 4.0")):
        sequence_lemma_bound({2: 5.0, 3: 1.0}, 1)
