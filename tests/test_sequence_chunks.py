"""The sequence-bound trials stream through the chunk budget.

sequence_lemma_trials draws and bounds its trials in byte_chunks of the
trial axis, each chunk a spike_sequences draw that starts at its first
member.  The reference below is the one-table pass it replaced: one draw of
every trial and one bound over all its rows.  Every comparison is exact.
"""

import numpy as np
import pytest

import lplab.inequality_lab
import lplab.torus_grid
from lplab import sequence_lemma_bound, sequence_lemma_trials, single_spike, spike_sequences
from lplab.errors import ConfigurationError
from lplab.inequality_lab import _sequence_lemma_rows


def one_table_trials(dimension, trials, seed, j_range):
    """sequence_lemma_trials as one (trials, J) table bounded in one pass."""
    table = spike_sequences(dimension, j_range, count=trials, seed=seed)
    rows = _sequence_lemma_rows(table.indices, table.values, dimension)
    failures = int(np.count_nonzero(~rows.passed))
    spike = sequence_lemma_bound(single_spike(dimension, j=3), dimension)
    return {
        "dimension": dimension,
        "trials": trials,
        "seed": seed,
        "failures": failures,
        "max_ratio": float(rows.ratio.max(initial=0.0)),
        "max_constant": float(rows.constant.max(initial=0.0)),
        "spike_ratio": spike.ratio,
        "passed": failures == 0 and abs(spike.ratio - 1.0) <= 1e-12,
    }


@pytest.mark.parametrize("j_range", [(-3, 3), (-40, 40)])
@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_uneven_chunks_equal_the_one_table_pass(monkeypatch, dimension, j_range):
    trials, seed = 301, 17
    draws = []
    draw = lplab.inequality_lab.spike_sequences

    def counted(*args, **kwargs):
        table = draw(*args, **kwargs)
        draws.append((kwargs["index"], table.values.shape[0]))
        return table

    monkeypatch.setattr(lplab.inequality_lab, "spike_sequences", counted)
    # 3000 bytes: six trials of the seven-index window, one of the 81-index.
    monkeypatch.setattr(lplab.torus_grid, "FIELD_CHUNK_BYTES", 3000)
    streamed = sequence_lemma_trials(dimension, trials, seed, j_range)
    step = draws[0][1]
    assert step == (6 if j_range == (-3, 3) else 1)
    assert draws == [(start, min(step, trials - start)) for start in range(0, trials, step)]
    assert streamed == one_table_trials(dimension, trials, seed, j_range)


def test_the_desk_budget_draws_the_desk_trials_in_fourteen_chunks(monkeypatch):
    draws = []
    draw = lplab.inequality_lab.spike_sequences

    def counted(*args, **kwargs):
        draws.append(kwargs["index"])
        return draw(*args, **kwargs)

    monkeypatch.setattr(lplab.inequality_lab, "spike_sequences", counted)
    streamed = sequence_lemma_trials(1, 10_000, 2030)
    assert len(draws) == 14
    assert streamed == one_table_trials(1, 10_000, 2030, (-10, 10))


@pytest.mark.parametrize("index, count", [(0, 5), (3, 4), (17, 1), (40, 0)])
def test_a_draw_from_index_i_is_rows_i_onward_of_the_full_table(index, count):
    full = spike_sequences(2, (-5, 6), count=40, seed=9).values
    part = spike_sequences(2, (-5, 6), count=count, seed=9, index=index)
    assert np.array_equal(part.values, full[index : index + count])


def test_a_negative_first_member_is_refused():
    with pytest.raises(ConfigurationError, match="at least 0"):
        spike_sequences(1, count=3, seed=1, index=-1)


@pytest.mark.parametrize("kwargs", [dict(count=-1), dict(count=2, seed=-1), dict(seed=2**64)])
def test_a_negative_count_or_a_seed_off_the_key_range_is_refused(kwargs):
    with pytest.raises(ConfigurationError, match="at least 0"):
        spike_sequences(1, **kwargs)


def test_the_peak_does_not_grow_with_the_trials(traced_peak):
    _, desk = traced_peak(sequence_lemma_trials, 1, 10_000, 3)
    _, twenty_fold = traced_peak(sequence_lemma_trials, 1, 200_000, 3)
    assert twenty_fold <= 1.1 * desk, (desk, twenty_fold)
