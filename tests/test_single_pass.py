"""Every unit of work of `lplab all` happens once.

A frame's members are drawn in one pass per attempt, checked bit for bit
against the per-member draw they replaced, kept here as the reference; an
operator computes its Gram residual, spectral density and density once, and
transforms its stack once on every command's path; `lp` builds no member
twice, and `lieb-thirring` generates each wave of its top rung once per
pass; and the report writer is checked byte for byte against the json
encoder subclass it replaced, also kept here.
"""

import contextlib
import dataclasses
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lplab
import lplab.cli
import lplab.corpus
import lplab.fock_operator
import lplab.inequality_lab
import lplab.torus_grid
from lplab import (
    FiniteRankOperator,
    TorusGrid,
    canonical_json,
    format_float,
    generalized_lt_check,
    lt_chain_check,
    philox_generator,
    power_bounded,
    random_band_limited,
    random_orthonormal_frame,
    validate_contract,
)
from lplab.corpus import _orthonormalize
from lplab.fock_operator import _sea_modes
from lplab.torus_grid import abs_squared

TAU = 2.0 * np.pi
GRIDS = {1: (1, 256), 2: (2, 64), 3: (3, 16)}


def _grid(d):
    dim, n = GRIDS[d]
    return TorusGrid(dim, TAU, n)


def per_eigenfunction_density(op):
    """sum_k lambda_k |transform of u_k|^2, one eigenfunction at a time, added in ascending k."""
    w = np.zeros(op.grid.shape)
    for weight, u in zip(op.eigenvalues, op.eigenfunctions):
        w += weight * abs_squared(np.fft.fftn(u) * op.grid.cell_volume)
    return w


@pytest.fixture
def fft_calls(monkeypatch):
    calls = {"fftn": 0, "ifftn": 0}
    for name in calls:
        original = getattr(np.fft, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


# ---------------------------------------------------------------------------
# One draw pass per attempt


def _per_member_band_limited(grid, decay, seed, index, zero_mean=False, stream=0):
    """Reference: one Philox generator, weight table and inverse transform per member."""
    rng = philox_generator(seed, index, stream)
    draws = rng.standard_normal(size=(2,) + grid.shape)
    coeffs = (draws[0] + 1j * draws[1]) * (1.0 + grid.frequency_norms) ** (-float(decay))
    if zero_mean:
        coeffs[grid.zero_mode_index] = 0.0
    return np.fft.ifftn(coeffs) / grid.cell_volume


def _reference_stack(grid, decay, seed, first, count, zero_mean=False, stream=0):
    return np.stack(
        [
            _per_member_band_limited(grid, decay, seed, first + k, zero_mean, stream)
            for k in range(count)
        ]
    )


class TestBatchedDraws:
    @pytest.mark.parametrize("stream", [0, 1, 4])
    @pytest.mark.parametrize("zero_mean", [False, True])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_stack_equals_per_member_draws(self, d, zero_mean, stream):
        grid = _grid(d)
        stack = random_band_limited(
            grid, 1.3, 17, index=5, zero_mean=zero_mean, stream=stream, count=6
        )
        reference = _reference_stack(grid, 1.3, 17, 5, 6, zero_mean, stream)
        np.testing.assert_array_equal(stack, reference)
        single = random_band_limited(grid, 1.3, 17, index=7, zero_mean=zero_mean, stream=stream)
        np.testing.assert_array_equal(single, reference[2:3])

    @pytest.mark.parametrize("power_bound", [None, 1.0])
    @pytest.mark.parametrize("zero_mean", [False, True])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_frame_equals_frame_of_per_member_draws(self, d, zero_mean, power_bound):
        grid = _grid(d)
        rank, index = 3, 2
        op = random_orthonormal_frame(
            grid, rank, 1.0, 29, index=index, zero_mean=zero_mean, power_bound=power_bound
        )
        forced = zero_mean or power_bound is not None
        raw = _reference_stack(grid, 1.0, 29, index * rank, rank, forced)
        np.testing.assert_array_equal(op.eigenfunctions, _orthonormalize(grid, raw))
        lambdas = philox_generator(29, lplab.corpus.LAMBDA_STREAM_INDEX + index).uniform(
            0.0, 1.0, size=rank
        )
        if power_bound is None:
            np.testing.assert_array_equal(op.eigenvalues, lambdas)
        else:
            probe = FiniteRankOperator(grid, lambdas, op.eigenfunctions)
            contract = power_bounded(power_bound)
            top = validate_contract(probe, contract).checks["power_excess"] + 1.0
            np.testing.assert_array_equal(op.eigenvalues, lambdas / top)

    def test_retry_draws_the_next_stream(self, monkeypatch):
        grid = _grid(2)
        original = lplab.fock_operator.gram_residual
        checks = []

        def failing_first(gram):
            checks.append(len(gram))
            return 1.0 if len(checks) == 1 else original(gram)

        monkeypatch.setattr(lplab.fock_operator, "gram_residual", failing_first)
        op = random_orthonormal_frame(grid, 4, 1.0, 31, index=1)
        assert checks == [4, 4]
        raw = _reference_stack(grid, 1.0, 31, 4, 4, stream=1)
        np.testing.assert_array_equal(op.eigenfunctions, _orthonormalize(grid, raw))


# ---------------------------------------------------------------------------
# Operators compute each quantity once


class TestOperatorCache:
    def test_arrays_are_read_only(self):
        functions = _reference_stack(_grid(1), 1.0, 3, 0, 2)
        op = random_orthonormal_frame(_grid(1), 2, 1.0, 3)
        with pytest.raises(ValueError, match="read-only"):
            op.eigenvalues[0] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            op.eigenfunctions[0, 0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            op.eigenvalues = np.ones(2)
        weights = np.ones(2)
        FiniteRankOperator(_grid(1), weights, functions)
        weights[0] = 0.5  # the caller's arrays stay writable
        functions[0, 0] = 0.0

    @pytest.mark.parametrize("chunk_members", [1, 3, 64])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_density_from_kept_stack_equals_chunked(self, d, chunk_members, monkeypatch):
        """Every contract's spectral density, in rank chunks of 1, 3 or 64
        fields, equals the per-eigenfunction sum: summed over the stack a
        check at a nonzero power keeps, or, with no such check, transformed
        chunk by chunk with no stack kept.  Both ways give the same bits.
        The check at power 0 reads the Gram matrix and keeps no stack."""
        grid = _grid(d)
        monkeypatch.setattr(
            lplab.torus_grid,
            "FIELD_CHUNK_BYTES",
            chunk_members * grid.size * np.dtype(complex).itemsize,
        )
        for power_bound in (None, 1.0):
            op = random_orthonormal_frame(grid, 5, 1.0, 37, power_bound=power_bound)
            np.testing.assert_array_equal(op.spectral_density, per_eigenfunction_density(op))
            assert ("_forward_stack" in op.__dict__) == (power_bound is not None)
            kept = FiniteRankOperator(grid, op.eigenvalues, op.eigenfunctions)
            validate_contract(kept, power_bounded(0.0))
            assert "_forward_stack" not in kept.__dict__
            validate_contract(kept, power_bounded(1.0))
            assert "_forward_stack" in kept.__dict__
            np.testing.assert_array_equal(kept.spectral_density, op.spectral_density)

    def test_power_bounded_frame_transforms_its_stack_once(self, fft_calls):
        grid = _grid(3)
        op = random_orthonormal_frame(grid, 4, 1.0, 41, power_bound=1.0)
        generalized_lt_check(op, 1.0, 1.0)
        generalized_lt_check(op, 1.0, 2.0)
        assert fft_calls == {"fftn": 1, "ifftn": 1}

    def test_one_power_overlap_per_frame_and_power(self, monkeypatch):
        products = []
        overlap = lplab.fock_operator._power_overlap

        def counted(grid, forward_stack, power):
            products.append(power)
            return overlap(grid, forward_stack, power)

        monkeypatch.setattr(lplab.fock_operator, "_power_overlap", counted)
        grid = _grid(2)
        op = random_orthonormal_frame(grid, 4, 1.0, 53, power_bound=1.0)
        # Drawing the frame scales it into the contract; the check of the
        # rescaled frame reads the overlap that scaling computed.
        generalized_lt_check(op, 1.0, 1.0)
        generalized_lt_check(op, 1.0, 2.0)
        assert products == [1.0]
        # Another power is one more product, shared by a reweighted copy.
        report = validate_contract(op, power_bounded(2.0))
        assert validate_contract(op.reweighted(op.eigenvalues), power_bounded(2.0)) == report
        assert products == [1.0, 2.0]
        code, _ = _run("glt --dim 2 --n 16 --rank 4 --samples 3 --a 1 --b 2".split())
        assert code == 0
        assert products == [1.0, 2.0, 1.0, 1.0, 1.0]  # one per glt frame

    def test_power_excess_uses_the_checked_weights(self, fft_calls):
        grid = _grid(2)
        op = random_orthonormal_frame(grid, 4, 1.0, 43, power_bound=1.0)
        assert validate_contract(op, power_bounded(1.0)).passed
        # Cache the weighted quantities first: reweighting must not share them.
        assert op.spectral_density.shape == op.density_values.shape == grid.shape
        bumped = op.reweighted(op.eigenvalues * (1.0 + 1e-6))
        assert bumped._forward_stack is op._forward_stack
        report = validate_contract(bumped, power_bounded(1.0))
        assert not report.passed
        assert report.checks["power_excess"] > 1e-7
        np.testing.assert_allclose(
            bumped.spectral_density, op.spectral_density * (1.0 + 1e-6), rtol=1e-14
        )
        np.testing.assert_allclose(
            bumped.density_values, op.density_values * (1.0 + 1e-6), rtol=1e-14
        )
        assert fft_calls["fftn"] == 1

    def test_unit_ball_checks_share_one_gram_and_one_density(
        self, blocks1, monkeypatch, fft_calls
    ):
        grams = []
        original = lplab.fock_operator.gram_matrix

        def counted(grid, functions):
            grams.append(len(functions))
            return original(grid, functions)

        monkeypatch.setattr(lplab.fock_operator, "gram_matrix", counted)
        op = random_orthonormal_frame(blocks1.grid, 4, 1.0, 47)
        fresh = FiniteRankOperator(op.grid, op.eigenvalues, op.eigenfunctions)
        chain_first = FiniteRankOperator(op.grid, op.eigenvalues, op.eigenfunctions)
        grams.clear()
        fft_calls.update(fftn=0, ifftn=0)
        # The unit-ball checks stream one density (one chunk of 4 fields)
        # and keep no forward stack.
        base = generalized_lt_check(fresh, 0.0, 1.0)
        lt_chain_check(fresh, blocks1)
        assert grams == [4] and fft_calls == {"fftn": 1, "ifftn": 0}
        assert "_forward_stack" not in fresh.__dict__
        # The chain first: one transform still serves both checks.
        grams.clear()
        fft_calls.update(fftn=0, ifftn=0)
        lt_chain_check(chain_first, blocks1)
        assert generalized_lt_check(chain_first, 0.0, 1.0) == base
        assert grams == [4] and fft_calls == {"fftn": 1, "ifftn": 0}


# ---------------------------------------------------------------------------
# Sections build no member or sea twice


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = lplab.cli.run(argv)
    return code, out.getvalue()


class TestSectionsBuildOnce:
    def test_lieb_thirring_streams_the_top_rung_once(self, monkeypatch):
        tables, generated = [], []
        axis_waves = lplab.fock_operator._axis_waves
        wave_squares = lplab.fock_operator._wave_squares

        def table(grid, axis_modes):
            tables.append((grid, list(axis_modes)))
            return axis_waves(grid, axis_modes)

        def recorded(squares, factors, out):
            generated.append(factors)
            return wave_squares(squares, factors, out)

        monkeypatch.setattr(lplab.fock_operator, "_axis_waves", table)
        monkeypatch.setattr(lplab.fock_operator, "_wave_squares", recorded)
        grams = []
        gram = lplab.fock_operator.gram_matrix

        def counted_gram(grid, functions):
            grams.append(len(functions))
            return gram(grid, functions)

        monkeypatch.setattr(lplab.fock_operator, "gram_matrix", counted_gram)
        code, text = _run("lieb-thirring --dim 3 --n 16 --mu 2.5 --mu 4.5 --mu 8.5".split())
        assert code == 0
        results = json.loads(text)["results"]
        assert [row["rank"] for row in results["sweep"]] == [19, 33, 93]
        # One one-axis table, and one pass of chunks of the rank axis: the
        # tables of every wave of the top rung are built exactly once, on
        # the whole grid.
        grid = TorusGrid(3, TAU, 16)
        axis_modes = [0, 1, 15, 2, 14]  # the one-axis modes m with m^2 <= 8.5
        assert tables == [(grid, axis_modes)]
        rows = np.concatenate(generated, axis=1)
        waves = np.ravel_multi_index(np.take(axis_modes, rows), grid.shape)
        np.testing.assert_array_equal(waves, _sea_modes(grid, 8.5))
        assert len(generated) > 1
        # The sweep certifies its rungs without a Gram matrix.
        assert grams == [4, 4]  # one per chain frame; none of a sea
        sources = [c["source"] for c in results["chains"]]
        assert sources == ["sea_rank_19", "sea_rank_33", "frame_0", "frame_1"]

    def test_one_rung_ladder_chains_its_sea_once(self):
        code, text = _run(["lieb-thirring", "--dim", "1", "--n", "64", "--mu", "2.5"])
        chains = json.loads(text)["results"]["chains"]
        assert code == 0
        assert [c["source"] for c in chains] == ["sea_rank_3", "frame_0", "frame_1"]
        code, text = _run(["lieb-thirring", "--mu", "1.5", "--chain-samples", "0"])
        assert code == 0
        assert [c["source"] for c in json.loads(text)["results"]["chains"]] == ["sea_rank_3"]

    @pytest.mark.parametrize("ps,closed_form", [(["2"], True), (["1.5", "3"], False)])
    def test_lp_builds_each_member_once(self, monkeypatch, ps, closed_form):
        drawn = []
        original = lplab.corpus.random_band_limited

        def counted(*args, **kwargs):
            drawn.extend(range(kwargs["index"], kwargs["index"] + kwargs["count"]))
            return original(*args, **kwargs)

        monkeypatch.setattr(lplab.corpus, "random_band_limited", counted)
        argv = ["lp", "--samples", "20"] + [arg for p in ps for arg in ("--p", p)]
        code, text = _run(argv)
        assert code == 0
        # The 20 members fit one chunk: one draw covers each of them once.
        assert drawn == list(range(20))
        deviation = json.loads(text)["results"]["parseval_deviation"]
        assert (deviation is not None) == closed_form
        if closed_form:
            assert deviation <= lplab.cli.PARSEVAL_TOLERANCE


# ---------------------------------------------------------------------------
# The report writer against the encoder it replaced


class _CanonicalEncoder(json.JSONEncoder):
    """Reference: json's pure-Python encoder with format_float for floats."""

    def iterencode(self, o, _one_shot=False):
        def floatstr(value, allow_nan=self.allow_nan):
            if math.isnan(value) or math.isinf(value):
                raise ValueError(
                    "non-finite float in report payload; map to None before encoding"
                )
            return format_float(value)

        markers = {} if self.check_circular else None
        iterator = json.encoder._make_iterencode(
            markers,
            self.default,
            json.encoder.encode_basestring_ascii,
            self.indent,
            floatstr,
            self.key_separator,
            self.item_separator,
            self.sort_keys,
            self.skipkeys,
            _one_shot=False,
        )
        return iterator(o, 0)


def _reference_json(payload) -> str:
    return json.dumps(payload, cls=_CanonicalEncoder, sort_keys=True, indent=2) + "\n"


def _outcome(fn, payload):
    try:
        return fn(payload)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@pytest.fixture(scope="module")
def cli_payloads():
    payloads = {}
    original = lplab.cli.canonical_json
    with pytest.MonkeyPatch.context() as patch:
        for argv in (["all", "--jobs", "1"], ["khinchine"]):

            def recorded(payload, _name=argv[0]):
                payloads[_name] = payload
                return original(payload)

            patch.setattr(lplab.cli, "canonical_json", recorded)
            assert _run(argv)[0] == 0
    return payloads


EDGE_FLOATS = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e308, -1e308, 0.1 + 0.2]
EDGE_STRINGS = [
    "",
    'quote " and \\ slash',
    "tab\tnew\nline\x00\x1f",
    "é ü 漢字 \u2028",
    "\U0001f600",
    "\ud800",
]

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(EDGE_FLOATS),
    st.text(max_size=8),
    st.sampled_from(EDGE_STRINGS),
)
keys = st.one_of(st.text(max_size=6), st.sampled_from(EDGE_STRINGS))
payloads = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=4),
    ),
    max_leaves=30,
)


class TestCanonicalWriter:
    @pytest.mark.parametrize("command", ["all", "khinchine"])
    def test_cli_payloads_match_the_encoder(self, cli_payloads, command):
        assert canonical_json(cli_payloads[command]) == _reference_json(cli_payloads[command])

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(payload=payloads)
    def test_random_payloads_match_the_encoder(self, payload):
        assert canonical_json(payload) == _reference_json(payload)

    @pytest.mark.parametrize(
        "payload",
        [
            {1: "a", -2: "b", 10**20: None},
            {0.5: 1, 1.5: [2.0]},
            {True: 1, False: (2, 3)},
            {None: {}},
            [np.float64(1.0 / 3.0), np.float64(-0.0), True, 7],
            "a bare string",
            [[], {}, ()],
        ],
    )
    def test_other_keys_and_scalars_match_the_encoder(self, payload):
        assert canonical_json(payload) == _reference_json(payload)

    @pytest.mark.parametrize(
        "payload",
        [
            math.inf,
            [1.0, -math.inf],
            {"x": {"y": math.nan}},
            {math.inf: 1},
            {"x": {1, 2}},
            {(1, 2): 3},
            {"a": 1, 2: 3},
        ],
    )
    def test_errors_match_the_encoder(self, payload):
        expected = _outcome(_reference_json, payload)
        assert isinstance(expected, tuple)
        assert _outcome(canonical_json, payload) == expected
