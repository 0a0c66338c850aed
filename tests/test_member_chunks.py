"""The corpus envelope pass evaluates its members in chunks.

Each chunk is drawn in one call and checked in one pass: one forward and
one inverse transform for all its members and blocks, and one |.|^p
reduction per exponent and side.  The per-member path it replaced is kept
here as the reference: one draw, one per-frame shifted Cholesky QR
(frame_reference), one block kernel and one L^p norm per member.  Every
comparison is exact.
"""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import lplab.cli
import lplab.corpus
import lplab.fock_operator
import lplab.torus_grid
from lplab import (
    SHARP,
    SMOOTH,
    CorpusSpec,
    TorusGrid,
    abs_squared,
    block_squared_sum,
    build_blocks,
    estimate_envelope,
    philox_generator,
    random_orthonormal_frame,
)
from lplab.corpus import LAMBDA_STREAM_INDEX, random_orthonormal_frames
from lplab.errors import ConfigurationError, DegenerateInputError
from frame_reference import cholesky_qr

TAU = 2.0 * np.pi
GRIDS = {1: (1, 256), 2: (2, 32), 3: (3, 16)}
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
COUNT = 7


def _grid(d):
    dim, n = GRIDS[d]
    return TorusGrid(dim, TAU, n)


def _blocks(grid, family):
    return build_blocks(grid, family, "exp")


def _axes(grid):
    return tuple(range(-grid.dimension, 0))


# ---------------------------------------------------------------------------
# The per-member reference path


def _reference_member(grid, decay, seed, index, zero_mean=False, stream=0):
    rng = philox_generator(seed, index, stream)
    draws = rng.standard_normal(size=(2,) + grid.shape)
    coeffs = (draws[0] + 1j * draws[1]) * (1.0 + grid.frequency_norms) ** (-float(decay))
    if zero_mean:
        coeffs[grid.zero_mode_index] = 0.0
    return np.fft.ifftn(coeffs) / grid.cell_volume


def _reference_frame(grid, rank, decay, seed, index, stream=0):
    raw = np.stack(
        [_reference_member(grid, decay, seed, index * rank + k, stream=stream) for k in range(rank)]
    )
    weights = philox_generator(seed, LAMBDA_STREAM_INDEX + index).uniform(0.0, 1.0, size=rank)
    return weights, cholesky_qr(grid, raw)


def _reference_block_energy(grid, functions, weights, symbols):
    acc = np.zeros(grid.shape)
    for weight, u in zip(weights, functions):
        fields = np.fft.ifftn(np.fft.fftn(u)[None] * np.asarray(symbols), axes=_axes(grid))
        acc += weight * abs_squared(fields).sum(axis=0)
    return acc


def _reference_density(grid, functions, weights):
    acc = np.zeros(grid.shape)
    for weight, u in zip(weights, functions):
        acc += weight * abs_squared(u)
    return acc


def _reference_norm(grid, values, p):
    return float((grid.cell_volume * np.sum(np.abs(values) ** p)) ** (1.0 / p))


def _reference_ratios(grid, lhs_field, rhs_field, ps, rank, sample_id):
    rows = []
    for p in ps:
        rhs = _reference_norm(grid, rhs_field, p)
        if rhs == 0.0:
            return [(sample_id, rank, 0.0, 0.0, np.inf, True)] * len(ps)
        lhs = _reference_norm(grid, lhs_field, p)
        rows.append((sample_id, rank, lhs, rhs, lhs / rhs, False))
    return rows


def _reference_parseval(grid, u, blocks):
    energy = abs_squared(np.fft.fftn(u) * grid.cell_volume)
    return float(np.sqrt(float(np.sum(block_squared_sum(blocks) * energy)) / float(np.sum(energy))))


def _reference_gns(grid, u, sample_id):
    d = grid.dimension
    norm2 = _reference_norm(grid, u, 2.0)
    energy = abs_squared(np.fft.fftn(u) * grid.cell_volume)
    gradient = float(np.sum(grid.frequency_norms_squared * energy) / grid.volume)
    lhs = _reference_norm(grid, u, 2.0 + 4.0 / d)
    rhs = norm2 ** (2.0 / (d + 2.0)) * gradient ** (d / (2.0 * (d + 2.0)))
    return (sample_id, 1, lhs, rhs, lhs / rhs, False)


def _rows(report):
    return [(s.sample_id, s.rank, s.lhs, s.rhs, s.ratio, s.degenerate) for s in report.samples]


@pytest.fixture(params=["budget", 1, 3], ids=["budget", "chunk1", "chunk3"])
def chunk(request, monkeypatch):
    """Patch FIELD_CHUNK_BYTES to hold 1 or 3 members (3 leaves a partial
    last chunk of a 7-member corpus), or keep the shipped budget."""

    def apply(grid, fields_per_member):
        if request.param != "budget":
            size = request.param * fields_per_member * grid.size * np.dtype(complex).itemsize
            monkeypatch.setattr(lplab.torus_grid, "FIELD_CHUNK_BYTES", size)

    return apply


# ---------------------------------------------------------------------------
# Reports equal the per-member path


LP_EXPONENTS = [1.5, 2.0, 3.0, 4.0]


def _drawn_with_mean(monkeypatch, zero_mean):
    """Draw every band-limited member with ``zero_mean`` as given.  Each
    checker draws one kind of field (lp with its mean, gns without), but
    its sampler takes either, so both kinds run through the chunked pass."""
    original = lplab.corpus.random_band_limited

    def draw(*args, **kwargs):
        return original(*args, **dict(kwargs, zero_mean=zero_mean))

    monkeypatch.setattr(lplab.corpus, "random_band_limited", draw)


@pytest.mark.parametrize("zero_mean", [False, True], ids=["mean", "zero_mean"])
@pytest.mark.parametrize("family", [SMOOTH, SHARP])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_lp_reports_equal_per_member_path(d, family, zero_mean, chunk, monkeypatch):
    grid = _grid(d)
    blocks = _blocks(grid, family)
    chunk(grid, blocks.block_count)
    if zero_mean:
        _drawn_with_mean(monkeypatch, zero_mean=True)
    exponents = [(p, None) for p in LP_EXPONENTS]
    reports = estimate_envelope("lp", exponents, grid, COUNT, 91, 0.9, family=family)
    members = [_reference_member(grid, 0.9, 91, i, zero_mean) for i in range(COUNT)]
    expected = []
    for i, u in enumerate(members):
        energy = _reference_block_energy(grid, u[None], [1.0], blocks.symbols)
        expected.append(_reference_ratios(grid, np.sqrt(energy), u, LP_EXPONENTS, 1, i))
    for position, report in enumerate(reports):
        assert _rows(report) == [rows[position] for rows in expected]
    squared = reports[LP_EXPONENTS.index(2.0)]
    assert [s.closed_form for s in squared.samples] == [
        _reference_parseval(grid, u, blocks) for u in members
    ]


@pytest.mark.parametrize("rank", [1, 2, 8])
@pytest.mark.parametrize("family", [SMOOTH, SHARP])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_lp_density_reports_equal_per_member_path(d, family, rank, chunk):
    grid = _grid(d)
    blocks = _blocks(grid, family)
    chunk(grid, blocks.block_count * rank)
    ps = [0.75, 1.0, 2.0, 3.0]
    exponents = [(p, None) for p in ps]
    reports = estimate_envelope("lp_density", exponents, grid, COUNT, 92, rank=rank, family=family)
    for i in range(COUNT):
        weights, functions = _reference_frame(grid, rank, 1.0, 92, i)
        lhs = _reference_block_energy(grid, functions, weights, blocks.symbols)
        rhs = _reference_density(grid, functions, weights)
        expected = _reference_ratios(grid, lhs, rhs, ps, rank, i)
        assert [_rows(report)[i] for report in reports] == expected


@pytest.mark.parametrize("zero_mean", [False, True], ids=["mean", "zero_mean"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_gns_reports_equal_per_member_path(d, zero_mean, chunk, monkeypatch):
    grid = _grid(d)
    chunk(grid, 1)
    if not zero_mean:
        _drawn_with_mean(monkeypatch, zero_mean=False)
    (report,) = estimate_envelope("gns", [(2.0 + 4.0 / d, None)], grid, COUNT, 93, 1.5)
    expected = [
        _reference_gns(grid, _reference_member(grid, 1.5, 93, i, zero_mean), i)
        for i in range(COUNT)
    ]
    assert _rows(report) == expected


@pytest.mark.parametrize(
    "checker,kind,params,fields",
    [
        ("lp", "random_band_limited", {}, "blocks"),
        ("gns", "random_band_limited", {"zero_mean": True}, 1),
        ("lp_density", "random_orthonormal_frame", {"rank": 2}, "blocks"),
    ],
)
def test_each_chunk_is_drawn_in_one_call(checker, kind, params, fields, monkeypatch):
    """Each chunk is one draw from the corpus the checker owns: its kind and
    the parameters it fixes there, beside the caller's decay and rank."""
    grid = _grid(1)
    blocks = _blocks(grid, SMOOTH)
    rank = params.get("rank", 1)
    per_member = blocks.block_count * rank if fields == "blocks" else 1
    monkeypatch.setattr(
        lplab.torus_grid, "FIELD_CHUNK_BYTES", 3 * per_member * grid.size * 16
    )
    draws = []
    original = lplab.corpus.random_band_limited

    def counted(*args, **kwargs):
        draws.append((kwargs["index"], kwargs.get("count")))
        return original(*args, **kwargs)

    monkeypatch.setattr(lplab.corpus, "random_band_limited", counted)
    specs = []
    members = CorpusSpec.members

    def recorded(spec, *args):
        specs.append(spec)
        return members(spec, *args)

    monkeypatch.setattr(CorpusSpec, "members", recorded)
    p = 6.0 if checker == "gns" else 1.5
    estimate_envelope(checker, [(p, None)], grid, COUNT, 94, 1.0, rank=params.get("rank"))
    assert draws == [(0, 3 * rank), (3 * rank, 3 * rank), (6 * rank, rank)]
    assert specs == [CorpusSpec(kind, COUNT, 94, {"decay": 1.0, **params})] * 3


def test_members_outside_the_corpus_or_without_chunks_are_refused():
    grid = _grid(1)
    with pytest.raises(IndexError, match="outside"):
        CorpusSpec("random_band_limited", 5, 1).members(grid, 3, 3)
    # Every corpus kind is drawn in chunks: a sea is refused as a kind.
    with pytest.raises(ConfigurationError, match="generator kind"):
        CorpusSpec("fermi_sea", 4, 1, {"chemical_potential": 9.5})


# ---------------------------------------------------------------------------
# Degenerate members and retried frames inside a chunk


def _zeroing_member(monkeypatch, zeroed):
    original = lplab.corpus.random_band_limited

    def draw(*args, **kwargs):
        values = original(*args, **kwargs)
        offset = zeroed - kwargs["index"]
        if 0 <= offset < len(values):
            values[offset] = 0.0
        return values

    monkeypatch.setattr(lplab.corpus, "random_band_limited", draw)


@pytest.mark.parametrize("checker", ["lp", "gns", "lp_density"])
def test_zeroed_member_is_degenerate_and_leaves_its_neighbours(checker, monkeypatch):
    grid = _grid(1)
    blocks = _blocks(grid, SMOOTH)
    if checker == "lp_density":
        rank, per_member, exponents = 2, blocks.block_count * 2, [(0.75, None), (2.0, None)]
    else:
        rank, per_member = None, blocks.block_count if checker == "lp" else 1
        exponents = [(6.0, None)] if checker == "gns" else [(1.5, None), (2.0, None)]
    # Member 4 sits inside the chunk of members 3, 4 and 5.
    monkeypatch.setattr(lplab.torus_grid, "FIELD_CHUNK_BYTES", 3 * per_member * grid.size * 16)
    clean = estimate_envelope(checker, exponents, grid, COUNT, 95, rank=rank)
    if checker == "lp_density":
        original = lplab.corpus.random_orthonormal_frames

        def frames(*args, **kwargs):
            ops = original(*args, **kwargs)
            offset = 4 - kwargs["index"]
            if 0 <= offset < len(ops):
                ops[offset] = ops[offset].reweighted(np.zeros(ops[offset].rank))
            return ops

        monkeypatch.setattr(lplab.corpus, "random_orthonormal_frames", frames)
    else:
        _zeroing_member(monkeypatch, 4)
    zeroed = estimate_envelope(checker, exponents, grid, COUNT, 95, rank=rank)
    for before, after in zip(clean, zeroed):
        assert after.samples[4].degenerate and after.degenerate_count == 1
        assert after.samples[4].closed_form is None
        neighbours = [k for k in range(COUNT) if k != 4]
        assert [_rows(after)[k] for k in neighbours] == [_rows(before)[k] for k in neighbours]
        assert [after.samples[k].closed_form for k in neighbours] == [
            before.samples[k].closed_form for k in neighbours
        ]


def _failing_gram_checks(monkeypatch, failing):
    """Fail the Gram checks whose call numbers are in ``failing``."""
    original = lplab.fock_operator.gram_residual
    calls = []

    def checked(gram):
        calls.append(len(gram))
        return 1.0 if len(calls) in failing else original(gram)

    monkeypatch.setattr(lplab.fock_operator, "gram_residual", checked)
    return calls


def test_frame_retried_inside_a_chunk_equals_its_single_frame_retry(monkeypatch):
    grid = _grid(2)
    rank, first = 3, 5
    clean = random_orthonormal_frames(grid, rank, 1.0, 31, index=first, count=4)
    draws = []
    original = lplab.corpus.random_band_limited

    def counted(*args, **kwargs):
        draws.append((kwargs["index"], kwargs["stream"], kwargs["count"]))
        return original(*args, **kwargs)

    monkeypatch.setattr(lplab.corpus, "random_band_limited", counted)
    calls = _failing_gram_checks(monkeypatch, {3})
    retried = random_orthonormal_frames(grid, rank, 1.0, 31, index=first, count=4)
    assert calls == [rank] * 5
    assert draws == [(first * rank, 0, 4 * rank), ((first + 2) * rank, 1, rank)]
    for position in (0, 1, 3):
        np.testing.assert_array_equal(
            retried[position].eigenfunctions, clean[position].eigenfunctions
        )
    weights, functions = _reference_frame(grid, rank, 1.0, 31, first + 2, stream=1)
    np.testing.assert_array_equal(retried[2].eigenfunctions, functions)
    np.testing.assert_array_equal(retried[2].eigenvalues, weights)
    _failing_gram_checks(monkeypatch, {1})
    single = random_orthonormal_frame(grid, rank, 1.0, 31, index=first + 2)
    np.testing.assert_array_equal(single.eigenfunctions, retried[2].eigenfunctions)


def test_frame_out_of_retries_inside_a_chunk_raises(monkeypatch):
    _failing_gram_checks(monkeypatch, {2, 3, 4, 5, 6})
    with pytest.raises(DegenerateInputError, match="member 1"):
        random_orthonormal_frames(_grid(1), 2, 1.0, 33, index=0, count=3)


@pytest.mark.parametrize("power_bound", [None, 1.0])
def test_frames_equal_frames_built_one_by_one(power_bound):
    grid = _grid(3)
    frames = random_orthonormal_frames(grid, 4, 1.0, 35, 2, 3, power_bound=power_bound)
    for offset, op in enumerate(frames):
        single = random_orthonormal_frame(grid, 4, 1.0, 35, 2 + offset, power_bound=power_bound)
        np.testing.assert_array_equal(op.eigenfunctions, single.eigenfunctions)
        np.testing.assert_array_equal(op.eigenvalues, single.eigenvalues)


# ---------------------------------------------------------------------------
# Transform counts and verdicts of the command line


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = lplab.cli.run(argv)
    return code, out.getvalue()


def test_lp_pass_makes_three_transforms_per_chunk(monkeypatch):
    calls = []
    for name in ("fftn", "ifftn"):
        original = getattr(np.fft, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    code, _ = _run("lp --dim 1 --n 256 --samples 100 --p 2".split())
    assert code == 0
    assert len(calls) <= 12


@pytest.mark.parametrize(
    "argv",
    [
        "lp --p 5 --samples 5",
        "lp-density --dim 2 --n 32 --samples 3",
        "gns --dim 3 --n 16 --samples 3",
    ],
)
def test_unjudged_runs_exit_three(argv, tmp_path):
    out = tmp_path / "report.json"
    code, printed = _run(argv.split() + ["--out", str(out)])
    assert code == 3
    assert printed.startswith("UNJUDGED ")
    report = json.loads(out.read_text())
    assert report["pass"] is None
    cells = report["results"]["reports"]
    assert cells and all(c["envelope"] is None and c["passed"] is None for c in cells)


def test_failed_cell_outranks_unjudged_cell(tmp_path):
    envelopes = tmp_path / "envelopes.json"
    envelopes.write_text(json.dumps({"lp": {"d1": {"1.5": [2.0, 3.0]}}}))
    argv = ["lp", "--p", "1.5", "--p", "5", "--samples", "3", "--envelopes", str(envelopes)]
    code, text = _run(argv)
    report = json.loads(text)
    assert code == 1 and report["pass"] is False
    assert [c["passed"] for c in report["results"]["reports"]] == [False, None]


def _workload_commands():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks the defining module up by name while it runs.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    # Commands that differ only in --jobs write the same report: run one of them.
    commands = {
        module.same_report_key(module.expand(template, 1))
        for workload in module.WORKLOADS.values()
        for template in workload.commands
    }
    return sorted(commands)


@pytest.mark.parametrize("command", _workload_commands())
def test_workload_commands_are_judged_and_pass(command):
    code, text = _run(command.split())
    assert code == 0
    assert json.loads(text)["pass"] is True
    assert '"passed": null' not in text
