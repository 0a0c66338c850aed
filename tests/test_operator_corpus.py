"""The operator corpus without per-pair loops or whole-stack copies.

The shifted Cholesky QR of the frames is checked against the per-pair
Gram-Schmidt loop it replaced, kept here as the reference, to rounding, and
against the per-frame reference of frame_reference bit for bit; the
column-chunked Gram matrix against the plain product and for its memory
peak; and the names the benchmark tracer wraps against the modules that
must keep them bound.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lplab.cli
import lplab.corpus
import lplab.fock_operator
import lplab.inequality_lab
import lplab.torus_grid
from lplab import (
    DegenerateInputError,
    UNIT_BALL,
    TorusGrid,
    random_band_limited,
    random_orthonormal_frame,
    validate_contract,
)
from lplab.corpus import _orthonormalize
from lplab.fock_operator import gram_matrix, gram_residual
from lplab.torus_grid import byte_chunks
from frame_reference import cholesky_qr
from sea_reference import fermi_sea

TAU = 2.0 * np.pi
SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _per_pair_orthonormalize(grid, vectors):
    """Reference: left-looking modified Gram-Schmidt, one inner product per pair."""

    def inner(a, b):
        return complex(grid.cell_volume * np.sum(np.conj(a) * b))

    frame = vectors.astype(complex).copy()
    for _pass in range(2):
        for k in range(frame.shape[0]):
            for i in range(k):
                frame[k] = frame[k] - inner(frame[i], frame[k]) * frame[i]
            norm = np.sqrt(inner(frame[k], frame[k]).real)
            if norm <= 0:
                raise DegenerateInputError("frame vector collapsed to zero")
            frame[k] = frame[k] / norm
    return frame


def _raw_stack(grid, rank, zero_mean, seed=41):
    return np.concatenate(
        [random_band_limited(grid, 1.0, seed, index=k, zero_mean=zero_mean) for k in range(rank)]
    )


GRIDS = {1: (1, 256), 2: (2, 64), 3: (3, 32)}
FRAME_CASES = [
    (d, rank) for d in (1, 2, 3) for rank in (1, 2, 8)
] + [(1, 32)]


def _gap(frame, reference):
    """||frame - reference|| / ||reference||, in the Frobenius norm."""
    return np.linalg.norm(frame - reference) / np.linalg.norm(reference)


class TestRightLookingGramSchmidt:
    """Shifted Cholesky QR against the Gram-Schmidt loop it replaced.

    In exact arithmetic both give the one frame Q = R^{-1} V with R lower
    triangular and its diagonal real and positive, so on decay-1 frames they
    agree to rounding.  Where a frame's columns fit one chunk, the batched
    kernel equals the per-frame reference (frame_reference) bit for bit;
    across chunk budgets the Gram sums are chunked, so frames agree to
    rounding, and a frame of a stack equals that frame alone bit for bit.
    """

    @pytest.mark.parametrize("zero_mean", [False, True])
    @pytest.mark.parametrize("d,rank", FRAME_CASES)
    def test_equals_per_pair_loop(self, d, rank, zero_mean):
        dim, n = GRIDS[d]
        grid = TorusGrid(dim, TAU, n)
        raw = _raw_stack(grid, rank, zero_mean)
        frame = _orthonormalize(grid, raw.copy())
        assert frame.shape == raw.shape
        assert _gap(frame, _per_pair_orthonormalize(grid, raw)) <= 1e-13
        if len(byte_chunks(grid.size, rank * np.dtype(complex).itemsize)) == 1:
            np.testing.assert_array_equal(frame, cholesky_qr(grid, raw))
        else:
            assert _gap(frame, cholesky_qr(grid, raw)) <= 1e-13

    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_row_chunks_equal_per_pair_loop(self, d, rows, monkeypatch):
        """A stack of two rank-8 frames in column chunks of about rows / 8
        of a frame, the last one partial: each frame equals that frame
        orthonormalized alone bit for bit, and the per-pair loop and the
        unchunked reference to rounding."""
        dim, n = GRIDS[d]
        grid = TorusGrid(dim, TAU, n)
        raw = np.stack([_raw_stack(grid, 8, False, seed) for seed in (41, 43)])
        width = rows * grid.size // 8 + 1
        monkeypatch.setattr(
            lplab.torus_grid, "FIELD_CHUNK_BYTES", width * 8 * np.dtype(complex).itemsize
        )
        assert len(byte_chunks(grid.size, 8 * np.dtype(complex).itemsize)) > 2
        result = _orthonormalize(grid, raw.copy())
        for frame, reference in zip(result, raw):
            np.testing.assert_array_equal(frame, _orthonormalize(grid, reference.copy()))
            assert _gap(frame, _per_pair_orthonormalize(grid, reference)) <= 1e-13
            assert _gap(frame, cholesky_qr(grid, reference)) <= 1e-13

    def _outcome(self, fn, grid, raw):
        try:
            return fn(grid, raw)
        except DegenerateInputError as exc:
            return str(exc)

    @pytest.mark.parametrize("kind", ["repeated_field", "repeated_constant", "zero"])
    def test_degenerate_stack_matches_per_pair_loop(self, kind):
        """A frame with a repeated or a zero field is refused, and the error
        names its place in the stack.  The per-pair loop refused only the
        zero field: a repeated one came back as rounding noise."""
        grid = TorusGrid(1, TAU, 16)
        raw = _raw_stack(grid, 4, zero_mean=False)
        if kind == "repeated_field":
            raw[2] = raw[0]
        elif kind == "repeated_constant":
            raw[0] = raw[3] = 1.0
        else:
            raw[1] = 0.0
        old = self._outcome(_per_pair_orthonormalize, grid, raw)
        assert isinstance(old, str) == (kind == "zero")
        stack = np.stack([_raw_stack(grid, 4, False, seed=43), raw])
        new = self._outcome(_orthonormalize, grid, stack)
        assert isinstance(new, str) and new.startswith(
            "frame 1 is linearly dependent to rounding: "
        ), new

    def test_ill_conditioned_frame_needs_the_shift(self):
        """A decay-8 rank-32 frame (condition number about 3e10) has no
        unshifted Cholesky factor; the shifted first pass factors it and
        the frame comes out orthonormal to rounding."""
        grid = TorusGrid(1, TAU, 256)
        raw = random_band_limited(grid, 8.0, 2024, count=32)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(gram_matrix(grid, raw))
        frame = _orthonormalize(grid, raw)
        assert gram_residual(gram_matrix(grid, frame)) <= 1e-14


class TestZeroMeanRank:
    @pytest.mark.parametrize(
        "kwargs", [{"zero_mean": True}, {"power_bound": 1.0}, {"power_bound": -0.25}]
    )
    def test_rank_above_mean_zero_modes_is_refused(self, kwargs, monkeypatch):
        draws = []
        monkeypatch.setattr(
            lplab.corpus, "random_band_limited", lambda *a, **k: draws.append(a)
        )
        grid = TorusGrid(1, TAU, 8)
        with pytest.raises(ValueError, match="rank 8 exceeds the 7 mean-zero lattice modes"):
            random_orthonormal_frame(grid, rank=8, decay=1.0, seed=1, **kwargs)
        assert draws == []

    def test_all_mean_zero_modes_still_fit(self):
        grid = TorusGrid(1, TAU, 8)
        op = random_orthonormal_frame(grid, rank=7, decay=1.0, seed=1, zero_mean=True)
        means = op.eigenfunctions.sum(axis=1) * grid.cell_volume
        assert np.max(np.abs(means)) <= 1e-12
        assert validate_contract(op, UNIT_BALL).passed

    def test_full_rank_without_zero_mean_is_allowed(self):
        grid = TorusGrid(1, TAU, 8)
        assert random_orthonormal_frame(grid, rank=8, decay=1.0, seed=1).rank == 8

    def test_cli_reports_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "glt.json"
        argv = ["glt", "--dim", "1", "--n", "8", "--rank", "8", "--samples", "1",
                "--a", "1", "--b", "1", "--out", str(out)]
        assert lplab.cli.run(argv) == 2
        assert "mean-zero lattice modes" in capsys.readouterr().err
        assert not out.exists()


class TestChunkedGram:
    @pytest.mark.parametrize("width", [3, 7, 100])
    @pytest.mark.parametrize("rank", [1, 5, 13])
    def test_equals_full_product_on_uneven_chunks(self, rank, width, monkeypatch):
        grid = TorusGrid(2, TAU, 16)
        monkeypatch.setattr(
            lplab.torus_grid, "FIELD_CHUNK_BYTES", width * rank * np.dtype(complex).itemsize
        )
        stack = _raw_stack(grid, rank, zero_mean=False)
        stack /= np.sqrt(grid.cell_volume * np.sum(np.abs(stack) ** 2, axis=(1, 2)))[:, None, None]
        flat = stack.reshape(rank, -1)
        assert flat.shape[1] % width != 0
        expected = grid.cell_volume * (flat @ flat.conj().T)
        np.testing.assert_allclose(gram_matrix(grid, stack), expected, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("rank", [3, 7])
    def test_equals_full_product_at_the_field_budget(self, rank):
        grid = TorusGrid(3, TAU, 32)
        op = random_orthonormal_frame(grid, rank=rank, decay=1.0, seed=42)
        flat = op.eigenfunctions.reshape(rank, -1)
        width = lplab.torus_grid.FIELD_CHUNK_BYTES // (rank * np.dtype(complex).itemsize)
        assert width < flat.shape[1] and flat.shape[1] % width != 0
        expected = grid.cell_volume * (flat @ flat.conj().T)
        np.testing.assert_allclose(
            gram_matrix(grid, op.eigenfunctions), expected, rtol=0, atol=1e-14
        )

    def test_contract_check_copies_no_stack(self, traced_peak):
        sea = fermi_sea(TorusGrid(3, TAU, 32), 16.5)
        stack_bytes = sea.eigenfunctions.nbytes
        report, peak = traced_peak(validate_contract, sea, UNIT_BALL)
        assert report.passed
        assert peak < stack_bytes / 4, (peak, stack_bytes)


RETIRED_SPAN_SITES = {
    "lplab.torus_grid.forward_transform",
    "lplab.torus_grid.inverse_transform",
    "lplab.torus_grid.apply_symbol",
    "lplab.torus_grid.kinetic_form",
    "lplab.torus_grid.lp_norm",
    "lplab.projectors.square_function",
    "lplab.fock_operator.conjugated_density",
    "lplab.fock_operator.kinetic_trace",
    "lplab.fock_operator.density",
    "lplab.fock_operator.fermi_sea",
    "lplab.inequality_lab.lieb_thirring_check",
}


class TestTracerBindings:
    """The benchmark tracer finds what it times by module attribute."""

    @pytest.fixture(scope="class")
    def spans(self):
        spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_every_span_site_resolves(self, spans):
        # The single-field functions these sites timed, and the (0, 1) alias
        # of generalized_lt_check, are gone from lplab; the tracer reports
        # them as "no such function" and their metrics read 0.  Every other
        # site must still resolve.
        unresolved = set()
        for _name, home, attr, _inside in spans.SPAN_SITES:
            if not callable(getattr(importlib.import_module(home), attr, None)):
                unresolved.add(f"{home}.{attr}")
        assert unresolved == RETIRED_SPAN_SITES

    def test_counted_and_patched_names_exist(self):
        assert callable(lplab.corpus.random_band_limited)
        assert callable(lplab.corpus.philox_generator)
        assert callable(lplab.corpus.CorpusSpec.member)
        assert isinstance(lplab.inequality_lab.ProcessPoolExecutor, type)
        assert lplab.cli._HANDLERS["all"] is lplab.cli._cmd_all

    def test_a_cold_import_starts_no_pool_machinery(self):
        # The pool name resolves on first read (above); importing the CLI
        # alone must not pull in concurrent.futures or multiprocessing.
        probe = (
            "import sys, lplab.cli; "
            "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"
        )
        paths = [str(SPANS.parents[1] / "src"), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert out.strip() == "[]"

    @pytest.mark.parametrize("rank", [1, 4])
    def test_frame_draws_each_member_through_the_module_binding(self, rank, monkeypatch):
        # One call per attempt draws all its members; the stream is the attempt.
        calls = []
        original = lplab.corpus.random_band_limited

        def counted(*args, **kwargs):
            calls.append((kwargs.get("stream", 0), kwargs.get("count")))
            return original(*args, **kwargs)

        monkeypatch.setattr(lplab.corpus, "random_band_limited", counted)
        random_orthonormal_frame(TorusGrid(1, TAU, 64), rank=rank, decay=1.0, seed=3)
        assert calls == [(0, rank)]
