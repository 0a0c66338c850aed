"""Transforms and draws in reused buffers, bit for bit and within bounds.

The stack transforms write every axis into one array (the caller's when it
passes one, or the input itself), complex_normals copies each member's draw
straight into its result, and random_band_limited weights and transforms
its coefficients in place.  Each must equal the expression it replaced bit
for bit at d = 1, 2, 3, on complex stacks and on float views of them.  A
band-limited draw then holds about one result, Gram-Schmidt overwrites the
draw it is given and holds one chunk beside it, a unit-ball chain check
keeps its spectral density and no forward stack, the power-bounded check
holds one weighted copy of the forward stack, and glt releases each frame
before it draws the next.
"""

import contextlib
import io
import tracemalloc

import numpy as np
import pytest

import lplab.cli
from lplab import (
    TorusGrid,
    build_blocks,
    lt_chain_check,
    power_bounded,
    random_band_limited,
    random_orthonormal_frame,
    validate_contract,
)
from lplab.corpus import _orthonormalize, complex_normals, philox_generator
from lplab.torus_grid import (
    _block_fields,
    fft_stack,
    forward_transform_stack,
    inverse_transform_stack,
)

TAU = 2.0 * np.pi
GRIDS = {1: TorusGrid(1, TAU, 64), 2: TorusGrid(2, TAU, 16), 3: TorusGrid(3, TAU, 8)}
DIMENSIONS = sorted(GRIDS)


def _stack(grid: TorusGrid, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    shape = (3,) + grid.shape
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _inputs(grid: TorusGrid, part: str) -> np.ndarray:
    values = _stack(grid, grid.dimension)
    return values if part == "complex" else values.imag  # a strided float view


def _same_bits(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    np.testing.assert_array_equal(actual.view(float), expected.view(float))
    assert actual.tobytes() == expected.tobytes()


@pytest.mark.parametrize("part", ["complex", "float_view"])
@pytest.mark.parametrize("d", DIMENSIONS)
def test_stack_transforms_equal_the_per_axis_expressions(d, part):
    grid = GRIDS[d]
    values = _inputs(grid, part)
    axes = tuple(range(-d, 0))
    forward = np.fft.fftn(values, axes=axes)
    forward *= grid.cell_volume
    inverse = np.fft.ifftn(values, axes=axes)
    inverse /= grid.cell_volume
    _same_bits(forward_transform_stack(grid, values), forward)
    _same_bits(inverse_transform_stack(grid, values), inverse)
    _same_bits(fft_stack(grid, values), np.fft.fftn(values, axes=axes))

    out = np.empty(values.shape, dtype=complex)
    assert forward_transform_stack(grid, values, out=out) is out
    _same_bits(out, forward)
    assert inverse_transform_stack(grid, values, out=out) is out
    _same_bits(out, inverse)
    in_place = values.astype(complex)
    assert inverse_transform_stack(grid, in_place, out=in_place) is in_place
    _same_bits(in_place, inverse)


@pytest.mark.parametrize("part", ["complex", "float_view"])
@pytest.mark.parametrize("d", DIMENSIONS)
def test_block_fields_equal_the_fresh_inverse(d, part):
    grid = GRIDS[d]
    spectra = np.fft.fftn(_inputs(grid, part), axes=tuple(range(-d, 0)))
    symbols = np.random.default_rng(d).uniform(size=(4,) + grid.shape)
    blocks = np.expand_dims(spectra, -d - 1) * symbols
    _same_bits(_block_fields(grid, spectra, symbols), np.fft.ifftn(blocks, axes=tuple(range(-d, 0))))


@pytest.mark.parametrize("part", ["complex", "float_view"])
@pytest.mark.parametrize("d", DIMENSIONS)
def test_parseval_spectrum_is_the_direct_transform(d, part):
    # The lp sampler reads its members' spectra, for the block kernel and the
    # Parseval closed form, through fft_stack.
    grid = GRIDS[d]
    u = _inputs(grid, part)[0]
    _same_bits(fft_stack(grid, u[None]), np.fft.fftn(u)[None])


@pytest.mark.parametrize("d", DIMENSIONS)
def test_complex_normals_equal_the_stacked_draws(d):
    grid = GRIDS[d]
    indices, stream = range(5, 9), 2
    draws = np.stack(
        [philox_generator(11, i, stream).standard_normal((2,) + grid.shape) for i in indices]
    )
    _same_bits(complex_normals(grid.shape, 11, indices, stream), draws[:, 0] + 1j * draws[:, 1])


@pytest.mark.parametrize("zero_mean", [False, True])
@pytest.mark.parametrize("d", DIMENSIONS)
def test_band_limited_equals_the_fresh_pipeline(d, zero_mean):
    grid = GRIDS[d]
    normals = complex_normals(grid.shape, 4, range(2, 5))
    coeffs = normals * (1.0 + grid.frequency_norms) ** -1.5
    if zero_mean:
        coeffs[(slice(None),) + grid.zero_mode_index] = 0.0
    expected = np.fft.ifftn(coeffs, axes=tuple(range(-d, 0)))
    expected /= grid.cell_volume
    values = random_band_limited(grid, 1.5, 4, index=2, zero_mean=zero_mean, count=3)
    _same_bits(values, expected)


def test_band_limited_draw_holds_about_one_result(traced_peak):
    grid = TorusGrid(3, TAU, 32)
    grid.frequency_norms  # the grid's own table is not the draw's
    values, peak = traced_peak(random_band_limited, grid, 1.0, 7, count=4)
    assert values.nbytes == 2 * 2**20
    assert peak <= 2.5 * values.nbytes, peak / values.nbytes


def test_orthonormalize_overwrites_its_input(traced_peak):
    grid = TorusGrid(3, TAU, 32)
    raw = random_band_limited(grid, 1.0, 7, count=4)
    expected = _orthonormalize(grid, raw.copy())
    frame, peak = traced_peak(_orthonormalize, grid, raw)
    assert np.shares_memory(frame, raw)
    _same_bits(frame, expected)
    # The pivot's conjugate and one chunk of products with the later rows.
    assert peak <= 1.25 * raw.nbytes, peak / raw.nbytes


def test_orthonormalize_holds_one_chunk_beside_a_large_frame(traced_peak):
    grid = TorusGrid(3, TAU, 32)
    raw = random_band_limited(grid, 1.0, 7, count=32)
    assert raw.nbytes == 16 * 2**20
    _, peak = traced_peak(_orthonormalize, grid, raw)
    # One budget of products with the later rows and the pivot's conjugate,
    # whatever the rank: no second frame.
    assert peak <= 2 * 2**20, peak / 2**20


def test_unit_ball_chain_keeps_only_its_spectral_density():
    grid = TorusGrid(3, TAU, 32)
    blocks = build_blocks(grid)
    op = random_orthonormal_frame(grid, rank=16, decay=1.0, seed=7)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert lt_chain_check(op, blocks).passed
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # w, one real field, stays cached on the operator; no forward stack does.
    assert "_forward_stack" not in op.__dict__
    assert op.spectral_density.nbytes <= retained < op.eigenfunctions[0].nbytes, retained


def test_power_bounded_check_holds_one_scaled_stack(traced_peak):
    grid = TorusGrid(3, TAU, 32)
    op = random_orthonormal_frame(grid, rank=4, decay=1.0, seed=7, power_bound=1.0)
    contract = power_bounded(1.0)
    assert validate_contract(op, contract).passed  # caches the Gram residual and the forward stack
    report, peak = traced_peak(validate_contract, op, contract)
    assert report.passed
    frame = op.eigenfunctions.nbytes
    assert frame == 2 * 2**20
    # The weighted copy of the forward stack, conjugated in place, and the
    # weight table: no conjugated copy of the stack beside it.
    assert peak <= 1.5 * frame, peak / frame


def test_glt_releases_each_frame_before_the_next(traced_peak):
    def glt(samples: int) -> int:
        argv = f"glt --dim 3 --n 32 --rank 4 --samples {samples} --seed 3".split()
        with contextlib.redirect_stdout(io.StringIO()):
            return lplab.cli.run(argv)

    assert glt(1) == 0  # imports and loads everything a run reads once
    code_one, one = traced_peak(glt, 1)
    code_three, three = traced_peak(glt, 3)
    assert code_one == code_three == 0
    assert three <= one + 2**20, (one, three)
