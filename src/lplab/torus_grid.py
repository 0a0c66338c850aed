"""Uniform discretization of a periodic box with spectrally exact calculus.

The domain is the torus [0, L)^d sampled on N points per axis.  Frequencies
live on the dual lattice xi(m) = (2 pi / L) m with integer coordinates
m in {-N/2, ..., N/2 - 1}, stored in FFT layout so multipliers line up with
transform output without any shifting.

Normalization convention (Riemann-sum approximation of the continuum pair):

    forward:  coeffs(xi) = h^d * sum_x f(x) exp(-i xi . x),   h = L / N
    inverse:  f(x) = L^{-d} * sum_xi coeffs(xi) exp(i xi . x)

so Parseval reads  h^d sum_x |f|^2 = L^{-d} sum_xi |coeffs|^2, and a single
unit coefficient at xi inverts to the normalized plane wave L^{-d} e^{i xi x}.

The symbol |xi|^(2s) of (-Laplacian)^s and its zero-mode rule live only in
laplacian_power and zero_mode_offenders; block energies have one kernel,
block_energy_stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, GridMismatchError, ZeroModeSingularityError

DEFAULT_SIZE_CAP = 2**24

ZERO_MODE_RTOL = 1e-10

# The bytes one chunk of a batched pass may hold: members or ranks of
# complex fields, column blocks of a Gram sum, rows of a sign-sum table,
# trials of the sequence bound.  Every pass sizes its chunks through
# byte_chunks, so this is the only budget.  A larger one batches more work
# per call but raises the peak resident set.  A chunk holds at least one
# item, so an item above the budget (one complex field of a grid of more
# than 2^16 points) is a chunk of its own; a pass that repeats such chunks
# fills buffers it reuses, so one chunk is alive at a time.
FIELD_CHUNK_BYTES = 1 << 20


def abs_squared(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """|z|^2 computed as re^2 + im^2, avoiding the sqrt round trip of abs()**2;
    into ``out`` when given, a float array of the values' shape.  With ``out``
    the im^2 term is still one temporary array of the values' shape."""
    v = np.asarray(values)
    if np.iscomplexobj(v):
        out = np.square(v.real, out=out)
        out += v.imag**2
        return out
    return np.multiply(v, v, out=out)


@dataclass(frozen=True)
class TorusGrid:
    """Geometry of the sampled torus [0, box_length)^dimension.

    Attributes
    ----------
    dimension : int
        Spatial dimension, restricted to 1, 2 or 3.
    box_length : float
        Side length L of the periodic box.
    points_per_axis : int
        Samples per axis N; must be a power of two and at least 8 so that
        the dyadic frequency decomposition has room for several blocks.  The
        total N^d may not exceed DEFAULT_SIZE_CAP, which guards against
        accidentally requesting more than desk scale.
    """

    dimension: int
    box_length: float
    points_per_axis: int

    def __post_init__(self) -> None:
        d, length, n = self.dimension, self.box_length, self.points_per_axis
        if d not in (1, 2, 3):
            raise ConfigurationError(f"dimension must be 1, 2 or 3, got {d}")
        if not (length > 0 and math.isfinite(length)):
            raise ConfigurationError(f"box_length must be finite and positive, got {length}")
        if n < 8 or (n & (n - 1)) != 0:
            raise ConfigurationError(f"points_per_axis must be a power of two >= 8, got {n}")
        if n**d > DEFAULT_SIZE_CAP:
            raise ConfigurationError(
                f"grid of {n}^{d} = {n**d} points exceeds the size cap {DEFAULT_SIZE_CAP}"
            )
        # The lattice |xi|^2 runs from (2 pi / L)^2 to d (pi N / L)^2; the
        # block scales take log2 of both, so both must be normal floats.
        unit, top = 2.0 * math.pi / length, math.pi * n / length
        if not (unit * unit >= np.finfo(float).tiny and math.isfinite(d * top * top)):
            raise ConfigurationError(
                f"box_length {length:g} puts the lattice |xi|^2 outside the binary64 range"
            )

    @property
    def spacing(self) -> float:
        return self.box_length / self.points_per_axis

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_axis,) * self.dimension

    @property
    def size(self) -> int:
        return self.points_per_axis**self.dimension

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dimension

    @property
    def volume(self) -> float:
        return self.box_length**self.dimension

    @property
    def zero_mode_index(self) -> tuple[int, ...]:
        return (0,) * self.dimension

    @cached_property
    def axis_coordinates(self) -> np.ndarray:
        x = self.spacing * np.arange(self.points_per_axis)
        x.flags.writeable = False
        return x

    @cached_property
    def axis_frequencies(self) -> np.ndarray:
        """Lattice frequencies of one axis in FFT order: 0, ..., max, -max, ..., -min."""
        xi = 2.0 * np.pi * np.fft.fftfreq(self.points_per_axis, d=self.spacing)
        xi.flags.writeable = False
        return xi

    @cached_property
    def coordinate_grids(self) -> tuple[np.ndarray, ...]:
        grids = np.meshgrid(*(self.axis_coordinates,) * self.dimension, indexing="ij")
        for g in grids:
            g.flags.writeable = False
        return tuple(grids)

    @cached_property
    def frequency_grids(self) -> tuple[np.ndarray, ...]:
        grids = np.meshgrid(*(self.axis_frequencies,) * self.dimension, indexing="ij")
        for g in grids:
            g.flags.writeable = False
        return tuple(grids)

    @cached_property
    def frequency_norms_squared(self) -> np.ndarray:
        """|xi|^2 in FFT layout: the squared axis frequencies, each broadcast
        along its own axis and added in axis order, so no meshgrid is built."""
        squares = self.axis_frequencies**2
        nsq = np.zeros(self.shape)
        for axis in range(self.dimension):
            nsq += squares.reshape((-1,) + (1,) * (self.dimension - 1 - axis))
        nsq.flags.writeable = False
        return nsq

    @cached_property
    def frequency_norms(self) -> np.ndarray:
        norms = np.sqrt(self.frequency_norms_squared)
        norms.flags.writeable = False
        return norms

    def mode_index(self, mode: Sequence[int]) -> tuple[int, ...]:
        """Array index of the lattice mode m (integer coordinates, negatives allowed)."""
        mode = tuple(int(m) for m in mode)
        if len(mode) != self.dimension:
            raise GridMismatchError(
                f"mode {mode} has {len(mode)} coordinates, grid is {self.dimension}-dimensional"
            )
        n = self.points_per_axis
        half = n // 2
        for m in mode:
            if not -half <= m < half:
                raise GridMismatchError(f"mode coordinate {m} outside [-{half}, {half})")
        return tuple(m % n for m in mode)

    def integrate(self, values: np.ndarray):
        """Quadrature h^d * sum over the grid."""
        return self.cell_volume * np.asarray(values).sum()


def _grid_axes(grid: TorusGrid) -> tuple[int, ...]:
    return tuple(range(-grid.dimension, 0))


def _transform_stack(function, grid: TorusGrid, values, out: np.ndarray | None) -> np.ndarray:
    """np.fft.fftn or np.fft.ifftn of a stack over the grid axes, every axis
    transformed into one complex array: ``out``, which may be ``values``
    itself, or one fresh array."""
    values = np.asarray(values)
    if out is None:
        out = np.empty(values.shape, np.result_type(values.dtype, 1j))
    return function(values, axes=_grid_axes(grid), out=out)


def forward_transform_stack(
    grid: TorusGrid, values: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """coeffs_k = h^d * FFT(values_k) for every field of a stack [r, ...] at once,
    into ``out`` if given."""
    spectra = _transform_stack(np.fft.fftn, grid, values, out)
    spectra *= grid.cell_volume
    return spectra


def inverse_transform_stack(
    grid: TorusGrid, coefficients: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """values_k = IFFT(coeffs_k) / h^d for every spectrum of a stack [r, ...] at
    once, into ``out`` if given; the inverse of forward_transform_stack up to
    float rounding."""
    values = _transform_stack(np.fft.ifftn, grid, coefficients, out)
    values /= grid.cell_volume
    return values


def byte_chunks(count: int, item_bytes: int) -> list[slice]:
    """Slices of an axis of ``count`` items of ``item_bytes`` each that fit
    FIELD_CHUNK_BYTES; a chunk holds at least one item, and the last chunk
    may be partial."""
    step = max(1, FIELD_CHUNK_BYTES // item_bytes)
    return [slice(start, start + step) for start in range(0, count, step)]


def field_chunks(grid: TorusGrid, count: int, fields_per_item: int) -> list[slice]:
    """byte_chunks of an axis whose items hold ``fields_per_item`` complex fields."""
    return byte_chunks(count, fields_per_item * grid.size * np.dtype(complex).itemsize)


def _weighted_energy(grid, weights, fields_per_member, fields) -> np.ndarray:
    """sum_k weights[m, k] |fields_k|^2 for every member m of a stack, as [m, ...].

    ``weights`` is [m, r]: one row of rank weights per member.  ``fields``
    maps a slice of the rank axis to the chunk's fields, [m, c, ...] or
    [m, c, fields_per_member, ...]; any per-rank field axis is summed.  The
    rank axis is chunked so that every member's chunk fits FIELD_CHUNK_BYTES
    together, and terms accumulate in ascending k.
    """
    weights = np.asarray(weights, dtype=float)
    count, rank = weights.shape
    acc = np.zeros((count,) + grid.shape)
    for rows in field_chunks(grid, rank, count * fields_per_member):
        energy = abs_squared(fields(rows))
        if energy.ndim > grid.dimension + 2:
            energy = energy.sum(axis=2)
        chunk_weights = weights[:, rows].reshape((count, -1) + (1,) * grid.dimension)
        for k in range(chunk_weights.shape[1]):
            acc += chunk_weights[:, k] * energy[:, k]
    return acc


def density_stack(grid: TorusGrid, values: np.ndarray, weights) -> np.ndarray:
    """weighted_density of every member of a stack: values [m, r, ...], weights [m, r]."""
    return _weighted_energy(grid, weights, 1, lambda rows: values[:, rows])


def weighted_density(grid: TorusGrid, values: np.ndarray, weights) -> np.ndarray:
    """sum_k weights_k |values_k(x)|^2 over a stack of grid fields [r, ...]."""
    return density_stack(grid, np.asarray(values)[None], np.asarray(weights)[None])[0]


def weighted_spectral_density(grid: TorusGrid, values: np.ndarray, weights) -> np.ndarray:
    """sum_k weights_k |coeffs_k(xi)|^2 over a stack of grid fields [r, ...],
    in FFT layout.

    The stack is transformed one field_chunk of the rank axis at a time, so
    the pass holds one chunk of transforms; the sum is weighted_density's
    of the whole forward stack, bit for bit.
    """
    values = np.asarray(values)[None]
    return _weighted_energy(
        grid,
        np.asarray(weights)[None],
        1,
        lambda rows: forward_transform_stack(grid, values[:, rows]),
    )[0]


def fft_stack(grid: TorusGrid, values: np.ndarray) -> np.ndarray:
    """Unnormalized transforms np.fft.fftn of a stack [..., N, .., N] over the grid axes.

    These are the block kernel's input: its two transforms' integral
    normalizations cancel, so neither is applied.
    """
    return _transform_stack(np.fft.fftn, grid, values, None)


def _block_fields(grid: TorusGrid, spectra: np.ndarray, symbols: np.ndarray) -> np.ndarray:
    """symbols_j(D) of every field of an unnormalized spectra stack [..., ...] as
    [..., J, ...], inverse-transformed in place."""
    blocks = np.expand_dims(spectra, -grid.dimension - 1) * symbols
    return _transform_stack(np.fft.ifftn, grid, blocks, blocks)


def block_energy_stack(grid: TorusGrid, spectra: np.ndarray, weights, symbols) -> np.ndarray:
    """sum_j sum_k weights[m, k] |symbols_j(D) u_mk|^2 on the physical grid, for
    every member m of a stack, as [m, ...].

    ``spectra`` holds the members' fft_stack [m, r, ...], ``weights`` is
    [m, r] and ``symbols`` an array [J, ...] of multiplier tables in FFT
    layout.  Each chunk of the rank axis takes one batched inverse transform
    for all members, ranks and blocks.
    """
    return _weighted_energy(
        grid, weights, len(symbols), lambda rows: _block_fields(grid, spectra[:, rows], symbols)
    )


def lp_norms(grid: TorusGrid, magnitudes: np.ndarray, p: float) -> list[float]:
    """Quadrature L^p norms (h^d sum |f_m|^p)^(1/p), p > 0, of every field of a
    stack [m, ...], given as its magnitudes |f|; for p < 1 these are the usual
    quasinorms, with no triangle inequality implied.

    The power sums take one array pass.  The root (.)^(1/p) is taken per
    member on a Python float, with the C library's pow: numpy's SIMD power
    differs from it in the last place on some inputs.
    """
    p = float(p)
    if not p > 0:
        raise ValueError(f"lp_norms requires p > 0, got {p}")
    sums = grid.cell_volume * np.sum(magnitudes**p, axis=_grid_axes(grid))
    return [total ** (1.0 / p) for total in sums.tolist()]


def laplacian_power(grid: TorusGrid, s: float) -> np.ndarray:
    """The symbol |xi|^(2s) of (-Laplacian)^s in FFT layout; the zero mode counts
    only at s = 0 (for s < 0 callers refuse fields with zero-mode mass)."""
    s = float(s)
    nsq = grid.frequency_norms_squared
    table = np.ones(grid.shape) if s == 0.0 else np.zeros(grid.shape)
    positive = nsq > 0
    table[positive] = nsq[positive] ** s
    return table


def zero_mode_offenders(energy: np.ndarray) -> np.ndarray:
    """Which rows of an energy table [m, N^d] of |coeffs|^2 in FFT layout carry
    zero-mode mass: |coeffs(0)| above ZERO_MODE_RTOL times the row's l2 norm."""
    totals = np.sqrt(energy.sum(axis=1))
    return np.sqrt(energy[:, 0]) > ZERO_MODE_RTOL * totals


def kinetic_forms(grid: TorusGrid, values: np.ndarray, power: float) -> list[float]:
    """Quadratic forms L^{-d} sum_xi |xi|^(2 power) |coeffs_m(xi)|^2 of the
    fractional Laplacian, for every field of a stack [m, ...], from one
    batched transform, with laplacian_power's zero-mode rule.

    A negative power raises if any field's zero-mode coefficient does not
    vanish.
    """
    power = float(power)
    energy = abs_squared(forward_transform_stack(grid, values)).reshape(len(values), -1)
    if power < 0 and np.any(zero_mode_offenders(energy)):
        raise ZeroModeSingularityError(
            "zero-mode singularity: negative Laplacian power applied to a "
            "function whose frequency-zero coefficient does not vanish"
        )
    weights = laplacian_power(grid, power).reshape(-1)
    return (np.sum(weights * energy, axis=1) / grid.volume).tolist()


def plane_wave(grid: TorusGrid, mode: Sequence[int], amplitude: complex = 1.0) -> np.ndarray:
    """The lattice plane wave amplitude * exp(i xi(mode) . x)."""
    idx = grid.mode_index(mode)  # validates the mode
    phase = np.zeros(grid.shape)
    for axis, m_idx in enumerate(idx):
        xi = grid.axis_frequencies[m_idx]
        phase = phase + xi * grid.coordinate_grids[axis]
    return amplitude * np.exp(1j * phase)
