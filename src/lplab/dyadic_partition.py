"""Dyadic partitions of unity on the frequency lattice.

A bump profile phi is 1 on [0, 1], 0 on [2, infinity) and monotone in
between.  The annular bump psi(xi) = phi(|xi|) - phi(2 |xi|) is supported on
1/2 <= |xi| <= 2 and its dyadic dilations psi_j = psi(2^{-j} xi) sum to 1 for
every xi != 0.  On a finite lattice the doubly infinite family is truncated:
the lowest block absorbs the zero mode together with the entire low tail, and
the highest block absorbs everything from its scale upward.  The result is a
finite family that still sums to 1 exactly, at every lattice point.

Two families are supported:

* "smooth": the construction above; adjacent blocks overlap, at most two
  blocks are active at any frequency, and companion bumps (identically 1 on
  each block's support) reproduce each block.
* "sharp":  indicator annuli 2^j <= |xi| < 2^{j+1} with the same edge
  absorption; exactly one block is active at each frequency.

A block set holds its tables as one float array [J, N, ..., N], row
j - j_min for block j in FFT layout; a smooth set tabulates its companions
in the same layout on first read.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, UnsupportedFamilyError
from .reporting import format_float
from .torus_grid import TorusGrid

SMOOTH = "smooth"
SHARP = "sharp"

PROFILE_KINDS = ("exp", "quintic")

# Tolerance for placing lattice radii relative to exact dyadic scales when
# choosing the truncation range.  Only block bookkeeping depends on this; the
# partition itself is exact for any choice.
_LOG_EPS = 1e-9


def _exp_glue(t: np.ndarray) -> np.ndarray:
    """exp(-1/t) of a float array of positive t, written over t."""
    np.divide(-1.0, t, out=t)
    return np.exp(t, out=t)


def _quintic_ramp(r: np.ndarray, mid: np.ndarray) -> np.ndarray:
    """Quintic smoothstep t^3 (10 - 15 t + 6 t^2) of t = 2 - r on mid, where
    1 < r < 2: C^2 at both endpoints, monotone.  The cube draws t from r
    again, so two arrays of t's size are live at a time, as in the exp glue."""
    t = 2.0 - r[mid]
    poly = 15.0 * t
    np.subtract(10.0, poly, out=poly)
    poly += np.multiply(6.0, np.square(t, out=t), out=t)
    del t  # released before the cube's t is drawn
    t = r[mid]
    return np.multiply(np.power(np.subtract(2.0, t, out=t), 3, out=t), poly, out=t)


@dataclass(frozen=True)
class BumpProfile:
    """Radial cutoff profile phi: [0, inf) -> [0, 1].

    phi is exactly 1 for r <= 1 and exactly 0 for r >= 2; the glue on (1, 2)
    depends on the kind.  "exp" uses the classical exp(-1/t) partition glue
    (infinitely smooth), "quintic" a polynomial smoothstep (twice
    differentiable, cheaper to evaluate).
    """

    kind: str = "exp"

    def __post_init__(self) -> None:
        if self.kind not in PROFILE_KINDS:
            raise ConfigurationError(
                f"unknown profile kind {self.kind!r}, expected one of {PROFILE_KINDS}"
            )

    def __call__(self, radii, out: np.ndarray | None = None) -> np.ndarray:
        """phi at every radius, into ``out`` when given: a float array of the
        radii's shape."""
        r = np.asarray(radii, dtype=float)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        if out is None:
            out = np.empty(r.shape)
        np.less_equal(r, 1.0, out=out)  # 1 up to r = 1, 0 beyond; the glue follows
        mid = r > 1.0
        mid &= r < 2.0
        if mid.any():
            if self.kind == "exp":
                # On (1, 2) both glue arguments are positive.
                rm = r[mid]
                up = _exp_glue(2.0 - rm)
                down = _exp_glue(np.subtract(rm, 1.0, out=rm))
                down += up
                out[mid] = np.divide(up, down, out=up)
            else:
                out[mid] = _quintic_ramp(r, mid)
        if scalar:
            return float(out[0])
        return out


def _indicator(radii, out: np.ndarray | None = None) -> np.ndarray:
    """The sharp family's cutoff: 1 for r < 1, 0 from r = 1 on."""
    return np.less(radii, 1.0, out=out)


def _dyadic_rows(cutoff, radii, j_min: int, j_max: int, upper: int, lower: int) -> np.ndarray:
    """Rows cutoff(r 2^-(j + upper)) - cutoff(r 2^-(j - lower)) for j = j_min ..
    j_max, as one read-only array [J, ...], each row written in place.

    The lowest row keeps only its first term, so it absorbs the zero mode and
    the low tail; the highest is 1 minus its second, so it absorbs the high
    tail.  Scaling by a power of two is exact, so with upper + lower = 1 each
    row's second term is the first term of the row below, and the rows sum
    to exactly 1.
    """
    rows = np.empty((j_max - j_min + 1,) + radii.shape)
    for row, j in zip(rows, range(j_min, j_max + 1)):
        if j == j_max:
            np.subtract(1.0, cutoff(radii * 2.0 ** -(j - lower), row), out=row)
            continue
        cutoff(radii * 2.0 ** -(j + upper), row)
        if j > j_min:
            row -= cutoff(radii * 2.0 ** -(j - lower))
    rows.flags.writeable = False
    return rows


@dataclass
class DyadicBlockSet:
    """A finite dyadic partition of unity tabulated on a grid's frequency lattice.

    ``symbols`` is one read-only float array [J, N, ..., N]: row j - j_min is
    the multiplier table of block j, in FFT layout, and ``symbol(j)`` is a
    view of it.  ``companions``, the wider bumps identically 1 on each
    block's support, is an array of the same shape, tabulated from the
    profile on first read; a sharp set has none.
    """

    grid: TorusGrid
    family: str
    j_min: int
    j_max: int
    symbols: np.ndarray
    profile: BumpProfile | None = None

    @property
    def block_indices(self) -> range:
        return range(self.j_min, self.j_max + 1)

    @property
    def block_count(self) -> int:
        return self.j_max - self.j_min + 1

    @property
    def interior_indices(self) -> range:
        return range(self.j_min + 1, self.j_max)

    def _offset(self, j: int) -> int:
        if not self.j_min <= j <= self.j_max:
            raise IndexError(
                f"block index {j} outside [{self.j_min}, {self.j_max}]"
            )
        return j - self.j_min

    def symbol(self, j: int) -> np.ndarray:
        return self.symbols[self._offset(j)]

    def companion(self, j: int) -> np.ndarray:
        return self.companions[self._offset(j)]

    @cached_property
    def companions(self) -> np.ndarray:
        """Companion bumps: wider multipliers identically 1 on each block's support.

        Interior companions are the dilated wide bump phi(r/2) - phi(4 r), which
        equals 1 on the annulus [1/2, 2] carrying the interior block.  The edge
        companions are one-sided cutoffs equal to 1 on the absorbed ranges.
        Only the smooth family has companions.
        """
        if self.profile is None:
            raise UnsupportedFamilyError("companions are defined for the smooth family only")
        return _dyadic_rows(self.profile, self.grid.frequency_norms, self.j_min, self.j_max, 1, 2)

    def partition_residual(self) -> float:
        total = np.zeros(self.grid.shape)
        for table in self.symbols:
            total += table
        total -= 1.0
        return float(np.max(np.abs(total, out=total)))


def build_blocks(
    grid: TorusGrid, family: str = SMOOTH, profile_kind: str = "exp"
) -> DyadicBlockSet:
    """Tabulate the truncated dyadic family on the grid's frequency lattice.

    ``profile_kind`` names the smooth family's BumpProfile; the sharp family
    has none.  The lowest block index is the scale of the smallest nonzero
    lattice radius; blocks below it would vanish at every lattice point.
    The highest block covers the largest lattice radius.  Fewer than three
    blocks means the grid is too coarse to exercise a dyadic decomposition at
    all, which is reported as a configuration error.
    """
    if family not in (SMOOTH, SHARP):
        raise UnsupportedFamilyError(f"unknown block family {family!r}")

    radii = grid.frequency_norms
    nonzero = radii[radii > 0]
    r_min = float(nonzero.min())
    r_max = float(radii.max())
    j_min = math.floor(math.log2(r_min) + _LOG_EPS)
    if family == SMOOTH:
        # Block j is phi(r 2^-j) - phi(r 2^-(j-1)), on 2^(j-1) <= r <= 2^(j+1).
        profile = BumpProfile(profile_kind)
        j_max = math.ceil(math.log2(r_max) - _LOG_EPS)
        cutoff, upper, lower = profile, 0, 1
    else:
        # Block j is the indicator of 2^j <= r < 2^(j+1).
        profile = None
        j_max = math.floor(math.log2(r_max) + _LOG_EPS)
        cutoff, upper, lower = _indicator, 1, 0
    if j_max - j_min < 2:
        raise ConfigurationError(
            f"grid too coarse: only {j_max - j_min + 1} "
            f"{'dyadic' if family == SMOOTH else 'sharp'} blocks fit "
            f"(radii {r_min:g} .. {r_max:g}); need at least 3"
        )

    symbols = _dyadic_rows(cutoff, radii, j_min, j_max, upper, lower)
    return DyadicBlockSet(grid, family, j_min, j_max, symbols, profile)


def block_squared_sum(blocks: DyadicBlockSet) -> np.ndarray:
    """Pointwise sum of squared block multipliers, sum_j Psi_j(xi)^2."""
    total = np.zeros(blocks.grid.shape)
    for table in blocks.symbols:
        total += table**2
    return total


def block_table(blocks: DyadicBlockSet) -> list[tuple[int, float, float, float | None]]:
    """Rows (j, |xi|, Psi_j, companion), one per block and distinct lattice
    radius; the companion is None for the sharp family.

    The multipliers are radial, so a representative lattice point per radius
    carries the full information; this keeps tables plot-sized even in 3d.
    """
    radii_flat = blocks.grid.frequency_norms.reshape(-1)
    unique_radii, first_index = np.unique(radii_flat, return_index=True)
    rows: list[tuple[int, float, float, float | None]] = []
    for j in blocks.block_indices:
        sym_flat = blocks.symbol(j).reshape(-1)
        comp_flat = blocks.companion(j).reshape(-1) if blocks.family == SMOOTH else None
        for radius, idx in zip(unique_radii, first_index):
            comp = float(comp_flat[idx]) if comp_flat is not None else None
            rows.append((int(j), float(radius), float(sym_flat[idx]), comp))
    return rows


def write_block_table_csv(blocks: DyadicBlockSet, path) -> None:
    """Write the block symbol tables as CSV with columns j, |xi|, Psi_j, companion."""
    rows = block_table(blocks)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["j", "xi_norm", "symbol", "companion"])
        for j, radius, sym, comp in rows:
            writer.writerow(
                [j, format_float(radius), format_float(sym), "" if comp is None else format_float(comp)]
            )
