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
  each block's support) are available for reproducing identities.
* "sharp":  indicator annuli 2^j <= |xi| < 2^{j+1} with the same edge
  absorption; exactly one block is active at each frequency.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

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
    """exp(-1/t) for t > 0, identically 0 for t <= 0."""
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape)
    pos = t > 0
    out[pos] = np.exp(-1.0 / t[pos])
    return out


def _quintic_ramp(t: np.ndarray) -> np.ndarray:
    """Quintic smoothstep on [0, 1]: C^2 at both endpoints, monotone."""
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    return t**3 * (10.0 - 15.0 * t + 6.0 * t**2)


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

    def __call__(self, radii) -> np.ndarray:
        r = np.asarray(radii, dtype=float)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        out = np.empty(r.shape)
        out[r <= 1.0] = 1.0
        out[r >= 2.0] = 0.0
        mid = (r > 1.0) & (r < 2.0)
        if mid.any():
            rm = r[mid]
            if self.kind == "exp":
                up = _exp_glue(2.0 - rm)
                down = _exp_glue(rm - 1.0)
                out[mid] = up / (up + down)
            else:
                out[mid] = _quintic_ramp(2.0 - rm)
        if scalar:
            return float(out[0])
        return out

    def annulus_bump(self, radii) -> np.ndarray:
        """psi(r) = phi(r) - phi(2 r), supported on [1/2, 2], equal to 1 at r = 1."""
        r = np.asarray(radii, dtype=float)
        return self(r) - self(2.0 * r)


def build_profile(kind: str = "exp") -> BumpProfile:
    return BumpProfile(kind)


@dataclass
class DyadicBlockSet:
    """A finite dyadic partition of unity tabulated on a grid's frequency lattice.

    symbols[j - j_min] is the multiplier table of block j, in FFT layout.
    companions, when built, hold the wider bumps that are identically 1 on the
    corresponding block's support.
    """

    grid: TorusGrid
    family: str
    j_min: int
    j_max: int
    symbols: list[np.ndarray]
    profile: BumpProfile | None = None
    companions: list[np.ndarray] | None = None

    @property
    def block_indices(self) -> range:
        return range(self.j_min, self.j_max + 1)

    @property
    def block_count(self) -> int:
        return self.j_max - self.j_min + 1

    @property
    def interior_indices(self) -> range:
        return range(self.j_min + 1, self.j_max)

    @property
    def profile_kind(self) -> str:
        return self.profile.kind if self.profile is not None else "indicator"

    def _offset(self, j: int) -> int:
        if not self.j_min <= j <= self.j_max:
            raise IndexError(
                f"block index {j} outside [{self.j_min}, {self.j_max}]"
            )
        return j - self.j_min

    def symbol(self, j: int) -> np.ndarray:
        return self.symbols[self._offset(j)]

    def companion(self, j: int) -> np.ndarray:
        if self.companions is None:
            raise ConfigurationError(
                "companion tables have not been built for this block set"
            )
        return self.companions[self._offset(j)]

    def partition_residual(self) -> float:
        total = np.zeros(self.grid.shape)
        for table in self.symbols:
            total = total + table
        return float(np.max(np.abs(total - 1.0)))


def build_blocks(
    grid: TorusGrid, family: str = SMOOTH, profile: BumpProfile | None = None
) -> DyadicBlockSet:
    """Tabulate the truncated dyadic family on the grid's frequency lattice.

    The lowest block index is the scale of the smallest nonzero lattice
    radius; blocks below it would vanish at every lattice point.  The highest
    block covers the largest lattice radius.  Fewer than three blocks means
    the grid is too coarse to exercise a dyadic decomposition at all, which
    is reported as a configuration error.
    """
    if family not in (SMOOTH, SHARP):
        raise UnsupportedFamilyError(f"unknown block family {family!r}")

    radii = grid.frequency_norms
    nonzero = radii[radii > 0]
    r_min = float(nonzero.min())
    r_max = float(radii.max())

    if family == SMOOTH:
        if profile is None:
            profile = build_profile()
        j_min = math.floor(math.log2(r_min) + _LOG_EPS)
        j_max = math.ceil(math.log2(r_max) - _LOG_EPS)
        if j_max - j_min < 2:
            raise ConfigurationError(
                f"grid too coarse: only {j_max - j_min + 1} dyadic blocks fit "
                f"(radii {r_min:g} .. {r_max:g}); need at least 3"
            )
        symbols: list[np.ndarray] = []
        for j in range(j_min, j_max + 1):
            if j == j_min:
                # Absorbs the zero mode and the whole low tail: phi(0) = 1.
                table = profile(radii * 2.0**-j)
            elif j == j_max:
                table = 1.0 - profile(radii * 2.0 ** -(j - 1))
            else:
                # Scaling by 2 is exact, so this is phi(r 2^-j) - phi(r 2^-(j-1)).
                table = profile.annulus_bump(radii * 2.0**-j)
            symbols.append(table)
        return DyadicBlockSet(grid, SMOOTH, j_min, j_max, symbols, profile=profile)

    j_min = math.floor(math.log2(r_min) + _LOG_EPS)
    j_max = math.floor(math.log2(r_max) + _LOG_EPS)
    if j_max - j_min < 2:
        raise ConfigurationError(
            f"grid too coarse: only {j_max - j_min + 1} sharp blocks fit "
            f"(radii {r_min:g} .. {r_max:g}); need at least 3"
        )
    symbols = []
    for j in range(j_min, j_max + 1):
        if j == j_min:
            table = (radii < 2.0 ** (j + 1)).astype(float)
        elif j == j_max:
            table = (radii >= 2.0**j).astype(float)
        else:
            table = ((radii >= 2.0**j) & (radii < 2.0 ** (j + 1))).astype(float)
        symbols.append(table)
    return DyadicBlockSet(grid, SHARP, j_min, j_max, symbols, profile=None)


def build_companions(blocks: DyadicBlockSet) -> DyadicBlockSet:
    """Attach companion bumps: wider multipliers identically 1 on each block's support.

    Interior companions are the dilated wide bump phi(r/2) - phi(4 r), which
    equals 1 on the annulus [1/2, 2] carrying the interior block.  The edge
    companions are one-sided cutoffs equal to 1 on the absorbed ranges.
    Only the smooth family has companions.
    """
    if blocks.family != SMOOTH:
        raise UnsupportedFamilyError("companions are defined for the smooth family only")
    profile = blocks.profile
    assert profile is not None
    radii = blocks.grid.frequency_norms
    companions: list[np.ndarray] = []
    for j in blocks.block_indices:
        if j == blocks.j_min:
            table = profile(radii * 2.0 ** -(j + 1))
        elif j == blocks.j_max:
            table = 1.0 - profile(radii * 2.0 ** -(j - 2))
        else:
            table = profile(radii * 2.0 ** -(j + 1)) - profile(radii * 2.0 ** -(j - 2))
        companions.append(table)
    return replace(blocks, companions=companions)


def block_squared_sum(blocks: DyadicBlockSet) -> np.ndarray:
    """Pointwise sum of squared block multipliers, sum_j Psi_j(xi)^2."""
    total = np.zeros(blocks.grid.shape)
    for table in blocks.symbols:
        total = total + table**2
    return total


def block_table(blocks: DyadicBlockSet) -> list[tuple[int, float, float, float | None]]:
    """Rows (j, |xi|, Psi_j, companion or None), one per block and distinct lattice radius.

    The multipliers are radial, so a representative lattice point per radius
    carries the full information; this keeps tables plot-sized even in 3d.
    """
    radii_flat = blocks.grid.frequency_norms.reshape(-1)
    unique_radii, first_index = np.unique(radii_flat, return_index=True)
    rows: list[tuple[int, float, float, float | None]] = []
    for j in blocks.block_indices:
        sym_flat = blocks.symbol(j).reshape(-1)
        comp_flat = (
            blocks.companion(j).reshape(-1) if blocks.companions is not None else None
        )
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
