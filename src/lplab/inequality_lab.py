"""Inequality checkers and empirical constant envelopes.

Each checker computes the two sides of one comparability statement and
reports the ratio; the envelope estimator runs a checker over a seeded
corpus and compares the observed ratio range against frozen bounds.  The
checkers prove nothing: they measure, and the measured envelopes stand in
for the existence constants the statements assert.  Operators, their
contracts and the Fermi ladder (sea_ladder) come from fock_operator and
seeded draws from corpus, through public names only; this module keeps
the comparisons.

The Lieb-Thirring comparisons (the unit-ball check, the check at powers
(a, b), the Fermi sweep and its lattice-sum oracle) all return one record,
GeneralizedLTResult; all but the oracle build it in _lt_result, so the
(0, 1) case equals the base check bit for bit.  The rank-dependent weak
bound is computed only in the sweep rows.
"""

from __future__ import annotations

import importlib.resources
import json
import math
import re
import statistics
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .corpus import (
    CorpusSpec,
    complex_normals,
    philox_generator,
    single_spike,
    spike_sequences,
    spike_window,
)
from .dyadic_partition import (
    SHARP,
    SMOOTH,
    DyadicBlockSet,
    build_blocks,
    block_squared_sum,
)
from .errors import (
    ConfigurationError,
    DegenerateInputError,
    GridMismatchError,
    UnsupportedFamilyError,
)
from .fock_operator import (
    FiniteRankOperator,
    UNIT_BALL,
    finite_chemical_potential,
    power_bounded,
    require_contract,
    sea_ladder,
)
from .torus_grid import (
    TorusGrid,
    abs_squared,
    block_energy_stack,
    byte_chunks,
    density_stack,
    fft_stack,
    field_chunks,
    forward_transform_stack,
    inverse_transform_stack,
    lp_norms,
    power_integrals,
    spectral_trace,
)

EXACT_ENUMERATION_CAP = 20
_ENUMERATION_CHUNK = 1 << 16
DEGENERACY_RTOL = 1e-12
CHAIN_RTOL = 1e-10


def __getattr__(name: str):
    """Resolve ProcessPoolExecutor on its first read (PEP 562).

    Nothing here starts a process, but perfbench's span tracer
    (perfbench/spans.py) still reads and patches this module's
    ProcessPoolExecutor.  Resolving it lazily keeps concurrent.futures and
    multiprocessing out of every lplab process the tracer does not run in.
    This hook goes when ROADMAP item 1's benchmark change retires the
    tracer's pool class.
    """
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def require_counts(**counts: int) -> None:
    """Raise ConfigurationError unless every named count is at least one:
    a run that checks nothing must not report a pass."""
    for name, value in counts.items():
        if int(value) < 1:
            raise ConfigurationError(f"{name.replace('_', ' ')} must be >= 1, got {value}")


# ---------------------------------------------------------------------------
# Rademacher ensembles


@dataclass(frozen=True)
class SignEnsemble:
    """How sign-vector expectations are evaluated.

    mode "exact" enumerates all 2^n vectors (n capped at 20); "monte_carlo"
    averages over seeded random draws.
    """

    mode: str = "exact"
    samples: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("exact", "monte_carlo"):
            raise ConfigurationError(f"unknown ensemble mode {self.mode!r}")
        if self.mode == "monte_carlo" and self.samples < 1:
            raise ConfigurationError("monte_carlo ensembles need at least one sample")

    @classmethod
    def exact(cls) -> "SignEnsemble":
        return cls("exact")

    @classmethod
    def monte_carlo(cls, samples: int, seed: int) -> "SignEnsemble":
        return cls("monte_carlo", int(samples), int(seed))


def _signs(bits: np.ndarray) -> np.ndarray:
    """+1 where a bit is set and -1 elsewhere, as complex: the dtype of the
    coefficients the signs multiply, with no float intermediate, no cast
    per block and no index array (np.take would copy the bits as intp)."""
    return np.where(bits, 1.0 + 0j, -1.0 + 0j)


def require_enumerable(ensemble: SignEnsemble, *term_counts: int) -> None:
    """Raise ConfigurationError if an exact ensemble would enumerate the 2^n
    sign vectors of more than EXACT_ENUMERATION_CAP terms; a caller checks
    every count it will pass before it draws any coefficients."""
    if ensemble.mode != "exact":
        return
    for count in term_counts:
        if int(count) > EXACT_ENUMERATION_CAP:
            raise ConfigurationError(
                f"exact enumeration supports at most {EXACT_ENUMERATION_CAP} "
                f"terms, got {count}"
            )


def _sign_rows(start: int, stop: int, n: int) -> np.ndarray:
    """Rows of the full sign enumeration: bit b of the code -> sign of term b."""
    codes = np.arange(start, stop, dtype=np.uint32)
    return _signs(codes[:, None] & (np.uint32(1) << np.arange(n, dtype=np.uint32)))


def _sign_blocks(count: int, ensemble: SignEnsemble):
    """Yield complex sign matrices covering the ensemble in a fixed order."""
    if ensemble.mode == "exact":
        require_enumerable(ensemble, count)
        total = 1 << count
        for start in range(0, total, _ENUMERATION_CHUNK):
            yield _sign_rows(start, min(start + _ENUMERATION_CHUNK, total), count)
    else:
        # Substream 1: the coefficients are complex_normals draws on stream
        # 0, so a run that shares one seed still draws its signs apart.
        rng = philox_generator(ensemble.seed, 0, 1)
        remaining = ensemble.samples
        while remaining > 0:
            block = min(remaining, _ENUMERATION_CHUNK)
            draws = rng.integers(0, 2, size=(block, count))
            yield _signs(draws)
            remaining -= block


def _ensemble_rows(count: int, ensemble: SignEnsemble) -> int:
    """The number of sign vectors the ensemble averages over."""
    return (1 << count) if ensemble.mode == "exact" else ensemble.samples


def _sign_sum_exponents(exponents) -> list[float]:
    """The distinct exponents as floats, in order; the sign-sum comparisons
    hold for p >= 1 only."""
    exponents = list(dict.fromkeys(float(p) for p in exponents))
    for p in exponents:
        if not p >= 1:
            raise ConfigurationError(f"the sign-sum comparison requires p >= 1, got {p}")
        if p == math.inf:
            raise ConfigurationError(f"the sign-sum comparison requires a finite p, got {p}")
    return exponents


def _sign_moments(coefficients: np.ndarray, ensemble: SignEnsemble, exponents) -> np.ndarray:
    """E|S|^p over the ensemble for every array of a stack, as [p, c].

    ``coefficients`` is [c, n], where S = sum_j a_j r_j, or [c, J, K], where
    S = sum_jk a_jk r_j r_k over one shared sign sequence of length max(J, K).
    The arrays are taken in byte_chunks whose [chunk, rows] tables of |S|
    fit the budget; a chunk holds one array when its rows alone do not.
    Each chunk makes one pass over the ensemble: every sign block fills its
    columns of the table with one product per array.  The moments take one
    np.mean(|S|^p, axis=1) per exponent; a moment beyond the binary64 range
    is inf, without a warning.

    The sign blocks are built once per call and kept for every chunk when
    the ensemble holds no more entries than one block of the largest exact
    ensemble, _ENUMERATION_CHUNK rows of EXACT_ENUMERATION_CAP terms, which
    a pass may hold anyway; a larger ensemble is rebuilt block by block for
    each chunk.  At 16 exact terms a chunk holds 2 of 500 arrays, so
    rebuilding there would build the blocks 250 times.
    """
    sign_count = max(coefficients.shape[1:])
    total = _ensemble_rows(sign_count, ensemble)
    kept = None
    if total * sign_count <= _ENUMERATION_CHUNK * EXACT_ENUMERATION_CAP:
        kept = list(_sign_blocks(sign_count, ensemble))

    def sums(rows, a):
        if a.ndim == 1:
            return rows @ a
        rows_j, cols_k = a.shape
        return ((rows[:, :rows_j] @ a) * rows[:, :cols_k]).sum(axis=1)

    moments = np.empty((len(exponents), len(coefficients)))
    for chunk in byte_chunks(len(coefficients), total * np.dtype(float).itemsize):
        arrays = coefficients[chunk]
        table = np.empty((len(arrays), total))
        start = 0
        for rows in kept if kept is not None else _sign_blocks(sign_count, ensemble):
            for a, magnitudes in zip(arrays, table):
                np.abs(sums(rows, a), out=magnitudes[start : start + len(rows)])
            start += len(rows)
        with np.errstate(over="ignore"):
            for k, p in enumerate(exponents):
                moments[k, chunk] = np.mean(table**p, axis=1)
    return moments


# ---------------------------------------------------------------------------
# Per-sample checks


@dataclass(frozen=True)
class CheckSample:
    """One corpus member's two sides and their ratio.

    ``closed_form`` is the ratio's closed form where the checker computes
    one (the Parseval form of the p = 2 square-function ratio); it is not
    written to the per-sample CSV.
    """

    sample_id: int
    rank: int
    lhs: float
    rhs: float
    ratio: float
    degenerate: bool = False
    closed_form: float | None = field(default=None, compare=False)


_EXPONENT_FLOORS = {"lp": (1.0, "1"), "lp_density": (0.5, "1/2")}


def _checked_exponents(checker: str, exponents) -> list[float]:
    """The exponents as floats; each must exceed the checker's floor."""
    floor, label = _EXPONENT_FLOORS[checker]
    exponents = [float(p) for p in exponents]
    for p in exponents:
        if not p > floor:
            raise ConfigurationError(f"the {checker} check requires p > {label}, got {p}")
        if p == math.inf:
            raise ConfigurationError(f"the {checker} check requires a finite p, got {p}")
    return exponents


# A sampler checks a chunk of members at every exponent in one pass.  It is
# called as sampler(grid, chunk, exponents, blocks, first), where member m of
# the chunk has sample id first + m, and returns each member's samples, one
# per exponent; a degenerate member's samples are all marked degenerate.


def _degenerate(sample_id: int, rank: int, exponents) -> list[CheckSample]:
    return [CheckSample(sample_id, rank, 0.0, 0.0, math.inf, degenerate=True)] * len(exponents)


def _norm_ratios(grid, lhs_fields, rhs_fields, exponents, rank, first):
    """||lhs_m||_p / ||rhs_m||_p for each member m of two field stacks [c, ...].

    Each side takes one |.|^p reduction per exponent over the whole stack.
    A member whose rhs vanishes at any exponent is degenerate at all.
    """
    lhs_magnitudes, rhs_magnitudes = np.abs(lhs_fields), np.abs(rhs_fields)
    lhs = [lp_norms(grid, lhs_magnitudes, p) for p in exponents]
    rhs = [lp_norms(grid, rhs_magnitudes, p) for p in exponents]
    members = []
    for m in range(len(rhs_magnitudes)):
        sides = [(norms[m], bounds[m]) for norms, bounds in zip(lhs, rhs)]
        if any(bound == 0.0 for _, bound in sides):
            members.append(_degenerate(first + m, rank, exponents))
        else:
            members.append(
                [CheckSample(first + m, rank, norm, bound, norm / bound) for norm, bound in sides]
            )
    return members


def _parseval_ratios(blocks: DyadicBlockSet, spectra: np.ndarray) -> list[float | None]:
    """The p = 2 closed form of each member, from its unnormalized spectrum.

    By Parseval the ratio squared is the energy-weighted mean of
    sum_j Psi_j(xi)^2 over the member's spectrum; None for a zero member.
    """
    grid = blocks.grid
    energy = abs_squared(spectra * grid.cell_volume).reshape(len(spectra), -1)
    weighted = np.sum(block_squared_sum(blocks).reshape(-1) * energy, axis=1)
    totals = np.sum(energy, axis=1)
    return [
        math.sqrt(w / total) if total != 0.0 else None
        for w, total in zip(weighted.tolist(), totals.tolist())
    ]


def _lp_function_samples(grid, values, exponents, blocks, first):
    """Square-function samples of a stack of fields [c, ...]:
    lhs = || (sum_j |P_j u|^2)^(1/2) ||_p, rhs = ||u||_p.

    One forward transform serves the block kernel and, at p = 2, the
    Parseval closed form each p = 2 sample carries.
    """
    spectra = fft_stack(grid, values)[:, None]
    energy = block_energy_stack(grid, spectra, np.ones((len(values), 1)), blocks.symbols)
    members = _norm_ratios(grid, np.sqrt(energy), values, exponents, 1, first)
    squared = [position for position, p in enumerate(exponents) if p == 2.0]
    if squared:
        closed_forms = _parseval_ratios(blocks, spectra[:, 0])
        for samples, closed_form in zip(members, closed_forms):
            for position in () if samples[0].degenerate else squared:
                samples[position] = replace(samples[position], closed_form=closed_form)
    return members


def _lp_density_samples(grid, ops, exponents, blocks, first):
    """Density samples of a list of operators of one rank:
    lhs = ||sum_j rho_{P_j gamma P_j}||_p, rhs = ||rho_gamma||_p."""
    functions = np.stack([op.eigenfunctions for op in ops])
    weights = np.stack([op.eigenvalues for op in ops])
    lhs_fields = block_energy_stack(grid, fft_stack(grid, functions), weights, blocks.symbols)
    rhs_fields = density_stack(grid, functions, weights)
    return _norm_ratios(grid, lhs_fields, rhs_fields, exponents, ops[0].rank, first)


def gns_exponent(dimension: int) -> float:
    """The critical exponent 2 + 4/d of the interpolation inequality."""
    return 2.0 + 4.0 / dimension


def _gns_samples(grid, values, exponents, blocks, first):
    """gns samples of a stack of fields [c, ...]: its exponent is fixed by the
    dimension, so each member has one sample, under every label.

    lhs = ||u||_{2+4/d}; rhs = ||u||_2^{2/(d+2)} * (gradient energy)^{d/(2(d+2))}.
    A zero or constant member is degenerate.
    """
    d = grid.dimension
    magnitudes = np.abs(values)
    norms2 = lp_norms(grid, magnitudes, 2.0)
    gradient_energies = spectral_trace(
        grid, abs_squared(forward_transform_stack(grid, values)), 1.0
    )
    norms = lp_norms(grid, magnitudes, gns_exponent(d))
    members = []
    for m, (norm2, gradient_energy, lhs) in enumerate(zip(norms2, gradient_energies, norms)):
        if norm2 == 0.0 or gradient_energy == 0.0:
            members.append(_degenerate(first + m, 1, exponents))
        else:
            rhs = norm2 ** (2.0 / (d + 2.0)) * gradient_energy ** (d / (2.0 * (d + 2.0)))
            members.append([CheckSample(first + m, 1, lhs, rhs, lhs / rhs)] * len(exponents))
    return members


def summed_block_density(op: FiniteRankOperator, blocks: DyadicBlockSet) -> np.ndarray:
    """sum_j density(P_j gamma P_j) from the batched block kernel, on the grid."""
    if blocks.grid != op.grid:
        raise GridMismatchError("operator and block set live on different grids")
    spectra = fft_stack(op.grid, op.eigenfunctions[None])
    return block_energy_stack(op.grid, spectra, op.eigenvalues[None], blocks.symbols)[0]


def duality_identity_check(f: np.ndarray, g: np.ndarray, blocks: DyadicBlockSet) -> float:
    """Residual of the pairing identity <g, f> = sum_j <companion_j g, P_j f>
    for two fields f and g on the block set's grid.

    Returns |difference| / (||f||_2 ||g||_2); exact reproduction of each block
    by its companion makes this a pure rounding residual.  One forward
    transform serves f and g, and one inverse transform each gives every
    block piece P_j f and every companion piece companion_j g.
    """
    if blocks.family != SMOOTH:
        raise UnsupportedFamilyError("the pairing identity needs smooth companions")
    grid = blocks.grid
    if np.shape(f) != grid.shape or np.shape(g) != grid.shape:
        raise GridMismatchError(
            f"fields of shapes {np.shape(f)} and {np.shape(g)} do not fit grid shape {grid.shape}"
        )
    values = np.stack([f, g])
    spectra = forward_transform_stack(grid, values)
    pieces = inverse_transform_stack(grid, spectra[0] * blocks.symbols)
    companions = inverse_transform_stack(grid, spectra[1] * blocks.companions)
    direct = grid.cell_volume * np.vdot(g, f)
    split = grid.cell_volume * np.vdot(companions, pieces)
    scale = math.prod(lp_norms(grid, np.abs(values), 2))
    if scale == 0.0:
        return 0.0
    return float(abs(direct - split) / scale)


# ---------------------------------------------------------------------------
# Kinetic-energy inequalities


def lt_exponent(grid: TorusGrid, a: float, b: float) -> float:
    """The density exponent 1 + 2b/(d + 2a) at powers a > -d/2 and b >= 0, both
    finite, where the largest lattice symbol |xi|^(2b), (d (pi N / L)^2)^b,
    is a binary64 number."""
    d = grid.dimension
    if not (math.isfinite(a) and a > -d / 2.0):
        raise ConfigurationError(f"power a must be finite and exceed -d/2 = {-d / 2.0}, got {a}")
    if not (math.isfinite(b) and b >= 0):
        raise ConfigurationError(f"power b must be finite and nonnegative, got {b}")
    top = d * (math.pi * grid.points_per_axis / grid.box_length) ** 2
    try:
        top**b
    except OverflowError:
        raise ConfigurationError(
            f"power b = {b:g} puts the lattice symbol |xi|^(2b) outside the binary64 range"
        ) from None
    return 1.0 + 2.0 * b / (d + 2.0 * a)


@dataclass(frozen=True)
class GeneralizedLTResult:
    rank: int
    power_a: float
    power_b: float
    exponent: float
    kinetic: float
    density_power_integral: float
    ratio: float


def _lt_result(grid: TorusGrid, rank: int, a: float, b: float, w, rho) -> GeneralizedLTResult:
    """tr (-Laplacian)^b gamma from the spectral density w against
    integral rho^(1 + 2b/(d + 2a)) from the density rho, and their ratio.

    A zero density, then a zero kinetic trace (an operator concentrated on
    the zero mode), raises DegenerateInputError.
    """
    exponent = lt_exponent(grid, a, b)
    kinetic = spectral_trace(grid, w, b)
    denominator = float(power_integrals(grid, rho[None], exponent)[0])
    if denominator == 0.0:
        raise DegenerateInputError("zero density; the ratio is undefined")
    if kinetic == 0.0:
        raise DegenerateInputError(
            "operator concentrated on the zero mode; the comparison degenerates"
        )
    return GeneralizedLTResult(rank, a, b, exponent, kinetic, denominator, kinetic / denominator)


def lieb_thirring_check(op: FiniteRankOperator) -> GeneralizedLTResult:
    """Kinetic trace against the density power integral, rank-uniform side:
    ratio = tr (-Laplacian) gamma / integral rho^(1 + 2/d) of a unit-ball
    operator, the (a, b) = (0, 1) case of generalized_lt_check."""
    require_contract(op, UNIT_BALL)
    return _lt_result(op.grid, op.rank, 0.0, 1.0, op.spectral_density, op.density_values)


def generalized_lt_check(op: FiniteRankOperator, a: float, b: float) -> GeneralizedLTResult:
    """Kinetic comparison at powers (a, b): tr (-Laplacian)^b gamma versus
    integral rho^(1 + 2b/(d + 2a)), for operators below (-Laplacian)^a."""
    a, b = float(a), float(b)
    lt_exponent(op.grid, a, b)  # refuses the powers before the contract is checked
    require_contract(op, power_bounded(a))
    return _lt_result(op.grid, op.rank, a, b, op.spectral_density, op.density_values)


@dataclass(frozen=True)
class ChainResult:
    """The three rungs of the block-decomposed kinetic bound."""

    kinetic: float
    block_kinetic: float
    block_density_bound: float
    passed: bool



def kinetic_chain(grid: TorusGrid, w: np.ndarray, blocks: DyadicBlockSet) -> ChainResult:
    """Chain tr(-Laplacian)gamma >= sum_j tr(-Laplacian)P_j gamma P_j
    >= (1/4) sum_j 2^(2j) integral rho_{P_j gamma P_j} over interior blocks,
    from the spectral density w(xi) = sum_k lambda_k |coeffs_k(xi)|^2.

    The 1/4 is the spectral floor |xi|^2 >= 2^(2j)/4 on an interior block's
    support.  Both inequalities are asserted with relative slack 1e-10.
    Every rung is a Parseval sum of w:

        t0 = L^{-d} sum_xi |xi|^2 w
        t1 = L^{-d} sum_j sum_xi |xi|^2 Psi_j^2 w
        t2 = sum_{interior j} (1/4) 4^j L^{-d} sum_xi Psi_j^2 w
    """
    if blocks.family != SMOOTH:
        raise UnsupportedFamilyError("the chain needs the smooth block family")
    t0 = spectral_trace(grid, w, 1.0)
    kinetic_w = grid.frequency_norms_squared * w
    t1 = float(np.sum(block_squared_sum(blocks) * kinetic_w) / grid.volume)
    t2 = 0.0
    for j in blocks.interior_indices:
        mass = float(np.sum(blocks.symbol(j) ** 2 * w) / grid.volume)
        t2 += 0.25 * 2.0 ** (2 * j) * mass
    slack0 = CHAIN_RTOL * max(abs(t0), abs(t1), 1e-300)
    slack1 = CHAIN_RTOL * max(abs(t1), abs(t2), 1e-300)
    passed = (t1 <= t0 + slack0) and (t2 <= t1 + slack1)
    return ChainResult(t0, t1, t2, passed)


def lt_chain_check(op: FiniteRankOperator, blocks: DyadicBlockSet) -> ChainResult:
    """kinetic_chain of a unit-ball operator, on its spectral density."""
    require_contract(op, UNIT_BALL)
    return kinetic_chain(op.grid, op.spectral_density, blocks)


def fermi_lattice_oracle(grid: TorusGrid, chemical_potential: float) -> GeneralizedLTResult:
    """The Fermi sea's (a, b) = (0, 1) comparison from direct lattice sums,
    bypassing transforms: its density is the constant rank/volume, so both
    sides reduce to sums over the modes below the chemical potential."""
    mu = finite_chemical_potential(chemical_potential)
    nsq = grid.frequency_norms_squared.reshape(-1)
    below = nsq[nsq <= mu]  # never empty: mu > 0 keeps the zero mode
    rank = int(below.size)
    kinetic = float(below.sum())
    exponent = lt_exponent(grid, 0.0, 1.0)
    denominator = grid.volume * (rank / grid.volume) ** exponent
    return GeneralizedLTResult(
        rank, 0.0, 1.0, exponent, kinetic, denominator, kinetic / denominator
    )


def fermi_sweep(grid: TorusGrid, chemical_potentials) -> tuple[list[dict], list[np.ndarray]]:
    """Fermi-sea comparison across a ladder of chemical potentials: per rung
    of fock_operator.sea_ladder, a row and the spectral density w.

    A row holds the rung's ratio, equal bit for bit to lieb_thirring_check
    of the sea's operator (unit weights on its plane waves), the lattice-sum
    oracle's ratio and their relative gap, and the ratio of the weak bound:
    the rank-dependent bound rank^(2/d) tr (-Laplacian) gamma that
    interpolation and the triangle inequality give, over the same integral.
    Its ratio degrades with rank, which is the point of comparing.
    """
    chemical_potentials = list(chemical_potentials)
    rows, densities = [], []
    for mu, (rank, w, rho) in zip(chemical_potentials, sea_ladder(grid, chemical_potentials)):
        result = _lt_result(grid, rank, 0.0, 1.0, w, rho)
        oracle = fermi_lattice_oracle(grid, mu).ratio
        weak_bound = float(rank) ** (2.0 / grid.dimension) * result.kinetic
        rows.append(
            {
                "chemical_potential": float(mu),
                "rank": rank,
                "ratio": result.ratio,
                "weak_ratio": weak_bound / result.density_power_integral,
                "oracle_ratio": oracle,
                "oracle_gap": abs(result.ratio - oracle) / oracle,
            }
        )
        densities.append(w)
    return rows, densities


# ---------------------------------------------------------------------------
# Dyadic sequence bound


@dataclass(frozen=True)
class SequenceLemmaResult:
    lhs: float
    rhs: float
    split_index: int | None
    constant: float | None
    ratio: float
    passed: bool



class _LemmaRows(NamedTuple):
    """The sequence bound for each row of a table; ``bounded`` marks rhs != 0,
    the rows whose split index and constant are defined."""

    lhs: np.ndarray
    rhs: np.ndarray
    split_index: np.ndarray
    constant: np.ndarray
    ratio: np.ndarray
    passed: np.ndarray
    bounded: np.ndarray


def _scalar_map(fn, values: np.ndarray) -> np.ndarray:
    """``fn`` on each value as a Python float.

    numpy's SIMD pow and log2 differ from the C library's in the last place
    on some inputs; the C library keeps every row equal to the
    one-sequence definition, and so every reported maximum.
    """
    return np.array([fn(v) for v in values.tolist()], dtype=float)


def _sequence_lemma_rows(indices: np.ndarray, table: np.ndarray, dimension: int) -> _LemmaRows:
    """Bound (sum_j alpha_j)^(1+2/d) by an explicit constant times sum_j 2^(2j) alpha_j,
    for every row alpha of ``table`` (columns at the increasing ``indices``).

    Requires 0 <= alpha_j <= 2^(j d).  The head of the sum is dominated by the
    geometric tail A 2^(d J) with A = 1/(1 - 2^-d), the rest by 2^(-2J) times
    the right side; the split index J minimizing that two-term bound gives the
    constant.  Both sums run over the columns left to right.
    """
    d = int(dimension)
    if d not in (1, 2, 3):
        raise ConfigurationError(f"dimension must be 1, 2 or 3, got {d}")
    caps = np.ldexp(1.0, indices * d)
    violations = np.argwhere((table < 0) | (table > caps * (1.0 + 1e-12)))
    if violations.size:
        row, k = violations[0]
        raise ValueError(
            f"alpha_{int(indices[k])} = {float(table[row, k])} violates the "
            f"admissibility cap {float(caps[k])}"
        )
    weights = np.ldexp(1.0, 2 * indices)
    total = np.zeros(table.shape[0])
    rhs = np.zeros(table.shape[0])
    for k in range(indices.size):
        total += table[:, k]
        rhs += weights[k] * table[:, k]
    exponent = 1.0 + 2.0 / d
    lhs = _scalar_map(lambda t: t**exponent, total)

    bounded = rhs != 0.0
    live = rhs[bounded]
    head_constant = 1.0 / (1.0 - 2.0 ** (-d))

    def two_term_bound(j_split: np.ndarray) -> np.ndarray:
        return head_constant * np.ldexp(1.0, d * j_split) + np.ldexp(1.0, -2 * j_split) * live

    critical = _scalar_map(math.log2, 2.0 * live / (head_constant * d)) / (d + 2.0)
    low = np.floor(critical).astype(np.int64)
    high = np.ceil(critical).astype(np.int64)
    split = np.where(two_term_bound(high) < two_term_bound(low), high, low)
    split_index = np.zeros(rhs.shape, dtype=np.int64)
    split_index[bounded] = split
    constant = np.zeros(rhs.shape)
    constant[bounded] = _scalar_map(lambda t: t**exponent, two_term_bound(split)) / live
    ratio = np.zeros(rhs.shape)
    ratio[bounded] = lhs[bounded] / live
    passed = np.where(bounded, lhs <= constant * rhs * (1.0 + 1e-12), lhs == 0.0)
    return _LemmaRows(lhs, rhs, split_index, constant, ratio, passed, bounded)


def sequence_lemma_bound(alpha: dict, dimension: int) -> SequenceLemmaResult:
    """The sequence bound for one sequence {j: alpha_j}: a one-row table."""
    items = sorted((int(j), float(v)) for j, v in alpha.items())
    indices = np.array([j for j, _ in items], dtype=np.int64)
    rows = _sequence_lemma_rows(indices, np.array([[v for _, v in items]]), dimension)
    lhs, rhs, passed = float(rows.lhs[0]), float(rows.rhs[0]), bool(rows.passed[0])
    if not rows.bounded[0]:
        return SequenceLemmaResult(lhs, rhs, None, None, 0.0, passed)
    return SequenceLemmaResult(
        lhs, rhs, int(rows.split_index[0]), float(rows.constant[0]), float(rows.ratio[0]), passed
    )


def sequence_lemma_trials(
    dimension: int,
    trials: int,
    seed: int,
    j_range: tuple[int, int] = (-10, 10),
) -> dict:
    """Run the sequence bound over random admissible sequences plus the
    single-spike sharpness witness; aggregates worst cases.

    The trials are drawn and bounded in byte_chunks of the trial axis, each
    chunk one (chunk, J) table bounded in one pass over its rows.  A trial is
    sized as four rows of its 2J+1 uniforms, room for the draw and for the
    masks and products that the draw and the bound build from it.  Every
    row is bounded on its own, so the chunking changes no count or maximum.
    """
    require_counts(trial_count=trials)
    lo, hi = spike_window(dimension, j_range)
    trial_bytes = 4 * (2 * (hi - lo + 1) + 1) * np.dtype(float).itemsize
    failures, max_ratio, max_constant = 0, 0.0, 0.0
    for chunk in byte_chunks(trials, trial_bytes):
        count = min(chunk.stop, trials) - chunk.start
        table = spike_sequences(dimension, (lo, hi), count, seed, index=chunk.start)
        rows = _sequence_lemma_rows(table.indices, table.values, dimension)
        failures += int(np.count_nonzero(~rows.passed))
        max_ratio = float(rows.ratio.max(initial=max_ratio))
        max_constant = float(rows.constant.max(initial=max_constant))
    spike = sequence_lemma_bound(single_spike(dimension, j=3), dimension)
    return {
        "dimension": dimension,
        "trials": trials,
        "seed": seed,
        "failures": failures,
        "max_ratio": max_ratio,
        "max_constant": max_constant,
        "spike_ratio": spike.ratio,
        "passed": failures == 0 and abs(spike.ratio - 1.0) <= 1e-12,
    }


# ---------------------------------------------------------------------------
# Envelope estimation over corpora


@dataclass
class RatioReport:
    """Aggregated per-sample ratios for one inequality at one exponent.

    The aggregates, and the ids of the samples at the minimum and the
    maximum (the lowest id on a tie), read only the finite ratios of
    non-degenerate samples.  ``samples`` stays in memory for the CSV rows;
    the report cell (``to_dict``) carries only the aggregates.
    """

    name: str
    p: float | None
    family: str
    profile_kind: str
    grid: dict | None
    seed: int
    samples: list
    envelope: tuple | None = None
    # Computed from the samples and the envelope; the constructor takes none.
    degenerate_count: int = field(default=0, init=False)
    ratio_min: float | None = field(default=None, init=False)
    ratio_max: float | None = field(default=None, init=False)
    ratio_mean: float | None = field(default=None, init=False)
    ratio_median: float | None = field(default=None, init=False)
    min_sample_id: int | None = field(default=None, init=False)
    max_sample_id: int | None = field(default=None, init=False)
    passed: bool | None = field(default=None, init=False)

    def __post_init__(self) -> None:
        finite = [s for s in self.samples if not s.degenerate and math.isfinite(s.ratio)]
        self.degenerate_count = sum(1 for s in self.samples if s.degenerate)
        if finite:
            ratios = [s.ratio for s in finite]
            self.ratio_min = min(ratios)
            self.ratio_max = max(ratios)
            self.ratio_mean = statistics.fmean(ratios)
            self.ratio_median = statistics.median(ratios)
            self.min_sample_id = min(s.sample_id for s in finite if s.ratio == self.ratio_min)
            self.max_sample_id = min(s.sample_id for s in finite if s.ratio == self.ratio_max)
        # Without an envelope the cell is unjudged: its verdict stays None.
        if self.envelope is not None and finite:
            lo, hi = self.envelope
            self.passed = lo <= self.ratio_min and self.ratio_max <= hi
        elif self.envelope is not None:
            self.passed = False

    @property
    def sample_count(self) -> int:
        return len(self.samples)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "p": self.p,
            "family": self.family,
            "profile_kind": self.profile_kind,
            "grid": self.grid,
            "seed": self.seed,
            "sample_count": self.sample_count,
            "degenerate_count": self.degenerate_count,
            "aggregates": {
                "min": self.ratio_min,
                "max": self.ratio_max,
                "mean": self.ratio_mean,
                "median": self.ratio_median,
            },
            "min_sample_id": self.min_sample_id,
            "max_sample_id": self.max_sample_id,
            "envelope": list(self.envelope) if self.envelope is not None else None,
            "passed": self.passed,
        }


def load_envelopes(path=None, names=None) -> dict:
    """Frozen ratio envelopes; the packaged defaults unless a path is given.

    Raises ConfigurationError unless the file maps envelope names (one of
    ``names``, when given) to "d<k>" keys, each to exponent keys as
    ``envelope_for`` looks them up, each to a pair of finite floats lo <= hi.
    """
    if path is None:
        resource = importlib.resources.files("lplab").joinpath("data/envelopes.json")
        with resource.open("r", encoding="utf-8") as handle:
            envelopes = json.load(handle)
    else:
        with open(path, "r", encoding="utf-8") as handle:
            envelopes = json.load(handle)
    _check_envelopes(envelopes, names)
    return envelopes


def exponent_key(p: float | None) -> str:
    """The envelope key of exponent p, one that reads back as p:
    format(p, "g") when float() of it equals p, otherwise repr(p) (2 + 4/3
    is "3.3333333333333335", not "3.33333"); "all" when p is None."""
    if p is None:
        return "all"
    p = float(p)
    key = format(p, "g")
    return key if float(key) == p else repr(p)


def _is_exponent_key(key: str) -> bool:
    if key == "all":
        return True
    try:
        p = float(key)
    except ValueError:
        return False
    return math.isfinite(p) and key == exponent_key(p)


def _check_envelopes(envelopes, names) -> None:
    def bad(where, what):
        raise ConfigurationError(f"envelope file: {where}: {what}")

    if not isinstance(envelopes, dict):
        bad("top level", "expected a JSON object")
    for name, by_dim in envelopes.items():
        if names is not None and name not in names:
            bad(name, f"unknown envelope, expected one of {tuple(names)}")
        if not isinstance(by_dim, dict):
            bad(name, "expected an object of dimensions")
        for dim, by_p in by_dim.items():
            if not re.fullmatch(r"d[0-9]+", dim) or not isinstance(by_p, dict):
                bad(f"{name}.{dim}", 'expected a "d<k>" key holding an object of exponents')
            for p, pair in by_p.items():
                where = f"{name}.{dim}.{p}"
                if not _is_exponent_key(p):
                    bad(
                        where,
                        "exponent keys are written as exponent_key(p): format(p, 'g'), "
                        "or repr(p) where that does not read back as p",
                    )
                if not (
                    isinstance(pair, list)
                    and len(pair) == 2
                    and all(type(v) in (int, float) and math.isfinite(v) for v in pair)
                    and pair[0] <= pair[1]
                ):
                    bad(where, f"expected [lo, hi], two finite numbers with lo <= hi, got {pair!r}")


def envelope_for(envelopes: dict, name: str, dimension: int, p: float | None) -> tuple | None:
    """Look up the [lo, hi] envelope for (inequality, dimension, exponent).

    The cell is keyed by exponent_key(p), which reads back as p, so a cell
    judges only its own exponent, not one that format(p, 'g') rounds onto
    its key (2.0000001 is keyed "2.0000001", not "2").
    """
    pair = envelopes.get(name, {}).get(f"d{dimension}", {}).get(exponent_key(p))
    if pair is None:
        return None
    return (float(pair[0]), float(pair[1]))


_SAMPLERS = {
    "lp": _lp_function_samples,
    "lp_density": _lp_density_samples,
    "gns": _gns_samples,
}


def estimate_envelope(
    spec: CorpusSpec,
    checker: str,
    exponents: Sequence[tuple[float | None, tuple | None]],
    grid: TorusGrid,
    family: str = SMOOTH,
    profile_kind: str = "exp",
    name: str | None = None,
) -> list[RatioReport]:
    """Run one checker over a corpus at several exponents and aggregate the ratios.

    ``exponents`` is a sequence of (p, envelope) pairs; the result holds one
    report per pair, in order.  For "gns" the exponent is fixed by the
    dimension (gns_exponent); p is None or that exponent.  gns builds no
    blocks, so its reports name the family and profile "none", whatever
    ``family`` and ``profile_kind`` say.

    The corpus is evaluated in field_chunks of members (one field per member
    for gns, one per block and rank otherwise).  Each chunk is drawn in one
    ``CorpusSpec.members`` call and checked in one pass for every exponent:
    one forward and one inverse transform for all its members and blocks,
    and one |.|^p reduction per exponent and side.  Each member is built
    once and nothing is called per member: a check that needs more of the
    members belongs in the sampler.  An "lp" run that includes p = 2 gives
    each p = 2 sample its Parseval closed form.
    """
    if checker not in _SAMPLERS:
        raise ConfigurationError(
            f"unknown checker {checker!r}, expected one of {tuple(_SAMPLERS)}"
        )
    exponents = list(exponents)
    ps = [p for p, _ in exponents]
    if checker == "gns":
        fixed = gns_exponent(grid.dimension)
        if any(p is not None and float(p) != fixed for p in ps):
            raise ConfigurationError(f"the gns check takes only p = 2 + 4/d = {fixed:g}, got {ps}")
        ps = [fixed] * len(ps)
    else:
        ps = _checked_exponents(checker, ps)
    blocks = None
    fields_per_member = 1
    if checker in ("lp", "lp_density"):
        blocks = build_blocks(grid, family, profile_kind)
        fields_per_member = blocks.block_count * int(spec.params.get("rank", 1))
        profile_kind = "indicator" if family == SHARP else profile_kind
    else:
        family = profile_kind = "none"
    members = []
    for rows in field_chunks(grid, spec.count, fields_per_member):
        start, stop = rows.start, min(rows.stop, spec.count)
        chunk = spec.members(grid, start, stop - start)
        members.extend(_SAMPLERS[checker](grid, chunk, ps, blocks, start))
    grid_params = {
        "dimension": grid.dimension,
        "box_length": grid.box_length,
        "points_per_axis": grid.points_per_axis,
    }
    return [
        RatioReport(
            name=name or checker,
            p=p,
            family=family,
            profile_kind=profile_kind,
            grid=grid_params,
            seed=spec.seed,
            samples=[samples[position] for samples in members],
            envelope=envelope,
        )
        for position, (p, (_, envelope)) in enumerate(zip(ps, exponents))
    ]


def sign_sum_samples(coefficients, exponents, ensemble: SignEnsemble) -> list[list[CheckSample]]:
    """The sign-sum samples of a stack of coefficient arrays, as [p][c]: one
    list per distinct exponent, one sample per array.

    A [c, n] stack is classical: lhs = E|sum_j a_j r_j|^p, rhs = the l2 power
    (sum_j |a_j|^2)^(p/2).  Its reciprocal is the upper direction, so a
    two-sided envelope on this one ratio bounds both constants.  A [c, J, K]
    stack is a tensor, one-sided: lhs = the l2 power, rhs =
    E|sum_jk a_jk r_j r_k|^p over one shared sign sequence of length
    max(J, K).  A zero array is degenerate; so is a tensor whose sign sums
    cancel identically (its expectation vanishes while its mass does not).
    A moment or an l2 power beyond the binary64 range raises
    DegenerateInputError naming p.
    """
    exponents = _sign_sum_exponents(exponents)
    coefficients = np.asarray(coefficients, dtype=complex)
    if coefficients.ndim not in (2, 3):
        raise ConfigurationError(
            f"sign sums take a [c, n] or [c, J, K] stack, got shape {coefficients.shape}"
        )
    tensor = coefficients.ndim == 3
    masses = np.sum(abs_squared(coefficients).reshape(len(coefficients), -1), axis=1).tolist()
    moments = _sign_moments(coefficients, ensemble, exponents)
    samples = []
    for p, expectations in zip(exponents, moments.tolist()):
        try:
            l2_powers = [l2 ** (p / 2.0) for l2 in masses]
        except OverflowError:  # a float power raises where numpy's gives inf
            l2_powers = [math.inf]
        if not all(math.isfinite(side) for side in expectations + l2_powers):
            raise DegenerateInputError(
                f"the sign-sum moments or l2 powers at p = {p:g} leave the binary64 range"
            )
        row = []
        for index, (l2, l2_power, expectation) in enumerate(zip(masses, l2_powers, expectations)):
            if tensor:
                sides = (l2_power, expectation)
                degenerate = l2 == 0.0 or expectation < DEGENERACY_RTOL * l2_power
            else:
                sides = (expectation, l2_power)
                degenerate = l2 == 0.0
            ratio = math.inf if degenerate else sides[0] / sides[1]
            row.append(CheckSample(index, 1, *sides, ratio, degenerate))
        samples.append(row)
    return samples


def khinchine_reports(
    shape: tuple[int, ...],
    p_list,
    count: int,
    seed: int,
    ensemble: SignEnsemble | None = None,
    envelopes: dict | None = None,
) -> list[RatioReport]:
    """Sign-sum comparison over ``count`` random complex arrays of ``shape``:
    one report per distinct exponent, array i the complex_normals draw of
    index i.

    Shape (n,) is classical, its cells named "khinchine": the per-sample
    ratio is expectation / l2 power (the lower direction), and its reciprocal
    is the upper direction, so a two-sided envelope on this single ratio
    bounds both constants.  Shape (n, n) is a tensor, its cells named
    "khinchine_tensor" (see sign_sum_samples).
    """
    name = "khinchine" if len(shape) == 1 else "khinchine_tensor"
    require_counts(term_count=shape[0], sample_count=count)
    exponents = _sign_sum_exponents(p_list)
    coefficients = complex_normals(shape, seed, range(count))
    samples = sign_sum_samples(coefficients, exponents, ensemble or SignEnsemble.exact())
    return [
        RatioReport(
            name, p, family="none", profile_kind="none", grid=None, seed=seed, samples=row,
            envelope=envelope_for(envelopes, name, 0, p) if envelopes else None,
        )
        for p, row in zip(exponents, samples)
    ]
