"""Inequality checkers and empirical constant envelopes.

Each checker computes the two sides of one comparability statement and
reports the ratio; the envelope estimator runs a checker over a seeded
corpus and compares the observed ratio range against frozen bounds.  The
checkers prove nothing: they measure, and the measured envelopes stand in
for the existence constants the statements assert.
"""

from __future__ import annotations

import importlib.resources
import json
import math
import re
import statistics
from collections.abc import Sequence
# Nothing here starts a process; the name stays bound because perfbench's
# span tracer (perfbench/spans.py) patches it.
from concurrent.futures import ProcessPoolExecutor  # noqa: F401
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .corpus import CorpusSpec, philox_generator, single_spike, spike_sequences
from .dyadic_partition import (
    SMOOTH,
    DyadicBlockSet,
    build_blocks,
    build_profile,
    block_squared_sum,
)
from .errors import (
    ConfigurationError,
    ContractViolationError,
    DegenerateInputError,
    GridMismatchError,
    UnsupportedFamilyError,
)
from .fock_operator import (
    FiniteRankOperator,
    UNIT_BALL,
    density,
    fermi_sea,
    kinetic_trace,
    power_bounded,
    validate_contract,
)
from .projectors import project, project_companion, square_function
from .torus_grid import (
    GridFunction,
    TorusGrid,
    abs_squared,
    forward_transform,
    inner_product,
    kinetic_form,
    lp_norm,
    spectral_density,
    weighted_block_energy,
)

EXACT_ENUMERATION_CAP = 20
_ENUMERATION_CHUNK = 1 << 16
SIGN_TABLE_BYTES = 1 << 24
DEGENERACY_RTOL = 1e-12
CHAIN_RTOL = 1e-10
DUALITY_TOLERANCE = 1e-10


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
            raise ValueError(f"unknown ensemble mode {self.mode!r}")
        if self.mode == "monte_carlo" and self.samples < 1:
            raise ValueError("monte_carlo ensembles need at least one sample")

    @classmethod
    def exact(cls) -> "SignEnsemble":
        return cls("exact")

    @classmethod
    def monte_carlo(cls, samples: int, seed: int) -> "SignEnsemble":
        return cls("monte_carlo", int(samples), int(seed))


def _sign_rows(start: int, stop: int, n: int) -> np.ndarray:
    """Rows of the full sign enumeration: bit b of the code -> sign of term b."""
    codes = np.arange(start, stop, dtype=np.uint32)
    bits = (codes[:, None] >> np.arange(n, dtype=np.uint32)[None, :]) & np.uint32(1)
    return bits.astype(np.float64) * 2.0 - 1.0


def _sign_blocks(count: int, ensemble: SignEnsemble):
    """Yield sign matrices covering the ensemble in a fixed order."""
    if ensemble.mode == "exact":
        if count > EXACT_ENUMERATION_CAP:
            raise ValueError(
                f"exact enumeration supports at most {EXACT_ENUMERATION_CAP} "
                f"terms, got {count}"
            )
        total = 1 << count
        for start in range(0, total, _ENUMERATION_CHUNK):
            yield _sign_rows(start, min(start + _ENUMERATION_CHUNK, total), count)
    else:
        rng = philox_generator(ensemble.seed)
        remaining = ensemble.samples
        while remaining > 0:
            block = min(remaining, _ENUMERATION_CHUNK)
            draws = rng.integers(0, 2, size=(block, count))
            yield draws.astype(np.float64) * 2.0 - 1.0
            remaining -= block


def _sign_table(count: int, ensemble: SignEnsemble):
    """A function returning the ensemble's sign matrices, cast to complex, in order.

    Up to SIGN_TABLE_BYTES the matrices are built once and kept, so a run of
    sums over many coefficient vectors shares them (12 exact terms: 0.8 MB);
    a larger ensemble is rebuilt block by block on every pass.
    """

    def build():
        return (rows.astype(complex) for rows in _sign_blocks(count, ensemble))

    rows = (1 << count) if ensemble.mode == "exact" else ensemble.samples
    if rows * count * 16 > SIGN_TABLE_BYTES:
        return build
    kept = list(build())
    return lambda: kept


def _linear_sum_magnitudes(coefficients: np.ndarray, signs) -> np.ndarray:
    """|sum_j a_j r_j| for every sign vector of the table, in order."""
    return np.concatenate([np.abs(rows @ coefficients) for rows in signs()])


def _tensor_sum_magnitudes(matrix: np.ndarray, signs) -> np.ndarray:
    """|sum_jk a_jk r_j r_k| over one shared sign sequence of length max(J, K)."""
    rows_j, cols_k = matrix.shape
    parts = []
    for rows in signs():
        left = rows[:, :rows_j]
        right = rows[:, :cols_k]
        parts.append(np.abs(((left @ matrix) * right).sum(axis=1)))
    return np.concatenate(parts)


@dataclass(frozen=True)
class KhinchineResult:
    expectation: float
    l2_power: float
    lower_ratio: float
    upper_ratio: float


def khinchine_ratio(coefficients, p: float, ensemble: SignEnsemble) -> KhinchineResult:
    """Compare E|sum a_j r_j|^p with (sum |a_j|^2)^(p/2), both directions."""
    p = float(p)
    if p < 1:
        raise ValueError(f"khinchine_ratio requires p >= 1, got {p}")
    a = np.asarray(coefficients, dtype=complex).ravel()
    l2_power = float(np.sum(abs_squared(a)) ** (p / 2.0))
    if l2_power == 0.0:
        raise DegenerateInputError("all coefficients vanish; the ratio is undefined")
    magnitudes = _linear_sum_magnitudes(a, _sign_table(a.size, ensemble))
    expectation = float(np.mean(magnitudes**p))
    return KhinchineResult(
        expectation=expectation,
        l2_power=l2_power,
        lower_ratio=expectation / l2_power,
        upper_ratio=l2_power / expectation if expectation > 0 else math.inf,
    )


@dataclass(frozen=True)
class TensorKhinchineResult:
    expectation: float
    l2_power: float
    ratio: float
    degenerate: bool


def khinchine_tensor_ratio(matrix, p: float, ensemble: SignEnsemble) -> TensorKhinchineResult:
    """One-sided tensor comparison (sum |a_jk|^2)^(p/2) <= C * E|sum a_jk r_j r_k|^p.

    Both indices draw from one shared sign sequence, so products r_j r_k are
    correlated; inputs whose sign sums cancel identically (the expectation
    vanishes while the coefficient mass does not) are flagged degenerate and
    carry an infinite ratio.
    """
    p = float(p)
    if p < 1:
        raise ValueError(f"khinchine_tensor_ratio requires p >= 1, got {p}")
    a = np.atleast_2d(np.asarray(matrix, dtype=complex))
    l2_power = float(np.sum(abs_squared(a)) ** (p / 2.0))
    if l2_power == 0.0:
        raise DegenerateInputError("all coefficients vanish; the ratio is undefined")
    magnitudes = _tensor_sum_magnitudes(a, _sign_table(max(a.shape), ensemble))
    expectation = float(np.mean(magnitudes**p))
    degenerate = expectation < DEGENERACY_RTOL * l2_power
    ratio = math.inf if degenerate else l2_power / expectation
    return TensorKhinchineResult(expectation, l2_power, ratio, degenerate)


# ---------------------------------------------------------------------------
# Per-sample checks


@dataclass(frozen=True)
class CheckSample:
    """One corpus member's two sides and their ratio."""

    sample_id: int
    rank: int
    lhs: float
    rhs: float
    ratio: float
    degenerate: bool = False

    def to_dict(self) -> dict:
        return {
            "sample_id": self.sample_id,
            "rank": self.rank,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "ratio": self.ratio if math.isfinite(self.ratio) else None,
            "degenerate": self.degenerate,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CheckSample":
        ratio = data["ratio"]
        return cls(
            sample_id=int(data["sample_id"]),
            rank=int(data["rank"]),
            lhs=float(data["lhs"]),
            rhs=float(data["rhs"]),
            ratio=math.inf if ratio is None else float(ratio),
            degenerate=bool(data["degenerate"]),
        )


_EXPONENT_FLOORS = {"lp": (1.0, "1"), "lp_density": (0.5, "1/2")}


def _checked_exponents(checker: str, exponents) -> list[float]:
    """The exponents as floats; each must exceed the checker's floor."""
    floor, label = _EXPONENT_FLOORS[checker]
    exponents = [float(p) for p in exponents]
    for p in exponents:
        if not p > floor:
            raise ValueError(f"the {checker} check requires p > {label}, got {p}")
    return exponents


def _norm_ratios(
    lhs_field: GridFunction,
    rhs_field: GridFunction,
    exponents: list[float],
    rank: int,
    sample_id: int,
) -> list[CheckSample]:
    """One sample per exponent of ||lhs_field||_p / ||rhs_field||_p."""
    samples = []
    for p in exponents:
        rhs = lp_norm(rhs_field, p)
        if rhs == 0.0:
            raise DegenerateInputError("zero input; the ratio is undefined")
        lhs = lp_norm(lhs_field, p)
        samples.append(CheckSample(sample_id, rank, lhs, rhs, lhs / rhs))
    return samples


def _lp_function_samples(u, exponents, blocks, sample_id) -> list[CheckSample]:
    exponents = _checked_exponents("lp", exponents)
    return _norm_ratios(square_function(u, blocks), u, exponents, 1, sample_id)


def _lp_density_samples(op, exponents, blocks, sample_id) -> list[CheckSample]:
    exponents = _checked_exponents("lp_density", exponents)
    lhs_field = summed_block_density(op, blocks)
    return _norm_ratios(lhs_field, density(op), exponents, op.rank, sample_id)


def _gns_samples(u, exponents, blocks, sample_id) -> list[CheckSample]:
    """The gns exponent is fixed by the dimension: one sample, under every label."""
    return [gns_check(u, sample_id)] * len(exponents)


def lp_function_check(
    u: GridFunction, p: float, blocks: DyadicBlockSet, sample_id: int = 0
) -> CheckSample:
    """Square-function comparison: lhs = || (sum_j |P_j u|^2)^(1/2) ||_p, rhs = ||u||_p."""
    return _lp_function_samples(u, [p], blocks, sample_id)[0]


def parseval_square_ratio(u: GridFunction, blocks: DyadicBlockSet) -> float:
    """Closed form for the p = 2 square-function ratio.

    By Parseval the ratio squared is the energy-weighted mean of
    sum_j Psi_j(xi)^2 over the spectrum of u.
    """
    energy = abs_squared(forward_transform(u).coefficients)
    weighted = float(np.sum(block_squared_sum(blocks) * energy))
    total = float(np.sum(energy))
    if total == 0.0:
        raise DegenerateInputError("zero input; the ratio is undefined")
    return math.sqrt(weighted / total)


def summed_block_density(op: FiniteRankOperator, blocks: DyadicBlockSet) -> GridFunction:
    """sum_j density(P_j gamma P_j) from the batched block kernel."""
    if blocks.grid != op.grid:
        raise GridMismatchError("operator and block set live on different grids")
    values = weighted_block_energy(op.grid, op.eigenfunctions, op.eigenvalues, blocks.symbols)
    return GridFunction(op.grid, values)


def lp_density_check(
    op: FiniteRankOperator, p: float, blocks: DyadicBlockSet, sample_id: int = 0
) -> CheckSample:
    """Density comparison: lhs = ||sum_j rho_{P_j gamma P_j}||_p, rhs = ||rho_gamma||_p."""
    return _lp_density_samples(op, [p], blocks, sample_id)[0]


def duality_identity_check(f: GridFunction, g: GridFunction, blocks: DyadicBlockSet) -> float:
    """Residual of the pairing identity <g, f> = sum_j <companion_j g, P_j f>.

    Returns |difference| / (||f||_2 ||g||_2); exact reproduction of each block
    by its companion makes this a pure rounding residual.
    """
    if blocks.family != SMOOTH:
        raise UnsupportedFamilyError("the pairing identity needs smooth companions")
    direct = inner_product(g, f)
    split = 0.0 + 0.0j
    for j in blocks.block_indices:
        split += inner_product(project_companion(g, blocks, j), project(f, blocks, j))
    scale = lp_norm(f, 2) * lp_norm(g, 2)
    if scale == 0.0:
        return 0.0
    return abs(direct - split) / scale


def gns_check(u: GridFunction, sample_id: int = 0) -> CheckSample:
    """Interpolation comparison at the dimension's critical exponent 2 + 4/d.

    lhs = ||u||_{2+4/d}; rhs = ||u||_2^{2/(d+2)} * (gradient energy)^{d/(2(d+2))}.
    """
    d = u.grid.dimension
    p = 2.0 + 4.0 / d
    norm2 = lp_norm(u, 2)
    if norm2 == 0.0:
        raise DegenerateInputError("zero input; the ratio is undefined")
    gradient_energy = kinetic_form(u, 1)
    if gradient_energy == 0.0:
        raise DegenerateInputError(
            "constant input has no gradient energy; the comparison degenerates"
        )
    lhs = lp_norm(u, p)
    rhs = norm2 ** (2.0 / (d + 2.0)) * gradient_energy ** (d / (2.0 * (d + 2.0)))
    return CheckSample(sample_id, 1, lhs, rhs, lhs / rhs)


# ---------------------------------------------------------------------------
# Kinetic-energy inequalities


def _lt_exponent(dimension: int, a: float, b: float) -> float:
    return 1.0 + 2.0 * b / (dimension + 2.0 * a)


def _lt_sides(op: FiniteRankOperator, b: float, exponent: float) -> tuple[float, float]:
    numerator = kinetic_trace(op, b)
    rho = density(op)
    denominator = float(op.grid.integrate(rho.values**exponent))
    return numerator, denominator


@dataclass(frozen=True)
class LiebThirringResult:
    rank: int
    kinetic: float
    density_power_integral: float
    ratio: float
    weak_bound: float
    weak_ratio: float

    def to_dict(self) -> dict:
        return {
            "rank": self.rank,
            "kinetic": self.kinetic,
            "density_power_integral": self.density_power_integral,
            "ratio": self.ratio,
            "weak_bound": self.weak_bound,
            "weak_ratio": self.weak_ratio,
        }


def lieb_thirring_check(op: FiniteRankOperator) -> LiebThirringResult:
    """Kinetic trace against the density power integral, rank-uniform side.

    ratio = tr (-Laplacian) gamma / integral rho^(1 + 2/d).  The weak bound is
    the rank-dependent one obtained from interpolation plus the triangle
    inequality, (sum_k lambda_k)^(2/d) * tr (-Laplacian) gamma; its ratio to
    the same integral degrades with rank, which is the point of comparing.
    """
    report = validate_contract(op, UNIT_BALL)
    if not report.passed:
        raise ContractViolationError(
            f"operator fails the unit-ball contract with margin {report.margin:.3e}"
        )
    d = op.grid.dimension
    exponent = _lt_exponent(d, 0.0, 1.0)
    kinetic, denominator = _lt_sides(op, 1.0, exponent)
    if kinetic == 0.0:
        raise DegenerateInputError(
            "operator concentrated on the zero mode; the comparison degenerates"
        )
    weight_sum = float(np.sum(op.eigenvalues))
    weak_bound = weight_sum ** (2.0 / d) * kinetic
    return LiebThirringResult(
        rank=op.rank,
        kinetic=kinetic,
        density_power_integral=denominator,
        ratio=kinetic / denominator,
        weak_bound=weak_bound,
        weak_ratio=weak_bound / denominator,
    )


@dataclass(frozen=True)
class GeneralizedLTResult:
    rank: int
    power_a: float
    power_b: float
    exponent: float
    kinetic: float
    density_power_integral: float
    ratio: float

    def to_dict(self) -> dict:
        return {
            "rank": self.rank,
            "power_a": self.power_a,
            "power_b": self.power_b,
            "exponent": self.exponent,
            "kinetic": self.kinetic,
            "density_power_integral": self.density_power_integral,
            "ratio": self.ratio,
        }


def generalized_lt_check(op: FiniteRankOperator, a: float, b: float) -> GeneralizedLTResult:
    """Kinetic comparison at powers (a, b): tr (-Laplacian)^b gamma versus
    integral rho^(1 + 2b/(d + 2a)), for operators below (-Laplacian)^a."""
    a, b = float(a), float(b)
    d = op.grid.dimension
    if not a > -d / 2.0:
        raise ConfigurationError(f"power a must exceed -d/2 = {-d / 2.0}, got {a}")
    if b < 0:
        raise ConfigurationError(f"power b must be nonnegative, got {b}")
    contract = power_bounded(a)
    report = validate_contract(op, contract)
    if not report.passed:
        raise ContractViolationError(
            f"operator fails the power-bounded({a}) contract with margin {report.margin:.3e}"
        )
    exponent = _lt_exponent(d, a, b)
    kinetic, denominator = _lt_sides(op, b, exponent)
    if denominator == 0.0:
        raise DegenerateInputError("zero density; the ratio is undefined")
    return GeneralizedLTResult(
        rank=op.rank,
        power_a=a,
        power_b=b,
        exponent=exponent,
        kinetic=kinetic,
        density_power_integral=denominator,
        ratio=kinetic / denominator,
    )


@dataclass(frozen=True)
class ChainResult:
    """The three rungs of the block-decomposed kinetic bound."""

    kinetic: float
    block_kinetic: float
    block_density_bound: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "kinetic": self.kinetic,
            "block_kinetic": self.block_kinetic,
            "block_density_bound": self.block_density_bound,
            "passed": self.passed,
        }


def lt_chain_check(op: FiniteRankOperator, blocks: DyadicBlockSet) -> ChainResult:
    """Chain tr(-Laplacian)gamma >= sum_j tr(-Laplacian)P_j gamma P_j
    >= (1/4) sum_j 2^(2j) integral rho_{P_j gamma P_j} over interior blocks.

    The 1/4 is the spectral floor |xi|^2 >= 2^(2j)/4 on an interior block's
    support.  Both inequalities are asserted with relative slack 1e-10.
    Every rung is a Parseval sum of the spectral density
    w(xi) = sum_k lambda_k |coeffs_k(xi)|^2, computed once:

        t0 = L^{-d} sum_xi |xi|^2 w
        t1 = L^{-d} sum_j sum_xi |xi|^2 Psi_j^2 w
        t2 = sum_{interior j} (1/4) 4^j L^{-d} sum_xi Psi_j^2 w
    """
    if blocks.family != SMOOTH:
        raise UnsupportedFamilyError("the chain needs the smooth block family")
    report = validate_contract(op, UNIT_BALL)
    if not report.passed:
        raise ContractViolationError(
            f"operator fails the unit-ball contract with margin {report.margin:.3e}"
        )
    grid = op.grid
    w = spectral_density(grid, op.eigenfunctions, op.eigenvalues)
    kinetic_w = grid.frequency_norms_squared * w
    t0 = float(np.sum(kinetic_w) / grid.volume)
    t1 = float(np.sum(block_squared_sum(blocks) * kinetic_w) / grid.volume)
    t2 = 0.0
    for j in blocks.interior_indices:
        mass = float(np.sum(blocks.symbol(j) ** 2 * w) / grid.volume)
        t2 += 0.25 * 2.0 ** (2 * j) * mass
    slack0 = CHAIN_RTOL * max(abs(t0), abs(t1), 1e-300)
    slack1 = CHAIN_RTOL * max(abs(t1), abs(t2), 1e-300)
    passed = (t1 <= t0 + slack0) and (t2 <= t1 + slack1)
    return ChainResult(t0, t1, t2, passed)


def fermi_lattice_oracle(grid: TorusGrid, chemical_potential: float) -> dict:
    """Direct lattice sums for the Fermi-sea comparison, bypassing transforms.

    The sea's density is the constant rank/volume, so both sides reduce to
    sums over the modes below the chemical potential.
    """
    mu = float(chemical_potential)
    nsq = grid.frequency_norms_squared.reshape(-1)
    below = nsq[nsq <= mu]
    if below.size == 0:
        raise ValueError("no lattice modes under the chemical potential")
    rank = int(below.size)
    kinetic = float(below.sum())
    exponent = _lt_exponent(grid.dimension, 0.0, 1.0)
    denominator = grid.volume * (rank / grid.volume) ** exponent
    return {
        "rank": rank,
        "kinetic": kinetic,
        "density_power_integral": denominator,
        "ratio": kinetic / denominator,
    }


def fermi_sweep(grid: TorusGrid, chemical_potentials) -> list[dict]:
    """Fermi-sea comparison across a ladder of chemical potentials.

    Each entry carries the pipeline result, the lattice-sum oracle and their
    relative gap.
    """
    rows = []
    for mu in chemical_potentials:
        sea = fermi_sea(grid, mu)
        result = lieb_thirring_check(sea)
        oracle = fermi_lattice_oracle(grid, mu)
        gap = abs(result.ratio - oracle["ratio"]) / oracle["ratio"]
        rows.append(
            {
                "chemical_potential": float(mu),
                "rank": result.rank,
                "ratio": result.ratio,
                "weak_ratio": result.weak_ratio,
                "oracle_ratio": oracle["ratio"],
                "oracle_gap": gap,
            }
        )
    return rows


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

    def to_dict(self) -> dict:
        return {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "split_index": self.split_index,
            "constant": self.constant,
            "ratio": self.ratio,
            "passed": self.passed,
        }


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
        raise ValueError(f"dimension must be 1, 2 or 3, got {d}")
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

    The sequences are drawn as one (trials, J) table and bounded in one pass
    over its rows.
    """
    require_counts(trial_count=trials)
    table = spike_sequences(dimension, j_range, trials, seed)
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


# ---------------------------------------------------------------------------
# Envelope estimation over corpora


@dataclass
class RatioReport:
    """Aggregated per-sample ratios for one inequality at one exponent."""

    name: str
    p: float | None
    family: str
    profile_kind: str
    grid: dict | None
    seed: int
    samples: list
    envelope: tuple | None = None
    degenerate_count: int = 0
    ratio_min: float | None = None
    ratio_max: float | None = None
    ratio_mean: float | None = None
    ratio_median: float | None = None
    passed: bool = True

    def __post_init__(self) -> None:
        finite = [s.ratio for s in self.samples if not s.degenerate and math.isfinite(s.ratio)]
        self.degenerate_count = sum(1 for s in self.samples if s.degenerate)
        if finite:
            self.ratio_min = min(finite)
            self.ratio_max = max(finite)
            self.ratio_mean = statistics.fmean(finite)
            self.ratio_median = statistics.median(finite)
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
            "envelope": list(self.envelope) if self.envelope is not None else None,
            "passed": self.passed,
            "samples": [s.to_dict() for s in self.samples],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RatioReport":
        return cls(
            name=data["name"],
            p=data["p"],
            family=data["family"],
            profile_kind=data["profile_kind"],
            grid=data["grid"],
            seed=int(data["seed"]),
            samples=[CheckSample.from_dict(s) for s in data["samples"]],
            envelope=tuple(data["envelope"]) if data["envelope"] is not None else None,
        )


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


def _exponent_key(p: float | None) -> str:
    return "all" if p is None else format(float(p), "g")


def _is_exponent_key(key: str) -> bool:
    if key == "all":
        return True
    try:
        p = float(key)
    except ValueError:
        return False
    return math.isfinite(p) and key == _exponent_key(p)


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
                    bad(where, "exponent keys are written as format(p, 'g')")
                if not (
                    isinstance(pair, list)
                    and len(pair) == 2
                    and all(type(v) in (int, float) and math.isfinite(v) for v in pair)
                    and pair[0] <= pair[1]
                ):
                    bad(where, f"expected [lo, hi], two finite numbers with lo <= hi, got {pair!r}")


def envelope_for(envelopes: dict, name: str, dimension: int, p: float | None) -> tuple | None:
    """Look up the [lo, hi] envelope for (inequality, dimension, exponent)."""
    by_dim = envelopes.get(name)
    if by_dim is None:
        return None
    by_p = by_dim.get(f"d{dimension}")
    if by_p is None:
        return None
    pair = by_p.get(_exponent_key(p))
    if pair is None:
        return None
    return (float(pair[0]), float(pair[1]))


_SAMPLERS = {
    "lp": _lp_function_samples,
    "lp_density": _lp_density_samples,
    "gns": _gns_samples,
}


def _member_samples(spec, grid, blocks, checker: str, exponents, index: int) -> list[CheckSample]:
    """One member's samples at every exponent; a degenerate member is degenerate at all."""
    member = spec.member(grid, index)
    try:
        return _SAMPLERS[checker](member, exponents, blocks, index)
    except DegenerateInputError:
        rank = member.rank if isinstance(member, FiniteRankOperator) else 1
        return [CheckSample(index, rank, 0.0, 0.0, math.inf, degenerate=True)] * len(exponents)


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
    report per pair, in order.  Each member is built once and its fields
    serve every exponent.  For "gns" the exponent is fixed by the dimension,
    and p = None stands for it.
    """
    if checker not in _SAMPLERS:
        raise ConfigurationError(
            f"unknown checker {checker!r}, expected one of {tuple(_SAMPLERS)}"
        )
    if spec.count < 1:
        raise ConfigurationError("empty corpus")
    exponents = list(exponents)
    ps = [p for p, _ in exponents]
    if checker == "gns":
        ps = [2.0 + 4.0 / grid.dimension if p is None else p for p in ps]
    else:
        ps = _checked_exponents(checker, ps)
    blocks = None
    if checker in ("lp", "lp_density"):
        profile = build_profile(profile_kind) if family == SMOOTH else None
        blocks = build_blocks(grid, family, profile)
    members = [
        _member_samples(spec, grid, blocks, checker, ps, i) for i in range(spec.count)
    ]
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
            profile_kind=profile_kind if family == SMOOTH else "indicator",
            grid=grid_params,
            seed=spec.seed,
            samples=[samples[position] for samples in members],
            envelope=envelope,
        )
        for position, (p, (_, envelope)) in enumerate(zip(ps, exponents))
    ]


def khinchine_reports(
    n_terms: int,
    p_list,
    count: int,
    seed: int,
    ensemble: SignEnsemble | None = None,
    envelopes: dict | None = None,
) -> list[RatioReport]:
    """Classical sign-sum comparison over random complex coefficient vectors.

    The per-sample ratio is expectation / l2 power (the lower direction); its
    reciprocal is the upper direction, so a two-sided envelope on this single
    ratio bounds both constants.
    """
    require_counts(term_count=n_terms, sample_count=count)
    if ensemble is None:
        ensemble = SignEnsemble.exact()
    signs = _sign_table(n_terms, ensemble)
    per_p: dict[float, list[CheckSample]] = {float(p): [] for p in p_list}
    for index in range(count):
        rng = philox_generator(seed, index)
        draws = rng.standard_normal(size=(2, n_terms))
        coefficients = draws[0] + 1j * draws[1]
        magnitudes = _linear_sum_magnitudes(coefficients, signs)
        l2 = float(np.sum(abs_squared(coefficients)))
        for p in per_p:
            expectation = float(np.mean(magnitudes**p))
            l2_power = l2 ** (p / 2.0)
            per_p[p].append(
                CheckSample(index, 1, expectation, l2_power, expectation / l2_power)
            )
    reports = []
    for p, samples in per_p.items():
        envelope = envelope_for(envelopes, "khinchine", 0, p) if envelopes else None
        reports.append(
            RatioReport(
                name="khinchine",
                p=p,
                family="none",
                profile_kind="none",
                grid=None,
                seed=seed,
                samples=samples,
                envelope=envelope,
            )
        )
    return reports


def tensor_khinchine_reports(
    n_terms: int,
    p_list,
    count: int,
    seed: int,
    ensemble: SignEnsemble | None = None,
    envelopes: dict | None = None,
) -> list[RatioReport]:
    """Tensor sign-sum comparison over random complex square matrices."""
    require_counts(term_count=n_terms, sample_count=count)
    if ensemble is None:
        ensemble = SignEnsemble.exact()
    signs = _sign_table(n_terms, ensemble)
    per_p: dict[float, list[CheckSample]] = {float(p): [] for p in p_list}
    for index in range(count):
        rng = philox_generator(seed, index)
        draws = rng.standard_normal(size=(2, n_terms, n_terms))
        matrix = draws[0] + 1j * draws[1]
        magnitudes = _tensor_sum_magnitudes(matrix, signs)
        l2 = float(np.sum(abs_squared(matrix)))
        for p in per_p:
            expectation = float(np.mean(magnitudes**p))
            l2_power = l2 ** (p / 2.0)
            degenerate = expectation < DEGENERACY_RTOL * l2_power
            ratio = math.inf if degenerate else l2_power / expectation
            per_p[p].append(
                CheckSample(index, 1, l2_power, expectation, ratio, degenerate)
            )
    reports = []
    for p, samples in per_p.items():
        envelope = envelope_for(envelopes, "khinchine_tensor", 0, p) if envelopes else None
        reports.append(
            RatioReport(
                name="khinchine_tensor",
                p=p,
                family="none",
                profile_kind="none",
                grid=None,
                seed=seed,
                samples=samples,
                envelope=envelope,
            )
        )
    return reports
