"""Finite-rank nonnegative operators in eigen-representation.

An operator is stored as gamma = sum_k lambda_k |u_k><u_k| with nonnegative
weights and grid functions u_k; nothing is ever materialized as a dense
N^d x N^d matrix.  The checkers of inequality_lab take block-conjugated
densities from the batched block kernel of torus_grid, one inverse
transform per chunk of eigenfunctions for all blocks.  Kinetic traces are
Parseval sums of the spectral density w(xi) = sum_k lambda_k |coeffs_k(xi)|^2
against torus_grid.laplacian_power, with no inverse transform
(spectral_trace).

Only a power-bounded check keeps the forward stack of an operator's
eigenfunctions: it transforms the whole stack in one call, and the
spectral density then sums over that stack.  Without one, the spectral
density transforms the eigenfunctions in field_chunks of the rank axis and
keeps none of them.  An operator therefore transforms its eigenfunctions
once, unless its spectral density is read before its first power-bounded
check.  No Fermi sea is held as an operator; the ladder is streamed
(below).

Plane-wave Fermi seas come from one wave generator, _plane_waves, which
builds any range of a sea's waves with the bits of the full stack:
sea_ladder streams a ladder of seas through it without holding one, and
certifies each rung's orthonormality from the spectra it transforms, with
no Gram matrix.  Stacks have one Gram kernel, _gram_matrix; validate_contract
and sea_ladder share one unit-ball verdict and one violation message.

An operator carries no contract: every check names the one it verifies.
Contracts describe the operator bound a checker relies on:

* unit_ball:      0 <= gamma <= 1, verified through orthonormality of the
                  eigenfunctions and lambda_k <= 1.
* power_bounded:  0 <= gamma <= (-Laplacian)^a, verified through the largest
                  eigenvalue of the weighted Gram matrix of the functions
                  (-Laplacian)^{-a/2} u_k, with laplacian_power's table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dyadic_partition import DyadicBlockSet
from .errors import (
    ConfigurationError,
    ContractViolationError,
    GridMismatchError,
    ZeroModeSingularityError,
)
from .torus_grid import (
    TorusGrid,
    abs_squared,
    byte_chunks,
    field_chunks,
    forward_transform_stack,
    laplacian_power,
    weighted_density,
    weighted_spectral_density,
    zero_mode_offenders,
)

GRAM_TOLERANCE = 1e-10
EIGENVALUE_TOLERANCE = 1e-10

CONTRACT_KINDS = ("unit_ball", "power_bounded")


@dataclass(frozen=True)
class OperatorContract:
    kind: str
    power: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in CONTRACT_KINDS:
            raise ValueError(f"unknown contract kind {self.kind!r}")


UNIT_BALL = OperatorContract("unit_ball")


def power_bounded(power: float) -> OperatorContract:
    power = float(power)
    if not math.isfinite(power):
        raise ConfigurationError(f"the power-bounded contract needs a finite power, got {power}")
    return OperatorContract("power_bounded", power)


def _read_only(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


@dataclass(frozen=True)
class FiniteRankOperator:
    """gamma = sum_k eigenvalues[k] |eigenfunctions[k]><eigenfunctions[k]|.

    The operator is immutable: both arrays are read-only views, so the
    quantities it computes at most once (the Gram residual, the forward
    stack of its eigenfunctions, the overlaps of the power-bounded check,
    the spectral density w and the density rho) cannot go stale.  Only a
    power-bounded check keeps the forward stack, which the spectral density
    then reads; it is as large as the eigenfunctions (a sea of 257 waves at
    d = 3, n = 32 holds 135 MB more), so a ladder of large plane-wave seas
    belongs in sea_ladder, which holds neither.
    """

    grid: TorusGrid
    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray  # shape (rank,) + grid.shape

    def __post_init__(self) -> None:
        eigenvalues = np.asarray(self.eigenvalues, dtype=float)
        eigenfunctions = np.asarray(self.eigenfunctions)
        if eigenvalues.ndim != 1 or eigenvalues.size == 0:
            raise ValueError("eigenvalues must be a nonempty 1d array")
        if np.any(eigenvalues < 0):
            raise ValueError("eigenvalues must be nonnegative")
        expected = (eigenvalues.size,) + self.grid.shape
        if eigenfunctions.shape != expected:
            raise GridMismatchError(
                f"eigenfunctions of shape {eigenfunctions.shape} do not "
                f"match rank and grid, expected {expected}"
            )
        object.__setattr__(self, "eigenvalues", _read_only(eigenvalues.view()))
        object.__setattr__(self, "eigenfunctions", _read_only(eigenfunctions.view()))

    @property
    def rank(self) -> int:
        return int(self.eigenvalues.size)

    @cached_property
    def gram_residual(self) -> float:
        """max |<u_k, u_l> - delta_kl|; it depends on the eigenfunctions alone."""
        return gram_residual(self.grid, self.eigenfunctions)

    @cached_property
    def _forward_stack(self) -> np.ndarray:
        """The forward transforms [r, ...] of the eigenfunctions."""
        return _read_only(forward_transform_stack(self.grid, self.eigenfunctions))

    @cached_property
    def spectral_density(self) -> np.ndarray:
        """w(xi) = sum_k lambda_k |coeffs_k(xi)|^2, in FFT layout.

        It sums over the kept forward stack when a power-bounded check has
        built it; otherwise it transforms the eigenfunctions a chunk at a
        time and keeps no transform.  Both sums are the same, bit for bit.
        By Parseval, L^{-d} sum_xi m(xi) w(xi) is
        sum_k lambda_k <u_k, m(D) u_k> for any real multiplier m, with no
        inverse transform.
        """
        stack = self.__dict__.get("_forward_stack")
        if stack is None:
            w = weighted_spectral_density(self.grid, self.eigenfunctions, self.eigenvalues)
        else:
            w = weighted_density(self.grid, stack, self.eigenvalues)
        return _read_only(w)

    @cached_property
    def density_values(self) -> np.ndarray:
        """rho(x) = sum_k lambda_k |u_k(x)|^2."""
        return _read_only(weighted_density(self.grid, self.eigenfunctions, self.eigenvalues))

    @cached_property
    def _power_overlaps(self) -> dict:
        """power -> _power_overlap of the eigenfunctions, filled by validate_contract."""
        return {}

    def reweighted(self, eigenvalues) -> "FiniteRankOperator":
        """The operator on the same eigenfunctions with other eigenvalues.

        It shares what depends on the eigenfunctions alone, once computed:
        the Gram residual, the forward stack and the power overlaps.
        """
        op = FiniteRankOperator(self.grid, eigenvalues, self.eigenfunctions)
        for name in ("gram_residual", "_forward_stack", "_power_overlaps"):
            if name in self.__dict__:
                op.__dict__[name] = self.__dict__[name]
        return op


def spectral_trace(grid: TorusGrid, w: np.ndarray, power: float) -> float:
    """L^{-d} sum_xi |xi|^(2 power) w(xi) for a spectral density w in FFT layout.

    With w = sum_k lambda_k |coeffs_k|^2 this is tr (-Laplacian)^power gamma;
    at power 0 it is the trace of gamma.
    """
    power = float(power)
    if power < 0:
        raise ValueError(f"spectral_trace requires power >= 0, got {power}")
    weights = laplacian_power(grid, power)
    return float(np.sum(weights * w) / grid.volume)


def diagonal_block_bound(blocks: DyadicBlockSet, j: int) -> float:
    """B_j = L^{-d} sum_xi Psi_j(xi)^2; a pointwise bound on the density of
    P_j gamma P_j for every operator satisfying the unit-ball contract."""
    table = blocks.symbol(j)
    return float(np.sum(table**2) / blocks.grid.volume)


def finite_chemical_potential(chemical_potential: float) -> float:
    """The chemical potential as a float; ConfigurationError unless positive and finite."""
    mu = float(chemical_potential)
    if not (math.isfinite(mu) and mu > 0):
        raise ConfigurationError(f"chemical potential must be positive and finite, got {mu}")
    return mu


def _sea_modes(grid: TorusGrid, chemical_potential: float) -> np.ndarray:
    """Flat lattice indices of the modes with |xi|^2 <= chemical_potential,
    ordered by (|xi|^2, flat index); mu > 0 keeps the zero mode among them.

    The modes of a smaller chemical potential are a prefix of these.
    """
    mu = finite_chemical_potential(chemical_potential)
    nsq_flat = grid.frequency_norms_squared.reshape(-1)
    selected = np.flatnonzero(nsq_flat <= mu)
    order = np.lexsort((selected, nsq_flat[selected]))
    return selected[order]


def _plane_waves(
    grid: TorusGrid, modes: np.ndarray, rows: slice = slice(None), out: np.ndarray | None = None
) -> np.ndarray:
    """The normalized waves L^{-d/2} e^{i xi x} of modes[rows], as [r, N, .., N];
    the last outer product is written into ``out`` when it is given.

    Each wave is the outer product of the one-axis waves e^{i xi_m x_m}, read
    from one table of N x N phases and appended one axis at a time.  An
    element is the same chain of products whatever the rows, so the pieces
    have the bits of the full stack.
    """
    modes = modes[rows]
    # axis_waves[m, n] = exp(i xi_m x_n) for one axis.
    axis_waves = np.exp(1j * np.outer(grid.axis_frequencies, grid.axis_coordinates))
    functions = np.full(modes.size, grid.volume**-0.5, dtype=complex)
    for axis, m_idx in enumerate(np.unravel_index(modes, grid.shape)):
        # Append one axis: [r, N, ..] times [r, 1, .., 1, N].
        factor = axis_waves[m_idx].reshape((modes.size,) + (1,) * (functions.ndim - 1) + (-1,))
        last = axis == grid.dimension - 1
        functions = np.multiply(functions[..., None], factor, out=out if last else None)
    return functions


def sea_ladder(grid: TorusGrid, chemical_potentials) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """(rank, w, rho) of the Fermi sea at each chemical potential, in order.

    No sea is held: every rung's waves are a prefix of the top rung's in
    (|xi|^2, flat index) order.  One pass generates field_chunks of the rank
    axis with _plane_waves into a buffer it reuses, transforms each once and
    sums |coeffs_k|^2 and |u_k|^2 in ascending k into w and rho, copied at
    each rung's rank: the sums spectral_density and density_values run on
    the operator of unit weights on those waves, bit for bit.  A chemical
    potential below the first shell (2 pi / L)^2, whose sea holds only the
    zero mode, is refused (ConfigurationError) before any wave is generated.

    The |coeffs_k|^2 also certify the unit-ball contract, with no Gram
    matrix.  With c_k = a_k e_{m_k} + r_k, m_k the wave's own mode and
    r_k(m_k) = 0, distinct modes and Parseval give |G_kl - delta_kl| <= B
    on the Gram matrix of the first r waves, with maxima over k < r:

        B = max |L^{-d} |a_k|^2 - 1|
            + L^{-d} (2 max |a_k| max ||r_k||_inf + max ||r_k||_2^2).

    Each rung takes the unit-ball verdict on its B when the pass reaches its
    rank; a failure raises ContractViolationError as require_contract does.
    """
    # Refuse a bad rung before any wave is generated.
    chemical_potentials = [finite_chemical_potential(mu) for mu in chemical_potentials]
    if not chemical_potentials:
        return []
    modes = _sea_modes(grid, max(chemical_potentials))
    if np.any(np.diff(np.sort(modes)) == 0):
        raise ContractViolationError("operator fails the unit_ball contract: a mode repeats")
    norms = grid.frequency_norms_squared.reshape(-1)[modes]
    ranks = [int(np.searchsorted(norms, mu, side="right")) for mu in chemical_potentials]
    for mu, rank in zip(chemical_potentials, ranks):
        if rank == 1:
            raise ConfigurationError(
                f"chemical potential {mu} lies below the first shell "
                f"{(2.0 * math.pi / grid.box_length) ** 2}: its sea holds only the zero mode"
            )

    rungs = {}
    w, rho = np.zeros(grid.shape), np.zeros(grid.shape)
    # Running maxima of |L^{-d} |a_k|^2 - 1|, |a_k|^2, ||r_k||_inf^2, ||r_k||_2^2.
    maxima = np.zeros((4, 1))
    chunks = field_chunks(grid, modes.size, 1)
    width = len(range(modes.size)[chunks[0]])
    waves_buffer = np.empty((width,) + grid.shape, dtype=complex)
    spectral_buffer, physical_buffer = np.empty((2, width) + grid.shape)
    for chunk in chunks:
        count = len(range(modes.size)[chunk])
        waves = _plane_waves(grid, modes, chunk, out=waves_buffer[:count])
        physical = abs_squared(waves, out=physical_buffer[:count])
        # The waves are transformed in place once |u_k|^2 is taken.
        spectra = forward_transform_stack(grid, waves, out=waves)
        spectral = abs_squared(spectra, out=spectral_buffer[:count])
        # r_k's entries are read with |a_k|^2 set aside, then put back.
        table, own = spectral.reshape(count, -1), (np.arange(count), modes[chunk])
        peaks = table[own]
        table[own] = 0.0
        terms = [np.abs(peaks / grid.volume - 1.0), peaks, table.max(axis=1), table.sum(axis=1)]
        table[own] = peaks
        maxima = np.maximum.accumulate(np.hstack([maxima[:, -1:], terms]), axis=1)
        bounds = maxima[0] + (2.0 * np.sqrt(maxima[1] * maxima[2]) + maxima[3]) / grid.volume
        for k in range(count):
            w += spectral[k]
            rho += physical[k]
            if chunk.start + k + 1 in ranks:
                _require(_unit_ball_report(UNIT_BALL, float(bounds[k + 1]), 1.0))
                rungs[chunk.start + k + 1] = (w.copy(), rho.copy())
    return [(rank, *rungs[rank]) for rank in ranks]


@dataclass
class ValidationReport:
    contract: OperatorContract
    passed: bool
    margin: float
    checks: dict[str, float] = field(default_factory=dict)


def _gram_matrix(grid: TorusGrid, functions: np.ndarray) -> np.ndarray:
    """<u_k, u_l> of a stack [r, ...] of grid fields, in the quadrature inner product.

    The columns of its (r, N^d) view are read in byte_chunks.  Each block's
    real part x and imaginary part y are copied into one float buffer, sized
    by the first block, which byte_chunks makes the widest, and reused by
    the rest.  With X and Y the sums over the blocks of x x^T + y y^T and
    y x^T, Re G is X and Im G is Y - Y^T: numpy takes a product with the
    operand's own transpose through BLAS syrk, and no conjugate copy is made.
    """
    flat = functions.reshape(len(functions), -1)
    blocks = byte_chunks(flat.shape[1], len(flat) * np.dtype(complex).itemsize)
    parts = np.empty(2 * len(flat) * len(range(flat.shape[1])[blocks[0]]))
    real = cross = 0.0
    for cols in blocks:
        columns = flat[:, cols]
        x, y = parts[: 2 * columns.size].reshape((2,) + columns.shape)
        np.copyto(x, columns.real)
        np.copyto(y, columns.imag)
        real += x @ x.T
        real += y @ y.T
        cross += y @ x.T
    return grid.cell_volume * (real + 1j * (cross - cross.T))


def gram_residual(grid: TorusGrid, functions: np.ndarray) -> float:
    """max |<u_k, u_l> - delta_kl| over a stack [r, ...] of grid fields."""
    gram = _gram_matrix(grid, functions)
    return float(np.max(np.abs(gram - np.eye(len(gram)))))


def _unit_ball_report(contract, gram_excess: float, top_eigenvalue) -> ValidationReport:
    """The unit-ball verdict from a Gram residual and the largest eigenvalue."""
    eigen_excess = float(top_eigenvalue - 1.0)
    failed = gram_excess > GRAM_TOLERANCE or eigen_excess > EIGENVALUE_TOLERANCE
    checks = {"gram_residual": gram_excess, "eigenvalue_excess": eigen_excess}
    return ValidationReport(contract, not failed, max(gram_excess, eigen_excess, 0.0), checks)


def validate_contract(op: FiniteRankOperator, contract: OperatorContract) -> ValidationReport:
    """Check the operator against a contract and report the violation margin.

    The margin is the largest excess over the mathematical bound (0 when
    everything holds exactly); the report passes when each excess stays
    within its numerical tolerance.
    """
    gram_excess = op.gram_residual
    if contract.kind == "unit_ball":
        return _unit_ball_report(contract, gram_excess, np.max(op.eigenvalues))

    checks = {"gram_residual": gram_excess}
    failed = gram_excess > GRAM_TOLERANCE
    # power_bounded: top eigenvalue of M_kl = sqrt(l_k l_l) <v_k, v_l> with
    # v_k = (-Laplacian)^{-power/2} u_k must not exceed 1.
    a = contract.power
    if a not in op._power_overlaps:
        op._power_overlaps[a] = _power_overlap(op.grid, op._forward_stack, a)
    overlap = op._power_overlaps[a]
    if overlap is None:
        if a < 0:
            raise ZeroModeSingularityError(
                "zero-mode singularity: power-bounded contract with negative "
                "power requires mean-zero eigenfunctions"
            )
        # Positive power: the bounding operator annihilates constants, so
        # any zero-mode mass is an outright (infinite) violation.
        checks["power_excess"] = float("inf")
        return ValidationReport(contract, False, float("inf"), checks)

    root_weights = np.sqrt(op.eigenvalues)
    m_matrix = root_weights[:, None] * overlap * root_weights[None, :]
    m_matrix = 0.5 * (m_matrix + m_matrix.conj().T)
    top = float(np.linalg.eigvalsh(m_matrix)[-1])
    power_excess = top - 1.0
    checks["power_excess"] = power_excess
    failed = failed or power_excess > EIGENVALUE_TOLERANCE
    margin = max(gram_excess, power_excess, 0.0)
    return ValidationReport(contract, not failed, margin, checks)


def _power_overlap(grid: TorusGrid, forward_stack: np.ndarray, power: float) -> np.ndarray | None:
    """<v_k, v_l> with v_k = (-Laplacian)^{-power/2} u_k, from the forward
    stack [r, ...] of the u_k; None when power != 0 and some u_k carries
    zero-mode mass, which v_k (power < 0) or the bound (power > 0) forbids."""
    spectra = forward_stack.reshape(len(forward_stack), -1)
    # One row chunk of |spectra|^2 at a time, not a table half the stack's size.
    if power != 0.0 and any(
        np.any(zero_mode_offenders(abs_squared(spectra[rows])))
        for rows in field_chunks(grid, len(spectra), 1)
    ):
        return None
    scaled = spectra * laplacian_power(grid, -power).reshape(-1)
    # conj(conj(scaled) @ spectra^T) = scaled @ spectra^H, without a
    # conjugated copy of the kept stack: only the rank x rank product is.
    return (np.conjugate(scaled, out=scaled) @ spectra.T).conj() / grid.volume


def _require(report: ValidationReport) -> ValidationReport:
    if not report.passed:
        raise ContractViolationError(
            f"operator fails the {report.contract.kind} contract with margin {report.margin:.3e}"
        )
    return report


def require_contract(op: FiniteRankOperator, contract: OperatorContract) -> ValidationReport:
    return _require(validate_contract(op, contract))
