"""Finite-rank nonnegative operators in eigen-representation.

An operator is stored as gamma = sum_k lambda_k |u_k><u_k| with nonnegative
weights and grid functions u_k; nothing is ever materialized as a dense
N^d x N^d matrix.  The checkers of inequality_lab take block-conjugated
densities from the batched block kernel of torus_grid, one inverse
transform per chunk of eigenfunctions for all blocks.  Kinetic traces are
torus_grid.spectral_trace of the spectral density
w(xi) = sum_k lambda_k |coeffs_k(xi)|^2, Parseval sums with no inverse
transform.

Only a contract check at a nonzero power keeps the forward stack of an
operator's eigenfunctions: it transforms the whole stack in one call, and
the spectral density then sums over that stack.  Without one, the spectral
density transforms the eigenfunctions in field_chunks of the rank axis and
keeps none of them.  An operator therefore transforms its eigenfunctions
once, unless its spectral density is read before its first check at a
nonzero power.  No Fermi sea is held as an operator; the ladder is streamed
(below).

Plane-wave Fermi seas are never generated.  A plane wave is the outer
product of one-axis waves, so its spectrum is the outer product of their
one-axis transforms: sea_ladder transforms one table of the top sea's
one-axis waves, _axis_waves, once per sweep and builds every wave's
|c_k|^2 and |u_k|^2 tables as real outer products of its rows.  It streams a ladder of seas
without holding one, and certifies each rung's orthonormality from those
spectra, with no Gram matrix.  Stacks have one Gram kernel, gram_matrix,
which corpus's orthonormalizer also runs on stacks of frames, and an
operator builds its Gram matrix once; validate_contract and
sea_ladder share one report builder, _contract_report, and one violation
message.

An operator carries no contract: every check names the one it verifies.
A contract is one power a, the bound 0 <= gamma <= (-Laplacian)^a that a
checker relies on; the unit ball 0 <= gamma <= 1 is a = 0 (UNIT_BALL,
named unit_ball in messages, power_bounded elsewhere).  Every power is
verified one way: the Gram residual of the eigenfunctions, and the largest
eigenvalue of Lambda^{1/2} M_a Lambda^{1/2}, with Lambda the eigenvalues
and M_a the overlaps <v_k, v_l> of v_k = (-Laplacian)^{-a/2} u_k, from
laplacian_power's table.  M_0 is the operator's Gram matrix, so at a = 0
that eigenvalue is the operator norm of gamma.
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
    fft_stack,
    field_chunks,
    forward_transform_stack,
    laplacian_power,
    weighted_density,
    weighted_spectral_density,
    zero_mode_offenders,
)

GRAM_TOLERANCE = 1e-10
EIGENVALUE_TOLERANCE = 1e-10

@dataclass(frozen=True)
class OperatorContract:
    """0 <= gamma <= (-Laplacian)^power; power 0 is the unit ball 0 <= gamma <= 1.

    A non-finite power is refused (ConfigurationError).
    """

    power: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.power):
            raise ConfigurationError(f"an operator contract needs a finite power, got {self.power}")

    @property
    def kind(self) -> str:
        """The contract's name in messages: unit_ball at power 0, else power_bounded."""
        return "unit_ball" if self.power == 0.0 else "power_bounded"


UNIT_BALL = OperatorContract(0.0)


def power_bounded(power: float) -> OperatorContract:
    return OperatorContract(float(power))


def _read_only(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


@dataclass(frozen=True)
class FiniteRankOperator:
    """gamma = sum_k eigenvalues[k] |eigenfunctions[k]><eigenfunctions[k]|.

    The operator is immutable: both arrays are read-only views, so the
    quantities it computes at most once (the Gram matrix of its
    eigenfunctions and its residual, their forward stack, the overlaps of
    contract checks at other powers, the spectral density w and the density
    rho) cannot go stale.  Only a check at a nonzero power keeps the
    forward stack, which the spectral density then reads; it is as large
    as the eigenfunctions (a sea of 257 waves at d = 3, n = 32 holds 135 MB
    more), so a ladder of large plane-wave seas belongs in sea_ladder, which
    holds neither.
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
        return gram_residual(self._power_overlaps[0.0])

    @cached_property
    def _forward_stack(self) -> np.ndarray:
        """The forward transforms [r, ...] of the eigenfunctions."""
        return _read_only(forward_transform_stack(self.grid, self.eigenfunctions))

    @cached_property
    def spectral_density(self) -> np.ndarray:
        """w(xi) = sum_k lambda_k |coeffs_k(xi)|^2, in FFT layout.

        It sums over the kept forward stack when a check at a nonzero power
        has built it; otherwise it transforms the eigenfunctions a chunk at a
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
        """power a -> M_a, the overlaps <v_k, v_l> of v_k = (-Laplacian)^{-a/2} u_k.

        M_0, the Gram matrix <u_k, u_l>, is built with the dict, from the
        eigenfunctions; validate_contract adds the _power_overlap of each
        other power it checks.
        """
        return {0.0: _read_only(gram_matrix(self.grid, self.eigenfunctions))}

    def reweighted(self, eigenvalues) -> "FiniteRankOperator":
        """The operator on the same eigenfunctions with other eigenvalues.

        It shares what depends on the eigenfunctions alone, once computed:
        the Gram residual, the forward stack and the overlaps, the Gram
        matrix among them.
        """
        op = FiniteRankOperator(self.grid, eigenvalues, self.eigenfunctions)
        for name in ("gram_residual", "_forward_stack", "_power_overlaps"):
            if name in self.__dict__:
                op.__dict__[name] = self.__dict__[name]
        return op


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


def nyquist_shell(grid: TorusGrid) -> float:
    """(pi N / L)^2, the |xi|^2 of the lattice mode -N/2 on one axis.  The
    lattice holds no +N/2, so a sea at or above this shell is clipped by the
    lattice and no longer approximates a Fermi ball."""
    return float(np.max(grid.axis_frequencies**2))


def sea_chemical_potential(grid: TorusGrid, chemical_potential: float) -> float:
    """The chemical potential of a Fermi sea on the grid, as a float;
    ConfigurationError unless it is positive, finite and below the
    nyquist_shell, at or above which the lattice clips the sea."""
    mu = finite_chemical_potential(chemical_potential)
    shell = nyquist_shell(grid)
    if mu >= shell:
        raise ConfigurationError(
            f"chemical potential {mu} reaches the Nyquist shell {shell}: the lattice "
            "clips its sea, which holds the mode -N/2 but not +N/2"
        )
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


def _axis_waves(grid: TorusGrid, axis_modes: np.ndarray) -> np.ndarray:
    """The one-axis waves of ``axis_modes`` (indices into the axis's
    frequencies) as [2, r, N]: [0] holds e^{i xi_m x} and [1] the same
    waves scaled by L^{-d/2}.

    Every normalized plane wave of the grid is an outer product of d of
    these waves, one of them scaled.
    """
    waves = np.exp(1j * np.outer(grid.axis_frequencies[axis_modes], grid.axis_coordinates))
    return np.stack([waves, waves * grid.volume**-0.5])


def _axis_squares(grid: TorusGrid, axis_modes: np.ndarray) -> np.ndarray:
    """The |.|^2 rows that _wave_squares multiplies, as [2, 2, r, N]: [0] of
    the one-axis spectra, [1] of the _axis_waves; plain rows, then scaled.

    The table of _axis_waves is transformed in one call on the line grid.
    A scaled spectrum also takes the factor h^d of forward_transform_stack.
    """
    waves = _axis_waves(grid, axis_modes)
    spectra = fft_stack(TorusGrid(1, grid.box_length, grid.points_per_axis), waves)
    spectra[1] *= grid.cell_volume
    return np.stack([abs_squared(spectra), abs_squared(waves)])


def _wave_squares(squares: np.ndarray, factors: np.ndarray, out) -> np.ndarray:
    """The |c_k|^2 and |u_k|^2 tables of c normalized plane waves, written
    into the two float tables [c, N, .., N] of ``out``.

    ``factors`` [d, c] gives each wave's row of ``squares`` (_axis_squares)
    on each axis; row 0 is the constant wave.  Each table is the outer
    product of those rows, appended one axis at a time.  A wave's first
    non-constant axis (axis 0 for the zero mode) takes the scaled row and
    every other axis the plain one.  A constant factor's rows are 1 and
    N^2 e_0, exact in binary, so a wave with at most one non-constant
    factor gets the tables of the transform of its materialized wave, bit
    for bit.
    """
    dimension, count = factors.shape
    first = np.argmax(factors != 0, axis=0)
    for rows, table in zip(squares, out):
        product = np.ones(count)
        for axis, row in enumerate(factors):
            # Append one axis: [r, N, ..] times [r, 1, .., 1, N].
            factor = rows[(first == axis).astype(int), row].reshape((count,) + (1,) * axis + (-1,))
            last = axis == dimension - 1
            product = np.multiply(product[..., None], factor, out=table if last else None)
    return out


def sea_ladder(grid: TorusGrid, chemical_potentials) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """(rank, w, rho) of the Fermi sea at each chemical potential, in order.

    No sea is held: every rung's waves are a prefix of the top rung's in
    (|xi|^2, flat index) order.  The table of _axis_waves on the r one-axis
    modes of the top sea (those with xi_m^2 <= mu) is transformed once, and
    one pass builds field_chunks of the rank axis with _wave_squares into
    two float tables it reuses, summing |c_k|^2 and |u_k|^2 in ascending k
    into w and rho, copied at each rung's rank.  On a rung whose waves each
    have at most one non-constant factor these are the sums
    spectral_density and density_values run on the operator of unit
    weights on those waves, bit for bit; elsewhere the outer products and
    the transform differ by rounding.  The pass costs O(R N^d + r N log N)
    for top rank R.  A chemical potential below the first shell
    (2 pi / L)^2, whose sea holds only the zero mode, or one that
    sea_chemical_potential refuses, is refused (ConfigurationError) before
    the table is built.

    The |c_k|^2 also certify the unit-ball contract, with no Gram
    matrix.  With c_k = a_k e_{m_k} + r_k, m_k the wave's own mode and
    r_k(m_k) = 0, distinct modes and Parseval give |G_kl - delta_kl| <= B
    on the Gram matrix of the first r waves, with maxima over k < r:

        B = max |L^{-d} |a_k|^2 - 1|
            + L^{-d} (2 max |a_k| max ||r_k||_inf + max ||r_k||_2^2).

    Each rung takes the unit-ball verdict on its B when the pass reaches its
    rank; a failure raises ContractViolationError as require_contract does.
    """
    # Refuse a bad rung before the table is built.
    chemical_potentials = [sea_chemical_potential(grid, mu) for mu in chemical_potentials]
    if not chemical_potentials:
        return []
    modes = _sea_modes(grid, max(chemical_potentials))
    if np.any(np.diff(np.sort(modes)) == 0):
        raise ContractViolationError("operator fails the unit_ball contract: a mode repeats")
    # A rung's waves are the first rank of the top rung's.
    nsq = grid.frequency_norms_squared
    ranks = [int(np.count_nonzero(nsq <= mu)) for mu in chemical_potentials]
    for mu, rank in zip(chemical_potentials, ranks):
        if rank == 1:
            raise ConfigurationError(
                f"chemical potential {mu} lies below the first shell "
                f"{(2.0 * math.pi / grid.box_length) ** 2}: its sea holds only the zero mode"
            )

    # The one-axis modes of the top sea, the constant first, and the row of
    # each among them.
    line = TorusGrid(1, grid.box_length, grid.points_per_axis)
    axis_modes = _sea_modes(line, max(chemical_potentials))
    squares = _axis_squares(grid, axis_modes)
    rows = np.zeros(grid.points_per_axis, dtype=int)
    rows[axis_modes] = np.arange(axis_modes.size)
    rungs = {}
    w, rho = np.zeros(grid.shape), np.zeros(grid.shape)
    # Running maxima of |L^{-d} |a_k|^2 - 1|, |a_k|^2, ||r_k||_inf^2, ||r_k||_2^2.
    maxima = np.zeros((4, 1))
    chunks = field_chunks(grid, modes.size, 1)
    tables = np.empty((2, len(range(modes.size)[chunks[0]])) + grid.shape)
    for chunk in chunks:
        count = len(range(modes.size)[chunk])
        factors = rows[np.stack(np.unravel_index(modes[chunk], grid.shape))]
        spectral, physical = _wave_squares(squares, factors, tables[:, :count])
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
                _require(_contract_report(UNIT_BALL, float(bounds[k + 1]), 1.0))
                rungs[chunk.start + k + 1] = (w.copy(), rho.copy())
    return [(rank, *rungs[rank]) for rank in ranks]


@dataclass
class ValidationReport:
    contract: OperatorContract
    passed: bool
    margin: float
    checks: dict[str, float] = field(default_factory=dict)


def gram_matrix(grid: TorusGrid, functions: np.ndarray) -> np.ndarray:
    """<u_k, u_l> of a stack [r, ...] of grid fields, in the quadrature inner
    product; of a stack of frames [f, r, ...], one [f, r, r] matrix per frame.

    The columns of a frame's (r, N^d) view are read in byte_chunks sized for
    one frame, so its matrix does not depend on the stack it comes in, and
    each block c adds c c^H, for every frame in one product.
    """
    rank = functions.shape[-grid.dimension - 1]
    flat = functions.reshape(functions.shape[: -grid.dimension] + (grid.size,))
    gram = 0.0
    for cols in byte_chunks(grid.size, rank * np.dtype(complex).itemsize):
        block = flat[..., cols]
        gram += block @ block.conj().swapaxes(-1, -2)
    return grid.cell_volume * gram


def gram_residual(gram: np.ndarray) -> float:
    """max |G_kl - delta_kl| of a Gram matrix G."""
    return float(np.max(np.abs(gram - np.eye(len(gram)))))


def _contract_report(contract, gram_excess: float, top_eigenvalue) -> ValidationReport:
    """The verdict from a Gram residual and the top eigenvalue of the
    operator relative to its bound, which is at most 1 when the bound holds."""
    power_excess = float(top_eigenvalue - 1.0)
    failed = gram_excess > GRAM_TOLERANCE or power_excess > EIGENVALUE_TOLERANCE
    checks = {"gram_residual": gram_excess, "power_excess": power_excess}
    return ValidationReport(contract, not failed, max(gram_excess, power_excess, 0.0), checks)


def validate_contract(op: FiniteRankOperator, contract: OperatorContract) -> ValidationReport:
    """Check the operator against a contract and report the violation margin.

    gamma <= (-Laplacian)^a holds when the top eigenvalue of
    Lambda^{1/2} M_a Lambda^{1/2} is at most 1, with Lambda the eigenvalues
    and M_a the overlaps of the eigenfunctions; at a = 0, M_0 is their Gram
    matrix and that eigenvalue is the operator norm of gamma.  The margin is
    the largest excess over the mathematical bound (0 when everything holds
    exactly); the report passes when the Gram residual and the excess each
    stay within their numerical tolerance.
    """
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
        return _contract_report(contract, op.gram_residual, math.inf)

    root_weights = np.sqrt(op.eigenvalues)
    m_matrix = root_weights[:, None] * overlap * root_weights[None, :]
    m_matrix = 0.5 * (m_matrix + m_matrix.conj().T)
    return _contract_report(contract, op.gram_residual, np.linalg.eigvalsh(m_matrix)[-1])


def _power_overlap(grid: TorusGrid, forward_stack: np.ndarray, power: float) -> np.ndarray | None:
    """<v_k, v_l> with v_k = (-Laplacian)^{-power/2} u_k, from the forward
    stack [r, ...] of the u_k, at a power other than 0; None when some u_k
    carries zero-mode mass, which v_k (power < 0) or the bound (power > 0)
    forbids."""
    spectra = forward_stack.reshape(len(forward_stack), -1)
    # One row chunk of |spectra|^2 at a time, not a table half the stack's size.
    if any(
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
