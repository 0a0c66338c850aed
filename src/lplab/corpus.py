"""Seeded generators of band-limited fields, orthonormal frames and spike
sequences.

Every generator is a pure function of (parameters, master seed, member
index).  Randomness comes from the counter-based Philox generator keyed by
the (seed, index) pair, so corpora are reproducible across platforms and
independent of generation order or worker count.  A CorpusSpec names one of
the two kinds the envelope sections draw, band-limited fields or frame
operators, and draws its members a chunk at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DegenerateInputError
from .fock_operator import (
    GRAM_TOLERANCE, FiniteRankOperator, OperatorContract, power_bounded, validate_contract
)
from .torus_grid import TorusGrid, field_chunks, inverse_transform_stack

GRAM_RETRY_LIMIT = 5
LAMBDA_STREAM_INDEX = 2**48

GENERATOR_KINDS = ("random_band_limited", "random_orthonormal_frame")


def philox_generator(
    master_seed: int, member_index: int = 0, stream: int = 0
) -> np.random.Generator:
    """Philox 4x64 generator keyed by (master seed, member index).

    ``stream`` offsets the counter block, giving a fresh substream for the
    same key (used for orthonormalization retries).
    """
    key = philox_key(master_seed, member_index)
    return np.random.Generator(np.random.Philox(counter=_stream_counter(stream), key=key))


def philox_key(master_seed: int, member_index: int = 0) -> np.ndarray:
    """The Philox key [master seed, member index]; ConfigurationError unless
    both are integers in [0, 2^64)."""
    for name, value in (("seed", master_seed), ("member index", member_index)):
        if not 0 <= value < 2**64:
            raise ConfigurationError(f"{name} must be at least 0 and below 2^64, got {value}")
    return np.array([master_seed, member_index], dtype=np.uint64)


def _stream_counter(stream: int) -> list[int]:
    """The Philox counter at which substream ``stream`` starts, as four words."""
    if not 0 <= stream < 256:
        raise ValueError(f"stream must be in [0, 256), got {stream}")
    return [stream << 56, 0, 0, 0]


def complex_normals(shape, seed: int, indices: range, stream: int = 0) -> np.ndarray:
    """g1 + i g2 for each index i, as [len(indices), *shape], where [g1, g2]
    are the first standard normals of philox_generator(seed, i, stream).

    Each index's draw fills one [2, *shape] buffer, copied straight into the
    real and imaginary parts of its row of the result.
    """
    normals = np.empty((len(indices),) + tuple(shape), dtype=complex)
    draws = np.empty((2,) + tuple(shape))
    for row, rng in zip(normals, _rekeyed_generators(seed, indices, stream)):
        rng.standard_normal(out=draws)
        row.real, row.imag = draws
    return normals


def random_band_limited(
    grid: TorusGrid,
    decay: float,
    seed: int,
    index: int = 0,
    zero_mean: bool = False,
    stream: int = 0,
    count: int = 1,
) -> np.ndarray:
    """Random fields with coefficients (g1 + i g2)(xi) * (1 + |xi|)^(-decay).

    The values of members index, ..., index + count - 1, as one [count, ...]
    stack; member i takes the complex_normals draw of index i on ``stream``.
    The members are drawn in one pass: one weight table, one re-keyed
    generator and one batched inverse transform.  The weights and the
    transform are applied in place, so the draw holds one array of the
    result's size.  A decay whose weights overflow, or vanish at every
    nonzero mode, is refused (ConfigurationError) before the draw; so,
    unless ``zero_mean``, is one whose nonzero-mode weights all fall below
    np.finfo(float).eps, beside the zero mode's weight 1.
    """
    decay = float(decay)
    if not math.isfinite(decay):
        raise ConfigurationError(f"decay must be finite, got {decay}")
    # The weight is monotone in |xi|: it is largest at the largest |xi| for a
    # decay below 0 and at the smallest nonzero |xi| above 0.
    norms = grid.frequency_norms
    with np.errstate(over="ignore"):
        low, high = (1.0 + np.array([norms[norms > 0].min(), norms.max()])) ** -decay
    if not (math.isfinite(high) and low > 0.0):
        raise ConfigurationError(
            f"decay {decay:g} puts the weights (1 + |xi|)^(-decay) outside the binary64 range"
        )
    # The zero mode weighs 1: below eps beside it, every member is constant.
    if not zero_mean and low < np.finfo(float).eps:
        raise ConfigurationError(
            f"decay {decay:g} leaves every nonzero-mode weight (1 + |xi|)^(-decay) below "
            "the rounding of the zero mode's weight 1: every member is constant"
        )
    coeffs = complex_normals(grid.shape, seed, range(index, index + int(count)), stream)
    coeffs *= (1.0 + grid.frequency_norms) ** -decay
    if zero_mean:
        coeffs[(slice(None),) + grid.zero_mode_index] = 0.0
    return inverse_transform_stack(grid, coeffs, out=coeffs)


def _orthonormalize(grid: TorusGrid, vectors: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt, two passes, in the quadrature inner product.

    ``vectors`` is one frame [rank, ...] or a stack of frames
    [frames, rank, ...], a C-contiguous complex array; each frame is
    orthonormalized on its own, in place: the input is overwritten and
    returned.
    Right-looking: each pass normalizes pivot i of every frame, then takes
    its inner products with the later rows and subtracts them in place, one
    field_chunk of the row axis (across every frame) at a time, so the pass
    holds one chunk beside the frames.  Every row still meets its
    projections in ascending pivot order and is then normalized, the same
    operations in the same order as the left-looking per-pair loop on one
    frame.
    """
    shape = np.shape(vectors)
    rank = shape[-grid.dimension - 1]
    frames = np.asarray(vectors).reshape(-1, rank, grid.size)
    cell_volume = grid.cell_volume
    for _pass in range(2):
        for i in range(rank):
            pivot = frames[:, i]
            norm = np.sqrt((cell_volume * (pivot.conj() * pivot).sum(axis=1)).real)
            if (norm <= 0).any():
                raise DegenerateInputError("frame vector collapsed to zero")
            # Dividing by the norms cast to complex runs the same complex
            # division as by a real scalar, without a buffered cast.
            pivot /= norm[:, None].astype(complex)
            conjugate = pivot.conj()[:, None]
            for rows in field_chunks(grid, rank - i - 1, len(frames)):
                rest = frames[:, i + 1 :][:, rows]
                overlaps = cell_volume * (conjugate * rest).sum(axis=2)
                rest -= overlaps[:, :, None] * pivot[:, None]
    return frames.reshape(shape)


def random_orthonormal_frame(
    grid: TorusGrid,
    rank: int,
    decay: float,
    seed: int,
    index: int = 0,
    weights: str = "uniform",
    zero_mean: bool = False,
    power_bound: float | None = None,
) -> FiniteRankOperator:
    """Finite-rank operator on a random orthonormal frame of band-limited fields.

    ``weights`` selects the eigenvalue law: "uniform" in [0, 1] or "ones".
    With ``power_bound`` set to an exponent a, the eigenvalues are rescaled so
    the operator satisfies the power-bounded contract at that exponent (mean
    zero is forced for a != 0, where the bounding operator is singular or
    degenerate on constants).  Attempt t draws the frame's rank members in
    one call, on substream t; a frame whose Gram check fails is redrawn.
    """
    return random_orthonormal_frames(
        grid, rank, decay, seed, index, 1, weights, zero_mean, power_bound
    )[0]


def random_orthonormal_frames(
    grid: TorusGrid,
    rank: int,
    decay: float,
    seed: int,
    index: int = 0,
    count: int = 1,
    weights: str = "uniform",
    zero_mean: bool = False,
    power_bound: float | None = None,
) -> list[FiniteRankOperator]:
    """Frames index, ..., index + count - 1, each the random_orthonormal_frame
    of its index.

    The first attempts of all frames are one pass: one random_band_limited
    call draws the count * rank members (frame f owns members f * rank, ...,
    f * rank + rank - 1), one Gram-Schmidt runs over the [count, rank, ...]
    stack, and then each frame takes its own Gram check.  A frame that fails
    it is redrawn alone, on the next substream.
    """
    rank, count = int(rank), int(count)
    if rank < 1:
        raise ConfigurationError(f"rank must be at least 1, got {rank}")
    if rank > grid.size:
        raise ConfigurationError(f"rank {rank} exceeds the {grid.size} lattice modes")
    if weights not in ("uniform", "ones"):
        raise ConfigurationError(f"unknown weight law {weights!r}")
    force_zero_mean = zero_mean or (power_bound is not None and power_bound != 0.0)
    if force_zero_mean and rank > grid.size - 1:
        raise ConfigurationError(
            f"rank {rank} exceeds the {grid.size - 1} mean-zero lattice modes"
        )
    # Built before anything is drawn: a non-finite power bound is refused first.
    contract = None if power_bound is None else power_bounded(power_bound)

    def attempt(member: int, stream: int, frames: int) -> np.ndarray:
        raw = random_band_limited(
            grid,
            decay,
            seed,
            index=member * rank,
            zero_mean=force_zero_mean,
            stream=stream,
            count=frames * rank,
        )
        return _orthonormalize(grid, raw.reshape((frames, rank) + grid.shape))

    # The members are drawn first: random_band_limited refuses a bad decay.
    first = attempt(index, 0, count)
    indices = range(index, index + count)
    if weights == "uniform":
        keys = range(LAMBDA_STREAM_INDEX + index, LAMBDA_STREAM_INDEX + index + count)
        lambdas = [rng.uniform(0.0, 1.0, size=rank) for rng in _rekeyed_generators(seed, keys)]
    else:
        lambdas = [np.ones(rank)] * count
    result = []
    for member, functions, eigenvalues in zip(indices, first, lambdas):
        op = FiniteRankOperator(grid, eigenvalues, functions)
        stream = 1
        while op.gram_residual > GRAM_TOLERANCE:
            if stream == GRAM_RETRY_LIMIT:
                raise DegenerateInputError(
                    f"orthonormalization failed {GRAM_RETRY_LIMIT} times for seed "
                    f"{seed}, member {member}"
                )
            functions = attempt(member, stream, 1)[0]
            op = FiniteRankOperator(grid, eigenvalues, functions)
            stream += 1
        result.append(op if contract is None else _power_scaled(op, contract))
    return result


def _power_scaled(op: FiniteRankOperator, contract: OperatorContract) -> FiniteRankOperator:
    """The frame with its eigenvalues rescaled into a power-bounded contract.

    The rescaled operator shares the Gram residual, the forward stack and
    the power overlap this check computes, so its own check of the contract
    transforms nothing and forms no overlap again.
    """
    top = validate_contract(op, contract).checks["power_excess"] + 1.0
    if not np.isfinite(top) or top <= 0:
        raise DegenerateInputError(
            "frame cannot be scaled into the power-bounded contract"
        )
    return op.reweighted(op.eigenvalues / top)


# The sequence bound's terms reach 2^((d + 2) j); beyond this exponent they
# leave the normal binary64 range (2^-1022 .. 2^1023).
SPIKE_EXPONENT_LIMIT = 1000


def spike_window(dimension: int, j_range) -> tuple[int, int]:
    """The index window (lo, hi) of j_range, refused (ConfigurationError)
    when it is empty, the dimension is not 1, 2 or 3, or its terms leave the
    binary64 range."""
    lo, hi = int(j_range[0]), int(j_range[1])
    if hi < lo:
        raise ConfigurationError(f"empty index range [{lo}, {hi}]")
    if dimension not in (1, 2, 3):
        raise ConfigurationError(f"dimension must be 1, 2 or 3, got {dimension}")
    if (dimension + 2) * max(abs(lo), abs(hi)) > SPIKE_EXPONENT_LIMIT:
        raise ConfigurationError(
            f"index range [{lo}, {hi}] leaves the binary64 range at d={dimension}: "
            f"(d + 2) * max |j| must be at most {SPIKE_EXPONENT_LIMIT}"
        )
    return lo, hi


def _rekeyed_generators(master_seed: int, indices: range, stream: int = 0):
    """Yield, for each index of a range, a generator in the state
    ``philox_generator(master_seed, i, stream)`` starts in.

    One bit generator is re-keyed per index, so every yield is the same
    object: draw from it before advancing.  Building a fresh Philox per index
    would also pull OS entropy for a seed sequence that the key then discards.
    The state holds Python ints, which the setter reads faster than the
    elements of numpy arrays, with the same bits.
    """
    counter = _stream_counter(stream)
    bit_generator = np.random.Philox(0)
    generator = np.random.Generator(bit_generator)
    philox_key(master_seed)
    if indices:  # the ends of a range bound every index in it
        philox_key(master_seed, indices[0])
        philox_key(master_seed, indices[-1])
    key = [int(master_seed), 0]
    # The setter copies every field, so one state dict serves every index.
    state = dict(
        bit_generator.state,
        state={"counter": counter, "key": key},
        buffer=[0, 0, 0, 0],
        buffer_pos=4,
        has_uint32=0,
        uinteger=0,
    )
    for index in indices:
        key[1] = index
        bit_generator.state = state
        yield generator


class SpikeTable:
    """Spike sequences as one (count, J) array: row r is the r-th member of
    the draw, column k is the index ``lo + k``."""

    def __init__(self, lo: int, values: np.ndarray) -> None:
        self.lo = lo
        self.values = values

    @property
    def indices(self) -> np.ndarray:
        return np.arange(self.lo, self.lo + self.values.shape[1])


def _spike_table(dimension: int, lo: int, hi: int, generators, count: int) -> SpikeTable:
    """One row per generator, from its 2J+1 uniforms: J coefficients, the keep
    probability, then J mask draws (the stream of uniform(0, 1, J),
    uniform(0.1, 0.9), uniform(0, 1, J))."""
    length = hi - lo + 1
    uniforms = np.empty((count, 2 * length + 1))
    for row, rng in zip(uniforms, generators):
        rng.random(out=row)
    keep_probability = 0.1 + (0.9 - 0.1) * uniforms[:, length]
    mask = uniforms[:, length + 1 :] < keep_probability[:, None]
    caps = np.ldexp(1.0, np.arange(lo, hi + 1) * dimension)
    return SpikeTable(lo, uniforms[:, :length] * mask * caps)


def spike_sequences(
    dimension: int,
    j_range: tuple[int, int] = (-10, 10),
    count: int = 1,
    seed: int = 0,
    index: int = 0,
) -> SpikeTable:
    """Random admissible sequences 0 <= alpha_j <= 2^(j d) on the index window.

    Each member multiplies the cap 2^(j d) by a uniform coefficient and a
    random sparse mask, so admissibility holds by construction.  Members
    index, ..., index + count - 1 are drawn into one (count, J) table;
    member i comes from its own Philox key (seed, i), so a row depends on
    neither the count nor the first member of the draw.
    """
    lo, hi = spike_window(dimension, j_range)
    count, index = int(count), int(index)
    if count < 0:
        raise ConfigurationError(f"member count must be at least 0, got {count}")
    generators = _rekeyed_generators(seed, range(index, index + count))
    return _spike_table(dimension, lo, hi, generators, count)


def single_spike(dimension: int, j: int) -> dict[int, float]:
    """The saturated one-term sequence alpha_j = 2^(j d), the sharpness witness."""
    return {int(j): 2.0 ** (int(j) * dimension)}


@dataclass(frozen=True)
class CorpusSpec:
    """Declarative description of a corpus: kind, size, seed and parameters."""

    kind: str
    count: int
    seed: int
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in GENERATOR_KINDS:
            raise ConfigurationError(
                f"unknown generator kind {self.kind!r}, expected one of {GENERATOR_KINDS}"
            )
        if self.count < 1:
            raise ConfigurationError(f"sample count must be >= 1, got {self.count}")
        if int(self.params.get("rank", 1)) < 1:
            raise ConfigurationError(f"rank must be at least 1, got {self.params['rank']}")

    def member(self, grid: TorusGrid, index: int):
        """Build member ``index``; pure in (spec, grid, index)."""
        return self.members(grid, index, 1)[0]

    def members(self, grid: TorusGrid, start: int, count: int):
        """Members start, ..., start + count - 1, drawn in one pass.

        A band-limited corpus returns their values as one [count, ...] stack
        from one draw, a frame corpus a list of operators built in one pass
        (random_orthonormal_frames).
        """
        if not (0 <= start and count >= 1 and start + count <= self.count):
            raise IndexError(
                f"members {start} .. {start + count - 1} outside [0, {self.count})"
            )
        p = self.params
        if self.kind == "random_band_limited":
            return random_band_limited(
                grid,
                decay=p.get("decay", 1.0),
                seed=self.seed,
                index=start,
                zero_mean=bool(p.get("zero_mean", False)),
                count=count,
            )
        return random_orthonormal_frames(
            grid,
            rank=int(p.get("rank", 1)),
            decay=p.get("decay", 1.0),
            seed=self.seed,
            index=start,
            count=count,
            weights=p.get("weights", "uniform"),
            zero_mean=bool(p.get("zero_mean", False)),
            power_bound=p.get("power_bound"),
        )

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "count": self.count,
            "seed": self.seed,
            "params": dict(self.params),
        }
