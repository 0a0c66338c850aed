"""Seeded generators of test functions, operators and sequences.

Every generator is a pure function of (parameters, master seed, member
index).  Randomness comes from the counter-based Philox generator keyed by
the (seed, index) pair, so corpora are reproducible across platforms and
independent of generation order or worker count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from collections.abc import Sequence

import numpy as np

from .errors import ConfigurationError, DegenerateInputError
from .fock_operator import (
    FiniteRankOperator,
    NO_CONTRACT,
    UNIT_BALL,
    fermi_sea,
    power_bounded,
    validate_contract,
)
from .torus_grid import (
    GridFunction,
    SpectrumFunction,
    TorusGrid,
    inverse_transform,
)

GRAM_RETRY_LIMIT = 5
LAMBDA_STREAM_INDEX = 2**48

GENERATOR_KINDS = (
    "random_band_limited",
    "wave_packet",
    "fermi_sea",
    "random_orthonormal_frame",
    "spike_sequence",
)


def philox_generator(
    master_seed: int, member_index: int = 0, stream: int = 0
) -> np.random.Generator:
    """Philox 4x64 generator keyed by (master seed, member index).

    ``stream`` offsets the counter block, giving a fresh substream for the
    same key (used for orthonormalization retries).
    """
    if not 0 <= stream < 256:
        raise ValueError(f"stream must be in [0, 256), got {stream}")
    key = np.array([master_seed, member_index], dtype=np.uint64)
    counter = np.array([stream << 56, 0, 0, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=counter, key=key))


def random_band_limited(
    grid: TorusGrid,
    decay: float,
    seed: int,
    index: int = 0,
    zero_mean: bool = False,
    stream: int = 0,
) -> GridFunction:
    """Random field with coefficients (g1 + i g2)(xi) * (1 + |xi|)^(-decay)."""
    rng = philox_generator(seed, index, stream)
    draws = rng.standard_normal(size=(2,) + grid.shape)
    coeffs = (draws[0] + 1j * draws[1]) * (1.0 + grid.frequency_norms) ** (-float(decay))
    if zero_mean:
        coeffs[grid.zero_mode_index] = 0.0
    return inverse_transform(SpectrumFunction(grid, coeffs))


def wave_packet(
    grid: TorusGrid,
    center: Sequence[float],
    momentum_mode: Sequence[int],
    width: float,
) -> GridFunction:
    """Periodized Gaussian at ``center`` riding the lattice wave of ``momentum_mode``.

    The envelope is the wrapped Gaussian sum_m exp(-(x - x0 - mL)^2/(2w^2)),
    separable across axes; three images per side cover every desk-scale
    width to beyond double precision.
    """
    width = float(width)
    if width <= 0:
        raise ValueError(f"packet width must be positive, got {width}")
    center = [float(c) for c in center]
    if len(center) != grid.dimension:
        raise ValueError(
            f"center has {len(center)} coordinates for dimension {grid.dimension}"
        )
    idx = grid.mode_index(momentum_mode)
    length = grid.box_length
    values = np.ones(grid.shape)
    for axis in range(grid.dimension):
        x = grid.axis_coordinates
        envelope = np.zeros(x.shape)
        for image in range(-3, 4):
            shifted = x - center[axis] - image * length
            envelope = envelope + np.exp(-(shifted**2) / (2.0 * width**2))
        expand = [None] * grid.dimension
        expand[axis] = slice(None)
        values = values * envelope[tuple(expand)]
    phase = np.zeros(grid.shape)
    for axis, m_idx in enumerate(idx):
        phase = phase + grid.axis_frequencies[m_idx] * grid.coordinate_grids[axis]
    return GridFunction(grid, values * np.exp(1j * phase))


def _frame_inner(grid: TorusGrid, a: np.ndarray, b: np.ndarray) -> complex:
    return complex(grid.cell_volume * np.sum(np.conj(a) * b))


def _orthonormalize(grid: TorusGrid, vectors: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt, two passes, in the quadrature inner product."""
    frame = vectors.astype(complex).copy()
    rank = frame.shape[0]
    for _pass in range(2):
        for k in range(rank):
            for i in range(k):
                frame[k] = frame[k] - _frame_inner(grid, frame[i], frame[k]) * frame[i]
            norm = np.sqrt(_frame_inner(grid, frame[k], frame[k]).real)
            if norm <= 0:
                raise DegenerateInputError("frame vector collapsed to zero")
            frame[k] = frame[k] / norm
    return frame


def _gram_residual(grid: TorusGrid, frame: np.ndarray) -> float:
    flat = frame.reshape(frame.shape[0], -1)
    gram = grid.cell_volume * (flat @ flat.conj().T)
    return float(np.max(np.abs(gram - np.eye(frame.shape[0]))))


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
    degenerate on constants).
    """
    rank = int(rank)
    if rank < 1:
        raise ValueError(f"rank must be at least 1, got {rank}")
    if rank > grid.size:
        raise ValueError(f"rank {rank} exceeds the {grid.size} lattice modes")
    if weights not in ("uniform", "ones"):
        raise ValueError(f"unknown weight law {weights!r}")
    force_zero_mean = zero_mean or (power_bound is not None and power_bound != 0.0)

    frame = None
    for attempt in range(GRAM_RETRY_LIMIT):
        raw = np.stack(
            [
                random_band_limited(
                    grid,
                    decay,
                    seed,
                    index=index * rank + k,
                    zero_mean=force_zero_mean,
                    stream=attempt,
                ).values
                for k in range(rank)
            ]
        )
        candidate = _orthonormalize(grid, raw)
        if _gram_residual(grid, candidate) <= 1e-10:
            frame = candidate
            break
    if frame is None:
        raise DegenerateInputError(
            f"orthonormalization failed {GRAM_RETRY_LIMIT} times for seed "
            f"{seed}, member {index}"
        )

    rng = philox_generator(seed, LAMBDA_STREAM_INDEX + index)
    if weights == "uniform":
        lambdas = rng.uniform(0.0, 1.0, size=rank)
    else:
        lambdas = np.ones(rank)

    if power_bound is None:
        op = FiniteRankOperator(grid, lambdas, frame, contract=UNIT_BALL)
        return op

    contract = power_bounded(power_bound)
    probe = FiniteRankOperator(grid, lambdas, frame, contract=contract)
    report = validate_contract(probe, contract)
    top = report.checks["power_excess"] + 1.0
    if not np.isfinite(top) or top <= 0:
        raise DegenerateInputError(
            "frame cannot be scaled into the power-bounded contract"
        )
    return FiniteRankOperator(grid, lambdas / top, frame, contract=contract)


def _spike_window(dimension: int, j_range) -> tuple[int, int]:
    lo, hi = int(j_range[0]), int(j_range[1])
    if hi < lo:
        raise ValueError(f"empty index range [{lo}, {hi}]")
    if dimension not in (1, 2, 3):
        raise ValueError(f"dimension must be 1, 2 or 3, got {dimension}")
    return lo, hi


def _rekeyed_generators(master_seed: int, indices):
    """Yield, for each index, a generator in the state ``philox_generator(master_seed, i)`` starts in.

    One bit generator is re-keyed per index, so every yield is the same
    object: draw from it before advancing.  Building a fresh Philox per index
    would also pull OS entropy for a seed sequence that the key then discards.
    """
    bit_generator = np.random.Philox(0)
    generator = np.random.Generator(bit_generator)
    key = np.array([master_seed, 0], dtype=np.uint64)
    # The setter copies every field, so one state dict serves every index.
    state = dict(
        bit_generator.state,
        state={"counter": np.zeros(4, dtype=np.uint64), "key": key},
        buffer_pos=4,
        has_uint32=0,
        uinteger=0,
    )
    for index in indices:
        key[1] = index
        bit_generator.state = state
        yield generator


class SpikeTable(Sequence):
    """Spike sequences as one (count, J) array; each member is a view of one row.

    Row i is member i, column k is the index ``lo + k``; indexing the table
    returns the member as a {j: alpha_j} dict.
    """

    def __init__(self, lo: int, values: np.ndarray) -> None:
        self.lo = lo
        self.values = values

    @property
    def indices(self) -> np.ndarray:
        return np.arange(self.lo, self.lo + self.values.shape[1])

    def __len__(self) -> int:
        return self.values.shape[0]

    def __getitem__(self, index: int) -> dict[int, float]:
        return dict(zip(self.indices.tolist(), self.values[index].tolist()))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SpikeTable)
            and self.lo == other.lo
            and np.array_equal(self.values, other.values)
        )


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
) -> SpikeTable:
    """Random admissible sequences 0 <= alpha_j <= 2^(j d) on the index window.

    Each member multiplies the cap 2^(j d) by a uniform coefficient and a
    random sparse mask, so admissibility holds by construction.  All members
    are drawn into one (count, J) table; member i still comes from its own
    Philox key (seed, i), so it does not depend on the count.
    """
    lo, hi = _spike_window(dimension, j_range)
    count = int(count)
    return _spike_table(dimension, lo, hi, _rekeyed_generators(seed, range(count)), count)


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

    def member(self, grid: TorusGrid, index: int):
        """Build member ``index``; pure in (spec, grid, index)."""
        if not 0 <= index < self.count:
            raise IndexError(f"member index {index} outside [0, {self.count})")
        p = self.params
        if self.kind == "random_band_limited":
            return random_band_limited(
                grid,
                decay=p.get("decay", 1.0),
                seed=self.seed,
                index=index,
                zero_mean=bool(p.get("zero_mean", False)),
            )
        if self.kind == "wave_packet":
            rng = philox_generator(self.seed, index)
            center = p.get("center")
            if center is None:
                center = rng.uniform(0.0, grid.box_length, size=grid.dimension)
            return wave_packet(
                grid,
                center=center,
                momentum_mode=p.get("momentum_mode", [grid.points_per_axis // 4] + [0] * (grid.dimension - 1)),
                width=p.get("width", grid.box_length / 8.0),
            )
        if self.kind == "fermi_sea":
            return fermi_sea(grid, p["chemical_potential"])
        if self.kind == "random_orthonormal_frame":
            return random_orthonormal_frame(
                grid,
                rank=int(p.get("rank", 1)),
                decay=p.get("decay", 1.0),
                seed=self.seed,
                index=index,
                weights=p.get("weights", "uniform"),
                zero_mean=bool(p.get("zero_mean", False)),
                power_bound=p.get("power_bound"),
            )
        # spike_sequence: the grid fixes nothing but the dimension.
        dimension = int(p.get("dimension", grid.dimension))
        lo, hi = _spike_window(dimension, p.get("j_range", (-10, 10)))
        return _spike_table(dimension, lo, hi, [philox_generator(self.seed, index)], 1)[0]

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "count": self.count,
            "seed": self.seed,
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CorpusSpec":
        try:
            return cls(
                kind=data["kind"],
                count=int(data["count"]),
                seed=int(data["seed"]),
                params=dict(data.get("params", {})),
            )
        except KeyError as missing:
            raise ConfigurationError(f"corpus spec missing field {missing}") from None

    @classmethod
    def from_file(cls, path) -> "CorpusSpec":
        """Read a spec from JSON or from simple key=value lines."""
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        stripped = text.lstrip()
        if stripped.startswith("{"):
            return cls.from_dict(json.loads(text))
        data: dict = {"params": {}}
        for line_number, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigurationError(
                    f"line {line_number} of {path} is not key=value: {line!r}"
                )
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            try:
                parsed = json.loads(value)
            except json.JSONDecodeError:
                parsed = value
            if key in ("kind", "count", "seed"):
                data[key] = parsed
            else:
                data["params"][key] = parsed
        return cls.from_dict(data)
