"""The block set holds its tables as [J, N, ..., N] arrays.

The list builder and the companion builder that tabulated one array per
block are kept here as the reference: every table of the array format, its
squared sum and its partition residual must equal theirs bit for bit.
Companions are tabulated on first read, and only the commands that read
them (partition, the pairing identity) tabulate them.
"""

import contextlib
import io
import math

import numpy as np
import pytest

import lplab.cli
import lplab.inequality_lab
from lplab import (
    SHARP,
    SMOOTH,
    BumpProfile,
    ConfigurationError,
    TorusGrid,
    UnsupportedFamilyError,
    block_squared_sum,
    block_table,
    build_blocks,
)
from lplab.cli import DESK_POINTS, run

TAU = 2.0 * np.pi
_LOG_EPS = 1e-9


# ---------------------------------------------------------------------------
# The per-block list reference, with its own profile evaluation


def _exp_glue(t):
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape)
    pos = t > 0
    out[pos] = np.exp(-1.0 / t[pos])
    return out


def _quintic_ramp(t):
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    return t**3 * (10.0 - 15.0 * t + 6.0 * t**2)


class ReferenceProfile:
    def __init__(self, kind):
        self.kind = kind

    def __call__(self, radii):
        r = np.atleast_1d(np.asarray(radii, dtype=float))
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
        return out

    def annulus_bump(self, radii):
        r = np.asarray(radii, dtype=float)
        return self(r) - self(2.0 * r)


def reference_symbols(grid, family, profile):
    """(j_min, j_max, [table_j]): one array per block, each built on its own."""
    radii = grid.frequency_norms
    nonzero = radii[radii > 0]
    r_min = float(nonzero.min())
    r_max = float(radii.max())
    j_min = math.floor(math.log2(r_min) + _LOG_EPS)
    if family == SMOOTH:
        j_max = math.ceil(math.log2(r_max) - _LOG_EPS)
    else:
        j_max = math.floor(math.log2(r_max) + _LOG_EPS)
    if j_max - j_min < 2:
        raise ConfigurationError("grid too coarse")
    symbols = []
    for j in range(j_min, j_max + 1):
        if family == SMOOTH:
            if j == j_min:
                table = profile(radii * 2.0**-j)
            elif j == j_max:
                table = 1.0 - profile(radii * 2.0 ** -(j - 1))
            else:
                table = profile.annulus_bump(radii * 2.0**-j)
        elif j == j_min:
            table = (radii < 2.0 ** (j + 1)).astype(float)
        elif j == j_max:
            table = (radii >= 2.0**j).astype(float)
        else:
            table = ((radii >= 2.0**j) & (radii < 2.0 ** (j + 1))).astype(float)
        symbols.append(table)
    return j_min, j_max, symbols


def reference_companions(grid, j_min, j_max, profile):
    radii = grid.frequency_norms
    companions = []
    for j in range(j_min, j_max + 1):
        if j == j_min:
            table = profile(radii * 2.0 ** -(j + 1))
        elif j == j_max:
            table = 1.0 - profile(radii * 2.0 ** -(j - 2))
        else:
            table = profile(radii * 2.0 ** -(j + 1)) - profile(radii * 2.0 ** -(j - 2))
        companions.append(table)
    return companions


def reference_squared_sum(grid, symbols):
    total = np.zeros(grid.shape)
    for table in symbols:
        total = total + table**2
    return total


def reference_residual(grid, symbols):
    total = np.zeros(grid.shape)
    for table in symbols:
        total = total + table
    return float(np.max(np.abs(total - 1.0)))


GRIDS = [
    (d, n) for d in (1, 2, 3) for n in (8, 16, 32, 64, 128, 256) if n <= DESK_POINTS[d]
]
FAMILIES = [(SMOOTH, "exp"), (SMOOTH, "quintic"), (SHARP, "exp")]


@pytest.mark.parametrize("family, kind", FAMILIES, ids=["smooth_exp", "smooth_quintic", "sharp"])
@pytest.mark.parametrize("box", [TAU, 1.0, 10.0], ids=["tau", "1", "10"])
@pytest.mark.parametrize("d, n", GRIDS, ids=[f"d{d}_n{n}" for d, n in GRIDS])
def test_tables_equal_the_list_reference(d, n, box, family, kind):
    grid = TorusGrid(d, box, n)
    profile = ReferenceProfile(kind) if family == SMOOTH else None
    j_min, j_max, symbols = reference_symbols(grid, family, profile)
    blocks = build_blocks(grid, family, kind)
    assert (blocks.j_min, blocks.j_max) == (j_min, j_max)
    assert blocks.symbols.shape == (len(symbols),) + grid.shape
    assert blocks.symbols.dtype == np.float64
    np.testing.assert_array_equal(blocks.symbols, np.stack(symbols))
    for j, table in zip(blocks.block_indices, symbols):
        np.testing.assert_array_equal(blocks.symbol(j), table)
    np.testing.assert_array_equal(block_squared_sum(blocks), reference_squared_sum(grid, symbols))
    assert blocks.partition_residual() == reference_residual(grid, symbols)
    if family == SMOOTH:
        companions = reference_companions(grid, j_min, j_max, profile)
        np.testing.assert_array_equal(blocks.companions, np.stack(companions))
    else:
        with pytest.raises(UnsupportedFamilyError, match="smooth"):
            blocks.companions


@pytest.mark.parametrize("kind", ["exp", "quintic"])
def test_profile_equals_the_reference(kind):
    radii = np.concatenate([np.linspace(0.0, 2.5, 2001), [1.0, 2.0, 1.5, 3.0]])
    np.testing.assert_array_equal(BumpProfile(kind)(radii), ReferenceProfile(kind)(radii))
    assert BumpProfile(kind)(1.5) == ReferenceProfile(kind)(1.5)[0]


def test_rows_are_read_only_views(grid1):
    blocks = build_blocks(grid1)
    for table in (blocks.symbols, blocks.companions):
        assert not table.flags.writeable
    row = blocks.symbol(blocks.j_min + 1)
    assert np.shares_memory(row, blocks.symbols)
    with pytest.raises(ValueError):
        row[0] = 2.0


@pytest.mark.parametrize("family", [SMOOTH, SHARP])
def test_block_table_companion_column_follows_the_family(small1, family):
    blocks = build_blocks(small1, family)
    companions = [row[3] for row in block_table(blocks)]
    if family == SMOOTH:
        assert all(isinstance(c, float) for c in companions)
    else:
        assert all(c is None for c in companions)


def _run_recording_blocks(monkeypatch, module, *argv):
    """The exit code of an lplab run and every block set ``module`` built in it."""
    built = []

    def recording(*args, **kwargs):
        built.append(build_blocks(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(module, "build_blocks", recording)
    with contextlib.redirect_stdout(io.StringIO()):
        code = run(list(argv))
    return code, built


@pytest.mark.parametrize(
    "argv",
    [
        ["lp", "--n", "16", "--samples", "2", "--p", "2"],
        ["lp-density", "--n", "16", "--samples", "2", "--rank", "2", "--p", "1"],
        ["lp", "--n", "16", "--samples", "2", "--p", "2", "--family", "sharp"],
    ],
    ids=["lp", "lp_density", "lp_sharp"],
)
def test_envelope_runs_leave_companions_untabulated(monkeypatch, argv):
    code, built = _run_recording_blocks(monkeypatch, lplab.inequality_lab, *argv)
    assert code == 0 and built
    assert all("companions" not in blocks.__dict__ for blocks in built)


def test_lieb_thirring_leaves_companions_untabulated(monkeypatch):
    code, built = _run_recording_blocks(
        monkeypatch, lplab.cli, "lieb-thirring", "--n", "64", "--chain-samples", "1"
    )
    assert code == 0 and len(built) == 1
    assert "companions" not in built[0].__dict__


def test_partition_tabulates_companions(monkeypatch):
    code, built = _run_recording_blocks(monkeypatch, lplab.cli, "partition", "--n", "64")
    assert code == 0 and len(built) == 1
    assert "companions" in built[0].__dict__
