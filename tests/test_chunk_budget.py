"""One memory budget: torus_grid.FIELD_CHUNK_BYTES sizes every chunked pass.

Patching that one binding must resize the Fermi sweep's rank chunks, the
column blocks of a stack's Gram matrix, the array chunks and the sign
blocks of the sign-sum pass, the column chunks of a frame's
orthonormalization and the rank chunks of a unit-ball operator's spectral
density, and no other module of
the package may name the budget or define a byte budget of its own.
"""

import ast
from pathlib import Path

import numpy as np

import lplab.corpus
import lplab.fock_operator
import lplab.inequality_lab
import lplab.torus_grid
from lplab import FiniteRankOperator, SignEnsemble, TorusGrid, fermi_sweep, khinchine_reports
from lplab.corpus import _orthonormalize
from lplab.fock_operator import gram_matrix
from sea_reference import fermi_sea

TAU = 2.0 * np.pi
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lplab"


def test_one_budget_sizes_every_pass(monkeypatch):
    grid = TorusGrid(3, TAU, 16)
    stack = fermi_sea(grid, 4.5).eigenfunctions  # 33 waves
    seen = {"ranks": [], "columns": [], "chunks": [], "signs": [], "frame": [], "transforms": []}
    wave_squares = lplab.fock_operator._wave_squares
    gram_blocks = lplab.fock_operator.byte_chunks
    sign_blocks = lplab.inequality_lab._sign_blocks
    mean = np.mean
    fftn = np.fft.fftn
    frame_blocks = lplab.corpus.byte_chunks

    def squares(axis_squares, factors, out):
        # The sweep builds the tables of each chunk of the rank axis once.
        seen["ranks"].append(factors.shape[1])
        return wave_squares(axis_squares, factors, out)

    def moments(table, axis):
        # _sign_moments takes one mean per exponent over each chunk's table.
        seen["chunks"].append(len(table))
        return mean(table, axis=axis)

    def columns(count, item_bytes):
        # gram_matrix reads the columns of the stack in these blocks.
        blocks = gram_blocks(count, item_bytes)
        seen["columns"].extend(blocks)
        return blocks

    def signs(count, ensemble):
        # The sign-sum pass sums over these blocks of sign vectors.
        for block in sign_blocks(count, ensemble):
            seen["signs"].append(len(block))
            yield block

    def frame_columns(count, item_bytes):
        # Each pass of _orthonormalize overwrites the frame in these chunks.
        chunks = frame_blocks(count, item_bytes)
        seen["frame"].extend(chunks)
        return chunks

    def transform(values, **kwargs):
        # The streamed spectral density transforms each rank chunk once.
        seen["transforms"].append(len(values))
        return fftn(values, **kwargs)

    monkeypatch.setattr(lplab.fock_operator, "_wave_squares", squares)
    monkeypatch.setattr(lplab.corpus, "byte_chunks", frame_columns)

    def counts():
        for calls in seen.values():
            calls.clear()
        fermi_sweep(grid, [4.5])
        with monkeypatch.context() as patch:
            patch.setattr(lplab.fock_operator, "byte_chunks", columns)
            gram_matrix(grid, stack)
        with monkeypatch.context() as patch:
            patch.setattr(np, "mean", moments)
            khinchine_reports((8,), [1.0], 40, 5)
        with monkeypatch.context() as patch:
            patch.setattr(lplab.inequality_lab, "_sign_blocks", signs)
            khinchine_reports((8,), [1.0], 1, 5, SignEnsemble.monte_carlo(20_000, 5))
        _orthonormalize(grid, stack.copy())
        with monkeypatch.context() as patch:
            patch.setattr(np.fft, "fftn", transform)
            FiniteRankOperator(grid, np.ones(len(stack)), stack).spectral_density
        return (
            len(seen["ranks"]),
            len(seen["columns"]),
            len(seen["chunks"]),
            len(seen["signs"]),
            len(seen["frame"]),
            len(seen["transforms"]),
        )

    # 1 MiB: rank chunks of 16 of 33 waves, blocks of 1985 of 4096 columns,
    # all 40 arrays, sign blocks of 8192 of 20,000 rows, frame chunks of
    # 1985 columns, 16 of 33 ranks.
    assert counts() == (3, 3, 1, 3, 3, 3)
    monkeypatch.setattr(lplab.torus_grid, "FIELD_CHUNK_BYTES", grid.size * 16)
    # One field: rank chunks of 1 wave, blocks of 124 columns, 32 arrays of
    # 256 rows, sign blocks of 512 rows, frame chunks of 124 columns, ranks
    # of 1.
    assert counts() == (33, 34, 2, 40, 34, 33)


def budget_names(path: Path) -> set[str]:
    """The byte budgets a module names: FIELD_CHUNK_BYTES anywhere (an import,
    a load, an attribute, a binding) and any *_BYTES name it binds."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.alias):
            names = {node.name, node.asname}
        elif isinstance(node, ast.Attribute):
            names = {node.attr}
        elif isinstance(node, ast.Name):
            names = {node.id}
            if isinstance(node.ctx, ast.Store) and node.id.endswith("_BYTES"):
                found.add(node.id)
        else:
            continue
        found |= names & {"FIELD_CHUNK_BYTES"}
    return found


def test_only_torus_grid_holds_a_byte_budget():
    assert budget_names(PACKAGE / "torus_grid.py") == {"FIELD_CHUNK_BYTES"}
    offenders = {
        path.name: sorted(budget_names(path))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "torus_grid.py" and budget_names(path)
    }
    assert offenders == {}, "size chunks through torus_grid.byte_chunks"


def test_the_budget_scan_sees_imports_attributes_and_definitions(tmp_path):
    module = tmp_path / "module.py"
    for source, expected in [
        ("from .torus_grid import FIELD_CHUNK_BYTES\n", {"FIELD_CHUNK_BYTES"}),
        ("from . import torus_grid\nstep = torus_grid.FIELD_CHUNK_BYTES\n", {"FIELD_CHUNK_BYTES"}),
        ("TABLE_BYTES = 1 << 24\n", {"TABLE_BYTES"}),
        ("def f(table_bytes):\n    return table_bytes // NUMBER_BYTES\n", set()),
    ]:
        module.write_text(source)
        assert budget_names(module) == expected, source
