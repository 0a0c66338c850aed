"""One memory budget: torus_grid.FIELD_CHUNK_BYTES sizes every chunked pass.

Patching that one binding must resize the Fermi sweep's rank chunks, the
column blocks of a stack's Gram matrix, the array chunks of the sign-sum
pass, the row chunks of Gram-Schmidt and the rank chunks of a unit-ball
operator's spectral density, and no other module of the package may name
the budget or define a byte budget of its own.
"""

import ast
from pathlib import Path

import numpy as np

import lplab.corpus
import lplab.fock_operator
import lplab.torus_grid
from lplab import FiniteRankOperator, TorusGrid, fermi_sweep, khinchine_reports
from lplab.corpus import _orthonormalize
from lplab.fock_operator import _gram_matrix
from sea_reference import fermi_sea

TAU = 2.0 * np.pi
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lplab"


def test_one_budget_sizes_every_pass(monkeypatch):
    grid = TorusGrid(3, TAU, 16)
    stack = fermi_sea(grid, 4.5).eigenfunctions  # 33 waves
    seen = {"ranks": [], "columns": [], "chunks": [], "rows": [], "transforms": []}
    plane_waves = lplab.fock_operator._plane_waves
    copyto = np.copyto
    mean = np.mean
    fftn = np.fft.fftn
    field_chunks = lplab.corpus.field_chunks

    def waves(grid, modes, rows=slice(None), out=None):
        # The sweep generates each chunk of the rank axis once.
        seen["ranks"].append(rows)
        return plane_waves(grid, modes, rows, out)

    def moments(table, axis):
        # _sign_moments takes one mean per exponent over each chunk's table.
        seen["chunks"].append(len(table))
        return mean(table, axis=axis)

    def columns(buffer, part):
        # _gram_matrix copies the real and the imaginary part of each block
        # into its float buffer.
        seen["columns"].append(part.shape[1])
        return copyto(buffer, part)

    def rows(grid, count, fields_per_item):
        # Gram-Schmidt takes the later rows of each pivot in these chunks.
        chunks = field_chunks(grid, count, fields_per_item)
        seen["rows"].extend(chunks)
        return chunks

    def transform(values, **kwargs):
        # The streamed spectral density transforms each rank chunk once.
        seen["transforms"].append(len(values))
        return fftn(values, **kwargs)

    monkeypatch.setattr(lplab.fock_operator, "_plane_waves", waves)
    monkeypatch.setattr(lplab.corpus, "field_chunks", rows)

    def counts():
        for calls in seen.values():
            calls.clear()
        fermi_sweep(grid, [4.5])
        with monkeypatch.context() as patch:
            patch.setattr(np, "copyto", columns)
            _gram_matrix(grid, stack)
        with monkeypatch.context() as patch:
            patch.setattr(np, "mean", moments)
            khinchine_reports((8,), [1.0], 40, 5)
        _orthonormalize(grid, stack.copy())
        with monkeypatch.context() as patch:
            patch.setattr(np.fft, "fftn", transform)
            FiniteRankOperator(grid, np.ones(len(stack)), stack).spectral_density
        return (
            len(seen["ranks"]),
            len(seen["columns"]) // 2,
            len(seen["chunks"]),
            len(seen["rows"]) // 2,  # one set per Gram-Schmidt pass
            len(seen["transforms"]),
        )

    # 1 MiB: rank chunks of 16 of 33 waves, blocks of 1985 of 4096 columns,
    # all 40 arrays, rows of 16 of the 32 - i after pivot i, 16 of 33 ranks.
    assert counts() == (3, 3, 1, 48, 3)
    monkeypatch.setattr(lplab.torus_grid, "FIELD_CHUNK_BYTES", grid.size * 16)
    # One field: rank chunks of 1 wave, blocks of 124 columns, 32 arrays of
    # 256 rows, one row per pivot and later row, ranks of 1.
    assert counts() == (33, 34, 2, 528, 33)


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
