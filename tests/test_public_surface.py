"""The package's public surface: every name lplab re-exports is reached by
a section or a script, or is listed below with the reason it stays, and so
is every public method and property of a re-exported class.  A benchmark
span site is not a reach: the tracer times what the sections call, and a
name only it binds reads 0 on every workload.  A helper that only tests
call fails here, and so does a module that reaches into another lplab
module's private names or calls a numpy.fft transform outside
torus_grid."""

import ast
import inspect
import json
from functools import cached_property
from pathlib import Path

import lplab

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lplab"

# Re-exported names that nothing in src/lplab or scripts/ reaches yet, each
# with the reason it is kept.
KEPT = {
    "diagonal_block_bound": "the pointwise cap of the proof path's sequence rung (ROADMAP item 8)",
    "unit_ball_volume": "omega_d of the semiclassical Weyl constant (ROADMAP item 8)",
    "summed_block_density": "the rank-one reduction of acceptance gate 3",
    "duality_identity_check": "the pairing identity of acceptance gate 1",
    "plane_wave": "the lattice probe of acceptance gate 5",
}


def exported_names() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def referenced_names(path: Path) -> set[str]:
    """Names a module loads, outside the statement that defines each of them.

    An import alone is not a reference; a name used in its own definition
    (a recursive call) does not count either.
    """
    names = set()
    for statement in ast.parse(path.read_text()).body:
        defined = set()
        if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
            defined.add(statement.name)
        elif isinstance(statement, ast.Assign):
            defined.update(t.id for t in statement.targets if isinstance(t, ast.Name))
        loaded = set()
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
        names |= loaded - defined
    return names


def reached_names() -> set[str]:
    modules = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    scripts = sorted((ROOT / "scripts").glob("*.py"))
    reached = set()
    for path in modules + scripts:
        reached |= referenced_names(path)
    return reached


def test_every_export_is_reached_or_kept_for_a_stated_reason():
    unreached = exported_names() - reached_names()
    assert sorted(unreached - set(KEPT)) == [], "test-only helpers: wire them in or delete them"
    assert sorted(set(KEPT) - unreached) == [], "reached now: drop them from KEPT"


MEMBER_KINDS = (property, cached_property, classmethod, staticmethod)


def class_members(cls) -> set[str]:
    """The public methods and properties a class defines itself.  Overrides
    of a hook of a base outside lplab (json.JSONEncoder.default, say) are
    the base's surface, not the class's, and are left out."""
    outside = [base for base in cls.__mro__[1:] if not base.__module__.startswith("lplab")]
    return {
        name
        for name, value in vars(cls).items()
        if not name.startswith("_")
        and (inspect.isfunction(value) or isinstance(value, MEMBER_KINDS))
        and not any(hasattr(base, name) for base in outside)
    }


def test_every_member_of_an_exported_class_is_reached():
    reached = reached_names()
    unreached = sorted(
        f"{name}.{member}"
        for name in exported_names()
        if inspect.isclass(cls := getattr(lplab, name))
        for member in class_members(cls) - reached
    )
    assert unreached == [], "test-only members: wire them in or delete them"


def test_the_member_scan_sees_methods_and_properties_and_skips_hooks():
    class Probe(json.JSONEncoder):
        field_value = 3

        def default(self, o):  # a stdlib hook
            return str(o)

        def method(self):
            return self._helper()

        def _helper(self):
            return 0

        @property
        def view(self):
            return 1

        @cached_property
        def table(self):
            return 2

        @classmethod
        def build(cls):
            return cls()

        @staticmethod
        def plain():
            return 4

    assert class_members(Probe) == {"method", "view", "table", "build", "plain"}


def test_every_export_resolves():
    for name in exported_names():
        assert hasattr(lplab, name), name


def test_the_scan_sees_references_and_skips_definitions(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from x import imported\n"
        "def helper():\n    return helper()\n"
        "def caller():\n    return used() + obj.attribute\n"
    )
    assert referenced_names(module) == {"used", "obj", "attribute"}


def private_imports(path: Path) -> set[str]:
    """The private names (a leading _) a module takes from another lplab
    module: imported by name, or read as an attribute of an lplab module it
    imported."""
    tree = ast.parse(path.read_text())
    found, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("lplab")):
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.add(alias.name)
                elif not node.module or node.module == "lplab":
                    modules.add(alias.asname or alias.name)  # from . import corpus
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and node.attr.startswith("_")
        ):
            found.add(node.attr)
    return found


def test_no_module_imports_another_modules_private_names():
    offenders = {
        path.name: sorted(private_imports(path))
        for path in sorted(PACKAGE.glob("*.py"))
        if private_imports(path)
    }
    assert offenders == {}, "give the owner a public name or move the caller into it"


def test_the_private_import_scan_sees_names_and_attributes(tmp_path):
    module = tmp_path / "module.py"
    for source, expected in [
        ("from .fock_operator import _plane_waves, fermi_sea\n", {"_plane_waves"}),
        ("from lplab.corpus import _rekeyed_generators as keyed\n", {"_rekeyed_generators"}),
        ("from . import corpus\nrows = corpus._stream_counter(0)\n", {"_stream_counter"}),
        ("from .corpus import complex_normals\nfrom numpy import _core\n", set()),
        ("from __future__ import annotations\nclass A:\n    def _own(self):\n"
         "        return self._cache\n", set()),
    ]:
        module.write_text(source)
        assert private_imports(module) == expected, source


# numpy.fft names that build tables, not transforms.
FFT_HELPERS = {"fftfreq", "rfftfreq", "fftshift", "ifftshift"}


def fft_calls(path: Path) -> set[str]:
    """The numpy.fft transforms a module reaches: np.fft.<name> or
    numpy.fft.<name> read anywhere, or numpy.fft or a name of it imported."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "fft"
            and isinstance(node.value.value, ast.Name)
            and node.value.value.id in {"np", "numpy"}
            and node.attr not in FFT_HELPERS
        ):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.fft":
            found |= {alias.name for alias in node.names} - FFT_HELPERS
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found |= {alias.name for alias in node.names} & {"fft"}
    return found


def test_only_torus_grid_calls_a_transform():
    assert fft_calls(PACKAGE / "torus_grid.py") >= {"fftn", "ifftn"}
    offenders = {
        path.name: sorted(fft_calls(path))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "torus_grid.py" and fft_calls(path)
    }
    assert offenders == {}, "transform through torus_grid (fft_stack or the *_transform_stack)"


def test_the_transform_scan_sees_attributes_and_imports(tmp_path):
    module = tmp_path / "module.py"
    for source, expected in [
        ("import numpy as np\nspectrum = np.fft.fftn(values)[None]\n", {"fftn"}),
        ("import numpy\nvalues = numpy.fft.irfft(spectrum)\n", {"irfft"}),
        ("from numpy.fft import ifftn, fftfreq\n", {"ifftn"}),
        ("from numpy import fft\n", {"fft"}),
        ("import numpy as np\nxi = np.fft.fftfreq(8)\n", set()),
        ("from .torus_grid import fft_stack\nspectra = fft_stack(grid, values)\n", set()),
    ]:
        module.write_text(source)
        assert fft_calls(module) == expected, source
