"""Every exported name resolves, so an export left behind by a deletion
fails here and not in a user's star import."""

import ast
import importlib
import pathlib
import pkgutil
import sys

import pytest

import conewave

MODULES = ["conewave"] + [f"conewave.{info.name}"
                          for info in pkgutil.iter_modules(conewave.__path__)]


def test_every_module_is_listed():
    assert {"conewave.carleman", "conewave.cli", "conewave.energetics",
            "conewave.exact_solutions", "conewave.fields", "conewave.geometry",
            "conewave.quadrature", "conewave.solver"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    if exported is not None:
        assert len(set(exported)) == len(exported)
        assert [n for n in exported if not hasattr(module, n)] == []
    # the package declares no __all__: its exports are its imports, and a
    # stale one fails the import itself; a star import exercises both forms
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert all(n in namespace for n in exported or ())


@pytest.mark.parametrize("name", [m for m in MODULES if m != "conewave.cli"])
def test_only_cli_exports_csv_writers(name):
    # one writer formats every output file; the library returns numbers
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert [n for n in namespace if "csv" in n.lower()] == []


def test_package_imports_only_numpy_and_the_standard_library():
    # runtime dependencies stay numpy-only: every import statement of every
    # module, function-level ones included
    allowed = set(sys.stdlib_module_names) | {"numpy", "__future__"}
    found = {}
    for path in sorted(pathlib.Path(conewave.__path__[0]).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # a relative import stays in the package
            for name in names:
                found.setdefault(name.split(".")[0], set()).add(path.name)
    assert "numpy" in found
    assert {k: sorted(v) for k, v in found.items() if k not in allowed} == {}
