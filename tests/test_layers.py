"""Each module imports only the modules below it in one fixed order.

The package namespace is checked here too: a star import binds no submodule.
"""

import ast
from pathlib import Path
from types import ModuleType

import pytest

import tracetwist

# Lowest layer first; a module may import only modules that come before it.
LAYERS = ["scalars", "angles", "trigdioph", "surface", "twists", "rep", "orbits", "cli"]
PACKAGE = Path(tracetwist.__file__).parent


def _tree(name: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))


def _package_imports(name: str) -> set[str]:
    found = set()
    for node in ast.walk(_tree(name)):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0:
                parts = (node.module or "").split(".")
                if parts[0] == "tracetwist":
                    found.update(parts[1:2] or (a.name for a in node.names))
            elif node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "tracetwist" and len(parts) > 1:
                    found.add(parts[1])
    return found


def test_every_module_has_a_layer():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


@pytest.mark.parametrize("name", LAYERS)
def test_module_imports_only_lower_layers(name):
    lower = set(LAYERS[: LAYERS.index(name)])
    assert _package_imports(name) <= lower


def _imported_names(name: str) -> set[str]:
    return {
        alias.name
        for node in ast.walk(_tree(name))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }


def test_orbits_takes_its_twist_kernel_from_one_dispatch():
    # twists._carrier alone maps a numeric mode to a kernel, its invariants
    # and a carrier; the orbit loops must not rebuild that choice.
    private = {"_twist", "_twist_exact", "_to_integers", "_require_same_mode", "_sigmas"}
    imported = _imported_names("orbits")
    assert "_carrier" in imported
    assert not imported & private


def test_star_import_binds_no_module():
    namespace = {}
    exec("from tracetwist import *", namespace)
    del namespace["__builtins__"]
    assert not [name for name, value in namespace.items() if isinstance(value, ModuleType)]
    assert set(namespace) == set(tracetwist.__all__)
    assert all(hasattr(tracetwist, name) for name in tracetwist.__all__)
