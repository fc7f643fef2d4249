"""Each module imports only the modules below it in one fixed order."""

import ast
from pathlib import Path

import pytest

import tracetwist

# Lowest layer first; a module may import only modules that come before it.
LAYERS = ["scalars", "angles", "trigdioph", "surface", "twists", "rep", "orbits", "cli"]
PACKAGE = Path(tracetwist.__file__).parent


def _package_imports(name: str) -> set[str]:
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
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
