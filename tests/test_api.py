"""The package's names hang together: what a module exports exists, what
the package imports each module exports, and no module imports a name it
never uses."""

import ast
import importlib
import pathlib

import pytest

import fgpan

SRC = pathlib.Path(fgpan.__file__).parent
MODULES = sorted(p.stem for p in SRC.glob("*.py") if not p.stem.startswith("__"))


def _tree(stem):
    return ast.parse((SRC / f"{stem}.py").read_text(encoding="utf-8"))


def _imported(tree):
    """(bound name, statement) of every import in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((a.asname or a.name.split(".")[0], node) for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield from ((a.asname or a.name, node) for a in node.names)


@pytest.mark.parametrize("stem", MODULES)
def test_all_names_exist(stem):
    module = importlib.import_module(f"fgpan.{stem}")
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"fgpan.{stem}.__all__ names missing {missing}"


def test_package_imports_only_exported_names():
    for name, node in _imported(_tree("__init__")):
        module = importlib.import_module(f"fgpan.{node.module}")
        assert name in module.__all__, f"fgpan imports {name}, not in {node.module}.__all__"


@pytest.mark.parametrize("stem", MODULES + ["__main__"])
def test_no_unused_import(stem):
    tree = _tree(stem)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= {
        elt.value
        for node in tree.body if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for elt in node.value.elts
    }
    unused = sorted(name for name, _ in _imported(tree) if name not in used)
    assert not unused, f"fgpan.{stem} imports {unused} and never uses them"
