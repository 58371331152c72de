"""Every name a module of the package imports, and every private name it
defines at module level, is read in that module."""

import ast
from pathlib import Path

import pytest

import llm_energy

PACKAGE = Path(llm_energy.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))

# (module, name) pairs imported only so that code outside the module finds
# them there, each with the reason.
ALLOWED = {
    ("engine", "lower_model"): "benchmarks/tracing.py wraps engine.lower_model "
                               "to count lowerings",
}


def unread_imports(source: str) -> list[str]:
    """The names bound by an import in ``source`` that no expression reads,
    in sorted order; ``from __future__`` imports bind nothing."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((alias.asname or alias.name).partition(".")[0]
                         for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(bound - read)


def unread_private_names(source: str) -> list[str]:
    """The private names (``_x``, not ``__x__``) that a def, a class or an
    assignment at module level of ``source`` binds and no expression in it
    reads, in sorted order. Statements nested in module-level blocks (an
    ``if``, a ``try``) count; the bodies of functions and classes do not."""
    tree = ast.parse(source)
    bound = set()
    statements = list(tree.body)
    while statements:
        node = statements.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(name.id for target in targets for name in ast.walk(target)
                         if isinstance(name, ast.Name))
        else:
            statements.extend(child for child in ast.iter_child_nodes(node)
                              if isinstance(child, ast.stmt))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(name for name in bound - read
                  if name.startswith("_") and not name.endswith("__"))


def test_the_package_has_modules():
    assert len(SOURCES) > 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.stem)
def test_every_imported_name_is_read(path):
    unread = [name for name in unread_imports(path.read_text())
              if (path.stem, name) not in ALLOWED]
    assert unread == []


def test_every_allowed_name_is_still_imported_and_unread():
    for module, name in ALLOWED:
        source = (PACKAGE / f"{module}.py").read_text()
        assert name in unread_imports(source)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.stem)
def test_every_private_module_name_is_read(path):
    assert unread_private_names(path.read_text()) == []


def test_the_check_sees_an_unread_import():
    source = ("from __future__ import annotations\n"
              "import math, os.path\nfrom x import a, b as c\n"
              "def f():\n    return a + os.sep\n")
    assert unread_imports(source) == ["c", "math"]


def test_the_check_sees_an_unread_private_name():
    source = ("import os as _os\n__all__ = []\n_A, (_B, c) = 1, (2, 3)\n"
              "_C: int = 4\n_D = 5\nif _D:\n    _E = 6\n"
              "try:\n    def _f(_x):\n        _y = _D\n        return _x\n"
              "except ImportError:\n    pass\n"
              "class _K:\n    _z = 7\n"
              "def g():\n    return _A + _f(0)\n")
    assert unread_private_names(source) == ["_B", "_C", "_E", "_K"]
