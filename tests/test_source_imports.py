"""Every name a module of the package imports is read in that module."""

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


def test_the_check_sees_an_unread_import():
    source = ("from __future__ import annotations\n"
              "import math, os.path\nfrom x import a, b as c\n"
              "def f():\n    return a + os.sep\n")
    assert unread_imports(source) == ["c", "math"]
