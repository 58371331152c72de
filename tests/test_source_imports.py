"""Every name a module of the package imports, and every private name it
defines at module level, is read in that module; and the command line
writes every file through its one writer."""

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


def _opens_to_write(call: ast.Call) -> bool:
    """Whether ``call`` opens a file to write it: ``os.open``, or ``open``
    (builtin, ``io.open`` or a path's ``open``) with a mode that is not a
    string constant or that writes, appends, creates or updates."""
    func = call.func
    owner = (func.value.id if isinstance(func, ast.Attribute)
             and isinstance(func.value, ast.Name) else None)
    if owner == "os":
        return True
    # The mode follows the file, unless the path is the receiver.
    mode = [keyword.value for keyword in call.keywords if keyword.arg == "mode"] or (
        call.args[1:2] if isinstance(func, ast.Name) or owner == "io" else call.args[:1])
    return bool(mode) and not (isinstance(mode[0], ast.Constant)
                               and isinstance(mode[0].value, str)
                               and not set("wax+") & set(mode[0].value))


def file_writers(source: str) -> list[str]:
    """The module-level functions and classes of ``source`` whose code
    writes a file (``write_text``, ``write_bytes``, or opening one to write
    it), in sorted order; ``<module>`` for a write outside them."""
    writers = set()
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if (name in ("write_text", "write_bytes")
                    or name == "open" and _opens_to_write(node)):
                writers.add(getattr(top, "name", "<module>"))
    return sorted(writers)


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


def test_the_command_line_writes_files_through_one_writer():
    # Each output is written as the writer writes it only if no other code
    # writes one.
    assert file_writers((PACKAGE / "cli.py").read_text()) == ["_Output"]


def test_the_check_sees_every_file_write():
    source = ("import io, os\nfrom pathlib import Path\n"
              "def a(p):\n    Path(p).write_text('x')\n"
              "def b(p):\n    open(p)\n    open('w.txt', 'rb')\n"
              "    io.open(p, mode='r')\n    Path(p).open()\n"
              "def c(p):\n    with open(p, mode='a') as fh:\n        pass\n"
              "class D:\n    def e(self, p):\n        return os.open(p, os.O_RDONLY)\n"
              "def f(p):\n    p.write_bytes(b'')\n"
              "def g(p, m):\n    return open(p, m)\n"
              "def h(p):\n    return Path(p).open('r+')\n"
              "def i(p):\n    return io.open(p, 'x')\n"
              "open('log', 'w').close()\n")
    assert file_writers(source) == ["<module>", "D", "a", "c", "f", "g", "h", "i"]
