"""Checks on the package's source text.

The source parses as the oldest Python that pyproject.toml allows.
``ast.parse(..., feature_version=...)`` rejects grammar newer than that
version, such as ``except*`` or type parameter lists.  It checks syntax only:
a library call that needs a newer Python (an argument that became optional
later, a function added later) still passes, so this test does not stand in
for running the suite on that Python.

Every ``raise`` raises an ``UltratopError``, so that any other exception
reaching the CLI is a library bug and exits 3.
"""

import ast
import builtins
import importlib
import re
from pathlib import Path

import pytest

from ultratop import UltratopError

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "ultratop").glob("*.py"))


def oldest_python() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_parses_as_the_oldest_python(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=oldest_python())


# (module, function, exception) raised on purpose outside UltratopError
NOT_ULTRATOP = {
    ("cli.py", "_dumps", TypeError),  # json.dumps's error for other types, pinned by test_cli
}


def raised(path: Path):
    """(enclosing function, line, class) of every raise statement in a module.
    The class is the one called, or the one a called helper's return
    annotation names (``raise self._not_closed(...)``)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    module = importlib.import_module("ultratop" + ("" if path.stem == "__init__" else "." + path.stem))
    names = {**vars(builtins), **vars(module)}
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    returns = {f.name: f.returns for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Raise):
            continue
        assert isinstance(node.exc, ast.Call), f"{path.name}:{node.lineno} re-raises"
        func = node.exc.func
        name = func.id if isinstance(func, ast.Name) else func.attr
        if name in returns:
            name = returns[name].id
        scope = node
        while not isinstance(scope, (ast.FunctionDef, ast.Module)):
            scope = parents[scope]
        yield getattr(scope, "name", "<module>"), node.lineno, names[name]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_raise_is_an_ultratop_error(path):
    for function, line, exc in raised(path):
        assert issubclass(exc, UltratopError) or (path.name, function, exc) in NOT_ULTRATOP, (
            f"{path.name}:{line} in {function} raises {exc.__name__}"
        )
