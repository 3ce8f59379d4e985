"""Checks on the package's source text.

The source parses as the oldest Python that pyproject.toml allows.
``ast.parse(..., feature_version=...)`` rejects grammar newer than that
version, such as ``except*`` or type parameter lists.  It checks syntax only:
a library call that needs a newer Python (an argument that became optional
later, a function added later) still passes, so this test does not stand in
for running the suite on that Python.  So the CLI also runs under that
Python, when one is installed here, and must print what it prints in process,
its help and the ``--name=value`` and prefix forms of its options included.

Importing the CLI loads neither ``argparse`` nor ``gettext``.

Every ``raise`` raises an ``UltratopError``, so that any other exception
reaching the CLI is a library bug and exits 3.

Every module-level name is exported by ``ultratop/__init__.py`` or read
somewhere in the package outside its own statement, so dead helpers fail.
"""

import ast
import builtins
import functools
import importlib
import json
import os
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from ultratop import UltratopError, product, zmod
from test_cli import VALID, call_main

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "ultratop").glob("*.py"))
NINE = [f"p{i}" for i in range(9)]  # past the first label table of 6 points


def oldest_python() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_parses_as_the_oldest_python(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=oldest_python())


@functools.cache
def oldest_interpreter() -> str | None:
    """A working ``pythonX.Y`` of the oldest allowed version: on PATH first,
    then in the installs beside the running interpreter's (as pyenv keeps
    them).  A candidate counts only once it runs and reports that version."""
    version = oldest_python()
    name = "python%d.%d" % version
    candidates = [shutil.which(name), *sorted(Path(sys.base_prefix).parent.glob(f"*/bin/{name}"))]
    for path in filter(None, candidates):
        try:
            run = subprocess.run([str(path), "-c", "import sys; print(*sys.version_info[:2])"],
                                 capture_output=True, text=True, timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            continue
        if run.returncode == 0 and run.stdout.split() == [str(v) for v in version]:
            return str(path)
    return None


@pytest.mark.parametrize(
    "argv, doc",
    [
        (["spec", "--zmod", "12"], None),
        (["spec", "-"], product(zmod(4), zmod(6)).to_json()),
        (["patch", "-"], VALID["patch"]),
        (["ultra-topology", "-"], VALID["ultra-topology"]),
        (["overrings", "-"], VALID["overrings"]),
        (["check-spectral", "-"], {"carrier": ["a", "b"], "closed": [[], ["a", "b"]]}),
        (["check-spectral", "-"], {"carrier": ["a", "b", "c"],
                                   "closed": [[], ["a"], ["b"], ["a", "b", "c"]]}),
        (["patch", "-"], {"carrier": NINE, "closed": [NINE[:k] for k in range(10)]}),
        (["-h"], None),
        (["overrings", "-", "--format=dot"], VALID["overrings"]),
        (["spec", "--zm", "6", "--form", "dot"], None),
    ],
    ids=["spec-zmod", "spec-product", "patch", "ultra-topology", "overrings",
         "check-spectral-not-t0", "check-spectral-no-union", "patch-9-points", "help",
         "format-equals-dot", "prefix-options"],
)
def test_cli_prints_the_same_on_the_oldest_python(argv, doc):
    python = oldest_interpreter()
    if python is None:
        pytest.skip("no working python%d.%d found on PATH or beside this interpreter"
                    % oldest_python())
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    run = subprocess.run([python, "-m", "ultratop.cli", *argv], capture_output=True, text=True,
                         input="" if doc is None else json.dumps(doc), env=env, timeout=120)
    assert (run.returncode, run.stdout, run.stderr) == call_main(argv, doc)


def test_the_cli_imports_neither_argparse_nor_gettext():
    """The CLI reads argv itself, so a fresh interpreter importing it loads neither module."""
    script = "import sys, ultratop.cli; print(sorted({'argparse', 'gettext'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env,
                         timeout=120)
    assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")


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


def defined_names(node: ast.stmt):
    """The names a module-level statement binds: a def or class, assignment
    targets and imports (``from __future__`` binds nothing usable)."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        yield node.name
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
            yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    elif isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
        yield from ((a.asname or a.name).split(".")[0] for a in node.names)


def used_names(tree: ast.AST) -> Counter:
    """How often each name is read in the tree: as a name, an attribute or an import."""
    used = Counter()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            used[n.id] += 1
        elif isinstance(n, ast.Attribute):
            used[n.attr] += 1
        elif isinstance(n, ast.ImportFrom):
            used.update(a.name for a in n.names)
    return used


def test_every_module_level_name_is_exported_or_used():
    """A module-level name of the package that ``__init__`` does not export
    and no code in the package reads, outside its own statement, is dead."""
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in SOURCES}
    exported = {a.asname or a.name for node in trees["__init__.py"].body
                if isinstance(node, ast.ImportFrom) for a in node.names}
    used = sum(map(used_names, trees.values()), Counter())
    dead = [f"{name}: {d}" for name, tree in trees.items() if name != "__init__.py"
            for node in tree.body for d in defined_names(node)
            if d not in exported and not used[d] - used_names(node)[d]]
    assert dead == []
