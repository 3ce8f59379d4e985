"""The package's source parses as the oldest Python that pyproject.toml allows.

``ast.parse(..., feature_version=...)`` rejects grammar newer than that
version, such as ``except*`` or type parameter lists.  It checks syntax only:
a library call that needs a newer Python (an argument that became optional
later, a function added later) still passes, so this test does not stand in
for running the suite on that Python.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "ultratop").glob("*.py"))


def oldest_python() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_parses_as_the_oldest_python(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=oldest_python())
