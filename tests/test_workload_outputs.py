"""The CLI's bytes on the benchmark's documents.

``bench/workloads.py`` builds each CLI document together with the output the
CLI documents for it (``json.dumps(value, indent=2, sort_keys=True)``, or
the DOT text), from its own knowledge of what it generated and without
calling ultratop.  Every CLI op of seeds 1-5, in the smoke and the full
workloads and in ring passes 0 and 1, must print exactly that text.  The
module is only imported here.
"""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from ultratop.cli import main

_spec = importlib.util.spec_from_file_location(
    "_bench_workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
)
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


def cli_ops(seed, smoke):
    """Both workloads' CLI ops, with the rings relabelled as in a second pass too."""
    ops = (workloads.families_ops(seed, smoke) + workloads.spaces_rings_ops(seed, 0, None, smoke)
           + workloads.rings_ops(seed, 1, None, smoke))
    return [op for op in ops if isinstance(op, workloads.CliOp)]


@pytest.mark.parametrize("smoke", [True, False], ids=["smoke", "full"])
@pytest.mark.parametrize("seed", range(1, 6))
def test_cli_prints_the_documented_text_on_every_op(seed, smoke):
    ops = cli_ops(seed, smoke)
    assert ops
    for op in ops:
        out, err, stdin = io.StringIO(), io.StringIO(), sys.stdin
        sys.stdin = io.StringIO(op.stdin)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(list(op.argv))
        finally:
            sys.stdin = stdin
        assert (code, err.getvalue()) == (0, ""), op.argv
        assert out.getvalue() == op.expect.text, op.argv
