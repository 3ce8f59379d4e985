"""Tests of the benchmark itself: ``python -m pytest bench``."""

from __future__ import annotations

import dataclasses
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402


def test_smoke_mode_runs_every_workload_with_every_declared_metric():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert lines[-1] == {"smoke": "ok"}
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {(r["workload"], r["trace"]) for r in lines[:-1]} == {
        (w["name"], t) for w in spec["workloads"] for t in (0, 1)
    }
    for r in lines[:-1]:
        declared = spec["per_layer"] if r["trace"] else spec["end_to_end"]
        assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in r["metrics"].items()}
        assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 1


def test_wrong_answers_and_runaway_ops_are_failed_ops(monkeypatch):
    monkeypatch.setattr(run, "OP_CAP_S", 0.2)
    signal.signal(signal.SIGALRM, run._alarm)
    runner = run.Runner("families", 0, smoke=True)
    cli_op = next(op for op in runner.ops if isinstance(op, workloads.CliOp))
    assert runner.timed(cli_op)[1] is None
    wrong = dataclasses.replace(cli_op, expect=workloads.expect_json({"schema": "v1"}))
    assert runner.timed(wrong)[1] == "wrong"
    slow = workloads.LibOp("slow", lambda ut: time.sleep(5), lambda out: True)
    ns, reason, _ = runner.timed(slow)
    assert reason == "timeout" and ns < 2e9


DIGEST = """
import hashlib, sys
sys.path.insert(0, sys.argv[1])
import workloads as w
h = hashlib.sha256()
for ops in (w.spaces_rings_ops(3, 1, None), w.families_ops(3)):
    for op in ops:
        h.update(repr((op.kind, sorted(op.sizes.items()))).encode())
        if isinstance(op, w.CliOp):
            h.update(repr((op.argv, op.stdin, op.expect.text)).encode())
print(h.hexdigest())
"""


def test_inputs_depend_only_on_the_seed():
    digests = {
        subprocess.run([sys.executable, "-c", DIGEST, str(BENCH)], capture_output=True, text=True,
                       check=True, env={"PYTHONHASHSEED": hash_seed}).stdout
        for hash_seed in ("1", "2")
    }
    assert len(digests) == 1


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "families", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
