#!/usr/bin/env python3
"""ultratop benchmark: two seeded workloads, timed end to end and per layer.

    python3 bench/run.py --workload spaces-rings --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --smoke

One client in a closed loop: one op at a time, in one process, no threads.
The op set of a workload is run in passes until ``--seconds`` have passed
(at least one whole pass); an op's latency is its fastest pass.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics.  The last line
of stdout is the result object; the full record (environment, every op's
samples and sizes, and the spans of a traced run) goes to bench/results/.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

PROCESS_START_NS = time.perf_counter_ns()

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
sys.path[:0] = [str(BENCH), str(SRC)]

import spans as tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("spaces-rings", "families")
OP_CAP_S = 20.0  # an op running longer fails as "timeout"
HARD_LIMIT_S = 140.0  # after this, ops that have not run count as "timeout"

END_TO_END = {
    "setup_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms", "ops_per_s": "1/s",
    "peak_rss_mb": "MB", "ok_ratio": "ratio",
}
PER_LAYER = {
    **{f"topology.{m}_ms": "ms"
       for m in ("validate", "spectral", "patch", "subbasis", "ultra", "closed_sets", "order", "self")},
    "topology.calls": "count", "topology.closed_in": "count", "topology.closed_out": "count",
    **{f"core.{m}_ms": "ms" for m in ("family_transforms", "fip_check", "atoms", "closure", "self")},
    "core.calls": "count", "core.atoms_out": "count", "core.transform_sets_out": "count",
    "specz.fip_ms": "ms", "specz.factor_ms": "ms", "specz.self_ms": "ms", "specz.calls": "count",
    "specz.fip_sets": "count", "specz.witness_len": "count",
    "rings.build_ms": "ms", "rings.spec_ms": "ms", "rings.intermediate_ms": "ms", "rings.self_ms": "ms",
    "rings.calls": "count", "rings.elements": "count", "rings.primes_out": "count",
    "rings.intermediate_out": "count",
    "cli.main_self_ms": "ms", "cli.out_bytes": "bytes", "cli.import_ms": "ms", "cli.interp_ms": "ms",
    "bench.trace_overhead_ratio": "ratio", "bench.calib_ms": "ms", "bench.op_count": "count",
}


class OpTimeout(BaseException):
    """Raised by SIGALRM inside a running op; not an Exception, so the CLI's
    own handlers cannot swallow it."""


def _alarm(signum, frame):
    raise OpTimeout


def _now_s() -> float:
    return (time.perf_counter_ns() - PROCESS_START_NS) / 1e9


def calib_ms() -> float:
    """A fixed stdlib-only loop; its time shows machine drift, not ultratop."""
    start = time.perf_counter_ns()
    acc = 0
    for i in range(300_000):
        acc = (acc + i * i) % 1_000_003
    sorted(str(i) for i in range(20_000))
    return (time.perf_counter_ns() - start) / 1e6


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}


def startup_probes(reps: int) -> tuple[float, float]:
    """Median ms of a bare interpreter and of one running ``import ultratop.cli``."""
    env = child_env()
    bare, cli = [], []
    for _ in range(reps):
        for code, out in (("pass", bare), ("import ultratop.cli", cli)):
            start = time.perf_counter_ns()
            subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True, timeout=60,
                           stdout=subprocess.DEVNULL)
            out.append((time.perf_counter_ns() - start) / 1e6)
    return statistics.median(bare), statistics.median(cli)


def environment(seed) -> dict:
    rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                              timeout=30)
        rev = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "ultratop").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(), "implementation": platform.python_implementation(),
        "platform": platform.platform(), "nproc": os.cpu_count(), "git_rev": rev,
        "src_sha256": src.hexdigest(), "seed": seed, "loadavg_start": os.getloadavg(),
    }


def fresh_import():
    """Import ultratop from this checkout's src/, dropping any earlier copy."""
    for name in [n for n in sys.modules if n == "ultratop" or n.startswith("ultratop.")]:
        del sys.modules[name]
    ut = importlib.import_module("ultratop")
    importlib.import_module("ultratop.cli")
    if Path(ut.__file__).resolve().parent != SRC / "ultratop":
        raise RuntimeError(f"imported ultratop from {ut.__file__}, not from {SRC}")
    return ut


class Runner:
    """Builds a workload's ops and runs them one at a time."""

    def __init__(self, workload: str, seed, smoke: bool):
        self.workload, self.seed, self.smoke = workload, seed, smoke
        self.ut = fresh_import()
        self.spaces = workloads.spaces_ops(seed, smoke) if workload == "spaces-rings" else None
        self.ops = self.build(seed, smoke, 0, self.spaces)
        # warm-up: every op kind once, on documents outside the timed set
        self.warm_failures = []
        for op in self.build(f"{seed}-warmup", True, 0):
            _, reason, _ = self.timed(op)
            if reason:
                self.warm_failures.append({"kind": op.kind, "reason": reason})

    def build(self, seed, smoke: bool, pass_no: int, spaces=None) -> list:
        if self.workload == "families":
            return workloads.families_ops(seed, smoke)
        return workloads.spaces_rings_ops(seed, pass_no, self.ut, smoke, spaces)

    def pass_ops(self, pass_no: int) -> list:
        """The ops of a pass: ring ops draw fresh relabelings for every pass.

        The benchmark's own objects (documents, expected answers) are moved
        out of the collector's generations, so that collections during an op
        scan only what ultratop allocates.
        """
        if pass_no and self.workload == "spaces-rings":
            self.ops = self.build(self.seed, self.smoke, pass_no, self.spaces)
        gc.collect()
        gc.freeze()
        return self.ops

    def _cli_inprocess(self, op) -> tuple[str | None, int]:
        out, err, stdin = io.StringIO(), io.StringIO(), sys.stdin
        sys.stdin = io.StringIO(op.stdin)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = sys.modules["ultratop.cli"].main(op.argv)
        finally:
            sys.stdin = stdin
        text = out.getvalue()
        if code != 0:
            return f"exit {code}: {err.getvalue().strip()[:200]}", len(text)
        return (None if workloads.output_matches(text, op.expect) else "wrong"), len(text)

    def timed(self, op) -> tuple[int, str | None, int]:
        """(elapsed ns, failure reason or None, CLI output bytes)."""
        cap = min(OP_CAP_S, HARD_LIMIT_S - _now_s())
        if cap <= 0:
            return 0, "timeout", 0
        start = time.perf_counter_ns()
        try:
            signal.setitimer(signal.ITIMER_REAL, cap)
            try:
                if isinstance(op, workloads.CliOp):
                    reason, nbytes = self._cli_inprocess(op)
                else:
                    reason, nbytes = (None if op.check(op.call(self.ut)) else "wrong"), 0
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OpTimeout:
            reason, nbytes = "timeout", 0
        except Exception as e:  # any failure of the program under test is a failed op
            reason, nbytes = f"exception {type(e).__name__}: {str(e)[:200]}", 0
        return time.perf_counter_ns() - start, reason, nbytes


def run(workload: str, seed, seconds: float, trace: bool, smoke: bool = False) -> dict:
    signal.signal(signal.SIGALRM, _alarm)
    env = environment(seed)
    calib_start = [calib_ms() for _ in range(3)]

    setups = []
    for _ in range(1 if smoke else 3):
        start = time.perf_counter_ns()
        runner = Runner(workload, seed, smoke)
        setups.append((time.perf_counter_ns() - start) / 1e9)
        if setups[-1] > 20:
            break
    first_op_s = _now_s()

    tracer = tracing.Tracer() if trace else None
    n_ops = len(runner.ops)
    samples = [[] for _ in range(n_ops)]
    per_op = [{"kind": op.kind, "sizes": op.sizes, "failures": []} for op in runner.ops]
    passes = []  # {"traced", "complete", "wall_ns", "ok", "out_bytes"}
    attempted = failed = 0
    peak_rss = None
    deadline = time.perf_counter() + seconds
    pass_no = 0
    while True:
        ops = runner.pass_ops(pass_no)
        traced = trace and pass_no % 2 == 1
        must_finish = pass_no == 0 or (trace and pass_no < 2)
        if traced:
            tracer.install()
        this = {"traced": traced, "complete": True, "ok": 0, "out_bytes": 0}
        start = time.perf_counter_ns()
        for i, op in enumerate(ops):
            if not must_finish and time.perf_counter() >= deadline:
                this["complete"] = False
                break
            if tracer:
                tracer.op_id = (pass_no, i)
            ns, reason, nbytes = runner.timed(op)
            attempted += 1
            this["out_bytes"] += nbytes
            if reason:
                failed += 1
                per_op[i]["failures"].append({"pass": pass_no, "reason": reason})
                ns = max(ns, int(OP_CAP_S * 1e9))  # a failed op misses every latency limit
            else:
                this["ok"] += 1
            samples[i].append(ns)
        this["wall_ns"] = time.perf_counter_ns() - start
        if traced:
            tracer.remove()
        passes.append(this)
        if pass_no == 0:
            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        pass_no += 1
        if time.perf_counter() >= deadline and not (trace and pass_no < 2):
            break

    attempted += len(runner.warm_failures)
    failed += len(runner.warm_failures)
    calib_end = [calib_ms() for _ in range(3)]
    interp_ms, import_ms = startup_probes(1 if smoke else 5)
    env["loadavg_end"] = os.getloadavg()

    # An op's fastest pass: the host runs in speed regimes some 30% apart
    # that last seconds to minutes, and the best pass is what is left steady.
    latency = [min(s) / 1e6 for s in samples]
    p90 = statistics.quantiles(latency, n=10, method="inclusive")[8]
    if trace:
        metrics = per_layer_metrics(tracer, runner, passes)
        metrics.update({"cli.import_ms": import_ms, "cli.interp_ms": interp_ms,
                        "bench.calib_ms": statistics.median(calib_start + calib_end),
                        "bench.op_count": n_ops})
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "op_p50_ms": statistics.median(latency),
            "op_p90_ms": p90,
            # closed loop, one client: one pass of the op set, each op at its latency
            "ops_per_s": n_ops / (sum(latency) / 1e3),
            "peak_rss_mb": peak_rss,
            "ok_ratio": (attempted - failed) / attempted,
        }
        units = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    info = {
        "workload": workload, "env": env, "passes": len(passes), "latency_samples": n_ops,
        "p90_tail_samples": sum(1 for x in latency if x > p90),
        "setup_runs_s": setups, "process_to_first_op_s": first_op_s,
        "calib_ms_start": calib_start, "calib_ms_end": calib_end,
        "cli_interp_ms": interp_ms, "cli_import_ms": import_ms, "warmup_failures": runner.warm_failures,
    }
    record = {
        "info": info, "result": result,
        "ops": [{**o, "samples_ms": [s / 1e6 for s in ss]} for o, ss in zip(per_op, samples)],
        "passes": passes,
        "spans": tracer.spans if tracer else [],
    }
    return {"result": result, "info": info, "record": record}


def per_layer_metrics(tracer, runner, passes) -> dict:
    """Per-layer times and counts for one pass: the mean over complete traced
    passes.  The trace overhead is the median complete traced pass wall time
    over the median complete untraced one."""
    traced = [i for i, p in enumerate(passes) if p["traced"] and p["complete"]]
    plain = [p["wall_ns"] for p in passes if not p["traced"] and p["complete"]]
    out = {k: 0.0 for k in PER_LAYER}
    keep = set(traced)
    for k, v in tracing.layer_times(tracer.spans, lambda op_id: op_id[0] in keep).items():
        key = "cli.main_self_ms" if k == "cli.self_ms" else k
        if key in out:
            out[key] = v / len(traced)
    for op in runner.ops:
        for k, v in op.sizes.items():
            if k in out:
                out[k] += v
    out["cli.out_bytes"] = statistics.mean(passes[i]["out_bytes"] for i in traced)
    out["bench.trace_overhead_ratio"] = (
        statistics.median(passes[i]["wall_ns"] for i in traced) / statistics.median(plain)
    )
    return out


def write_record(out: dict, workload: str, seed, trace: int) -> None:
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(out["record"], default=str) + "\n")


def smoke() -> int:
    """Every workload at its smallest size, untraced and traced, one pass each."""
    good = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            out = run(workload, 0, 0.0, bool(trace), smoke=True)
            result = out["result"]
            names = END_TO_END if not trace else PER_LAYER
            complete = set(result["metrics"]) == set(names)
            good &= result["correct"] and complete
            print(json.dumps({"workload": workload, "trace": trace, **result}))
    print(json.dumps({"smoke": "ok" if good else "failed"}))
    return 0 if good else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run every workload at its smallest size")
    args = parser.parse_args(argv)
    if not (SRC / "ultratop" / "cli.py").is_file():
        print(f"error: no ultratop sources under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    write_record(out, args.workload, args.seed, args.trace)
    print("# " + json.dumps(out["info"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
