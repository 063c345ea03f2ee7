"""orbitsep benchmark: one closed-loop client calling orbitsep.cli.main in-process.

    python3 perfbench/run.py --workload shift-images --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, untraced then traced

Run from the repository root; orbitsep is imported from ./src.  A single
workload run prints a context line and, last, one JSON object with the
keys correct, attempted, failed and metrics.  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# numpy's BLAS pool is held to one thread, so an op runs on one core and load
# on the other core of a 2-core host moves it less.  Set before numpy loads;
# the kernel probe and the set-up children inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

import checks  # noqa: E402
import kernel  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "_out"
SETUP_REPEATS = 9
TAIL_BEYOND = 10
# The calibration kernel (kernel.py) runs before the first op and after
# every CALIBRATE_EVERY_S of op time.  At the reference host speed it takes
# REF_KERNEL_S.  Op times moved with the kernel's time to the power
# KERNEL_SLOPE (log-log slopes of 0.33 to 0.53 were measured), so op timing
# metrics are scaled by (REF_KERNEL_S / kernel time) ** KERNEL_SLOPE.
CALIBRATE_EVERY_S = 0.25
REF_KERNEL_S = 0.010
KERNEL_SLOPE = 0.5

# name -> (unit, better); BENCHMARK.json lists the same names and units.
END_TO_END = {
    "ops_per_s": ("1/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
    "op_tail_ms": ("ms", "lower"),
    "success_rate": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}


def per_layer_units() -> dict:
    units = {f"{name}.self_ms": ("ms/op", "lower") for name in tracing.SELF_MS}
    units.update({
        "exponents.table.calls": ("count", "lower"),
        "exponents.table.components": ("count", "lower"),
        "exponents.table.repeat_share": ("ratio", "higher"),
        "exponents.table.max_exponent": ("count", "lower"),
        "transforms.components": ("count", "lower"),
        "io.emit.bytes": ("bytes", "lower"),
        "groups.enumerate.elements": ("count", "lower"),
        "metric.orbit_distance.calls": ("count", "lower"),
        "metric.elements_scanned": ("count", "lower"),
        "hermite.reduce.calls": ("count", "lower"),
        "hermite.max_entry_bits": ("bits", "lower"),
        **{f"{layer}.errors": ("count", "lower") for layer in tracing.LAYERS},
        "traced.ops_per_s": ("1/s", "higher"),
    })
    return units


class BenchError(Exception):
    """The benchmark cannot run here (exit 2, no result printed)."""


def load_orbitsep():
    """Import orbitsep from ./src of this checkout, never from elsewhere."""
    init = SRC / "orbitsep" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"no orbitsep sources at {init.relative_to(ROOT)}")
    sys.path.insert(0, str(SRC))
    import orbitsep
    import orbitsep.cli  # noqa: F401

    if Path(orbitsep.__file__).resolve() != init.resolve():
        raise BenchError(f"imported orbitsep from {orbitsep.__file__}, not {init}")
    return orbitsep


def environment(orbitsep) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "orbitsep").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "orbitsep": orbitsep.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def prepare(workload: str, seed: int, seconds: int, workdir: Path):
    pool = workloads.build_pool(workload, seed, workloads.rounds_for(workload, seconds))
    return pool, workloads.write_inputs(pool, workdir)


def tail(latencies: list) -> tuple:
    """Latency at the highest percentile with TAIL_BEYOND samples above it:
    (value, percentile, sample count)."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(1, n - TAIL_BEYOND)
    return ordered[rank - 1], 100.0 * rank / n, n


class Runner:
    """Runs ops one after another, checks each output outside its timing,
    and, given a probe, times the calibration kernel between ops."""

    def __init__(self, orbitsep, workdir: Path, tracer=None, probe=None):
        self.cli = orbitsep.cli
        self.workdir = workdir
        self.tracer = tracer
        self.probe = probe
        self.records: list = []
        self.kernels: list = []
        self._since_kernel = math.inf
        self._twins: dict = {}

    def time_scale(self) -> float:
        """The factor that scales op times to the reference host speed:
        reference over median kernel time, to the power KERNEL_SLOPE."""
        return (REF_KERNEL_S / statistics.median(self.kernels)) ** KERNEL_SLOPE

    def run(self, op) -> None:
        if self.probe and self._since_kernel >= CALIBRATE_EVERY_S:
            self.kernels.append(self.probe.time())
            self._since_kernel = 0.0
        out = self.workdir / "out.json"
        out.unlink(missing_ok=True)
        argv = [*op.argv, "--out", "out.json"]
        stderr = io.StringIO()
        seq = len(self.records)
        if self.tracer:
            self.tracer.begin_op(seq)
        with contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception as exc:  # noqa: BLE001 -- an escaped exception is a failed op
                code = f"raised {type(exc).__name__}: {exc}"
            latency = time.perf_counter() - start
        if self.tracer:
            self.tracer.end_op()
        rec = {"op": op, "seq": seq, "latency": latency, "code": code, "reason": None,
               "stderr": stderr.getvalue().strip().splitlines()[:1]}
        self.records.append(rec)
        self._since_kernel += latency
        if code == 0:
            self._check(op, rec, out)

    def _check(self, op, rec, out: Path) -> None:
        try:
            payload = json.loads(out.read_text())
            rec["reason"] = checks.check(op, payload)
            if op.kind == "shift" and rec["reason"] is None:
                pair = op.expect["pair"]
                if pair in self._twins:
                    first = self._twins.pop(pair)
                    reason = checks.check_twins(first["payload"], payload, op.expect["degenerate"])
                    if reason is not None:
                        rec["reason"] = first["rec"]["reason"] = reason
                else:
                    self._twins[pair] = {"payload": payload, "rec": rec}
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            rec["reason"] = f"unreadable output: {type(exc).__name__}: {exc}"


def failed(rec) -> bool:
    return rec["code"] != 0 or rec["reason"] is not None


def failure_class(rec) -> str:
    if rec["reason"]:
        return "check: " + re.sub(r"'?-?\d[\w.+-]*'?", "#", rec["reason"])
    return rec["stderr"][0] if rec["stderr"] else f"exit {rec['code']}"


def setup_samples(workload: str, seed: int, seconds: int) -> list:
    """Seconds from spawning a fresh interpreter until it has imported
    orbitsep and generated and written this workload's inputs, the set-up a
    workload process does before its first op, SETUP_REPEATS times.  The
    child prints its CLOCK_MONOTONIC finish time, so neither its exit nor
    the wait for it is counted."""
    samples = []
    for k in range(SETUP_REPEATS):
        target = OUT / f"setup-{os.getpid()}-{k}"
        start = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                                   "--seed", str(seed), "--seconds", str(seconds),
                                   "--setup-child", str(target)],
                                  check=True, capture_output=True, text=True, timeout=120)
            samples.append(float(proc.stdout.split()[-1]) - start)
        finally:
            shutil.rmtree(target, ignore_errors=True)
    return samples


def run_workload(args) -> dict:
    orbitsep = load_orbitsep()
    env = environment(orbitsep)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    cwd = Path.cwd()
    tracer = tracing.Tracer() if args.trace else None
    try:
        pool, op_hash = prepare(args.workload, args.seed, args.seconds, workdir)
        with kernel.Probe() as probe:
            runner = Runner(orbitsep, workdir, tracer, probe)
            os.chdir(workdir)
            if tracer:
                tracer.install()
            try:
                for op in (op for ops in pool for op in ops):
                    runner.run(op)
            finally:
                if tracer:
                    tracer.uninstall()
                os.chdir(cwd)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = runner.records
    failures = [r for r in records if failed(r)]
    ok_raw = [r["latency"] for r in records if not failed(r)]
    if not ok_raw:
        raise BenchError("no op succeeded")
    scale = runner.time_scale()
    raw_timed = sum(r["latency"] for r in records)
    ops_per_s = len(ok_raw) / (raw_timed * scale)
    tail_raw, tail_pct, tail_n = tail(ok_raw)
    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "rounds": len(pool),
        "op_list_sha256": op_hash, "timed_s": raw_timed,
        "raw_ops_per_s": len(ok_raw) / raw_timed, "raw_op_p50_ms": statistics.median(ok_raw) * 1e3,
        "raw_op_tail_ms": tail_raw * 1e3, "time_scale": scale,
        "kernel_ms": {"median": statistics.median(runner.kernels) * 1e3, "min": min(runner.kernels) * 1e3,
                      "max": max(runner.kernels) * 1e3, "runs": len(runner.kernels)},
        "mix": collections.Counter(r["op"].cls for r in records),
        "error_rate": len(failures) / len(records),
        "failures": collections.Counter(failure_class(r) for r in failures),
        "op_tail_percentile": tail_pct, "op_tail_samples": tail_n,
        **env,
    }
    if tracer:
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        metrics, absent = tracing.layer_metrics(tracer, [r["seq"] for r in failures if r["code"] != 0], len(records))
        metrics["traced.ops_per_s"] = ops_per_s
        units = per_layer_units()
        context.update(spans=str(spans_path.relative_to(ROOT)), absent=absent, missing=tracer.missing)
    else:
        setups = setup_samples(args.workload, args.seed, args.seconds)
        context["setup_samples_s"] = setups
        metrics = {
            "ops_per_s": ops_per_s,
            "op_p50_ms": statistics.median(ok_raw) * scale * 1e3,
            "op_tail_ms": tail_raw * scale * 1e3,
            "success_rate": len(ok_raw) / len(records),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setups),
        }
        units = END_TO_END
    return {
        "context": context,
        "result": {
            "correct": not any(r["reason"] and not r["reason"].startswith(checks.FLOAT_LIMIT) for r in records),
            "attempted": len(records),
            "failed": len(failures),
            "metrics": {name: {"value": value, "unit": units[name][0]} for name, value in metrics.items()},
        },
    }


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced; one table."""
    results = {}
    for workload in workloads.WORKLOADS:
        for flag in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(flag)],
                capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                print(f"{workload} --trace {flag} exited {proc.returncode}", file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            results[workload, flag] = (json.loads(lines[-2])["context"], json.loads(lines[-1]))
    for workload in workloads.WORKLOADS:
        ctx, res = results[workload, 0]
        tctx, tres = results[workload, 1]
        print(f"== {workload}  seed {args.seed}  rounds {ctx['rounds']}  attempted {res['attempted']}  "
              f"failed {res['failed']}  correct {res['correct']}  ops {ctx['op_list_sha256'][:12]}")
        for name, m in res["metrics"].items():
            print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")
        print(f"  {'error_rate':<34} {ctx['error_rate']:>14.6g} ratio")
        print(f"  {'op_tail_ms at percentile':<34} {ctx['op_tail_percentile']:>14.4g} of {ctx['op_tail_samples']} ops")
        for reason, count in sorted(ctx["failures"].items()):
            print(f"  failure x{count}: {reason}")
        traced = tres["metrics"]["traced.ops_per_s"]["value"]
        print(f"  {'trace overhead (traced/untraced ops/s)':<34} {traced / res['metrics']['ops_per_s']['value']:>14.4g}")
        for name, m in tres["metrics"].items():
            print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")
        if tctx["absent"]:
            print(f"  absent: {', '.join(tctx['absent'])}")
    env = results[workloads.WORKLOADS[0], 0][0]
    print(f"nproc {env['nproc']}  python {env['python']}  numpy {env['numpy']}  commit {env['commit']}  "
          f"src {env['src_sha256'][:12]}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_child:
            load_orbitsep()
            prepare(args.workload, args.seed, args.seconds, Path(args.setup_child))
            print(time.monotonic())
            return 0
        if args.workload == "all":
            load_orbitsep()
            return run_all(args)
        out = run_workload(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result = out["result"]
    for name, m in result["metrics"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"context": out["context"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
