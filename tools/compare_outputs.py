"""Compare the exit codes and output bytes of this checkout's orbitsep
(./src) and another source tree on the benchmark's op lists.

    python3 tools/compare_outputs.py --base ../parent/src
    python3 tools/compare_outputs.py --base ../parent/src --workload fresh-groups --seconds 1
    python3 tools/compare_outputs.py --base ../parent/src --workload fresh-groups --seconds 1 \
        --argv "bench --shift 2x3 --transform phi --samples 5"

Run from the repository root.  The op lists are built by
perfbench/workloads.py (imported, never changed) for the given seed and
length, and their inputs are written once into a temporary directory.
Each --argv command line (exponents, bench or counterexample: commands
that read no input file) is one more op, run after them in the order
given.  Each tree then runs every op, in that order, through its own
orbitsep.cli.main in one child process, so caches warm as they do in a
benchmark run.  Prints how many ops differ in exit code or output bytes
and the first few of them; exits 1 on any difference.

When some ops differ only in bytes (the same exit code), a value report
follows: their outputs are parsed and walked by key path, list positions
folded into "[]", per command.  For each path it prints the largest
relative difference of its numbers, |a - b| / max(|a|, |b|), and the op
where it falls; and each path whose type, length, keys or non-finite
spelling ("NaN", "Infinity", "-Infinity") differs, with the first op where
it does.  Nothing more is printed when no op differs.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "perfbench" / "workloads.py"
SHOW = 5  # differing ops printed
ARGV_COMMANDS = ("exponents", "bench", "counterexample")  # the commands that read no input file
NON_FINITE = ("NaN", "Infinity", "-Infinity")  # how the emitter spells non-finite floats


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_child(src: Path, workdir: Path, tag: str) -> None:
    """Run every op of workdir/ops.json through src's orbitsep.cli.main;
    outputs go to workdir/tag/<op>.json, exit codes to workdir/tag/codes.json."""
    sys.path.insert(0, str(src))
    import orbitsep.cli

    init = Path(orbitsep.cli.__file__).resolve().parent
    if init != (src / "orbitsep").resolve():
        sys.exit(f"imported orbitsep from {init}, not from {src}")
    out = workdir / tag
    out.mkdir()
    codes = {}
    for directory, key, argv in json.loads((workdir / "ops.json").read_text()):
        os.chdir(workdir / directory)  # op inputs are relative to their workload's directory
        with contextlib.redirect_stderr(io.StringIO()):
            try:
                codes[key] = orbitsep.cli.main([*argv, "--out", str(out / f"{key}.json")])
            except Exception as exc:  # noqa: BLE001 -- an escaped exception is an outcome too
                codes[key] = f"raised {type(exc).__name__}"
    (out / "codes.json").write_text(json.dumps(codes))


def outcomes(src: Path, workdir: Path, tag: str) -> dict:
    """op key -> (exit code, output bytes or None), from one child process."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}  # as in the benchmark
    subprocess.run([sys.executable, __file__, "--child", str(src), "--workdir", str(workdir),
                    "--tag", tag], check=True, env=env)
    out = workdir / tag
    codes = json.loads((out / "codes.json").read_text())
    return {key: (code, path.read_bytes() if (path := out / f"{key}.json").exists() else None)
            for key, code in codes.items()}


def kind(value) -> str:
    """A parsed value's JSON type; ints and floats are one "number", and the
    emitter's non-finite spellings are their own kind."""
    if type(value) in (int, float):
        return "number"
    return "non-finite" if value in NON_FINITE else type(value).__name__


def walk(a, b, path: str):
    """(path, relative difference, None) for each pair of numbers of two
    parsed outputs, and (path, None, what differs) for each other difference."""
    if kind(a) != kind(b):
        yield path, None, f"{kind(a)} -> {kind(b)}"
    elif isinstance(a, dict):
        if list(a) != list(b):
            yield path, None, f"keys {list(a)} -> {list(b)}"
        for key in a.keys() & b.keys():
            yield from walk(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, list):
        if len(a) != len(b):
            yield path, None, f"length {len(a)} -> {len(b)}"
        for x, y in zip(a, b):
            yield from walk(x, y, f"{path}[]")
    elif kind(a) == "number":
        yield path, 0.0 if a == b else abs(a - b) / max(abs(a), abs(b)), None
    elif a != b:
        yield path, None, f"{a!r} -> {b!r}"


def value_report(ops, base: dict, head: dict) -> list:
    """Lines for the ops with the same exit code whose outputs both exist and
    differ: the largest relative difference per command and path, then what
    else differs."""
    largest, mismatches = {}, {}
    for _, key, argv in ops:
        (code_a, a), (code_b, b) = base[key], head[key]
        if code_a != code_b or a is None or b is None or a == b:
            continue
        for path, ratio, what in walk(json.loads(a), json.loads(b), argv[0]):
            if what is not None:
                mismatches.setdefault(path, (what, key))
            elif ratio > largest.get(path, (0.0,))[0]:
                largest[path] = (ratio, key)
    lines = [f"  {path}: largest relative difference {ratio:.3g} ({key})"
             for path, (ratio, key) in sorted(largest.items())]
    lines += [f"  {path}: {what} ({key})" for path, (what, key) in sorted(mismatches.items())]
    return lines or ["  no value differs"]


def main(argv=None) -> int:
    workloads = load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, help="the src directory to compare ./src against")
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS,
                        help="repeatable; default: all three")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--argv", action="append", default=[], metavar="COMMAND_LINE",
                        help=f"repeatable; one orbitsep command line, its command one of {ARGV_COMMANDS}")
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--tag", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        run_child(args.child.resolve(), args.workdir, args.tag)
        return 0
    if args.base is None:
        parser.error("--base is required")
    lines = [shlex.split(line) for line in args.argv]
    if any(not words or words[0] not in ARGV_COMMANDS for words in lines):
        parser.error(f"each --argv must start with one of {ARGV_COMMANDS}")

    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        workdir = Path(tmp)
        ops = []
        for workload in args.workload or workloads.WORKLOADS:
            pool = workloads.build_pool(workload, args.seed, workloads.rounds_for(workload, args.seconds))
            # Op ids restart per workload, so each gets its own input directory.
            workloads.write_inputs(pool, workdir / workload)
            ops += [(workload, f"{workload}-{op.op_id}", op.argv) for round_ops in pool for op in round_ops]
        (workdir / "argv").mkdir()
        ops += [("argv", f"argv-{i}", words) for i, words in enumerate(lines)]
        (workdir / "ops.json").write_text(json.dumps(ops))
        base = outcomes(args.base.resolve(), workdir, "base")
        head = outcomes(ROOT / "src", workdir, "head")

    differ = [(key, argv) for _, key, argv in ops if base[key] != head[key]]
    print(f"{len(differ)} of {len(ops)} ops differ in exit code or output bytes")
    for key, argv in differ[:SHOW]:
        code_a, code_b = base[key][0], head[key][0]
        what = f"exit {code_a} -> {code_b}" if code_a != code_b else "output bytes"
        print(f"  {key}: {what}: {' '.join(argv)}")
    if any(base[key][0] == head[key][0] for key, _ in differ):
        print("values:")
        print("\n".join(value_report(ops, base, head)))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
