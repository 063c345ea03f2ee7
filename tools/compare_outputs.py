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
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
