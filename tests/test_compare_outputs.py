"""tools/compare_outputs.py runs the benchmark's op lists, and any --argv
command lines after them, through two source trees and reports the ops
whose exit code or output bytes differ; a tree compared with itself must
show no difference."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_compare_outputs_of_a_tree_with_itself():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "compare_outputs.py"), "--base", str(ROOT / "src"),
         "--workload", "fresh-groups", "--seconds", "1",
         "--argv", "bench --shift 2x3 --transform phi --samples 5", "--argv", "counterexample --n 5",
         "--argv", "exponents --shift 8x8", "--argv", "exponents --shift 3x3 --max-tuple-size 2",
         "--argv", "exponents --orders 1180591620717411303449 --matrix 1,2,3,5",
         # G/K of order 250 and K of order 4: the witness rule runs on a nontrivial K.
         "--argv", 'bench --orders 10,10,10 --matrix "1,2,3;4,0,6;7,8,5" --transform phi --samples 5'],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines() == ["0 of 38 ops differ in exit code or output bytes"]


def test_compare_outputs_argv_reads_no_input_file():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "compare_outputs.py"), "--base", str(ROOT / "src"),
         "--argv", "invariants --shift 2x3 x.json"],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert done.returncode == 2
    assert "--argv must start with one of" in done.stderr
