"""tools/compare_outputs.py runs the benchmark's op lists through two source
trees and reports the ops whose exit code or output bytes differ; a tree
compared with itself must show no difference."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_compare_outputs_of_a_tree_with_itself():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "compare_outputs.py"), "--base", str(ROOT / "src"),
         "--workload", "fresh-groups", "--seconds", "1"],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines() == ["0 of 32 ops differ in exit code or output bytes"]
