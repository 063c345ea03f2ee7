"""tools/compare_outputs.py runs the benchmark's op lists, and any --argv
command lines after them, through two source trees and reports the ops
whose exit code or output bytes differ; a tree compared with itself must
show no difference, and the outputs that differ only in bytes are walked
by key path."""

import importlib.util
import json
import shutil
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


def load_tool():
    spec = importlib.util.spec_from_file_location("compare_outputs", ROOT / "tools" / "compare_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_outputs_reports_values_when_only_bytes_differ(tmp_path):
    base = tmp_path / "src"
    shutil.copytree(ROOT / "src", base, ignore=shutil.ignore_patterns("__pycache__"))
    init = base / "orbitsep" / "__init__.py"
    init.write_text(init.read_text().replace('__version__ = "0.1.0"', '__version__ = "0.0.9"'))
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "compare_outputs.py"), "--base", str(base),
         "--workload", "orbit-pairs", "--seconds", "1", "--argv", "counterexample --n 5"],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    total = int(lines[0].split()[0])
    assert lines[0] == f"{total} of {total} ops differ in exit code or output bytes"
    values = lines[lines.index("values:") + 1:]
    assert "  counterexample.version: '0.0.9' -> '0.1.0' (argv-0)" in values
    assert not any("largest relative difference" in line for line in values)


def test_value_report_names_the_perturbed_path_and_its_ratio():
    tool = load_tool()
    payload = {"transform_gap": 0.5, "values": [[1.0, 2.0], [3.0, 4.0]], "max_ratio": "NaN", "witness": [1, 2]}
    perturbed = json.loads(json.dumps(payload))
    perturbed["values"][1][0] = 3.0 * (1 + 2**-20)
    spelled = {**payload, "max_ratio": "Infinity", "witness": [1, 2, 3]}
    ops = [("w", "same", ["compare"]), ("w", "float", ["compare"]), ("w", "spelling", ["bench"])]
    text = lambda value: json.dumps(value).encode()
    base = {"same": (0, text(payload)), "float": (0, text(payload)), "spelling": (0, text(payload))}
    head = {"same": (0, text(payload)), "float": (0, text(perturbed)), "spelling": (0, text(spelled))}
    ratio = 3.0 * 2**-20 / perturbed["values"][1][0]
    assert tool.value_report(ops, base, head) == [
        f"  compare.values[][]: largest relative difference {ratio:.3g} (float)",
        "  bench.max_ratio: 'NaN' -> 'Infinity' (spelling)",
        "  bench.witness: length 2 -> 3 (spelling)",
    ]
    assert tool.value_report(ops, base, base) == ["  no value differs"]
