"""tools/compare_perf.py: its verdict on synthetic per-pair series, and one
smoke run of both sides of one workload."""

import importlib.util
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
VERDICTS = ("regressed", "unresolved", "within")
SHIFTS = ("better", "worse", "-")


def load_tool():
    spec = importlib.util.spec_from_file_location("compare_perf", ROOT / "tools" / "compare_perf.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TOOL = load_tool()
PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]  # IQR 0.5% of the median


def test_identical_series_tie_within():
    row = TOOL.verdict(PARENT, PARENT, "higher", 0.25)
    assert row["better_pairs"] == 0 and row["change"] == 0.0
    assert (row["shift"], row["verdict"]) == ("-", "within")


def shift_and_verdict(base, head, better, bound):
    row = TOOL.verdict(base, head, better, bound)
    return row["shift"], row["verdict"]


def test_nine_of_ten_pairs_beyond_the_iqr_make_a_shift_and_the_bound_the_verdict():
    faster = [v * 1.1 for v in PARENT]
    faster[3] = PARENT[3]  # one tie: 9 of 10 pairs still agree
    assert shift_and_verdict(PARENT, faster, "higher", 0.25) == ("better", "within")
    assert shift_and_verdict(PARENT, faster, "lower", 0.25) == ("worse", "within")
    assert shift_and_verdict(PARENT, faster, "lower", 0.05) == ("worse", "regressed")
    faster[4] = PARENT[4]  # 8 of 10 do not
    assert shift_and_verdict(PARENT, faster, "higher", 0.25) == ("-", "within")


def test_a_median_worse_than_the_bound_regresses_without_nine_pairs():
    slower = [v * 1.3 for v in PARENT]  # a time, lower is better
    slower[0], slower[1] = PARENT[0] * 0.9, PARENT[1] * 0.9  # 8 of 10 pairs worse
    row = TOOL.verdict(PARENT, slower, "lower", 0.25)
    assert math.isclose(row["change"], 0.3, abs_tol=0.01) and row["better_pairs"] == 2
    assert (row["shift"], row["verdict"]) == ("-", "regressed")


def test_a_significant_rise_inside_the_bound_is_within():
    rss = [44.39 + 0.001 * i for i in range(10)]
    grown = [v * 1.005 for v in rss]  # +0.5% on every pair, against a 10% bound
    assert shift_and_verdict(rss, grown, "lower", 0.10) == ("worse", "within")


def test_a_shift_inside_the_parents_iqr_is_within():
    wide = [80.0, 120.0] * 5  # IQR 40% of the median
    shifted = [v + 1.0 for v in wide]
    row = TOOL.verdict(wide, shifted, "higher", 0.5)
    assert row["better_pairs"] == 10 and (row["shift"], row["verdict"]) == ("-", "within")


def test_an_iqr_wider_than_the_bound_is_unresolved():
    wide = [80.0, 120.0] * 5
    row = TOOL.verdict(wide, wide, "lower", 0.25)
    assert math.isclose(row["iqr_share"], 0.4) and row["verdict"] == "unresolved"


def test_a_nan_metric_is_unresolved():
    head = [*PARENT[:9], math.nan]
    row = TOOL.verdict(PARENT, head, "higher", 0.25)
    assert row["verdict"] == "unresolved" and row["shift"] == "-"
    assert row["base"] is None and row["change"] is None


def test_smoke_run_of_one_pair_writes_nothing_under_perfbench():
    before = sorted((ROOT / "perfbench").rglob("*"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "compare_perf.py"), "--base", str(ROOT / "src"),
         "--workload", "orbit-pairs", "--seconds", "1", "--pairs", "1"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "== orbit-pairs  seed 1  pairs 1"
    rows = {line.split()[0]: line.split()[-2:] for line in lines[2:]}
    assert list(rows) == ["ops_per_s", "op_p50_ms", "op_tail_ms", "success_rate", "peak_rss_mb", "setup_s"]
    assert all(shift in SHIFTS and call in VERDICTS for shift, call in rows.values())
    assert rows["success_rate"] == ["-", "within"]
    assert sorted((ROOT / "perfbench").rglob("*")) == before
