"""A/B the benchmark's end-to-end metrics between another source tree (the
parent) and this checkout's orbitsep (./src, the change).

    python3 tools/compare_perf.py --base ../parent/src
    python3 tools/compare_perf.py --base ../parent/src --workload orbit-pairs --seed 2 --pairs 10

Run from the repository root.  Each side gets a temporary tree holding
copies of perfbench/, BENCHMARK.json and that side's src, because
perfbench/run.py always imports ./src of its own checkout; so nothing under
perfbench/ changes and no run writes into its _out directory.  For each
workload the two sides run `perfbench/run.py --workload W --seed S
--seconds T --trace 0` in --pairs pairs, the side that runs first
alternating from pair to pair.  Per end-to-end metric of BENCHMARK.json it
prints both sides' medians and quartiles, the change of the median, how
many pairs the change won, the parent's IQR as a share of its median, the
metric's bound, whether the pairs show a significant shift, and a verdict
against the bound.

The shift is better or worse when at least 9 in 10 pairs agree and the
medians differ by more than the parent's IQR, and - otherwise.  The
verdict is

- regressed: the change's median is worse than the parent's by more than
  the bound, as a share of the parent's median;
- unresolved: otherwise, when the parent's IQR is wider than the bound, or
  a run gave no value (a pair with a NaN cannot be compared);
- within: otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
AGREE = 0.9  # share of pairs that must agree for better or worse
COPY_IGNORE = shutil.ignore_patterns("_out", "__pycache__")


def verdict(base, head, better: str, bound: float) -> dict:
    """Compare per-pair series of one metric: base[i] and head[i] ran as pair i."""
    base, head = np.asarray(base, dtype=float), np.asarray(head, dtype=float)
    sign = 1.0 if better == "higher" else -1.0
    wins = int(np.sum(sign * (head - base) > 0))
    losses = int(np.sum(sign * (head - base) < 0))
    row = {"pairs": len(base), "better_pairs": wins}
    if not (np.isfinite(base).all() and np.isfinite(head).all()):
        return {**row, "base": None, "head": None, "change": None, "iqr_share": None, "shift": "-",
                "verdict": "unresolved"}
    (b1, b2, b3), (h1, h2, h3) = np.percentile(base, [25, 50, 75]), np.percentile(head, [25, 50, 75])
    iqr, gain = b3 - b1, sign * (h2 - b2)
    share = iqr / abs(b2) if b2 else (0.0 if iqr == 0 else math.inf)
    loss_share = -gain / abs(b2) if b2 else (math.inf if gain < 0 else 0.0)
    need = math.ceil(AGREE * len(base))
    shift = "better" if wins >= need and gain > iqr else "worse" if losses >= need and -gain > iqr else "-"
    call = "regressed" if loss_share > bound else "unresolved" if share > bound else "within"
    return {**row, "base": [b1, b2, b3], "head": [h1, h2, h3],
            "change": (h2 - b2) / abs(b2) if b2 else None, "iqr_share": share, "shift": shift, "verdict": call}


def make_tree(root: Path, src: Path) -> Path:
    """A checkout of perfbench/ and BENCHMARK.json around a copy of src."""
    shutil.copytree(ROOT / "perfbench", root / "perfbench", ignore=COPY_IGNORE)
    shutil.copy2(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    shutil.copytree(src, root / "src", ignore=COPY_IGNORE)
    return root


def run_once(tree: Path, workload: str, seed: int, seconds: int, names) -> dict:
    """One untraced run's end-to-end metrics; NaN for each when the run fails."""
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True, timeout=1800)
    if done.returncode != 0:
        print(f"  {tree.name} {workload} exited {done.returncode}: {done.stderr.strip()[-200:]}", file=sys.stderr)
        return dict.fromkeys(names, math.nan)
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    return {name: metrics.get(name, {}).get("value", math.nan) for name in names}


def quartile_text(quartiles) -> str:
    if quartiles is None:
        return "-"
    q1, median, q3 = quartiles
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def report(workload: str, seed: int, runs: dict, metrics) -> None:
    print(f"== {workload}  seed {seed}  pairs {len(runs['base'])}")
    print(f"  {'metric':<13} {'parent median [q1, q3]':>30} {'change median [q1, q3]':>30} {'change':>8} "
          f"{'better':>7}  {'parent IQR':>10} {'bound':>6} {'shift':>6}  verdict")
    for metric in metrics:
        name = metric["name"]
        row = verdict([r[name] for r in runs["base"]], [r[name] for r in runs["head"]],
                      metric["better"], metric["bound"])
        change = "-" if row["change"] is None else f"{row['change']:+.1%}"
        share = "-" if row["iqr_share"] is None else f"{row['iqr_share']:.1%}"
        print(f"  {name:<13} {quartile_text(row['base']):>30} {quartile_text(row['head']):>30} {change:>8} "
              f"{row['better_pairs']:>3}/{row['pairs']:<3}  {share:>10} {metric['bound']:>6.0%} {row['shift']:>6}  "
              f"{row['verdict']}")
    sys.stdout.flush()  # one table per workload, as it finishes


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True, help="the src directory of the parent")
    parser.add_argument("--workload", action="append", choices=workloads, help="repeatable; default: all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if not (args.base / "orbitsep" / "__init__.py").is_file():
        parser.error(f"no orbitsep sources under {args.base}")
    names = [m["name"] for m in bench["end_to_end"]]
    with tempfile.TemporaryDirectory(prefix="compare-perf-") as tmp:
        trees = {"base": make_tree(Path(tmp) / "base", args.base.resolve()),
                 "head": make_tree(Path(tmp) / "head", ROOT / "src")}
        for workload in args.workload or workloads:
            runs = {"base": [], "head": []}
            for i in range(args.pairs):
                for side in ("base", "head") if i % 2 == 0 else ("head", "base"):
                    runs[side].append(run_once(trees[side], workload, args.seed, args.seconds, names))
            report(workload, args.seed, runs, bench["end_to_end"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
