"""Self-tests of the benchmark: the checker catches corrupted outputs, span
self times fit inside op wall time, and the op list is a function of the seed.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import os
from pathlib import Path

import pytest

import checks
import kernel
import run
import tracing
import workloads

SEED = 7


@pytest.fixture(scope="module")
def orbitsep():
    return run.load_orbitsep()


def _run_ops(orbitsep, tmp_path, monkeypatch, ops, tracer=None):
    """Run ops through the benchmark's runner; return (runner, payload per op)."""
    workloads.write_inputs([ops], tmp_path)
    monkeypatch.chdir(tmp_path)
    runner = run.Runner(orbitsep, tmp_path, tracer)
    payloads = []
    for op in ops:
        runner.run(op)
        out = tmp_path / "out.json"
        payloads.append(json.loads(out.read_text()) if out.exists() else None)
    return runner, payloads


def _first(pool, **match):
    return next(op for rnd in pool for op in rnd if all(getattr(op, k) == v for k, v in match.items()))


def test_shift_twins_checked_and_corruption_caught(orbitsep, tmp_path, monkeypatch):
    pool = workloads.build_pool("shift-images", SEED, rounds=1)
    first = _first(pool, cls="2x3")
    twin = next(op for op in pool[0] if op.expect["pair"] == first.expect["pair"] and op is not first)
    runner, (a, b) = _run_ops(orbitsep, tmp_path, monkeypatch, [first, twin])
    assert [r["reason"] for r in runner.records] == [None, None]
    assert checks.check_twins(a, b) is None

    bad = copy.deepcopy(b)
    bad["values"][1][0] *= 1 + 1e-6
    assert "twin" in checks.check_twins(a, bad)
    bad = copy.deepcopy(b)
    bad["dim"] += 1
    assert "dim" in checks.check(twin, bad)
    bad = copy.deepcopy(b)
    bad["values"][0] = ["Infinity", 0.0]
    assert checks.check(twin, bad) == "non-finite invariant values"


def test_compare_and_bench_corruption_caught(orbitsep, tmp_path, monkeypatch):
    pool = workloads.build_pool("orbit-pairs", SEED, rounds=1)
    same = next(op for op in pool[0] if op.cls == "1e4b" and op.kind == "compare" and op.expect["same_orbit"])
    other = next(op for op in pool[0] if op.cls == "1e4b" and op.kind == "compare" and not op.expect["same_orbit"])
    bench = _first(pool, cls="1e4b", kind="bench")
    runner, (p_same, p_other, p_bench) = _run_ops(orbitsep, tmp_path, monkeypatch, [same, other, bench])
    assert [r["reason"] for r in runner.records] == [None, None, None]

    bad = copy.deepcopy(p_other)
    bad["distance"] *= 1.01
    assert checks.check(other, bad) is not None
    bad = copy.deepcopy(p_other)
    bad["witness"][1] = (bad["witness"][1] + 1) % 1000
    assert checks.check(other, bad) is not None
    bad = copy.deepcopy(p_same)
    bad["equivalent"] = False
    assert checks.check(same, bad) is not None
    bad = copy.deepcopy(p_other)
    bad["transform_gap"] = "Infinity"
    assert checks.check(other, bad) == "bad transform_gap 'Infinity'"
    bad = copy.deepcopy(p_bench)
    bad["max_ratio"] = 2 * bad["bound"]
    assert "max_ratio" in checks.check(bench, bad)
    bad["max_ratio"] = "NaN"
    assert checks.check(bench, bad).startswith("non-finite bench ratio")


def test_exponent_and_hermite_corruption_caught(orbitsep, tmp_path, monkeypatch):
    pool = workloads.build_pool("fresh-groups", SEED, rounds=6)
    ops = [op for rnd in pool for op in rnd if op.cls == "gen1" and op.kind in ("exponents", "rational", "g")]
    runner, payloads = _run_ops(orbitsep, tmp_path, monkeypatch, ops)
    good = {}
    for rec, payload in zip(runner.records, payloads):
        if rec["code"] == 0:
            assert rec["reason"] is None, rec["reason"]
            good.setdefault(rec["op"].kind, (rec["op"], payload))
    assert set(good) == {"exponents", "rational", "g"}

    op, payload = good["exponents"]
    bad = copy.deepcopy(payload)
    key = next(iter(bad["table"]["pairs"]))
    bad["table"]["pairs"][key][1] += 1
    assert "invariant" in checks.check(op, bad)

    op, payload = good["rational"]
    bad = copy.deepcopy(payload)
    bad["hermite"]["multiplier"][0][0] += 1
    assert checks.check(op, bad) is not None
    bad = copy.deepcopy(payload)
    bad["values"][0] = [2 * v for v in bad["values"][0]]
    assert "log-modulus" in checks.check(op, bad)

    op, payload = good["g"]
    bad = copy.deepcopy(payload)
    bad["values"][0] = ["NaN", 0.0]
    assert checks.check(op, bad).startswith(checks.FLOAT_LIMIT)


def test_self_times_fit_in_op_wall_time(orbitsep, tmp_path, monkeypatch):
    ops = [
        _first(workloads.build_pool("shift-images", SEED, rounds=1), cls="4x4"),
        _first(workloads.build_pool("orbit-pairs", SEED, rounds=1), cls="1e4a", kind="compare"),
        _first(workloads.build_pool("fresh-groups", SEED, rounds=1), kind="rational"),
    ]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        runner, _ = _run_ops(orbitsep, tmp_path, monkeypatch, ops, tracer)
    finally:
        tracer.uninstall()
    assert not tracer.missing
    own = tracing.self_times(tracer.spans)
    for rec in runner.records:
        mine = [t for s, t in zip(tracer.spans, own) if s[tracing.OP] == rec["seq"]]
        assert len(mine) > 1
        assert all(t >= 0 for t in mine)
        assert sum(mine) <= rec["latency"]
    metrics, absent = tracing.layer_metrics(tracer, [], len(ops))
    assert not absent
    assert metrics["io.emit.bytes"] > 0 and metrics["metric.orbit_distance.calls"] == 1
    assert metrics["metric.elements_scanned"] == 10**4


def test_scan_count_absent_when_the_scan_enumerates_out_of_sight():
    span = ["metric.orbit_distance", 0.0, 1.0, -1, 0, None, None]
    child = ["groups.enumerate", 0.1, 0.2, 0, 0, None, {"elements": 6}]
    assert tracing.elements_scanned([span, child]) == 6
    assert tracing.elements_scanned([span]) is None


def test_removed_function_reports_absent_metrics(orbitsep, monkeypatch):
    import orbitsep.metric

    monkeypatch.delattr(orbitsep.metric, "lipschitz_ratio_scan")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    metrics, absent = tracing.layer_metrics(tracer, [], 1)
    assert absent == ["metric.scan.self_ms"]
    assert "metric.scan.self_ms" not in metrics


def test_op_list_is_a_function_of_the_seed(tmp_path):
    hashes = []
    for name, seed in (("a", SEED), ("b", SEED), ("c", SEED + 1)):
        pool = workloads.build_pool("fresh-groups", seed, rounds=3)
        hashes.append(workloads.write_inputs(pool, tmp_path / name))
    assert hashes[0] == hashes[1] != hashes[2]


def test_kernel_probe_runs_in_its_own_process():
    with kernel.Probe() as probe:
        assert 0 < probe.time() < 10
        pid = probe._proc.pid
    assert probe._proc.returncode == 0 and pid != os.getpid()


def test_tail_rank_leaves_ten_samples_beyond():
    value, pct, n = run.tail([float(v) for v in range(1, 101)])
    assert (value, pct, n) == (90.0, 90.0, 100)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_twin_noise_on_a_zero_fourier_coefficient_is_a_float_limit():
    a = {"values": [[1.0, 0.0], [1e-9, 0.0]]}
    b = {"values": [[1.0, 0.0], [-1e-9, 0.0]]}
    assert checks.check_twins(a, b).startswith("shifted twin disagrees")
    assert checks.check_twins(a, b, degenerate=True).startswith(checks.FLOAT_LIMIT)
