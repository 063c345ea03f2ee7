"""The benchmark tracer wraps orbitsep functions by module and name; a
refactor that renames or moves one would turn its per-layer metrics absent
without failing anything else, and a changed return type would break the
counts it takes after each op.  perfbench/tracing.py is loaded by path and
not modified."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import orbitsep.cli
import orbitsep.exponents
import orbitsep.hermite
from orbitsep import make_group
from reference import brute_quotient_order

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves(tracing):
    missing = []
    for module_name, func_name in tracing.SPANS:
        module = importlib.import_module(f"orbitsep.{module_name}")
        if not callable(getattr(module, func_name, None)):
            missing.append(f"orbitsep.{module_name}.{func_name}")
    assert not missing


def test_one_hermite_normal_form_for_both_layers():
    assert orbitsep.hermite.hermite_normal_form is orbitsep.exponents.hermite_normal_form


def test_traced_ops_of_every_command(tracing, tmp_path, monkeypatch):
    # The benchmark takes each op's counts after the op, outside its error
    # handling, so a counter that cannot read a changed return type would end
    # the whole traced run.  One op per subcommand runs under the tracer here.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.json").write_text("[1, [0.5, -2], 0.25, 3, [-1, 1], 2]")
    (tmp_path / "b.json").write_text("[2, 1, [0, 1], -0.5, 1.5, [1, -1]]")
    group = ["--shift", "2x3"]
    ops = [
        ["exponents", "--orders", "4,6", "--matrix", "1,2,3;5,0,1"],
        ["invariants", *group, "a.json"],
        ["invariants", *group, "--transform", "theta", "b.json"],
        ["invariants", "--orders", "6", "--matrix", "1,2,3,4,5,0", "--transform", "g", "a.json"],
        ["compare", *group, "a.json", "b.json"],
        ["compare", *group, "--transform", "rational", "a.json", "b.json"],
        ["counterexample"],
        ["bench", *group, "--samples", "3"],
    ]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for op_id, argv in enumerate(ops):
            tracer.begin_op(op_id)
            assert orbitsep.cli.main([*argv, "--out", "out.json"]) == 0, argv
            tracer.end_op()
    finally:
        tracer.uninstall()
    metrics, absent = tracing.layer_metrics(tracer, [], len(ops))
    assert tracer.missing == []
    assert absent == []
    builds = [span[tracing.OP] for span in tracer.spans if span[tracing.NAME] == "exponents.table"]
    assert builds == [0, 1]  # ops 2, 4 and 7 reuse op 1's table
    assert metrics["exponents.table.calls"] == 2
    assert metrics["exponents.table.repeat_share"] == 0


def test_traced_metric_counts_every_element_it_scans(tracing, tmp_path, monkeypatch):
    # metric.elements_scanned is read off the groups.enumerate spans under
    # each orbit_distance call, so the metric must keep enumerating through
    # enumerate_group and the result must keep a length.  It enumerates the
    # faithful quotient G/K: one element per distinct phase vector.  compare
    # makes one call, and the bench scores its 3 pairs in one stacked call.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.json").write_text("[1, [0.5, -2], 0.25]")
    (tmp_path / "b.json").write_text("[[0, 1], -0.5, 1.5]")
    group = ["--orders", "10,10,10", "--matrix", "1,2,3;4,0,6;7,8,5"]
    ops = [["compare", *group, "a.json", "b.json"], ["bench", *group, "--samples", "3"]]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for op_id, argv in enumerate(ops):
            tracer.begin_op(op_id)
            assert orbitsep.cli.main([*argv, "--out", "out.json"]) == 0, argv
            tracer.end_op()
    finally:
        tracer.uninstall()
    metrics, absent = tracing.layer_metrics(tracer, [], len(ops))
    assert tracer.missing == []
    assert absent == []
    calls = metrics["metric.orbit_distance.calls"]
    assert calls == 2
    cosets = brute_quotient_order(make_group((10, 10, 10), ((1, 2, 3), (4, 0, 6), (7, 8, 5))))
    assert cosets == 250
    assert metrics["metric.elements_scanned"] == metrics["groups.enumerate.elements"] == cosets * calls


def test_hermite_spans_come_only_from_the_multiplier(tracing, tmp_path, monkeypatch):
    # The exponent table reduces its lattice bases without a multiplier and
    # outside the public hermite_normal_form, and hermite_multiplier does not
    # re-prove |det U| = 1, so hermite.hnf and hermite.max_entry_bits cover
    # multiplier reductions only and hermite.det stays empty.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.json").write_text("[1, [0.5, -2], 0.25, 3, [-1, 1], 2]")
    ops = [
        ["exponents", "--orders", "4,6", "--matrix", "1,2,3;5,0,1"],
        ["invariants", "--orders", "6", "--matrix", "1,2,3,4,5,0", "--transform", "g", "a.json"],
    ]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for op_id, argv in enumerate(ops):
            tracer.begin_op(op_id)
            assert orbitsep.cli.main([*argv, "--out", "out.json"]) == 0, argv
            tracer.end_op()
    finally:
        tracer.uninstall()
    names = [[span[tracing.NAME] for span in tracer.spans if span[tracing.OP] == op_id]
             for op_id in range(len(ops))]
    assert "exponents.table" in names[0] and "hermite.hnf" not in names[0]
    assert names[1].count("hermite.hnf") == 1 and "hermite.det" not in names[1]
