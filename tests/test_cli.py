"""End-to-end command-line checks through main(argv)."""

import collections
import gc
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import orbitsep
import orbitsep.cli
import orbitsep.exponents
import orbitsep.hermite
import orbitsep.metric
import orbitsep.plan
from orbitsep.cli import main
from orbitsep.io import emit_json
from reference import reference_emit_json, table_as_dict


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


@pytest.fixture
def image_pair(tmp_path):
    rng = np.random.default_rng(30)
    img = rng.integers(0, 200, size=(2, 3))
    shifted = np.roll(img, (1, 2), axis=(0, 1))
    return write_image(tmp_path, "img.csv", img), write_image(tmp_path, "img_shift.csv", shifted)


def write_image(tmp_path, name, image):
    path = tmp_path / name
    path.write_text("\n".join(",".join(str(v) for v in row) for row in image) + "\n")
    return path


def write_signal(tmp_path, name, values):
    path = tmp_path / name
    payload = [[float(v.real), float(v.imag)] for v in np.asarray(values, complex)]
    path.write_text(json.dumps(payload))
    return path


def test_package_exports_only_what_it_ships():
    namespace = {}
    exec("from orbitsep import *", namespace)
    assert all(hasattr(orbitsep, name) for name in orbitsep.__all__)
    assert set(orbitsep.__all__) <= set(namespace)
    moved = {"minimal_single", "minimal_pair", "minimal_triple", "shift_image", "from_fourier",
             "equivalent", "sample_pair"}
    assert not moved & set(orbitsep.__all__)
    assert not moved & set(vars(orbitsep))


def test_exponents_single_generator(capsys):
    payload = run_json(capsys, "exponents", "--orders", "4", "--matrix", "1,2")
    assert payload["orders"] == [4]
    assert payload["matrix"] == [[1, 2]]
    assert payload["table"]["singles"] == [4, 2]
    assert payload["table"]["pairs"]["0,1"] == [2, 1]
    assert payload["version"]


def test_exponents_shift_shorthand(capsys):
    payload = run_json(capsys, "exponents", "--shift", "3x1")
    assert payload["table"]["singles"] == [3, 3, 1]
    assert payload["table"]["total_dim"] == 7


def test_exponents_needs_group(capsys):
    code, _, err = run(capsys, "exponents")
    assert code == 2
    assert "group declaration required" in err


def test_exponents_rejects_double_declaration(capsys):
    code, _, err = run(
        capsys, "exponents", "--shift", "2x2", "--orders", "2", "--matrix", "1"
    )
    assert code == 2
    assert "not both" in err


def test_exponents_prime_order_near_ten_million():
    # A solver that scans exponent values up to the order does not finish;
    # the child runs under a timeout so such a solver fails instead of hanging.
    src = str(Path(orbitsep.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = ["exponents", "--orders", "10000019", "--matrix", "1,0"]
    done = subprocess.run(
        [sys.executable, "-m", "orbitsep.cli", *argv],
        capture_output=True, text=True, timeout=10, env=env,
    )
    assert done.returncode == 0, done.stderr
    table = json.loads(done.stdout)["table"]
    assert table["singles"] == [10000019, 1]
    assert table["pairs"] == {"0,1": [10000019, 0]}


def test_exponents_two_large_orders_triple_is_fast(capsys):
    start = time.perf_counter()
    payload = run_json(
        capsys, "exponents", "--orders", "1009,1013", "--matrix", "1,0,0;0,1,0"
    )
    elapsed = time.perf_counter() - start
    assert payload["table"]["triples"] == {"0,1,2": [1009, 0, 0]}
    assert elapsed < 1.0, f"table build took {elapsed:.2f} s"


def test_invariants_phi_zero_signal(capsys, tmp_path):
    sig = write_signal(tmp_path, "zero.json", np.zeros(6))
    payload = run_json(
        capsys, "invariants", "--shift", "2x3", "--transform", "phi", str(sig)
    )
    assert payload["transform"] == "Phi"
    assert payload["dim"] == 3 * 6 + 1
    assert all(v == [0, 0] for v in payload["values"])


def test_invariants_image_matches_its_shift(capsys, image_pair):
    a, b = image_pair
    pa = run_json(capsys, "invariants", "--shift", "2x3", "--transform", "f", str(a))
    pb = run_json(capsys, "invariants", "--shift", "2x3", "--transform", "f", str(b))
    va = np.array([complex(re, im) for re, im in pa["values"]])
    vb = np.array([complex(re, im) for re, im in pb["values"]])
    scale = max(1.0, np.abs(va).max())
    assert np.abs(va - vb).max() <= 1e-12 * scale


def test_invariants_same_input_byte_identical(capsys, image_pair):
    a, _ = image_pair
    code1, out1, _ = run(capsys, "invariants", "--shift", "2x3", str(a))
    code2, out2, _ = run(capsys, "invariants", "--shift", "2x3", str(a))
    assert code1 == code2 == 0
    assert out1 == out2


def test_invariants_pgm_formats_agree(capsys, tmp_path):
    ascii_p = tmp_path / "a.pgm"
    ascii_p.write_bytes(b"P2\n3 2\n255\n0 10 20\n30 40 50\n")
    binary_p = tmp_path / "b.pgm"
    binary_p.write_bytes(b"P5\n3 2\n255\n" + bytes([0, 10, 20, 30, 40, 50]))
    _, out_a, _ = run(capsys, "invariants", "--shift", "2x3", str(ascii_p))
    _, out_b, _ = run(capsys, "invariants", "--shift", "2x3", str(binary_p))
    assert out_a == out_b


def test_invariants_rational_payload(capsys, tmp_path):
    rng = np.random.default_rng(31)
    sig = write_signal(
        tmp_path, "full.json", rng.standard_normal(4) + 1j * rng.standard_normal(4) + 0.5
    )
    payload = run_json(
        capsys,
        "invariants",
        "--orders",
        "4",
        "--matrix",
        "1,2,3,0",
        "--transform",
        "rational",
        str(sig),
    )
    assert payload["transform"] == "rational"
    assert payload["domain_ok"] is True
    assert payload["hermite"]["orders"] == [4]
    assert all(isinstance(s, str) for s in payload["hermite"]["scaling"])


def test_invariants_g_payload(capsys, tmp_path):
    sig = write_signal(tmp_path, "g.json", [1.0, 0.5 + 0.5j, 0.25, 2.0])
    payload = run_json(
        capsys, "invariants", "--shift", "4x1", "--transform", "g", str(sig)
    )
    assert payload["transform"] == "G"
    assert payload["sign"] in (-1, 1)
    assert payload["dim"] == 4


@pytest.mark.parametrize("transform", ["rational", "g"])
def test_invariants_large_hermite_entries_exit_zero(capsys, tmp_path, transform):
    # The invariant block reaches 1.3e6, so the values leave the double
    # range; that is reported in the values, not as an internal failure.
    sig = tmp_path / "sig.json"
    sig.write_text("[1, [0.5, -0.25], 2]")
    payload = run_json(
        capsys, "invariants", "--orders", "53,58", "--matrix", "31,0,5;6,46,9",
        "--transform", transform, str(sig),
    )
    if transform == "rational":
        assert payload["domain_ok"] is False


def test_invariants_power_overflow_is_non_finite(capsys, tmp_path):
    sig = write_signal(tmp_path, "big.json", [1e10])
    payload = run_json(
        capsys, "invariants", "--orders", "101", "--matrix", "1", str(sig)
    )
    assert payload["values"][0][0] == "Infinity"


# Valid inputs whose F values overflow, so their differences and norms are
# non-finite; with the argv that reaches each path, and the payload fields
# after the envelope.  One NaN ratio makes bench's maximum NaN, as np.max
# does: its second pair's ratio is NaN, its first 5.5e108.  In
# bench-infinite every difference is finite, below 1.4e308, but the gap
# itself, about 2.4e308, is beyond the largest double.
OVERFLOW_SIGNALS = {
    "a.json": "[[3, 1], [2, 2], [0.5, 1]]",
    "b.json": "[[1, 3], [2, -2], [4, 1]]",
    "c.json": "[1, 2]",
}
OVERFLOW_CASES = {
    "compare": (
        ["compare", "--orders", "1000", "--matrix", "1,2,999", "--transform", "f",
         "a.json", "b.json"],
        {"transform": "F", "transform_gap": "NaN", "equivalent": False,
         "distance": 5.3393109145739981, "witness": [305], "oracle": True},
    ),
    "compare-no-oracle": (
        ["compare", "--orders", "1001,1000", "--matrix", "1,2;1,3", "--transform", "f",
         "c.json", "c.json"],
        {"transform": "F", "transform_gap": "NaN", "equivalent": None,
         "distance": None, "witness": None, "oracle": False},
    ),
    "bench": (
        ["bench", "--orders", "1000", "--matrix", "1,2,999", "--transform", "f",
         "--samples", "5"],
        {"transform": "F", "kind": "full_support", "samples": 5,
         "max_ratio": "NaN", "bound": None},
    ),
    "bench-infinite": (
        ["bench", "--orders", "991", "--matrix", "1,1,1,1,1,1", "--transform", "f",
         "--samples", "1", "--seed", "175"],
        {"seed": 175, "transform": "F", "kind": "full_support", "samples": 1,
         "max_ratio": "Infinity", "bound": None},
    ),
}


# A 2x3 image whose DC coefficient, 6e308 / sqrt(6), is beyond the double range.
BIG_IMAGE_CSV = "1e308,1e308,1e308\n1e308,1e308,1e308\n"


def write_overflow_signals(directory):
    for name, text in OVERFLOW_SIGNALS.items():
        (directory / name).write_text(text)


@pytest.mark.parametrize("case", OVERFLOW_CASES)
def test_non_finite_transform_gap_warns_nothing(capsys, tmp_path, monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    write_overflow_signals(tmp_path)
    argv, fields = OVERFLOW_CASES[case]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    envelope = {"seed": 0, "tolerance": 1e-9, "mode": "repaired", "version": orbitsep.__version__}
    assert json.loads(out) == {**envelope, **fields}


# Groups above ENUMERATION_CAP have no oracle, so compare reads equivalence
# off the transform gap alone.  In these cases the values tell nothing: Phi's
# reduced block overflows, so gap and scale are both infinite; every PhiF
# value of a nonzero signal underflows to zero, so the gap is 0.
NO_ORACLE = ["compare", "--orders", "1009,1013", "--matrix", "1,2,5;1,3,7"]
NO_ORACLE_CASES = {
    "infinite-scale": ("phi", "[1e308, 1e308, 1e308]", "[-1e308, [0, 1e308], 5e307]", "Infinity"),
    "underflow": ("phif", "[1, 2, 3]", "[3, 1, 2]", 0),
}


@pytest.mark.parametrize("case", NO_ORACLE_CASES)
def test_compare_without_oracle_leaves_equivalence_open_when_the_values_tell_nothing(capsys, tmp_path, monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    transform, a, b, gap = NO_ORACLE_CASES[case]
    (tmp_path / "a.json").write_text(a)
    (tmp_path / "b.json").write_text(b)
    payload = run_json(capsys, *NO_ORACLE, "--transform", transform, "a.json", "b.json")
    assert payload["transform_gap"] == gap
    assert (payload["equivalent"], payload["oracle"]) == (None, False)


def test_phi_values_beyond_the_double_range_warn_nothing(capsys, tmp_path, monkeypatch):
    # The suite turns a RuntimeWarning into an error, which main reports as exit 4.
    monkeypatch.chdir(tmp_path)
    _, a, b, _ = NO_ORACLE_CASES["infinite-scale"]
    (tmp_path / "a.json").write_text(a)
    (tmp_path / "b.json").write_text(b)
    code, out, err = run(capsys, *NO_ORACLE, "--transform", "phi", "a.json", "b.json")
    assert (code, err) == (0, "")
    assert json.loads(out)["transform_gap"] == "Infinity"


def test_every_payload_kind_matches_the_reference_emitter(capsys, monkeypatch, tmp_path):
    # The payloads of each command, each transform and the non-finite
    # overflow cases, emitted by the package and by the per-item oracle.
    monkeypatch.chdir(tmp_path)
    write_overflow_signals(tmp_path)
    write_signal(tmp_path, "x.json", np.arange(1, 7) * (1 - 0.5j))
    write_signal(tmp_path, "y.json", np.arange(6, 0, -1) * (0.5 + 1j))
    payloads = []
    monkeypatch.setattr(orbitsep.cli, "emit_json", lambda payload: payloads.append(payload) or emit_json(payload))
    group = ["--shift", "2x3"]
    runs = [
        ["exponents", "--shift", "4x4"],
        ["exponents", "--orders", "2,3,5", "--matrix", "1,0,1;0,1,2;1,1,1"],
        *(["invariants", *group, "--transform", t, "x.json"] for t in orbitsep.cli.TRANSFORMS),
        ["compare", *group, "x.json", "y.json"],
        ["bench", *group, "--samples", "3"],
        ["counterexample", "--n", "5"],
        *(argv for argv, _ in OVERFLOW_CASES.values()),
    ]
    for argv in runs:
        assert run(capsys, *argv)[0] == 0, argv
    assert len(payloads) == len(runs)
    for argv, payload in zip(runs, payloads):
        assert emit_json(payload) == reference_emit_json(payload), argv


@pytest.mark.parametrize("transform", ["phi", "phif"])
def test_compare_gap_stays_finite_above_the_square_root_of_the_largest_double(capsys, tmp_path, transform):
    # Phi and PhiF are homogeneous of degree one, so scaling both signals by
    # 2**520 scales the gap by exactly 2**520, though its squares overflow.
    rng = np.random.default_rng(34)
    x, y = rng.standard_normal((2, 12)).view(complex)
    gaps = []
    for k in (0, 520):
        a, b = (write_signal(tmp_path, f"{name}{k}.json", np.ldexp(z.view(float), k).view(complex))
                for name, z in (("a", x), ("b", y)))
        gaps.append(run_json(capsys, "compare", "--shift", "2x3", "--transform", transform, str(a), str(b))["transform_gap"])
    assert 0 < gaps[0] < 1e3
    assert gaps[1] == math.ldexp(gaps[0], 520)


def count_calls(monkeypatch, name):
    """Record the calls of name, a builder the group plan calls, patched in
    the module the plan looks it up in when called."""
    calls = []
    module = next(m for m in (orbitsep.plan, orbitsep.hermite, orbitsep.metric) if hasattr(m, name))
    original = getattr(module, name)
    monkeypatch.setattr(
        module, name, lambda *a, **k: calls.append(a) or original(*a, **k)
    )
    return calls


@pytest.mark.parametrize(
    "argv,builder",
    [
        (["compare"], "build_exponent_table"),
        (["bench", "--transform", "f", "--samples", "5"], "build_exponent_table"),
        (["bench", "--transform", "phi", "--samples", "5"], "build_exponent_table"),
        (["compare", "--transform", "rational"], "hermite_multiplier"),
    ],
    ids=["compare", "bench-f", "bench-phi", "compare-rational"],
)
def test_each_command_builds_its_data_once(capsys, monkeypatch, tmp_path, argv, builder):
    calls = count_calls(monkeypatch, builder)
    rng = np.random.default_rng(33)
    inputs = []
    if argv[0] == "compare":
        inputs = [
            str(write_signal(tmp_path, f"{k}.json", rng.standard_normal(6) + 0.5))
            for k in "ab"
        ]
    run_json(capsys, *argv, "--shift", "2x3", *inputs)
    assert len(calls) == 1


def test_second_command_on_a_group_builds_nothing(capsys, monkeypatch, tmp_path):
    calls = count_calls(monkeypatch, "build_exponent_table")
    sig = str(write_signal(tmp_path, "x.json", np.arange(1, 7)))
    run_json(capsys, "invariants", "--shift", "2x3", sig)
    run_json(capsys, "invariants", "--shift", "2x3", "--transform", "theta", sig)
    run_json(capsys, "bench", "--shift", "2x3", "--transform", "phif", "--samples", "2")
    assert len(calls) == 1
    run_json(capsys, "exponents", "--shift", "2x3", "--max-tuple-size", "2")
    assert len(calls) == 2  # another tuple size is another table


def test_one_group_builds_its_hermite_data_once_across_commands(capsys, monkeypatch, tmp_path):
    calls = count_calls(monkeypatch, "hermite_multiplier")
    rng = np.random.default_rng(40)
    a, b = (str(write_signal(tmp_path, f"{k}.json", rng.standard_normal(6) + 0.5)) for k in "ab")
    run_json(capsys, "invariants", "--shift", "2x3", "--transform", "rational", a)
    run_json(capsys, "invariants", "--shift", "2x3", "--transform", "g", a)
    run_json(capsys, "compare", "--shift", "2x3", "--transform", "rational", a, b)
    assert len(calls) == 1


def test_two_compares_on_one_group_compile_the_metric_once(capsys, monkeypatch, tmp_path):
    calls = count_calls(monkeypatch, "_compile")
    rng = np.random.default_rng(41)
    a, b, c = (str(write_signal(tmp_path, f"{k}.json", rng.standard_normal(6) + 0.5)) for k in "abc")
    run_json(capsys, "compare", "--shift", "2x3", a, b)
    run_json(capsys, "compare", "--shift", "2x3", "--transform", "theta", b, c)
    assert len(calls) == 1
    run_json(capsys, "compare", "--shift", "3x2", a, b)
    assert len(calls) == 2  # another group is another plan


def test_table_cache_evicts_the_least_recently_used(capsys, monkeypatch):
    calls = count_calls(monkeypatch, "build_exponent_table")
    size = orbitsep.plan.plan.cache_info().maxsize
    orders = [str(p) for p in range(2, size + 3)]
    for p in orders:
        run_json(capsys, "exponents", "--orders", p, "--matrix", "1,1")
    assert len(calls) == size + 1
    run_json(capsys, "exponents", "--orders", orders[-1], "--matrix", "1,1")
    assert len(calls) == size + 1
    run_json(capsys, "exponents", "--orders", orders[0], "--matrix", "1,1")
    assert len(calls) == size + 2


def test_table_and_metric_share_one_quotient_compile(capsys, monkeypatch, tmp_path):
    # The 4x4 shift table takes the discrete-log path, which reads G/K too;
    # each compile of G/K diagonalizes once with phase_generators.
    calls = []
    original = orbitsep.exponents.phase_generators
    monkeypatch.setattr(orbitsep.exponents, "phase_generators", lambda g: calls.append(g) or original(g))
    assert orbitsep.exponents._by_discrete_logs(orbitsep.shift_action_spec(4, 4))
    rng = np.random.default_rng(38)
    a, b = (str(write_signal(tmp_path, f"{k}.json", rng.standard_normal(16) + 0.5)) for k in "ab")
    for transform in ("f", "theta"):
        run_json(capsys, "compare", "--shift", "4x4", "--transform", transform, a, b)
    assert len(calls) == 1


def test_parser_built_once(capsys):
    codes = [
        run(capsys, *argv)[0]
        for argv in (["exponents", "--shift", "2x2"], ["counterexample"], ["exponents", "--bad"])
    ]
    assert codes == [0, 0, 2]
    assert orbitsep.cli.build_parser.cache_info().misses == 1
    assert orbitsep.cli.build_parser() is orbitsep.cli.build_parser()


def test_cached_table_arrays_are_read_only():
    plan = orbitsep.plan.plan(orbitsep.shift_action_spec(2, 3))
    table = plan.table()
    steps, passes = table.gather  # 2x3 is a grid table: its steps and one flat index per block
    arrays = [*(a for pair in table.arrays for a in pair), steps, *(index for *_, index, _ in passes)]
    assert len(arrays) == 10
    for array in [*arrays, plan.reduction(5), *plan.beta.blocks]:  # the retained reduction and weights too
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


@pytest.mark.parametrize(
    "group,signal",
    [
        (["--shift", "2x3"], [1 + 2j, -0.5, 3j, 0.25 - 1j, 2, 1e-3]),
        (["--orders", "4,6", "--matrix", "1,2,3;5,0,1"], [0.5 - 1j, 2 + 0.5j, -1.5]),
    ],
    ids=["shift", "declared"],
)
def test_cold_and_warm_outputs_identical(capsys, tmp_path, group, signal):
    sig = str(write_signal(tmp_path, "x.json", signal))
    commands = [["exponents", *group]] + [
        ["invariants", *group, "--transform", name, sig] for name in ("f", "theta", "phif", "phi")
    ]
    cold = []
    for argv in commands:
        orbitsep.plan.plan.cache_clear()
        cold.append(run(capsys, *argv))
    hits = orbitsep.plan.plan.cache_info().hits
    warm = [run(capsys, *argv) for argv in commands]
    assert orbitsep.plan.plan.cache_info().misses == 1  # one plan for the group
    assert orbitsep.plan.plan.cache_info().hits > hits
    assert all(code == 0 for code, _, _ in cold)
    assert warm == cold


def phi_twins(tmp_path, group):
    """invariants --transform phi command lines for a signal and its twin
    under one group element, both at one seed."""
    rng = np.random.default_rng(36)
    if group[0] == "--shift":
        n, m = map(int, group[1].split("x"))
        image = rng.integers(0, 256, size=(n, m))
        twins = [write_image(tmp_path, name, img)
                 for name, img in (("a.csv", image), ("b.csv", np.roll(image, (1, 2), axis=(0, 1))))]
    else:
        spec = orbitsep.make_group([4, 6], [[1, 2, 3], [5, 0, 1]])
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        twins = [write_signal(tmp_path, name, sig)
                 for name, sig in (("a.json", x), ("b.json", orbitsep.act(spec, (1, 5), x)))]
    return [["invariants", *group, "--transform", "phi", "--seed", "7", str(path)] for path in twins]


@pytest.mark.parametrize(
    "group",
    [["--shift", "2x3"], ["--shift", "6x6"], ["--orders", "4,6", "--matrix", "1,2,3;5,0,1"]],
    ids=["shift2x3", "shift6x6", "declared"],
)
def test_phi_twins_emit_the_same_bytes_warm_as_cold(capsys, monkeypatch, tmp_path, group):
    calls = count_calls(monkeypatch, "default_reduction")
    commands = phi_twins(tmp_path, group)
    cold = []
    for argv in commands:
        orbitsep.plan.plan.cache_clear()
        cold.append(run(capsys, *argv))
    assert len(calls) == 2
    warm = [run(capsys, *argv) for argv in commands]
    assert len(calls) == 2  # both warm twins read the held matrix
    assert all(code == 0 for code, _, _ in cold)
    assert warm == cold


def test_plan_draws_phi_reduction_once_per_new_seed(capsys, monkeypatch, tmp_path):
    calls = count_calls(monkeypatch, "default_reduction")
    sig = str(write_signal(tmp_path, "x.json", np.arange(1, 7)))
    for seed in (1, 1, 2, 2, 1):
        run_json(capsys, "invariants", "--shift", "2x3", "--transform", "phi", "--seed", str(seed), sig)
    assert [seed for _, seed in calls] == [1, 2, 1]


def test_phi_on_another_group_keeps_the_first_groups_reduction(capsys, monkeypatch, tmp_path):
    calls = count_calls(monkeypatch, "default_reduction")
    first, twin = phi_twins(tmp_path, ["--shift", "2x3"])
    other = str(write_signal(tmp_path, "y.json", np.arange(1, 5)))
    run_json(capsys, *first)
    run_json(capsys, "invariants", "--shift", "2x2", "--transform", "phi", "--seed", "8", other)
    run_json(capsys, *twin)
    assert [(table.group.dim, seed) for table, seed in calls] == [(6, 7), (4, 8)]


# The evaluator compare calls for each transform.
EVALUATORS = {"f": "eval_monomial_map", "theta": "eval_phase_map", "phif": "eval_norm_scaled", "phi": "eval_lowdim",
              "rational": "eval_rational_invariants", "g": "eval_scaled_invariants"}


def one_row_at_a_time(evaluator):
    """evaluator with a (B, N) stack taken as B direct single-signal calls,
    their results put together as the stack's one result."""

    def evaluate(*args):
        stack = [v for v in args if isinstance(v, np.ndarray)][-1]
        results = [evaluator(*(row if v is stack else v for v in args)) for row in stack]
        first = results[0]
        if isinstance(first, tuple):  # G's (sign, values)
            return tuple(np.array(part) for part in zip(*results))
        if isinstance(first, orbitsep.RationalInvariantResult):
            return type(first)(np.stack([r.values for r in results]), np.array([r.domain_ok for r in results]))
        return type(first)(first.transform_id, np.stack([r.values for r in results]))

    return evaluate


@pytest.mark.parametrize("transform", EVALUATORS)
def test_stacked_compare_emits_the_bytes_of_two_single_calls(capsys, monkeypatch, tmp_path, transform):
    # compare evaluates its two inputs as one (2, N) stack; every byte must
    # agree with the compare whose values come from two direct single-signal
    # calls, transform_gap and errors included, at zero and near 2**1000 and
    # 2**-1000.
    rng = np.random.default_rng(37)
    x, y = rng.standard_normal((2, 12)).view(complex)
    cases = [(x, y), (np.zeros(6), y), (np.zeros(6), np.zeros(6)), (x * 2.0**1000, y * 2.0**1000),
             (x * 2.0**-1000, y * 2.0**-1000), (x * 2.0**1000, y * 2.0**-1000), (x * 2.0**1022, -y)]
    shapes = []
    original = getattr(orbitsep.cli, EVALUATORS[transform])
    monkeypatch.setattr(orbitsep.cli, EVALUATORS[transform], lambda *a: shapes.append(
        [v for v in a if isinstance(v, np.ndarray)][-1].shape) or original(*a))
    for k, (a, b) in enumerate(cases):
        argv = ["compare", "--shift", "2x3", "--transform", transform, "--seed", "3",
                str(write_signal(tmp_path, f"a{k}.json", a)), str(write_signal(tmp_path, f"b{k}.json", b))]
        stacked = run(capsys, *argv)
        with monkeypatch.context() as single:
            single.setattr(orbitsep.cli, EVALUATORS[transform], one_row_at_a_time(original))
            assert run(capsys, *argv) == stacked
    assert shapes == [(2, 6)] * len(cases)


def top_parser_run(capsys, argv):
    """(exit code, stdout, stderr) of parsing argv with the top parser alone."""
    try:
        orbitsep.cli.build_parser().parse_args(orbitsep.cli._attach_matrix(argv))
        code = None
    except SystemExit as exc:
        code = int(exc.code or 0)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv",
    [[], ["-h"], ["frobnicate", "--shift", "2x3"], ["compare", "--shift", "2x3", "--bogus", "a.json", "b.json"],
     ["exponents", "--shift", "2x2", "extra", "--matrix", "-1,2"], ["invariants", "--transform", "zeta", "x.json"],
     ["compare", "--shift", "2x3", "a.json"], ["compare", "-h"], ["bench", "--samples", "0"]],
    ids=["empty", "top-help", "unknown-command", "unknown-option", "leftover-words", "bad-choice",
         "missing-positional", "compare-help", "bad-value"],
)
def test_command_dispatch_matches_the_top_parser(capsys, argv):
    want = top_parser_run(capsys, argv)
    assert want[0] is not None  # every case exits while parsing
    assert run(capsys, *argv) == want
    assert orbitsep.cli.build_parser.cache_info().misses == 1


def traced(capsys, argv):
    """(traced bytes when argv starts, traced peak while it runs)."""
    tracemalloc.reset_peak()
    start = tracemalloc.get_traced_memory()[0]
    run_json(capsys, *argv)
    return start, tracemalloc.get_traced_memory()[1]


def test_same_seed_phi_on_a_warm_plan_allocates_under_1_mb(capsys, tmp_path):
    first, twin = phi_twins(tmp_path, ["--shift", "6x6"])
    run_json(capsys, *first)
    tracemalloc.start()
    try:
        start, peak = traced(capsys, twin)
    finally:
        tracemalloc.stop()
    assert peak - start < 2**20


def test_new_seed_on_a_warm_plan_frees_the_replaced_matrix_first(capsys, tmp_path):
    first, _ = phi_twins(tmp_path, ["--shift", "6x6"])
    tracemalloc.start()  # before the first draw, so freeing its matrix counts
    try:
        run_json(capsys, *first)
        start, peak = traced(capsys, [*first[:-2], "8", first[-1]])
    finally:
        tracemalloc.stop()
    # The miss frees the matrix it replaces before drawing, so its peak above
    # its start is the draw alone (about half a matrix); holding the old one
    # until the new one is drawn would add a whole matrix on top of that.
    replaced = orbitsep.plan.plan(orbitsep.shift_action_spec(6, 6)).reduction(8).nbytes
    assert peak - start < replaced


# The four orbit-pairs benchmark groups, as --orders and --matrix flags, and
# the KB the README gives for what a cold compare --transform theta leaves
# in each group's plan: its table, Theta's weights and the metric's arrays.
ORBIT_PAIRS_PLANS = {
    "1e6": (["--orders", "100,100,100", "--matrix", "11,45,94,65;48,68,72,52;92,88,18,76"], 61),
    "1e5": (["--orders", "10,100,100", "--matrix", "7,1,7,5,2,6;55,46,30,2,64,62;3,30,13,80,51,10"], 75),
    "1e4a": (["--orders", "10,10,10,10", "--matrix",
              "7,0,2,2,2,9,5,9;6,2,6,1,0,6,7,6;0,1,8,7,2,8,7,1;8,8,2,1,0,1,1,1"], 43),
    "1e4b": (["--orders", "10,1000", "--matrix", "7,2,5,2,6;641,687,597,740,609"], 27),
}


@pytest.mark.parametrize("label", ORBIT_PAIRS_PLANS)
def test_a_plan_retains_its_readme_bytes_and_a_warm_compare_nothing(capsys, tmp_path, label):
    flags, kb = ORBIT_PAIRS_PLANS[label]
    n = len(flags[-1].split(";")[0].split(","))
    rng = np.random.default_rng(37)
    argv = ["compare", *flags, "--transform", "theta",
            *(str(write_signal(tmp_path, name, rng.standard_normal(n) + 1j * rng.standard_normal(n)))
              for name in ("a.json", "b.json"))]
    orbitsep.cli.build_parser()  # built once per process, so not the plan's

    def retained():
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    tracemalloc.start()
    try:
        start = retained()
        run_json(capsys, *argv)
        cold = retained()
        run_json(capsys, *argv)
        warm = retained()
    finally:
        tracemalloc.stop()
    assert cold - start < 2 * kb * 2**10
    # A few hundred bytes of interpreter bookkeeping, not a part of the plan.
    assert warm - cold < 2**10


def test_exponents_beyond_float_precision_stay_exact(capsys):
    # 2**53 + 1 has no float64; the table must keep it as an exact integer.
    payload = run_json(
        capsys, "exponents", "--orders", "18014398509481987", "--matrix", "1,2",
        "--max-tuple-size", "2",
    )
    assert payload["table"]["pairs"] == {"0,1": [1, 2**53 + 1]}
    table = orbitsep.build_exponent_table(orbitsep.make_group([2**70 + 25], [[1, 2]]), 2)
    assert list(table.components()) == [((0,), (2**70 + 25,)), ((1,), (2**70 + 25,)),
                                        ((0, 1), (1, 2**69 + 12))]


@st.composite
def table_groups(draw):
    """Groups of 1 to 12 coordinates, so the pair and triple blocks are
    sometimes empty, with some orders above 2**63, whose exponents are kept
    as Python ints in object arrays."""
    s = draw(st.integers(1, 2))
    n = draw(st.integers(1, 12))
    orders = draw(st.lists(st.one_of(st.integers(1, 12), st.integers(2**63, 2**80)), min_size=s, max_size=s))
    rows = draw(st.lists(st.lists(st.integers(0, 20), min_size=n, max_size=n), min_size=s, max_size=s))
    return orders, rows


@settings(derandomize=True, max_examples=60, deadline=None)
@given(table_groups(), st.integers(1, 3))
@example(([2**70 + 25], [[1, 2, 3, 5]]), 3)
@example(([5], [[1, 2]]), 3)
def test_exponents_payload_emits_the_bytes_of_the_table_dict(group, max_tuple_size):
    orders, rows = group
    args = orbitsep.cli.build_parser().parse_args([
        "exponents", "--orders", ",".join(map(str, orders)),
        "--matrix=" + ";".join(",".join(map(str, row)) for row in rows),
        "--max-tuple-size", str(max_tuple_size),
    ])
    payload = args.handler(args)
    table = orbitsep.build_exponent_table(orbitsep.make_group(orders, rows), max_tuple_size)
    assert emit_json(payload) == reference_emit_json({**payload, "table": table_as_dict(table)})


def test_exponents_emit_makes_no_call_per_table_entry(capsys, monkeypatch):
    # The pair and triple blocks are each written by one %-format per block
    # of rows, so cyclic 64 (43744 components) makes as many emitter calls
    # as cyclic 16 (696).
    def emit_calls(n):
        calls = collections.Counter()
        for name in ("_emit", "_scalar_text"):
            original = getattr(orbitsep.io, name)
            monkeypatch.setattr(orbitsep.io, name, lambda *a, f=original, name=name: calls.update([name]) or f(*a))
        group = orbitsep.cyclic_shift_spec(n)
        assert run(capsys, "exponents", "--orders", str(n), "--matrix", ",".join(map(str, group.exponents[0])))[0] == 0
        monkeypatch.undo()
        return calls

    assert emit_calls(64) == emit_calls(16)


# Invariant exponents of this group reach 10**400, beyond the double range.
HUGE_ORDER = ["--orders", str(10**400), "--matrix", "1,2,3"]


@pytest.mark.parametrize("transform", orbitsep.cli.TRANSFORMS)
def test_invariant_exponent_beyond_double_range_exits_3(capsys, tmp_path, transform):
    sig = write_signal(tmp_path, "x.json", [1, 0.5 + 0.1j, 0.25 + 0.2j])
    code, out, err = run(capsys, "invariants", *HUGE_ORDER, "--transform", transform, str(sig))
    assert (code, out) == (3, "")
    assert "beyond the double range" in err


def test_compare_exponent_beyond_double_range_exits_3(capsys, tmp_path):
    sig = write_signal(tmp_path, "x.json", [1, 0.5 + 0.1j, 0.25 + 0.2j])
    code, out, err = run(capsys, "compare", *HUGE_ORDER, "--transform", "f", str(sig), str(sig))
    assert (code, out) == (3, "")
    assert "beyond the double range" in err


def test_exponents_beyond_double_range_print_exactly(capsys):
    payload = run_json(capsys, "exponents", *HUGE_ORDER)
    assert payload["table"]["singles"] == [10**400, 10**400 // 2, 10**400]
    assert len(str(payload["table"]["singles"][0])) == 401


@pytest.mark.parametrize("command,svds", [("invariants", 0), ("bench", 1)])
def test_operator_norm_only_when_the_bound_is_read(capsys, monkeypatch, tmp_path, command, svds):
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(a) or svd(*a, **k))
    sig = write_signal(tmp_path, "x.json", np.arange(1, 7))
    inputs = [str(sig)] if command == "invariants" else ["--samples", "5"]
    run_json(capsys, command, "--shift", "2x3", "--transform", "phi", *inputs)
    assert len(calls) == svds


@pytest.mark.parametrize(
    "name,blob",
    [
        ("deep.json", b"[" * 100000 + b"]" * 100000),
        ("not-utf8.json", b"\xff\xfe[1,2,3]"),
        ("not-utf8.csv", b"1,2,3\n\xff,4,5\n"),
    ],
    ids=["deeply-nested-json", "non-utf8-json", "non-utf8-csv"],
)
def test_undecodable_input_exits_2(capsys, tmp_path, name, blob):
    path = tmp_path / name
    path.write_bytes(blob)
    code, _, err = run(capsys, "invariants", "--shift", "2x3", str(path))
    assert code == 2, err
    assert err.startswith("error: ")


def test_invariants_dimension_mismatch(capsys, tmp_path):
    sig = write_signal(tmp_path, "short.json", [1.0, 2.0])
    code, _, err = run(capsys, "invariants", "--shift", "2x3", str(sig))
    assert code == 3
    assert "length 2" in err


def test_invariants_image_needs_shift(capsys, image_pair):
    a, _ = image_pair
    code, _, err = run(
        capsys, "invariants", "--orders", "6", "--matrix", "1,2,3,4,5,0", str(a)
    )
    assert code == 2
    assert "--shift" in err


def test_compare_same_orbit(capsys, image_pair):
    a, b = image_pair
    payload = run_json(capsys, "compare", "--shift", "2x3", str(a), str(b))
    assert payload["equivalent"] is True
    assert payload["oracle"] is True
    # rolling the image by (1, 2) is the inverse shift, (-1, -2) mod (2, 3)
    assert payload["witness"] == [1, 1]
    assert payload["distance"] < 1e-9
    # transform_gap is an absolute diff norm; judge it against the values
    values = run_json(capsys, "invariants", "--shift", "2x3", str(a))["values"]
    scale = np.linalg.norm([complex(re, im) for re, im in values])
    assert payload["transform_gap"] <= 1e-12 * scale


def test_compare_unrelated(capsys, tmp_path):
    rng = np.random.default_rng(32)
    a = write_signal(tmp_path, "a.json", rng.standard_normal(6))
    b = write_signal(tmp_path, "b.json", rng.standard_normal(6))
    payload = run_json(capsys, "compare", "--shift", "2x3", str(a), str(b))
    assert payload["equivalent"] is False
    assert payload["distance"] > 1e-3


def test_compare_dimension_mismatch(capsys, tmp_path):
    a = write_signal(tmp_path, "a.json", np.ones(6))
    b = write_signal(tmp_path, "b.json", np.ones(5))
    code, _, err = run(capsys, "compare", "--shift", "2x3", str(a), str(b))
    assert code == 3
    assert "length 5" in err


def test_counterexample_payload(capsys):
    payload = run_json(capsys, "counterexample", "--n", "4", "--seed", "7")
    assert payload["n"] == 4
    assert payload["g_gap"] <= 1e-8
    assert payload["orbit_distance"] > 1e-3
    assert payload["lambda_y"] > 0 and abs(payload["lambda_y"] - 1.0) > 2e-3
    assert payload["attempts"] >= 1
    twisted = np.array([complex(re, im) for re, im in payload["twisted"]])
    assert abs(np.linalg.norm(twisted) - 1.0) < 1e-9


def test_counterexample_large_n_grid_overflow_is_silent(capsys):
    # The root bisection's far end, lambda = 1e-9, overflows to inf at n = 50.
    payload = run_json(capsys, "counterexample", "--n", "50", "--seed", "3")
    assert payload["g_gap"] <= 1e-8
    assert payload["orbit_distance"] > 1e-3
    # The first draw's second root, 0.99577, lies next to 1 and is found.
    assert payload["attempts"] == 1


def test_counterexample_small_n_rejected(capsys):
    code, _, err = run(capsys, "counterexample", "--n", "3")
    assert code == 2
    assert "(0, 1, 1)" in err


def test_bench_ratio_within_bound(capsys):
    payload = run_json(
        capsys, "bench", "--shift", "2x3", "--samples", "50", "--seed", "3"
    )
    assert payload["transform"] == "Phi"
    assert payload["samples"] == 50
    assert payload["bound"] is not None
    assert 0 < payload["max_ratio"] <= payload["bound"]


def test_bench_f_has_no_bound(capsys):
    payload = run_json(
        capsys, "bench", "--shift", "2x3", "--transform", "f", "--samples", "20"
    )
    assert payload["transform"] == "F"
    assert payload["bound"] is None
    assert payload["max_ratio"] > 0


def test_bench_deterministic(capsys):
    args = ("bench", "--shift", "2x3", "--samples", "30", "--seed", "11")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


@st.composite
def argv_groups(draw):
    """(orders, matrix) of small random groups, some prone to overflow:
    orders near 1000 and up to 12 coordinates put F's powers beyond the
    double range, and orders in [2^63, 2^70] put exponents and the phase
    lcm beyond int64.  Negative entries exercise the --matrix words."""
    s = draw(st.integers(1, 3))
    n = draw(st.integers(1, 12))
    order = st.one_of(st.integers(1, 12), st.integers(990, 1000), st.integers(2**63, 2**70))
    orders = draw(st.lists(order, min_size=s, max_size=s))
    rows = draw(st.lists(st.lists(st.integers(-5, 2000), min_size=n, max_size=n), min_size=s, max_size=s))
    return orders, rows


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    argv_groups(), st.sampled_from(orbitsep.cli.TRANSFORMS), st.integers(0, 2**31),
    st.integers(1, 3), st.sampled_from([0, -1070, -560, 520]), st.integers(4, 12),
)
@example(([997], [[1] * 12]), "f", 3, 1, 0, 4)
def test_valid_argv_exits_zero_two_or_three(group, transform, seed, samples, scale, n):
    # Valid input never exits 4, and bench never prints the scan's start value.
    # Signals are drawn at the scale 2**scale, from subnormal to just above
    # the square root of the largest double, with some entries exactly zero.
    orders, rows = group
    flags = ["--orders", ",".join(map(str, orders)), "--matrix", ";".join(",".join(map(str, row)) for row in rows)]
    bench = transform if transform in orbitsep.cli.BENCH_TRANSFORMS else "f"
    rng = np.random.default_rng(seed)
    dim = len(rows[0])

    def signal():
        z = (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)) * (rng.random(dim) < 0.8)
        return np.ldexp(z.view(float), scale).view(complex)

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        a, b = (write_signal(tmp, name, signal()) for name in ("a.json", "b.json"))
        out = ["--out", str(tmp / "out.json")]
        runs = [
            ["exponents", *flags],
            *(["invariants", *flags, "--transform", t, str(a)] for t in orbitsep.cli.TRANSFORMS),
            ["compare", *flags, "--transform", transform, str(a), str(b)],
            ["counterexample", "--n", str(n), "--seed", str(seed)],
        ]
        codes = {" ".join(argv): main([*argv, *out]) for argv in runs}
        assert set(codes.values()) <= {0, 2, 3}, codes
        code = main(["bench", *flags, "--transform", bench, "--samples", str(samples), "--seed", str(seed), *out])
        assert code in (0, 2, 3)
        if code == 0:
            assert json.loads(Path(out[1]).read_text())["max_ratio"] != "-Infinity"


@st.composite
def image_inputs(draw):
    """(n, m, files): an --shift n x m shape and two image files, each a
    (name, bytes) pair.  A CSV holds integer pixels times 2**k, from
    subnormal to near the top of the double range.  A P2 or P5 file may
    carry header comments, swapped sides, another byte after maxval or a cut."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    files = []
    for name in ("a", "b"):
        kind = draw(st.sampled_from(["csv", "P2", "P5"]))
        if kind == "csv":
            pixels = np.array(draw(st.lists(st.integers(-255, 255), min_size=n * m, max_size=n * m)), dtype=float)
            rows = np.ldexp(pixels, draw(st.sampled_from([0, -1074, -560, 500, 1015]))).reshape(n, m)
            text = "\n".join(",".join(map(repr, row)) for row in rows.tolist()) + "\n"
            files.append((f"{name}.csv", text.encode()))
            continue
        maxval = draw(st.integers(1, 255))
        pixels = draw(st.lists(st.integers(0, maxval), min_size=n * m, max_size=n * m))
        gap = st.sampled_from([b"\n", b" ", b"\t", b"\r\n", b"# c\n", b" #c 1\n"])
        sides = draw(st.sampled_from([(m, n), (n, m)]))
        header = kind.encode() + b"".join(draw(gap) + b"%d" % v for v in (*sides, maxval))
        if kind == "P2":
            body = draw(gap) + b" ".join(b"%d" % v for v in pixels) + b"\n"
        else:
            body = draw(st.sampled_from([b"\n", b" ", b"\r", b"#", b"c", b""])) + bytes(pixels)
        blob = header + body
        files.append((f"{name}.pgm", blob[:draw(st.none() | st.integers(0, len(blob)))]))
    return n, m, files


@settings(derandomize=True, max_examples=60, deadline=None)
@given(image_inputs(), st.sampled_from(orbitsep.cli.TRANSFORMS))
@example((2, 3, [("a.csv", BIG_IMAGE_CSV.encode()), ("b.csv", b"1,2,3\n4,5,6\n")]), "f")
def test_valid_image_argv_exits_zero_two_or_three(images, transform):
    # Image files reach every transform and compare through to_fourier;
    # valid or not, no file may exit 4.
    n, m, files = images
    group = ["--shift", f"{n}x{m}"]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        a, b = (tmp / name for name, _ in files)
        for name, blob in files:
            (tmp / name).write_bytes(blob)
        out = ["--out", str(tmp / "out.json")]
        runs = [
            *(["invariants", *group, "--transform", t, str(a)] for t in orbitsep.cli.TRANSFORMS),
            ["compare", *group, "--transform", transform, str(a), str(b)],
        ]
        codes = {" ".join(argv): main([*argv, *out]) for argv in runs}
    assert set(codes.values()) <= {0, 2, 3}, codes


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "exponents", "--shift", "2x2", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["table"]["total_dim"] >= 4


@pytest.mark.parametrize(
    "orders,matrix", [("4", "-1,-2"), ("4,6", "-1,2;3,-4")], ids=["one-row", "two-rows"]
)
def test_matrix_with_negative_first_entry_as_separate_word(capsys, orders, matrix):
    attached = run(capsys, "exponents", "--orders", orders, f"--matrix={matrix}")
    separate = run(capsys, "exponents", "--orders", orders, "--matrix", matrix)
    assert attached[0] == 0, attached[2]
    assert separate == attached
    code, out, _ = run(capsys, "exponents", "--orders", orders, "--matrix")
    assert (code, out) == (2, "")


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_out_path_exits_two(capsys, tmp_path, where):
    target = tmp_path / "missing" / "x.json" if where == "missing-directory" else tmp_path
    code, out, err = run(
        capsys, "exponents", "--orders", "4", "--matrix", "1,2", "--out", str(target)
    )
    assert (code, out) == (2, "")
    assert "cannot write" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["invariants", "--shift", "2x3", "--transform", "phi", "--seed", "-1"],
        ["bench", "--shift", "2x3", "--seed", "-1"],
        ["counterexample", "--seed", "-1"],
    ],
    ids=["invariants-phi", "bench", "counterexample"],
)
def test_negative_seed_exits_two(capsys, tmp_path, argv):
    sig = write_signal(tmp_path, "x.json", np.ones(6))
    inputs = [str(sig)] if argv[0] == "invariants" else []
    code, _, err = run(capsys, *argv, *inputs)
    assert code == 2
    assert "--seed" in err


@pytest.mark.parametrize(
    "flag,value",
    [("--samples", "0"), ("--samples", "-3"), ("--tol", "nan"), ("--tol", "-1")],
)
def test_bench_out_of_range_flag_exits_two(capsys, flag, value):
    code, _, err = run(capsys, "bench", "--shift", "2x3", "--samples", "5", flag, value)
    assert code == 2
    assert flag in err


def test_unknown_flag_exits_two(capsys):
    code, _, _ = run(capsys, "exponents", "--bogus")
    assert code == 2


def test_unknown_command_exits_two(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_every_command_is_silent_in_dev_mode_with_warnings_as_errors(tmp_path):
    # Each subcommand, invariants once per transform, the overflow inputs and
    # a compare of signals near the top of the double range, each in a child
    # interpreter that turns every warning into an error.  The image whose
    # DC coefficient is beyond the double range exits 3 with one error line.
    write_overflow_signals(tmp_path)
    write_signal(tmp_path, "x.json", np.arange(1, 7) * (1 - 0.5j))
    write_signal(tmp_path, "y.json", np.arange(6, 0, -1) * (0.5 + 1j))
    write_signal(tmp_path, "big_x.json", 1e300 * np.arange(1, 7) * (1 - 0.5j))
    write_signal(tmp_path, "big_y.json", 1e300 * np.arange(6, 0, -1) * (0.5 + 1j))
    (tmp_path / "big.csv").write_text(BIG_IMAGE_CSV)
    group = ["--shift", "2x3"]
    runs = [
        ["exponents", *group],
        *(["invariants", *group, "--transform", t, "x.json"] for t in orbitsep.cli.TRANSFORMS),
        ["compare", *group, "x.json", "y.json"],
        ["compare", *group, "big_x.json", "big_y.json"],
        ["counterexample"],
        ["bench", *group, "--samples", "3"],
        *(argv for argv, _ in OVERFLOW_CASES.values()),
    ]
    big_image = [
        *(["invariants", *group, "--transform", t, "big.csv"] for t in orbitsep.cli.TRANSFORMS),
        ["compare", *group, "big.csv", "x.json"],
    ]
    src = str(Path(orbitsep.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))

    def child(argv):
        return subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-m", "orbitsep.cli", *argv],
            capture_output=True, text=True, timeout=30, env=env, cwd=tmp_path,
        )

    with ThreadPoolExecutor(max_workers=2) as pool:
        done = list(pool.map(child, runs))
        refused = list(pool.map(child, big_image))
    failed = [(argv, d.returncode, d.stderr) for argv, d in zip(runs, done) if d.returncode or d.stderr]
    failed += [
        (argv, d.returncode, d.stderr) for argv, d in zip(big_image, refused)
        if (d.returncode, d.stdout, d.stderr.count("\n")) != (3, "", 1) or not d.stderr.startswith("error: image")
    ]
    assert failed == []
