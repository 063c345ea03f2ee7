"""End-to-end command-line checks through main(argv)."""

import json

import numpy as np
import pytest

import orbitsep.cli
from orbitsep.cli import main


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
    a = tmp_path / "img.csv"
    b = tmp_path / "img_shift.csv"
    a.write_text("\n".join(",".join(str(v) for v in row) for row in img) + "\n")
    b.write_text("\n".join(",".join(str(v) for v in row) for row in shifted) + "\n")
    return a, b


def write_signal(tmp_path, name, values):
    path = tmp_path / name
    payload = [[float(v.real), float(v.imag)] for v in np.asarray(values, complex)]
    path.write_text(json.dumps(payload))
    return path


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


def count_calls(monkeypatch, name):
    calls = []
    original = getattr(orbitsep.cli, name)
    monkeypatch.setattr(
        orbitsep.cli, name, lambda *a, **k: calls.append(a) or original(*a, **k)
    )
    return calls


@pytest.mark.parametrize(
    "argv,builder",
    [
        (["compare"], "build_exponent_table"),
        (["bench", "--transform", "f", "--samples", "5"], "build_exponent_table"),
        (["compare", "--transform", "rational"], "hermite_multiplier"),
    ],
    ids=["compare", "bench-f", "compare-rational"],
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


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "exponents", "--shift", "2x2", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["table"]["total_dim"] >= 4


def test_unknown_flag_exits_two(capsys):
    code, _, _ = run(capsys, "exponents", "--bogus")
    assert code == 2


def test_unknown_command_exits_two(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2
