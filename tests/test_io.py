"""Input readers and the deterministic JSON emitter."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from orbitsep import ConfigError
from orbitsep.io import (
    emit_json,
    read_image_csv,
    read_pgm,
    read_signal_json,
    write_output,
)


def test_signal_json_mixed_entries(tmp_path):
    p = tmp_path / "sig.json"
    p.write_text("[1, 2.5, [0, -1], [3.25, 4]]")
    got = read_signal_json(p)
    np.testing.assert_array_equal(
        got, np.array([1, 2.5, -1j, 3.25 + 4j], dtype=complex)
    )


@pytest.mark.parametrize(
    "text",
    [
        "[]", "{}", "[true]", '["x"]', "[[1]]", "[[1, 2, 3]]", "[[1, true]]", "not json",
        "[NaN, 1]", "[1e400, 1]", "[[1, -Infinity]]",
        pytest.param("[" + "9" * 400 + ", 1]", id="400-digit int"),
    ],
)
def test_signal_json_rejects(tmp_path, text):
    p = tmp_path / "bad.json"
    p.write_text(text)
    with pytest.raises(ConfigError):
        read_signal_json(p)


def test_signal_json_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        read_signal_json(tmp_path / "absent.json")


def test_csv_reader(tmp_path):
    p = tmp_path / "img.csv"
    p.write_text("1, 2.5, -3\n\n4, 5, 6\n")
    got = read_image_csv(p)
    np.testing.assert_array_equal(got, [[1, 2.5, -3], [4, 5, 6]])
    (tmp_path / "ragged.csv").write_text("1,2\n3\n")
    with pytest.raises(ConfigError):
        read_image_csv(tmp_path / "ragged.csv")
    (tmp_path / "empty.csv").write_text("\n\n")
    with pytest.raises(ConfigError):
        read_image_csv(tmp_path / "empty.csv")
    (tmp_path / "alpha.csv").write_text("1,x\n")
    with pytest.raises(ConfigError):
        read_image_csv(tmp_path / "alpha.csv")
    (tmp_path / "nan.csv").write_text("1,nan,3\n")
    with pytest.raises(ConfigError):
        read_image_csv(tmp_path / "nan.csv")


def test_pgm_ascii_and_binary_agree(tmp_path):
    pixels = [[0, 7, 255], [128, 64, 1]]
    ascii_p = tmp_path / "a.pgm"
    ascii_p.write_bytes(
        b"P2\n# comment line\n3 2\n255\n0 7 255\n128 64 1\n"
    )
    binary_p = tmp_path / "b.pgm"
    binary_p.write_bytes(b"P5\n3 2\n255\n" + bytes([0, 7, 255, 128, 64, 1]))
    a = read_pgm(ascii_p)
    b = read_pgm(binary_p)
    np.testing.assert_array_equal(a, pixels)
    np.testing.assert_array_equal(a, b)


def test_pgm_header_comments_between_tokens(tmp_path):
    p = tmp_path / "c.pgm"
    p.write_bytes(b"P2 # magic\n2 # width\n1\n9\n4 5\n")
    np.testing.assert_array_equal(read_pgm(p), [[4, 5]])


@pytest.mark.parametrize(
    "blob",
    [
        b"P3\n1 1\n255\n0\n",
        b"P2\n1 1\n65535\n0\n",
        b"P2\n0 1\n255\n",
        b"P2\n2 1\n255\n7\n",
        b"P5\n2 1\n255\n\x00",
        b"P2\n1 1\n10\n11\n",
        b"P2\n",
    ],
)
def test_pgm_rejects(tmp_path, blob):
    p = tmp_path / "bad.pgm"
    p.write_bytes(blob)
    with pytest.raises(ConfigError):
        read_pgm(p)


def test_emit_json_round_trip_and_shapes():
    payload = {
        "int": 3,
        "float": 0.1 + 0.2,
        "complex": 1.5 - 2.5j,
        "fraction": Fraction(-1, 2),
        "flag": True,
        "nothing": None,
        "text": 'qu"ote',
        "vector": np.array([1.0, 2.0]),
        "nested": {"inner": [1, 2, 3]},
        "matrix": [[1, 2], [3, 4]],
    }
    text = emit_json(payload)
    assert text.endswith("\n")
    decoded = json.loads(text)
    assert decoded["int"] == 3
    assert decoded["float"] == 0.1 + 0.2  # 17 digits round-trips exactly
    assert decoded["complex"] == [1.5, -2.5]
    assert decoded["fraction"] == "-1/2"
    assert decoded["flag"] is True
    assert decoded["nothing"] is None
    assert decoded["text"] == 'qu"ote'
    assert decoded["vector"] == [1.0, 2.0]
    assert decoded["nested"]["inner"] == [1, 2, 3]
    assert decoded["matrix"] == [[1, 2], [3, 4]]
    # scalar-only lists stay on one line, dicts get one key per line
    assert '"vector": [1, 2]' in text
    assert '"inner": [1, 2, 3]' in text


def test_emit_json_nonfinite_and_determinism():
    payload = {"a": math.nan, "b": math.inf, "c": -math.inf}
    text = emit_json(payload)
    decoded = json.loads(text)
    assert decoded == {"a": "NaN", "b": "Infinity", "c": "-Infinity"}
    assert emit_json(payload) == text
    with pytest.raises(TypeError):
        emit_json({"bad": object()})


def test_emit_json_preserves_key_order():
    text = emit_json({"z": 1, "a": 2})
    assert text.index('"z"') < text.index('"a"')


def test_write_output(tmp_path, capsys):
    target = tmp_path / "out.json"
    write_output("hello\n", target)
    assert target.read_text() == "hello\n"
    write_output("to stdout\n", None)
    assert capsys.readouterr().out == "to stdout\n"
