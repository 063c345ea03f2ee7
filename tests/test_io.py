"""Input readers and the deterministic JSON emitter."""

import json
import math
import struct
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import orbitsep.cli
import orbitsep.io
from orbitsep import ConfigError
from orbitsep.io import (
    KeyedRows,
    emit_json,
    read_image_csv,
    read_pgm,
    read_signal_json,
    write_output,
)
from reference import decimal_tables, reference_emit_json, rows_as_dict


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


@pytest.mark.parametrize("separator", [b"#c\n", b"#", b"c", b""], ids=["comment", "hash", "letter", "missing"])
def test_p5_pixels_follow_one_whitespace_byte(tmp_path, separator):
    # A comment ends the maxval token but is no separator: "#c\n" must not
    # read as pixels.  Other bytes run on into the token and fail its parse.
    p = tmp_path / "sep.pgm"
    p.write_bytes(b"P5\n3 2\n255" + separator + bytes([0, 7, 255, 128, 64, 1]))
    with pytest.raises(ConfigError):
        read_pgm(p)
    for space in b" \t\n\r":
        p.write_bytes(b"P5\n3 2\n255" + bytes([space, 0, 7, 255, 128, 64, 1]))
        np.testing.assert_array_equal(read_pgm(p), [[0, 7, 255], [128, 64, 1]])


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
    with pytest.raises(TypeError):
        emit_json({"bad": [1, {2}]})


def test_emit_json_preserves_key_order():
    text = emit_json({"z": 1, "a": 2})
    assert text.index('"z"') < text.index('"a"')


def test_write_output(tmp_path, capsys):
    target = tmp_path / "out.json"
    write_output("hello\n", target)
    assert target.read_text() == "hello\n"
    write_output("to stdout\n", None)
    assert capsys.readouterr().out == "to stdout\n"


# Raw 64-bit patterns reach every double, NaNs of either sign and any
# payload included; st.floats() adds the infinities, -0.0, subnormals and
# round numbers often enough to be drawn in every run.
doubles = st.one_of(
    st.floats(),
    st.integers(0, 2**64 - 1).map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]),
)
complexes = st.builds(complex, doubles, doubles)
scalars = st.one_of(
    doubles,
    doubles.map(np.float64),
    complexes,
    st.integers(-(2**200), 2**200),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.fractions(),
    st.booleans(),
    st.none(),
    st.text(alphabet=st.sampled_from('ab"\\\n\u00e9\u03bb\u4e2d\U0001f600')),
)
# Each value that spells differently from a plain finite "%.17g", drawn
# often: NaN of either sign, the infinities, both zeros, subnormals.
NEGATIVE_NAN = struct.unpack("<d", struct.pack("<Q", 0xFFF8000000000000))[0]
edge_doubles = st.one_of(
    doubles,
    st.sampled_from([math.nan, NEGATIVE_NAN, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.5e-310]),
)
edge_complexes = st.builds(complex, edge_doubles, edge_doubles)
strides = st.sampled_from([slice(None), slice(None, None, 2), slice(None, None, -1)])
arrays = st.one_of(
    st.builds(lambda v, step: np.array(v, dtype=float)[step], st.lists(edge_doubles, max_size=64), strides),
    st.builds(lambda v, step: np.array(v, dtype=complex)[step], st.lists(edge_complexes, max_size=64), strides),
    hnp.arrays(
        st.sampled_from([np.float64, np.complex128, np.int64, np.bool_, np.float32]),
        hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4),
    ),
)
# Lists mixing bool, int and np.int64: only all-int ones may be joined as ints.
int_lists = st.lists(
    st.one_of(st.booleans(), st.integers(-(2**70), 2**70), st.integers(-(2**63), 2**63 - 1).map(np.int64)),
    max_size=6,
)
INT64_EDGES = (0, -1, 1, np.iinfo(np.int64).min, np.iinfo(np.int64).max)


def keyed_rows(seed, count, key_width, value_width, magnitude, exact):
    """KeyedRows of count rows with unique keys (the reference writes them
    as a dict), int64 entries up to magnitude with int64's edges planted
    among them, or, when exact, object values beyond int64."""
    rng = np.random.default_rng(seed)
    keys = rng.integers(-magnitude, magnitude, size=(count, key_width), endpoint=True)
    keys[:, 0] = rng.permutation(count) + int(rng.integers(-(2**63), 2**63 - 1 - count, endpoint=True))
    values = rng.integers(-magnitude, magnitude, size=(count, value_width), endpoint=True)
    for array in (keys[:, 1:], values):
        array.flat[rng.choice(array.size, size=min(array.size, len(INT64_EDGES)), replace=False)] = INT64_EDGES[: array.size]
    if exact:
        values = values.astype(object) * 3**50 - 1
    return KeyedRows(keys, values)


keyed_row_tables = st.builds(
    keyed_rows,
    st.integers(0, 2**32 - 1),
    st.sampled_from([0, 1, 2, 3, 5, 8]),  # more rows: test_keyed_rows_match_reference_across_blocks
    st.integers(1, 3),
    st.integers(1, 3),
    st.sampled_from([0, 9, 10**4, 10**9, 2**63 - 1]),
    st.booleans(),
)
payloads = st.dictionaries(
    st.text(max_size=4),
    st.recursive(
        st.one_of(scalars, arrays, int_lists, int_lists.map(tuple), keyed_row_tables),
        lambda items: st.one_of(
            st.lists(items, max_size=4),
            st.lists(items, max_size=4).map(tuple),
            st.dictionaries(st.text(max_size=4), items, max_size=4),
        ),
        max_leaves=20,
    ),
    max_size=4,
)


def decoded(value):
    """What json.loads should give back for a payload value: every finite
    float exactly, non-finite ones as their quoted names.  Integral floats
    are spelled without a point, so they come back as ints of equal value
    (-0.0 as 0)."""
    if isinstance(value, KeyedRows):
        return decoded(rows_as_dict(*value))
    if isinstance(value, np.ndarray):
        return decoded(value.tolist())
    if isinstance(value, dict):
        return {str(key): decoded(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [decoded(item) for item in value]
    if isinstance(value, (complex, np.complexfloating)):
        return [decoded(value.real), decoded(value.imag)]
    if isinstance(value, (float, np.floating)):
        if math.isnan(value):
            return "NaN"
        return value if math.isfinite(value) else ("Infinity" if value > 0 else "-Infinity")
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, np.integer):
        return int(value)
    return value


@pytest.mark.parametrize("ints", [
    [7], (7,), [0, -1, 2**63, -(2**63) - 1, 10**40], (3, -4, 2**64), [[1, 2], (3,), []], ((-5, 6), [7]),
], ids=["one", "one-tuple", "list", "tuple", "nested-lists", "nested-tuples"])
def test_lists_and_tuples_of_plain_ints_match_reference(ints):
    # They are spelled by str of a list: str((1, 2)) is "(1, 2)", so a tuple
    # must still come out as a JSON array.
    payload = {"ints": ints, "rows": [ints, ints]}
    assert emit_json(payload) == reference_emit_json(payload)
    assert json.loads(emit_json(payload))["ints"] == json.loads(json.dumps(ints))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(payloads)
def test_emit_json_matches_reference(payload):
    assert emit_json(payload) == reference_emit_json(payload)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(payloads)
def test_emit_json_round_trips(payload):
    assert json.loads(emit_json(payload)) == decoded(payload)


@pytest.mark.parametrize("count", [0, 1, orbitsep.io._BYTE_PASS_ROWS - 1, orbitsep.io._BYTE_PASS_ROWS,
                                   orbitsep.io._ROWS_PER_PASS + 2])
@pytest.mark.parametrize("exact", [False, True], ids=["int64", "beyond-int64"])
def test_keyed_rows_match_reference_across_blocks(count, exact):
    # One row, an empty table and a table that spans two blocks, at
    # five pairs of key and value widths, with small entries and with int64's full range.
    for seed, (key_width, value_width) in enumerate([(1, 1), (1, 3), (2, 2), (3, 1), (3, 3)]):
        for magnitude in (10**4, 2**63 - 1):
            rows = keyed_rows(seed, count, key_width, value_width, magnitude, exact)
            payload = {"table": {"pairs": rows, "total_dim": count}}
            assert emit_json(payload) == reference_emit_json(payload)


BLOCK = orbitsep.io._FLOATS_PER_PASS


@pytest.mark.parametrize("count", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
@pytest.mark.parametrize("dtype,width", [(float, 1), (complex, 2)])
def test_float_arrays_match_reference_across_blocks(count, dtype, width):
    # One block short, one block, and one and two blocks plus one value,
    # with non-finite values on both sides of each multiple of BLOCK values
    # (so the blocks that hold them fall back), whole and as a strided view.
    values = np.random.default_rng(count).standard_normal(2 * width * count).view(dtype)
    for edge in range(BLOCK, 2 * count, BLOCK):
        values[edge - 1: edge + 1] = [math.nan, -math.inf]
    for array in (values[:count], values[::2]):
        payload = {"values": array, "nested": [array, {"again": array}]}
        assert emit_json(payload) == reference_emit_json(payload)


@pytest.mark.parametrize("dtype,width", [(float, 1), (complex, 2)])
def test_float_arrays_are_emitted_without_the_scalar_rule(monkeypatch, dtype, width):
    # A 1-D float64 or complex128 array is formatted per block, by the byte
    # pass or one %-format, non-finite entries included, not one
    # _scalar_text call per entry.
    calls = []
    scalar_text = orbitsep.io._scalar_text
    monkeypatch.setattr(orbitsep.io, "_scalar_text", lambda value: calls.append(value) or scalar_text(value))
    values = np.random.default_rng(0).standard_normal(width * 10**4).view(dtype)  # 10**4 entries
    values[[3, 5, 7]] = [math.nan, math.inf, -math.inf]
    payload = {"values": values}
    text = emit_json(payload)
    assert calls == []
    assert text == reference_emit_json(payload)


# The float byte pass.  Raw bit patterns over every binary exponent, half
# of them drawn inside the pass's window, planted among a block of random
# in-window patterns, so that most blocks take the pass and the rest fall
# back whole.
WINDOW_EXPONENTS = (1023 - 896, 1023 + 929)  # biased exponents of 2**-896 .. 2**930, inside 1e-270 .. 1e280


def from_bits(sign, exponent, mantissa):
    return struct.unpack("<d", struct.pack("<Q", sign << 63 | exponent << 52 | mantissa))[0]


pattern_doubles = st.builds(
    from_bits, st.integers(0, 1), st.one_of(st.integers(0, 2047), st.integers(*WINDOW_EXPONENTS)),
    st.integers(0, 2**52 - 1),
)


def window_patterns(seed, count):
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, count, dtype=np.uint64) << np.uint64(63)
    bits |= rng.integers(*WINDOW_EXPONENTS, count, endpoint=True).astype(np.uint64) << np.uint64(52)
    bits |= rng.integers(0, 2**52, count, dtype=np.uint64)
    return bits.view(np.float64)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.lists(pattern_doubles, min_size=1, max_size=8), st.integers(0, 2**32 - 1), st.sampled_from([float, complex]))
def test_float_byte_pass_matches_reference(planted, seed, dtype):
    floats = window_patterns(seed, BLOCK)
    floats[np.random.default_rng(seed).choice(BLOCK, len(planted), replace=False)] = planted
    payload = {"values": floats.view(dtype)}
    assert emit_json(payload) == reference_emit_json(payload)


def inexact_near_ties():
    """Doubles x with y = x * 10**k in [1e16, 1e17) within 2**-40 of a half
    integer, where 10**k (k = 23 .. 27) is no double: x = m / 2**(k + s)
    gives y = m * 5**k / 2**s, and m solves m * 5**k = 2**(s - 1) + delta
    modulo 2**s.  delta = 0 gives the true ties, such as 3 * 2**-24."""
    found = []
    for k in range(23, 28):
        for s in range(40, 64):
            inverse = pow(5**k, -1, 2**s)
            low, high = -(-(10**16 << s) // 5**k), min(2**53, -(-(10**17 << s) // 5**k))
            for delta in (-2, -1, 0, 1, 2):
                m = (2 ** (s - 1) + delta) * inverse % 2**s
                found += [m / 2 ** (k + s) for m in range(low + (m - low) % 2**s, high, 2**s)]
    return found


POWERS = [10.0**k for k in range(-269, 280)]
# Per case: the values, and whether the byte pass certifies a block of them.
PLANTED_FLOATS = {
    "zeros": ([0.0, -0.0], True),
    "powers of ten and neighbours": ([*POWERS, *np.nextafter(POWERS, 0), *np.nextafter(POWERS, math.inf)], True),
    # 18 significant digits ending in 5, with 10**17 a double: ties broken to even.
    "dyadic ties": (list(np.arange(26214, 262144, 29) / 2**18), True),
    "quarters and eighths near 1e15": ([1e15 + f / 8 for f in range(-16, 17)] + [2091755748717130.75], True),
    "%g switches": ([1e-4, 1e-5, 1e16, 1e17, 9.9999999999999999e16, 99999999999999984.0]
                    + [*np.nextafter([1e-4, 1e-5, 1e17], 0), *np.nextafter([1e-4, 1e-5, 1e17], math.inf)], True),
    "window edges": ([1e-270, 9.999e279, -1e-270], True),
    "near ties where 10**k is no double": (inexact_near_ties(), False),
    "subnormals": ([5e-324, -2.5e-310, 2.2250738585072009e-308], False),
    "outside the window": ([9.99e-271, 1e280, -1.7976931348623157e308], False),
    "non-finite": ([math.nan, NEGATIVE_NAN, math.inf, -math.inf], False),
}


def test_decimal_tables_match_their_fraction_construction():
    # Integer true division rounds 10**k and 10**-m as float(Fraction) does,
    # and the residual is exact in integers before its one rounding.
    orbitsep.io._decimal_tables.cache_clear()
    got, want = orbitsep.io._decimal_tables(), decimal_tables()
    assert len(got) == len(want) == 7
    for table, oracle in zip(got, want):
        for a, b in zip(*(t if isinstance(t, list) else [t] for t in (table, oracle)), strict=True):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("case", PLANTED_FLOATS)
def test_planted_floats_match_reference_in_the_byte_pass(case):
    values, certified = PLANTED_FLOATS[case]
    floats = np.resize(np.concatenate([values, np.negative(values)]), max(BLOCK, 2 * len(values)))
    assert (orbitsep.io._float_cells(floats) is not None) == certified
    for array in (floats, floats.view(complex)):
        payload = {"values": array}
        assert emit_json(payload) == reference_emit_json(payload)


def test_a_product_near_a_tie_is_certified_only_where_the_power_is_a_double(monkeypatch):
    # No double lands within the tie margin of a tie by chance, so move the
    # double-double's low part there: frac(y) = 1/2 + 1e-12.
    scaled = orbitsep.io._scaled

    def near_tie(a, scale):
        hi, lo = scaled(a, scale)
        return hi, np.floor(lo) + 0.5 + 1e-12

    monkeypatch.setattr(orbitsep.io, "_scaled", near_tie)
    assert orbitsep.io._float_cells(np.array([1.5e-7])) is None  # 10**23
    assert orbitsep.io._float_cells(np.array([1.5e-5])) is not None  # 10**21: exact, so the tie is too


@pytest.mark.parametrize("count,passes", [(BLOCK - 1, []), (BLOCK, [BLOCK]), (BLOCK + 1, [BLOCK + 1]),
                                          (2 * BLOCK + 1, [BLOCK, BLOCK + 1])])
@pytest.mark.parametrize("dtype,width", [(float, 1), (complex, 2)])
def test_byte_pass_takes_blocks_from_the_floor(monkeypatch, count, passes, dtype, width):
    # count floats (count // 2 complex values): one block under the floor
    # keeps the %-format, an array at or above it is cut into blocks of
    # BLOCK floats up to twice that, each one byte pass.
    taken = []
    cells = orbitsep.io._float_cells
    monkeypatch.setattr(orbitsep.io, "_float_cells", lambda floats: taken.append(len(floats)) or cells(floats))
    count -= count % width
    values = np.random.default_rng(count).standard_normal(count).view(dtype)
    payload = {"values": values}
    assert emit_json(payload) == reference_emit_json(payload)
    assert taken == [p - p % width for p in passes]


@pytest.mark.parametrize("bad", [math.nan, from_bits(0, 2047, 1), 3 * 2.0**-24], ids=["NaN", "signaling NaN", "inexact tie"])
def test_a_block_with_one_uncertified_value_falls_back_whole(monkeypatch, bad):
    results = []
    cells = orbitsep.io._float_cells
    monkeypatch.setattr(orbitsep.io, "_float_cells", lambda floats: results.append(cells(floats)) or results[-1])
    values = np.random.default_rng(1).standard_normal(3 * BLOCK)
    values[BLOCK + 5] = bad
    payload = {"values": values}
    assert emit_json(payload) == reference_emit_json(payload)
    assert [cells is None for cells in results] == [False, True, False]


def test_emit_of_an_8x8_f_payload_peaks_under_the_parents(monkeypatch, tmp_path):
    # The peak is the final join of the pieces; a byte pass block's
    # temporaries stay below it.  Before the float byte pass emit_json
    # peaked at 3.74 MB on this payload, and under 3.78 MB on others.
    image = tmp_path / "img.csv"
    image.write_text("\n".join(",".join(map(str, row)) for row in np.random.default_rng(8).integers(0, 256, (8, 8))))
    payloads = []
    monkeypatch.setattr(orbitsep.cli, "emit_json", lambda payload: payloads.append(payload) or "")
    monkeypatch.setattr(orbitsep.cli, "write_output", lambda text, out_path=None: None)
    assert orbitsep.cli.main(["invariants", "--shift", "8x8", "--transform", "f", str(image)]) == 0
    emit_json(payloads[0])  # the tables are built once per process
    tracemalloc.start()
    try:
        emit_json(payloads[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.78e6


def test_write_output_writes_a_text_longer_than_one_slice(tmp_path):
    text = "".join(map(str, range(orbitsep.io._WRITE_SLICE)))  # about five slices
    target = tmp_path / "long.json"
    write_output(text, target)
    assert target.read_text() == text
