"""File formats: signal JSON, PGM and CSV images, deterministic JSON output.

The JSON emitter is hand rolled so the output bytes are a pure function of
the payload: insertion-ordered keys, floats at 17 significant digits
(round-trip safe), complex numbers as [re, im] pairs, exact rationals as
quoted strings, non-finite floats as quoted names (strict JSON has no
Infinity literal).  One float rule serves scalars and 1-D float64 or
complex128 arrays: one %-format of "%.17g" items per block, non-finite
spellings mapped through the one _NON_FINITE table.  Lists of plain ints
are joined in one pass.  Large KeyedRows blocks of int64 are one numpy
byte pass each (digits looked up four at a time, cells sized per column,
NULs dropped once), the others one %d-format; keys and strings are quoted
as json.dumps does.  The pieces are joined once.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConfigError


def read_signal_json(path) -> np.ndarray:
    """Complex signal from a JSON array whose entries are finite numbers or
    [re, im] pairs of them."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    # ValueError: invalid JSON or UTF-8; RecursionError: arrays nested too deep.
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read signal {path}: {exc}") from exc
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"signal {path} must be a nonempty JSON array")
    values = []
    for entry in raw:
        if isinstance(entry, (int, float)) and not isinstance(entry, bool):
            entry = [entry, 0.0]
        if not (
            isinstance(entry, list)
            and len(entry) == 2
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in entry)
        ):
            raise ConfigError(
                f"signal {path}: entries must be numbers or [re, im] pairs"
            )
        try:
            value = complex(entry[0], entry[1])
        except OverflowError as exc:
            raise ConfigError(f"signal {path}: number out of range: {exc}") from exc
        if not cmath.isfinite(value):
            raise ConfigError(f"signal {path}: entries must be finite, got {value}")
        values.append(value)
    return np.array(values, dtype=complex)


def read_image_csv(path) -> np.ndarray:
    """Real image from comma-separated rows."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read image {path}: {exc}") from exc
    rows = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rows.append([float(tok) for tok in line.split(",")])
        except ValueError as exc:
            raise ConfigError(f"{path}:{line_no}: bad number: {exc}") from exc
        if not all(map(math.isfinite, rows[-1])):
            raise ConfigError(f"{path}:{line_no}: non-finite number")
    if not rows:
        raise ConfigError(f"image {path} is empty")
    if any(len(row) != len(rows[0]) for row in rows):
        raise ConfigError(f"image {path} has ragged rows")
    return np.array(rows, dtype=float)


def read_pgm(path) -> np.ndarray:
    """Grayscale image from a P2 (ASCII) or P5 (binary) PGM, maxval <= 255."""
    try:
        buf = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read image {path}: {exc}") from exc
    pos = 0

    def next_token() -> bytes:
        nonlocal pos
        while pos < len(buf):
            ch = buf[pos : pos + 1]
            if ch == b"#":
                while pos < len(buf) and buf[pos : pos + 1] not in (b"\n", b"\r"):
                    pos += 1
            elif ch.isspace():
                pos += 1
            else:
                break
        start = pos
        while pos < len(buf) and not buf[pos : pos + 1].isspace() and buf[pos : pos + 1] != b"#":
            pos += 1
        if start == pos:
            raise ConfigError(f"truncated PGM header in {path}")
        return buf[start:pos]

    magic = next_token()
    if magic not in (b"P2", b"P5"):
        raise ConfigError(f"{path}: not a P2/P5 PGM (magic {magic!r})")
    try:
        width, height, maxval = (int(next_token()) for _ in range(3))
    except ValueError as exc:
        raise ConfigError(f"{path}: bad PGM header: {exc}") from exc
    if width < 1 or height < 1:
        raise ConfigError(f"{path}: bad PGM dimensions {width}x{height}")
    if not 1 <= maxval <= 255:
        raise ConfigError(f"{path}: PGM maxval {maxval} out of supported range 1..255")
    count = width * height
    if magic == b"P5":
        # Exactly one whitespace byte separates header from pixels.
        if not buf[pos : pos + 1].isspace():
            raise ConfigError(f"{path}: PGM maxval must be followed by one whitespace byte")
        pos += 1
        pixels = buf[pos : pos + count]
        if len(pixels) != count:
            raise ConfigError(f"{path}: PGM pixel data truncated")
        data = np.frombuffer(pixels, dtype=np.uint8).astype(float)
    else:
        values = []
        for _ in range(count):
            try:
                values.append(int(next_token()))
            except ConfigError:
                raise ConfigError(f"{path}: PGM pixel data truncated") from None
            except ValueError as exc:
                raise ConfigError(f"{path}: bad PGM pixel: {exc}") from exc
        data = np.array(values, dtype=float)
    if data.min() < 0 or data.max() > maxval:
        raise ConfigError(f"{path}: PGM pixel outside 0..{maxval}")
    return data.reshape(height, width)


_NON_FINITE = {"nan": '"NaN"', "inf": '"Infinity"', "-inf": '"-Infinity"'}
_NON_FINITE_SPELLING = re.compile("-?inf|nan")
_FLOAT, _COMPLEX = "%.17g", "[%.17g, %.17g]"
_ARRAY_ITEM = {np.dtype(np.float64): _FLOAT, np.dtype(np.complex128): _COMPLEX}


def _float_text(template: str, values: tuple) -> str:
    """template % values, each "%.17g" spelled as JSON; a finite one has no "n"."""
    text = template % values
    if "n" not in text:
        return text
    return _NON_FINITE_SPELLING.sub(lambda m: _NON_FINITE[m[0]], text)


def _scalar_text(value) -> str:
    """The one definition of a JSON scalar; any other type raises TypeError."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _float_text(_FLOAT, (value,))
    if isinstance(value, (complex, np.complexfloating)):
        return _float_text(_COMPLEX, (value.real, value.imag))
    if isinstance(value, (str, Fraction)):
        return encode_basestring_ascii(str(value))
    if value is None:
        return "null"
    raise TypeError(f"not a scalar: {type(value)!r}")


class KeyedRows(NamedTuple):
    """The JSON object {"k1,k2": [a, b], ...}: one entry per row of the
    integer arrays keys and values, the row of keys joined by commas."""

    keys: np.ndarray
    values: np.ndarray


_ROWS_PER_PASS = 1 << 13  # KeyedRows rows per byte pass
_BYTE_PASS_ROWS = 1 << 7  # a smaller int64 block is cheaper as one %d-format
_FLOATS_PER_PASS = 1 << 12  # float array values per %-format
_CONTAINERS = (dict, list, tuple, np.ndarray)
_WORD_DIGITS = 4  # decimal digits per uint32 word of ASCII bytes
_WORD_BASE = 10**_WORD_DIGITS


@functools.cache  # built on the first int64 KeyedRows, not at import
def _digit_words():
    """0 .. _WORD_BASE - 1 spelled in uint32 words of ASCII bytes, right
    aligned: entry v padded on the left with NULs ("0" for 0), entry
    v + _WORD_BASE with "0"s.  The second table spells 0 as NULs alone."""
    v = np.arange(_WORD_BASE, dtype=np.uint16)
    digits = np.stack([(v // 10**e % 10).astype(np.uint8) for e in range(_WORD_DIGITS - 1, -1, -1)], axis=1)
    digits += ord("0")
    lead = np.where(np.cumsum(digits > ord("0"), axis=1, dtype=np.uint8) > 0, digits, 0)
    lead[0, -1] = ord("0")
    words = np.concatenate([lead, digits]).view(np.uint32).ravel()
    inner = words.copy()
    inner[0] = 0
    words.flags.writeable = inner.flags.writeable = False
    return words, inner


def _words(text: str) -> np.ndarray:
    """text in uint32 words of ASCII bytes, NUL padded to a whole word."""
    return np.frombuffer(text.encode().ljust(-(-len(text) // 4) * 4, b"\0"), np.uint32)


_MINUS_WORD = _words("-")[0]


@functools.lru_cache(maxsize=64)
def _row_words(depth: int, key_width: int, spans: tuple):
    """One row of a KeyedRows block in uint32 words, NUL padded: the indent and
    the opening quote, one cell per integer, then "],\n".  Per column, spans
    holds its largest magnitude's digits and whether it has a negative; a cell
    is its separator word, a sign word if negative, and one word per four
    digits, and without a sign word a separator that fits in the NULs leading
    the top digit word shares it.  Returns the row (read-only) and the index
    one past each cell."""
    seps = [""] + [","] * (key_width - 1) + ['": ['] + [", "] * (len(spans) - key_width - 1)
    cells = [-(-digits // _WORD_DIGITS) + negative + (negative or len(sep) > -digits % _WORD_DIGITS)
             for sep, (digits, negative) in zip(seps, spans)]
    head = _words("  " * (depth + 1) + '"')
    ends = len(head) + np.cumsum(cells)
    row = np.concatenate([head, np.zeros(ends[-1] - len(head), np.uint32), _words("],\n")])
    row[(ends - cells)[1:]] = [_words(sep)[0] for sep in seps[1:]]
    row.flags.writeable = False
    return row, ends


def _int64_rows_bytes(columns, depth: int, key_width: int) -> bytes:
    """The rows of an int64 block, given as its columns, in one byte pass,
    each row ending in ",\n": _row_words cells filled from _digit_words, and
    the NULs that pad the words dropped at the end."""
    bounds = [(int(column.min()), int(column.max())) for column in columns]
    spans = tuple((len(str(max(high, -low))), low < 0) for low, high in bounds)
    row, ends = _row_words(depth, key_width, spans)
    out = np.empty((len(columns[0]), len(row)), np.uint32)
    out[:] = row
    words, inner = _digit_words()
    for column, (digits, negative), end in zip(columns, spans, ends.tolist()):
        count = -(-digits // _WORD_DIGITS)
        rest = np.abs(column).view(np.uint64) if negative else column  # |int64 min| reads 2**63 unsigned
        for c in range(1, count + 1):
            index = rest
            if c < count:  # the top chunk of the column has no digits above it
                rest = index // _WORD_BASE
                index = (index - rest * _WORD_BASE).astype(np.intp)
                index[rest > 0] += _WORD_BASE
            out[:, end - c] = (words if c == 1 else inner)[index] | row[end - c]  # a shared separator
        if negative:
            out[:, end - count - 1] = np.where(column < 0, _MINUS_WORD, 0)
    return out.tobytes().translate(None, b"\0")


def _keyed_rows_text(rows: KeyedRows, depth: int, out: list) -> None:
    """int64 blocks of _BYTE_PASS_ROWS rows or more by the byte pass, other
    blocks (exact Python ints beyond int64 too) by one %d-format; a piece each."""
    keys, values = rows
    out.append("{\n" if len(keys) else "{}")
    for lo in range(0, len(keys), _ROWS_PER_PASS):
        block = keys[lo:lo + _ROWS_PER_PASS], values[lo:lo + _ROWS_PER_PASS]
        if keys.dtype == values.dtype == np.int64 and len(block[0]) >= _BYTE_PASS_ROWS:
            out.append(_int64_rows_bytes([*block[0].T, *block[1].T], depth, keys.shape[1]).decode())
        else:
            row = "  " * (depth + 1) + '"' + ",".join(["%d"] * keys.shape[1]) + '": ['
            row += ", ".join(["%d"] * values.shape[1]) + "],\n"
            out.append(row * len(block[0]) % tuple(np.concatenate(block, axis=1).ravel().tolist()))
    if len(keys):
        out[-1] = out[-1][:-2]  # the last row's ",\n"
        out.append("\n" + "  " * depth + "}")


def _emit(value, depth: int, out: list) -> None:
    """Append the JSON text of value to out, piece by piece."""
    if not isinstance(value, _CONTAINERS):
        out.append(_scalar_text(value))
    elif isinstance(value, KeyedRows):
        _keyed_rows_text(value, depth, out)
    elif isinstance(value, np.ndarray):
        item = _ARRAY_ITEM.get(value.dtype) if value.ndim == 1 else None
        if item is None:
            return _emit(value.tolist(), depth, out)
        out.append("[")
        for lo in range(0, len(value), _FLOATS_PER_PASS):
            block = np.ascontiguousarray(value[lo:lo + _FLOATS_PER_PASS])
            if lo:
                out.append(", ")
            out.append(_float_text(", ".join([item] * len(block)), tuple(block.view(np.float64).tolist())))
        out.append("]")
    elif not value:
        out.append("{}" if isinstance(value, dict) else "[]")
    elif isinstance(value, dict) or any(isinstance(item, _CONTAINERS) for item in value):
        opening, closing = "{}" if isinstance(value, dict) else "[]"
        for i, item in enumerate(value):
            out.append(("," if i else opening) + "\n" + "  " * (depth + 1))
            if opening == "{":
                out.append(encode_basestring_ascii(str(item)) + ": ")
            _emit(value[item] if opening == "{" else item, depth + 1, out)
        out.append("\n" + "  " * depth + closing)
    elif all(type(item) is int for item in value):  # not bool, not np.int64
        out.append("[" + ", ".join(map(str, value)) + "]")
    else:
        out.append("[" + ", ".join(_scalar_text(item) for item in value) + "]")


def emit_json(payload: dict) -> str:
    """Deterministic JSON text for a report dict, newline terminated, joined once."""
    _emit(payload, 0, out := [])
    return "".join([*out, "\n"])


def write_output(text: str, out_path=None) -> None:
    """Write to the given path, or stdout when no path is given."""
    if out_path:
        try:
            Path(out_path).write_text(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {out_path}: {exc}") from exc
    else:
        print(text, end="")
