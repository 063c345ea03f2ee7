"""File formats: signal JSON, PGM and CSV images, deterministic JSON output.

The JSON emitter is hand rolled so the output bytes are a pure function of
the payload: insertion-ordered keys, floats at 17 significant digits
(round-trip safe), complex numbers as [re, im] pairs, exact rationals as
quoted strings, non-finite floats as quoted names (strict JSON has no
Infinity literal).  One float rule serves scalars and 1-D float64 or
complex128 arrays: "%.17g", non-finite spellings mapped through the one
_NON_FINITE table.  An array block of _FLOATS_PER_PASS floats or more is one
numpy byte pass that gives the bytes of "%.17g" (digits from a certified
double-double rounding, cells NUL padded, NULs dropped once), and falls
back whole to the %-format of smaller blocks when it holds a value the pass
cannot certify.  Lists and tuples of plain ints are spelled by str.  Large
KeyedRows blocks of int64 are one numpy byte pass each (digits looked up
four at a time, cells sized per column, NULs dropped once), the others one
%d-format; keys and strings are quoted as json.dumps does.  The pieces are
joined once, and write_output writes the text in slices.
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
_FLOATS_PER_PASS = 1 << 12  # float array block floor (a complex value counts two)
_WRITE_SLICE = 1 << 16  # characters per write of the output text
_CONTAINERS = (dict, list, tuple, np.ndarray)
_INT = {int}
_WORD_DIGITS = 4  # decimal digits per uint32 word of ASCII bytes
_WORD_BASE = 10**_WORD_DIGITS


@functools.cache  # built on the first byte pass, not at import
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


def _int64_rows_bytes(columns: np.ndarray, depth: int, key_width: int) -> bytes:
    """The rows of an int64 block, given as its columns (keys, then values,
    one row each of a C-contiguous array), in one byte pass, each row ending
    in ",\n": _row_words cells, sized from each column's bounds, filled
    from _digit_words by one gather per four digits over every column that
    has them, and the NULs that pad the words dropped at the end."""
    bounds = zip(columns.min(axis=1).tolist(), columns.max(axis=1).tolist())
    spans = tuple((len(str(max(high, -low))), low < 0) for low, high in bounds)
    row, ends = _row_words(depth, key_width, spans)
    counts = [-(-digits // _WORD_DIGITS) for digits, _ in spans]
    signed = [j for j, (_, negative) in enumerate(spans) if negative]
    out = np.empty((columns.shape[1], len(row)), np.uint32)
    out[:] = row
    words, inner = _digit_words()
    live = list(range(len(spans)))  # the columns with a c-th word, in step with rest
    rest = np.abs(columns).view(np.uint64) if signed else columns  # |int64 min| reads 2**63 unsigned
    for c in range(1, max(counts) + 1):
        if any(counts[j] < c for j in live):
            kept = [i for i, j in enumerate(live) if counts[j] >= c]
            live, rest = [live[i] for i in kept], rest[kept]
        index = rest
        if any(counts[j] > c for j in live):  # a top word needs no division
            rest = index // _WORD_BASE
            index = (index - rest * _WORD_BASE).astype(np.intp, copy=False)
            index += (rest > 0) * _WORD_BASE  # digits above: the "0" padded spelling
        cells = ends[live] - c
        taken = np.take(words if c == 1 else inner, index.astype(np.intp, copy=False))
        taken |= row[cells, None]  # a shared separator
        out[:, cells] = taken.T
    if signed:
        out[:, ends[signed] - np.take(counts, signed) - 1] = np.where(columns[signed] < 0, _MINUS_WORD, 0).T
    return out.tobytes().translate(None, b"\0")


def _keyed_rows_text(rows: KeyedRows, depth: int, out: list) -> None:
    """int64 blocks of _BYTE_PASS_ROWS rows or more by the byte pass, other
    blocks (exact Python ints beyond int64 too) by one %d-format; a piece each."""
    keys, values = rows
    out.append("{\n" if len(keys) else "{}")
    for lo in range(0, len(keys), _ROWS_PER_PASS):
        block = keys[lo:lo + _ROWS_PER_PASS], values[lo:lo + _ROWS_PER_PASS]
        if keys.dtype == values.dtype == np.int64 and len(block[0]) >= _BYTE_PASS_ROWS:
            columns = np.empty((keys.shape[1] + values.shape[1], len(block[0])), np.int64)
            columns[:keys.shape[1]], columns[keys.shape[1]:] = block[0].T, block[1].T
            out.append(_int64_rows_bytes(columns, depth, keys.shape[1]).decode())
        else:
            row = "  " * (depth + 1) + '"' + ",".join(["%d"] * keys.shape[1]) + '": ['
            row += ", ".join(["%d"] * values.shape[1]) + "],\n"
            out.append(row * len(block[0]) % tuple(np.concatenate(block, axis=1).ravel().tolist()))
    if len(keys):
        out[-1] = out[-1][:-2]  # the last row's ",\n"
        out.append("\n" + "  " * depth + "}")


# The float byte pass spells each finite x as "%.17g" does: D, the 17
# significant digits of |x| rounded half to even, and its decimal exponent X.
# X starts as floor(log10 |x|); y = |x| * 10**(16 - X) is formed as a
# double-double hi + lo (Dekker's product with the double nearest the power,
# plus |x| times that power's residual), off by under 1e-14 while y < 1e17.
# A guess of X off by one shows as y outside [1e16, 1e17), tested on hi + lo,
# and moves one decade.  D = round(y) is certified when frac(y) is farther
# than _TIE_MARGIN from 1/2, or when 10**k is a double (0 <= k <= 22): then
# the product is exact and a true tie is broken to even here.  D = 10**17
# carries into X + 1.
_SIGNIFICANT = 17
_EXPONENTS = range(-272, 283)  # every X a value in _WINDOW reaches
_WINDOW = (1e-270, 1e280)  # every product and residual above stays a normal double
_TIE_MARGIN = 1e-9  # far above the product's error
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split of a double into halves
_LE64 = np.dtype("<u8")  # 8 text bytes, the first in the low byte


def _le64(text: str) -> int:
    return int.from_bytes(text.encode(), "little")


@functools.cache  # built on the first float byte pass, not at import
def _decimal_tables():
    """Per exponent X (row X - _EXPONENTS.start): the scale 10**(16 - X) as
    (double, its two Veltkamp halves, residual) and whether the double is
    exact; the sign and "0.000" prefix word and the "e+XX" suffix word; and
    per (X, significant digits kept) the row of the three field masks.

    A cell is five little-endian words: the prefix (right aligned, its first
    byte left for "["), three field words, and the suffix (its last three
    bytes left for separators).  Field byte 3 + j holds digit j, and the
    point goes in at byte 3 + p, p digits before it: the masks keep digits
    below the point, the digits shifted one byte up above it, and put the
    point itself, up to the digits kept.  Also the trailing zero digits of
    each four-digit word."""
    xs = np.array(_EXPONENTS)
    scale = np.empty((len(xs), 4))
    for i, x in enumerate(xs.tolist()):
        # 10**(16 - x) is num / den; int true division rounds correctly.
        num, den = (10 ** (16 - x), 1) if x <= 16 else (1, 10 ** (x - 16))
        double = num / den
        n, d = double.as_integer_ratio()
        residual = num * d - n * den  # (power - double) * den * d, exactly
        c = double * _SPLIT
        high = c - (c - double)
        scale[i] = double, high, double - high, residual / (den * d)
    exact = scale[:, 3] == 0
    fixed = (xs >= -4) & (xs < _SIGNIFICANT)
    prefix = np.zeros((2, len(xs)), _LE64)
    suffix = np.zeros(len(xs), _LE64)
    for i, x in enumerate(xs.tolist()):
        lead = "0." + "0" * (-x - 1) if -4 <= x < 0 else ""
        for sign in (0, 1):
            text = "-" * sign + lead
            prefix[sign, i] = _le64(text) << 8 * (8 - len(text))
        suffix[i] = _le64("" if fixed[i] else "e%+03d" % x)
    # p: X + 1 in fixed notation, 1 in exponent notation, and past the
    # digits when the prefix holds the point ("0.000" of X < 0)
    point = np.where(fixed, np.where(xs >= 0, xs + 1, _SIGNIFICANT), 1)
    kept = np.arange(_SIGNIFICANT + 1)  # digits left when trailing zeros go
    width = np.where(kept > point[:, None], kept + 1, point[:, None])  # field bytes
    width[fixed & (xs < 0)] = kept
    row = (point[:, None] * (_SIGNIFICANT + 2) + width).ravel()
    b = np.arange(24)
    p, w = np.divmod(np.arange((_SIGNIFICANT + 1) * (_SIGNIFICANT + 2))[:, None], _SIGNIFICANT + 2)
    below = (b >= 3) & (b < 3 + np.minimum(p, w))
    above = (b > 3 + p) & (b < 3 + w)
    masks = [np.where(m, fill, 0).astype(np.uint8).view(_LE64)
             for m, fill in ((below, 0xFF), (above, 0xFF), ((b == 3 + p) & (b < 3 + w), ord(".")))]
    v = np.arange(_WORD_BASE)
    trailing = sum((v % 10**e == 0).astype(np.int8) for e in range(1, _WORD_DIGITS + 1))
    return scale, exact, prefix.ravel(), suffix, row, masks, trailing


def _scaled(a: np.ndarray, scale: np.ndarray):
    """a times the scale rows as a double-double (hi, lo)."""
    double, high, low, residual = scale.T
    c = a * _SPLIT
    a_high = c - (c - a)
    a_low = a - a_high
    hi = a * double
    return hi, ((a_high * high - hi) + a_high * low + a_low * high) + a_low * low + a * residual


def _float_cells(values: np.ndarray):
    """The "%.17g" cells of a contiguous float64 block, as (n, 5) words of
    NUL padded ASCII bytes; None when a value is not finite, lies outside
    _WINDOW (zeros aside) or rounds too near a tie to certify."""
    scale, exact, prefix, suffix, row, (below, above, dot), trailing = _decimal_tables()
    a = np.abs(values)
    zero = a == 0
    if not (zero | (a >= _WINDOW[0]) & (a < _WINDOW[1])).all():  # before any arithmetic: a signaling NaN warns
        return None
    a += zero  # a zero is spelled as 1.0 is, then its digits are cleared
    x = np.floor(np.log10(a)).astype(np.intp) - _EXPONENTS.start
    hi, lo = _scaled(a, np.take(scale, x, axis=0))
    shift = ((hi - 1e17) + lo >= 0).view(np.int8) - ((hi - 1e16) + lo < 0).view(np.int8)
    moved = np.flatnonzero(shift)
    if len(moved):
        x[moved] += shift[moved]
        hi[moved], lo[moved] = _scaled(a[moved], np.take(scale, x[moved], axis=0))
    whole = np.floor(lo)
    frac = lo - whole
    d = hi.astype(np.int64) + whole.astype(np.int64)
    d += (frac > 0.5) | ((frac == 0.5) & (d & 1 == 1))
    certified = (np.take(exact, x) | (np.abs(frac - 0.5) > _TIE_MARGIN)) & (d >= 10**16) & (d <= 10**17)
    if not certified.all():
        return None
    carry = d == 10**17
    d[carry] = 10**16
    x += carry
    d[zero] = 0
    lead = d // 10**16
    rest = d - lead * 10**16
    top = rest // 10**8
    bottom = rest - top * 10**8
    w1 = top // _WORD_BASE
    w3 = bottom // _WORD_BASE
    quads = (lead, w1, top - w1 * _WORD_BASE, w3, bottom - w3 * _WORD_BASE)
    t1, t2, t3, t4 = (np.take(trailing, q) for q in quads[1:])
    kept = _SIGNIFICANT - (t4 + (t4 == 4) * (t3 + (t3 == 4) * (t2 + (t2 == 4) * t1)))
    index = np.zeros((len(d), 6), np.intp)  # a sixth word pads the field; the masks clear it
    for i, q in enumerate(quads):
        index[:, i] = q
    words, _ = _digit_words()
    digits = np.take(words[_WORD_BASE:], index).view(_LE64).ravel()
    shifted = digits << np.uint64(8)
    shifted[1:] |= digits[:-1] >> np.uint64(56)
    masks = np.take(row, x * (_SIGNIFICANT + 1) + kept)
    field = np.take(below, masks, axis=0).ravel()
    field &= digits
    shifted &= np.take(above, masks, axis=0).ravel()
    field |= shifted
    field |= np.take(dot, masks, axis=0).ravel()
    cells = np.empty((len(d), 5), _LE64)
    cells[:, 1:4] = field.reshape(-1, 3)
    cells[:, 0] = np.take(prefix, np.signbit(values) * len(_EXPONENTS) + x)
    cells[:, 4] = np.take(suffix, x)
    return cells


# Separators in the cells' free bytes: "[" before a real part, ", " after
# a real part or a float, "]" and ", " after an imaginary part.
_OPEN, _COMMA, _CLOSE, _CLOSE_COMMA = (
    np.uint64(_le64(text)) for text in ("[", "\0\0\0\0\0, ", "\0\0\0\0\0]", "\0\0\0\0\0\0, "))


def _float_block_text(block: np.ndarray, item: str) -> str:
    """One block of a float64 or complex128 array, item separated: by the
    byte pass when it holds _FLOATS_PER_PASS floats or more and the pass
    certifies every value, otherwise by one %-format of item."""
    floats = block.view(np.float64)
    cells = _float_cells(floats) if len(floats) >= _FLOATS_PER_PASS else None
    if cells is None:
        return _float_text(", ".join([item] * len(block)), tuple(floats.tolist()))
    if block.dtype == np.complex128:
        cells[0::2, 0] |= _OPEN
        cells[0::2, 4] |= _COMMA
        cells[1::2, 4] |= _CLOSE | _CLOSE_COMMA
        cells[-1, 4] ^= _CLOSE_COMMA
    else:
        cells[:, 4] |= _COMMA
        cells[-1, 4] ^= _COMMA
    return cells.tobytes().translate(None, b"\0").decode()


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
        # blocks of _FLOATS_PER_PASS floats up to twice that, or one smaller block
        count = len(value)
        blocks = max(1, count * value.itemsize // (8 * _FLOATS_PER_PASS))
        out.append("[")
        for i in range(blocks):
            if i:
                out.append(", ")
            block = np.ascontiguousarray(value[i * count // blocks:(i + 1) * count // blocks])
            out.append(_float_block_text(block, item))
        out.append("]")
    elif not value:
        out.append("{}" if isinstance(value, dict) else "[]")
    elif not isinstance(value, dict) and set(map(type, value)) == _INT:  # not bool, not np.int64
        out.append(str(value if isinstance(value, list) else list(value)))  # a tuple's str is (...)
    elif isinstance(value, dict) or any(isinstance(item, _CONTAINERS) for item in value):
        opening, closing = "{}" if isinstance(value, dict) else "[]"
        for i, item in enumerate(value):
            out.append(("," if i else opening) + "\n" + "  " * (depth + 1))
            if opening == "{":
                out.append(encode_basestring_ascii(str(item)) + ": ")
            _emit(value[item] if opening == "{" else item, depth + 1, out)
        out.append("\n" + "  " * depth + closing)
    else:
        out.append("[" + ", ".join(_scalar_text(item) for item in value) + "]")


def emit_json(payload: dict) -> str:
    """Deterministic JSON text for a report dict, newline terminated, joined once."""
    _emit(payload, 0, out := [])
    return "".join([*out, "\n"])


def write_output(text: str, out_path=None) -> None:
    """Write to the given path, in slices of _WRITE_SLICE characters so no
    encoded copy of the whole text is made, or to stdout when no path is given."""
    if out_path:
        try:
            with Path(out_path).open("w") as sink:
                for lo in range(0, len(text), _WRITE_SLICE):
                    sink.write(text[lo:lo + _WRITE_SLICE])
        except OSError as exc:
            raise ConfigError(f"cannot write {out_path}: {exc}") from exc
    else:
        print(text, end="")
