"""File formats: signal JSON, PGM and CSV images, deterministic JSON output.

The JSON emitter is hand rolled so the output bytes are a pure function of
the payload: insertion-ordered keys, floats at 17 significant digits
(round-trip safe), complex numbers as [re, im] pairs, exact rationals as
quoted strings, non-finite floats as quoted names (strict JSON has no
Infinity literal).
"""

from __future__ import annotations

import cmath
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import ConfigError


def read_signal_json(path) -> np.ndarray:
    """Complex signal from a JSON array whose entries are finite numbers or
    [re, im] pairs of them."""
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
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
        text = Path(path).read_text()
    except OSError as exc:
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
        pos += 1  # exactly one whitespace byte separates header from pixels
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


def _float_text(x: float) -> str:
    if math.isnan(x):
        return '"NaN"'
    if math.isinf(x):
        return '"Infinity"' if x > 0 else '"-Infinity"'
    return format(float(x), ".17g")


_SCALAR_TYPES = (
    bool,
    int,
    float,
    complex,
    str,
    Fraction,
    type(None),
    np.integer,
    np.floating,
    np.complexfloating,
)


def _scalar_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _float_text(float(value))
    if isinstance(value, (complex, np.complexfloating)):
        return f"[{_float_text(value.real)}, {_float_text(value.imag)}]"
    if isinstance(value, Fraction):
        return json.dumps(str(value))
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    raise TypeError(f"not a scalar: {type(value)!r}")


def _emit(value, depth: int) -> str:
    if isinstance(value, _SCALAR_TYPES) or value is None:
        return _scalar_text(value)
    if isinstance(value, np.ndarray):
        value = value.tolist()
    pad = "  " * (depth + 1)
    close = "  " * depth
    if isinstance(value, dict):
        if not value:
            return "{}"
        parts = [
            f"{pad}{json.dumps(str(key))}: {_emit(item, depth + 1)}"
            for key, item in value.items()
        ]
        return "{\n" + ",\n".join(parts) + "\n" + close + "}"
    if isinstance(value, (list, tuple)):
        if not len(value):
            return "[]"
        if all(isinstance(item, _SCALAR_TYPES) for item in value):
            return "[" + ", ".join(_scalar_text(item) for item in value) + "]"
        parts = [f"{pad}{_emit(item, depth + 1)}" for item in value]
        return "[\n" + ",\n".join(parts) + "\n" + close + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def emit_json(payload: dict) -> str:
    """Deterministic JSON text for a report dict, newline terminated."""
    return _emit(payload, 0) + "\n"


def write_output(text: str, out_path=None) -> None:
    """Write to the given path, or stdout when no path is given."""
    if out_path:
        Path(out_path).write_text(text)
    else:
        print(text, end="")
