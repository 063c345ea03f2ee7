"""Output checks, written without orbitsep's helpers.

Each check takes the op's `expect` dict (what the benchmark generated) and
the JSON payload orbitsep wrote, and returns None when the output is right or
a one-line reason when it is not.  The group action is recomputed here with
numpy; exact identities are checked with Python integers.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from itertools import accumulate, combinations

import numpy as np

from workloads import phases

# Reasons that start with this mark an output that hit a limit of double
# precision in one of the classes known at orbitsep 0.1.0: F overflows in
# `compare --transform f` (transform_gap), a G value overflows, a factor of
# a rational invariant falls below the normal range, or an image has a
# Fourier coefficient that is zero in exact arithmetic and noise in floating
# point.  The op counts as failed, but the output is not reported as a
# wrong answer.  Any other non-finite output is a wrong answer.
FLOAT_LIMIT = "float limit"
LOG_RANGE = (math.log(sys.float_info.min), math.log(sys.float_info.max))
TWIN_RTOL = 1e-9
DIST_RTOL = 1e-9
SAMPLE_ELEMENTS = 512
FULL_SCAN_ORDER = 4096


def _vector(values) -> np.ndarray:
    # Complex entries arrive as [re, im]; non-finite ones as quoted names.
    return np.array([complex(float(v[0]), float(v[1])) if isinstance(v, list) else float(v)
                     for v in values], dtype=complex)


def _is_num(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def table_dim(n: int) -> int:
    return n + math.comb(n, 2) + math.comb(n, 3)


def check_shift(expect: dict, payload: dict):
    n = expect["dim_n"]
    want = 3 * n + 1 if expect["transform"] == "phi" else table_dim(n)
    values = _vector(payload["values"])
    if payload["dim"] != want or len(values) != want:
        return f"dim {payload['dim']} with {len(values)} values, expected {want}"
    if not np.all(np.isfinite(values)):
        return "non-finite invariant values"
    return None


def check_twins(payload_a: dict, payload_b: dict, degenerate: bool = False):
    """Invariants of an image and of its circular shift agree componentwise.
    degenerate: the image has a Fourier coefficient that is exactly zero."""
    a, b = _vector(payload_a["values"]), _vector(payload_b["values"])
    if a.shape != b.shape:
        return "twin outputs differ in length"
    # Components far below the largest one carry only rounding noise.
    floor = 1e-12 * max(float(np.abs(a).max()), float(np.abs(b).max()), 1e-300)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    worst = float((np.abs(a - b) / scale).max())
    if worst > TWIN_RTOL and degenerate:
        return f"{FLOAT_LIMIT}: zero Fourier coefficient, twins differ by {worst:.3g}"
    if worst > TWIN_RTOL:
        return f"shifted twin disagrees: worst relative gap {worst:.3g}"
    return None


def _elements(orders, rng) -> np.ndarray:
    size = math.prod(orders)
    if size <= FULL_SCAN_ORDER:
        grids = np.meshgrid(*(np.arange(p) for p in orders), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)
    return np.stack([rng.integers(0, p, size=SAMPLE_ELEMENTS) for p in orders], axis=1)


def _distances(orders, matrix, elements, a, b) -> np.ndarray:
    # ||b - g.a|| for every row g of elements.
    turns = np.zeros((len(elements), len(a)))
    for i, p in enumerate(orders):
        row = np.asarray(matrix[i], dtype=np.int64)
        turns += (elements[:, i : i + 1] * row[None, :] % p) / p
    moved = np.exp(2j * np.pi * turns) * a[None, :]
    return np.linalg.norm(b[None, :] - moved, axis=1)


def check_compare(expect: dict, payload: dict):
    orders, matrix, a, b = expect["orders"], expect["matrix"], expect["a"], expect["b"]
    if payload.get("oracle") is not True:
        return "orbit oracle was not run"
    witness = payload["witness"]
    distance = payload["distance"]
    if len(witness) != len(orders) or not _is_num(distance):
        return f"malformed witness {witness!r} or distance {distance!r}"
    scale = float(np.linalg.norm(a) + np.linalg.norm(b))
    tol = DIST_RTOL * max(1.0, scale)
    recomputed = float(np.linalg.norm(b - phases(orders, matrix, witness) * a))
    if abs(recomputed - distance) > tol:
        return f"witness gives distance {recomputed!r}, output says {distance!r}"
    if distance > float(np.linalg.norm(a - b)) + tol:
        return "distance exceeds the identity element's distance"
    if payload["equivalent"] != (distance < payload["tolerance"]):
        return "equivalent flag disagrees with distance"
    if expect["same_orbit"] and not payload["equivalent"]:
        return f"same-orbit pair reported at distance {distance!r}"
    gap = payload["transform_gap"]
    if gap in ("Infinity", "NaN") and expect["transform"] == "f":
        return f"{FLOAT_LIMIT}: transform_gap {gap}"
    if not (_is_num(gap) and gap >= 0):
        return f"bad transform_gap {gap!r}"
    rng = np.random.default_rng(expect["sample_seed"])
    best = float(_distances(orders, matrix, _elements(orders, rng), a, b).min())
    if best < distance - tol:
        return f"a sampled element reaches {best!r} < reported {distance!r}"
    return None


def check_bench(expect: dict, payload: dict):
    ratio, bound = payload["max_ratio"], payload["bound"]
    if payload["samples"] != expect["samples"] or payload["transform"] != "Phi":
        return "bench echoed the wrong samples or transform"
    if not (_is_num(ratio) and _is_num(bound)):
        return f"non-finite bench ratio {ratio!r} or bound {bound!r}"
    if not 0 < ratio <= bound:
        return f"max_ratio {ratio!r} outside (0, bound {bound!r}]"
    return None


def _invariant_mod_orders(orders, matrix, indices, exps) -> bool:
    # sum_j exps[:, j] * matrix[i][indices[:, j]] = 0 mod orders[i], every i.
    for row, p in zip(matrix, orders):
        row = np.asarray(row, dtype=np.int64)
        if np.any((row[indices] * exps).sum(axis=1) % p):
            return False
    return True


def check_exponents(expect: dict, payload: dict):
    orders, matrix = expect["orders"], expect["matrix"]
    n = len(matrix[0])
    if tuple(payload["orders"]) != tuple(orders) or [tuple(r) for r in payload["matrix"]] != list(matrix):
        return "group echo differs from the declared group"
    table = payload["table"]
    if table["total_dim"] != table_dim(n):
        return f"total_dim {table['total_dim']}, expected {table_dim(n)}"
    parts = [(np.arange(n)[:, None], np.asarray(table["singles"], dtype=np.int64)[:, None])]
    for key, size in (("pairs", 2), ("triples", 3)):
        want = list(combinations(range(n), size))
        got = [tuple(int(v) for v in k.split(",")) for k in table[key]]
        if got != want:
            return f"{key} keys are not the {size}-subsets in order"
        exps = np.asarray(list(table[key].values()), dtype=np.int64).reshape(len(want), size)
        parts.append((np.asarray(want, dtype=np.int64).reshape(len(want), size), exps))
    for indices, exps in parts:
        if len(exps) and (np.any(exps[:, 0] < 1) or np.any(exps < 0)):
            return "exponent with leading entry < 1 or negative entry"
        if len(exps) and not _invariant_mod_orders(orders, matrix, indices, exps):
            return "a table component is not invariant modulo the orders"
    return None


def check_rational(expect: dict, payload: dict):
    orders, matrix, z = expect["orders"], expect["matrix"], expect["a"]
    n, s = len(matrix[0]), len(orders)
    herm = payload["hermite"]
    inv = herm["inv_exponents"]
    u, h = herm["multiplier"], herm["hermite"]
    if payload["dim"] != n or len(payload["values"]) != n or len(inv) != n:
        return f"dim {payload['dim']}, expected {n}"
    for i, p in enumerate(orders):
        for j in range(n):
            if sum(matrix[i][k] * inv[k][j] for k in range(n)) % p:
                return f"inv_exponents column {j} is not invariant mod {p}"
    stacked = [list(matrix[i]) + [-p if c == i else 0 for c in range(s)] for i, p in enumerate(orders)]
    product = [[sum(row[k] * u[k][c] for k in range(n + s)) for c in range(n + s)] for row in stacked]
    if product != [list(h[i]) + [0] * n for i in range(s)]:
        return "M @ U != [H | 0]"
    if [row[s:] for row in u[:n]] != inv:
        return "inv_exponents is not the kernel block of the multiplier"
    scaling = [Fraction(c) for c in herm["scaling"]]
    if any(sum(inv[k][j] * scaling[j] for j in range(n)) != 1 for k in range(n)):
        return "scaling does not solve inv_exponents @ c = 1"
    values = _vector(payload["values"])
    if payload["domain_ok"] and not np.all(np.isfinite(values)):
        return "domain_ok with non-finite values"
    log_mod = np.log(np.abs(z))
    for j, v in enumerate(values):
        # orbitsep multiplies the factors z_k ** e_k in coordinate order.
        terms = [float(inv[k][j]) * log_mod[k] for k in range(n) if inv[k][j]]
        want = sum(terms)
        tol = 1e-9 * (1.0 + sum(abs(t) for t in terms))
        if v != 0 and np.isfinite(v) and abs(math.log(abs(v)) - want) <= tol:
            continue
        if all(LOG_RANGE[0] < t < LOG_RANGE[1] for t in (*terms, *accumulate(terms))):
            return f"value {j} has log-modulus {math.log(abs(v)) if v else '-inf'}, expected {want:.12g}"
        return f"{FLOAT_LIMIT}: rational value {j} has a factor outside the double range"
    return None


def check_g(expect: dict, payload: dict):
    n = len(expect["matrix"][0])
    values = _vector(payload["values"])
    if payload["dim"] != n or len(values) != n:
        return f"dim {payload['dim']}, expected {n}"
    if payload["sign"] not in (1, -1):
        return f"sign {payload['sign']!r}"
    if not np.all(np.isfinite(values)):
        return f"{FLOAT_LIMIT}: non-finite G values"
    return None


CHECKS = {
    "shift": check_shift,
    "compare": check_compare,
    "bench": check_bench,
    "exponents": check_exponents,
    "rational": check_rational,
    "g": check_g,
}


def check(op, payload: dict):
    return CHECKS[op.kind](op.expect, payload)
