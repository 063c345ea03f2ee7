"""The rational invariants on top of the exact column Hermite normal form.

The Hermite normal form itself lives in exponents, the lattice core shared
with the exponent solver.  All exact work is in integers: one fraction-free
(Bareiss) elimination gives the determinant; the scaling solve is a float64
guess that an exact integer identity proves, with that elimination as its
fallback, and Fractions appear only in its result.  Otherwise floats appear
only at a concrete signal, powered by the block's float64 copy, made once
per HermiteData, which a group's plan (orbitsep.plan) holds.  The pipeline:
stack the character exponents against the negated generator orders, reduce
to column Hermite form, read the invariant Laurent exponents out of the
kernel block of the unimodular multiplier, then solve for the rational
scaling vector that makes the invariants jointly homogeneous of degree one.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConfigError, DimensionError, DomainError, InternalCheckError
from .exponents import _as_int_rows, _stacked, float_exponents, hermite_normal_form
from .groups import GroupSpec, _check_signal, _norm, _unit_norm, _unit_scaled, cyclic_shift_spec
from .metric import orbit_distance

COLLISION_TOL = 1e-8
SEPARATION_FLOOR = 1e-3
# Natural logs of the smallest normal and of the largest double.
_LOG_RANGE = (math.log(sys.float_info.min), math.log(sys.float_info.max))
_FLOAT_EXACT = 2**53  # every integer of smaller magnitude is a double
_GUESS_MIN_DIM = 8  # below it the Bareiss solve is the faster of the two


def _eliminate(rows) -> int:
    """Bareiss fraction-free elimination, in place, of the square block at
    the left of rows; columns to its right ride along.  On and above the
    diagonal the block becomes an integer triangular factor.  Returns the
    block's determinant, 0 when it is singular."""
    sign, prev = 1, 1
    for k in range(len(rows)):
        if rows[k][k] == 0:
            swap = next((i for i in range(k + 1, len(rows)) if rows[i][k] != 0), None)
            if swap is None:
                return 0
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        pivot = rows[k][k]
        for row in rows[k + 1:]:
            for j in range(k + 1, len(row)):
                row[j] = (row[j] * pivot - row[k] * rows[k][j]) // prev
        prev = pivot
    return sign * prev


def _square(matrix, what: str):
    rows = _as_int_rows(matrix)
    if len(rows[0]) != len(rows):
        raise DimensionError(f"{what} needs a square matrix")
    return rows


def integer_determinant(matrix) -> int:
    """Exact determinant by Bareiss fraction-free elimination."""
    return _eliminate(_square(matrix, "determinant"))


def _checked_guess(rows):
    """The solve of rows @ c = 1 as Fractions x / q, guessed in float64 and
    accepted only on exact proof; None when the guess fails or rows has
    fewer than _GUESS_MIN_DIM rows.

    With q = round|det B| >= 1, Z = rint(q * inv(B)) guesses the adjugate
    up to sign, and B @ Z == q * I is checked in float64.  It is taken only
    when N max|B| max|Z| < 2**53: then B is exact as doubles, and every
    partial sum of that product is an exact integer, whatever the order of
    summation.  The identity proves det B != 0 (det B * det Z = q**N), so
    x = Z @ 1 gives the unique solution x / q."""
    if len(rows) < _GUESS_MIN_DIM:
        return None
    try:
        m = np.array(rows, dtype=np.int64)
    except OverflowError:
        return None
    top = max(-int(m.min()), int(m.max()))
    with np.errstate(all="ignore"):
        a = m.astype(float)
        det = abs(float(np.linalg.det(a)))
        if not 0.5 <= det < _FLOAT_EXACT:
            return None
        q = round(det)
        z = np.rint(q * np.linalg.inv(a))
        if not len(a) * top * float(np.abs(z).max()) < _FLOAT_EXACT or (a @ z != q * np.eye(len(a))).any():
            return None
    return tuple(Fraction(v, q) for v in z.sum(axis=1).astype(np.int64).tolist())


def scaling_vector(block):
    """Exact rational solve of block @ c = (1, ..., 1); c as Fractions.

    The float64 guess of _checked_guess is taken when it is proved exact.
    Otherwise (small, singular or ill-conditioned blocks, entries beyond
    2**53) [block | 1] is eliminated fraction-free and back-substituted in integers
    for det * c, which Cramer's rule makes integral, so every division is
    exact.  Fractions are built only for the result."""
    rows = _square(block, "scaling solve")
    guess = _checked_guess(rows)
    if guess is not None:
        return guess
    rows = [row + [1] for row in rows]
    det = _eliminate(rows)
    if det == 0:
        raise DomainError("invariant exponent block is singular")
    n = len(rows)
    y = [0] * n
    for k in reversed(range(n)):
        rest = sum(rows[k][j] * y[j] for j in range(k + 1, n))
        y[k] = (det * rows[k][n] - rest) // rows[k][k]
    return tuple(Fraction(v, det) for v in y)


@dataclass(frozen=True)
class HermiteData:
    """Invariant Laurent exponents with their exact rational scaling vector.

    inv_exponents holds N rows of N integers; column j is the coordinate
    exponent vector of one invariant Laurent monomial.  scaling is the exact
    solution of inv_exponents @ scaling = all-ones, signature its signs.
    multiplier and hermite carry the full unimodular matrix and the pivot
    block when the data came from a Hermite reduction (fixtures omit them).
    """

    group: GroupSpec
    inv_exponents: tuple
    scaling: tuple
    signature: tuple
    multiplier: tuple | None = None
    hermite: tuple | None = None

    @property
    def dim(self) -> int:
        return len(self.inv_exponents)

    @functools.cached_property
    def float_block(self) -> np.ndarray:  # inv_exponents as float_exponents gives them, once
        return float_exponents(self.inv_exponents)


def _column_invariance_exact(group: GroupSpec, block) -> None:
    # A column is invariant iff its exponent combination vanishes mod order.
    n = group.dim
    for j in range(n):
        for i, p in enumerate(group.orders):
            total = sum(group.exponents[i][k] * block[k][j] for k in range(n))
            if total % p != 0:
                raise InternalCheckError(
                    f"column {j} fails the invariance congruence mod {p}"
                )


def _package(group: GroupSpec, block, **reduction) -> HermiteData:
    """Check that every column of block is invariant, solve its scaling
    vector, and package both with the signature."""
    _column_invariance_exact(group, block)
    try:
        scaling = scaling_vector(block)
    except DomainError as exc:
        raise InternalCheckError("invariant exponent block is singular") from exc
    signature = tuple((c > 0) - (c < 0) for c in scaling)
    return HermiteData(group, block, scaling, signature, **reduction)


def hermite_multiplier(group: GroupSpec) -> HermiteData:
    """Hermite-reduce the stacked exponents/orders matrix and package the
    invariant exponent block, its exact scaling vector, and the signature.

    Raises InternalCheckError if any defining identity fails: the reduction
    must leave a zero block of width N, exactly invariant columns, and a
    nonsingular exponent block.  The multiplier is unimodular by construction.
    """
    n, s = group.dim, len(group.orders)
    h_full, u = hermite_normal_form(_stacked(group, range(n)))
    if any(h_full[i][j] != 0 for i in range(s) for j in range(s, s + n)):
        raise InternalCheckError("Hermite reduction left a nonzero tail block")
    hermite = tuple(tuple(row[:s]) for row in h_full)
    block = tuple(tuple(u[r][c] for c in range(s, s + n)) for r in range(n))
    return _package(group, block, multiplier=u, hermite=hermite)


def cyclic_fixture_block(n: int):
    """Reference invariant exponent block for the length-n cyclic shift:
    first row (n, n-2, n-3, ..., 1, 0), identity rows below."""
    if n < 3:
        raise ConfigError("cyclic fixture needs n >= 3")
    first = (n,) + tuple(range(n - 2, -1, -1))
    rows = [first]
    for k in range(1, n):
        rows.append(tuple(1 if j == k else 0 for j in range(n)))
    return tuple(rows)


def cyclic_fixture_data(n: int) -> HermiteData:
    """HermiteData for the cyclic-shift fixture block (no multiplier).

    The exact solve gives scaling = ((3 - n)/2, 1, ..., 1), so the leading
    entry is 0 at n = 3 and negative for n >= 4."""
    return _package(cyclic_shift_spec(n), cyclic_fixture_block(n))


@dataclass(frozen=True, eq=False)
class RationalInvariantResult:
    values: np.ndarray
    domain_ok: bool


def eval_rational_invariants(data: HermiteData, z) -> RationalInvariantResult:
    """Evaluate the invariant Laurent monomials (one per column) of one (N,)
    signal or of each row of a (B, N) stack; a stacked row comes out bit for
    bit as its single call, with one domain_ok per row (a bool for one signal).

    A zero coordinate hit by a negative exponent poles the component: its
    value is reported as 0 and domain_ok turns false.  A zero hit only by
    positive exponents just zeroes the component.  Overflow to non-finite
    also clears domain_ok, and so does a component without zero factors
    whose factor log-moduli e_k * log|z_k|, or their running sums in
    coordinate order, leave the open log range of normal doubles: its value
    under- or overflowed on the way, even where it came out finite.
    """
    z = _check_signal(data.group, z, stacked=True)
    exps = data.float_block.T
    zero = (z == 0)[..., None, :]  # against each component's exponents
    poled = (zero & (exps < 0)).any(axis=-1)
    annihilated = (zero & (exps > 0)).any(axis=-1)
    with np.errstate(all="ignore"):  # overflow, log 0 and 0 * log 0, masked below
        values = np.prod(z[..., None, :] ** exps, axis=-1)
        terms = np.where(exps != 0, exps * np.log(np.abs(z))[..., None, :], 0.0)
        logs = np.concatenate([terms, np.cumsum(terms, axis=-1)], axis=-1)
    values[poled | annihilated] = 0
    in_range = ((_LOG_RANGE[0] < logs) & (logs < _LOG_RANGE[1])).all(axis=-1)
    domain_ok = ~poled.any(axis=-1) & np.isfinite(values).all(axis=-1) & (in_range | annihilated).all(axis=-1)
    return RationalInvariantResult(values=values, domain_ok=domain_ok if z.ndim == 2 else bool(domain_ok))


def signed_quadratic(data: HermiteData, x):
    """Sum of sign(scaling_k) * |x_k|^2: a float for one (N,) signal, one
    per row for a (B, N) stack.

    Equals ||x||^2 when every scaling entry is positive; zero entries drop
    their coordinate.  Rows are _unit_scaled, then summed left to right as
    cumsum adds (pairwise rounds otherwise): inf past doubles, no warning.
    """
    x, k = _unit_scaled(_check_signal(data.group, x, stacked=True))
    with np.errstate(over="ignore"):
        q = np.ldexp(np.cumsum(np.array(data.signature) * np.abs(x) ** 2, axis=-1)[..., -1], 2 * k)
    return q if x.ndim == 2 else float(q)


def eval_scaled_invariants(data: HermiteData, x):
    """The sign of the quadratic form plus the scale-restored invariants:
    (sign, sqrt|q| * (x/sqrt|q|)^columns).  Needs full support.  x is one
    (N,) signal, with an int sign, or a (B, N) stack, with one sign per row;
    a stacked row comes out bit for bit as its single call.

    With a nonnegative scaling vector the norm (groups._norm) restores the
    scale and the sign is +1; with mixed signs the signed quadratic form
    takes over and must not vanish.
    """
    x = _check_signal(data.group, x, stacked=True)
    if np.any(np.abs(x) == 0):
        raise DomainError("scaled invariants need a fully supported signal")
    x, k = _unit_scaled(x)  # so no square leaves the double range
    if min(data.signature) >= 0:
        sign = np.ones_like(k)
        scale = _unit_norm(x)
    else:
        q = signed_quadratic(data, x)
        if np.any(q == 0.0):
            raise DomainError(
                "signed quadratic form vanishes; scale cannot be restored"
            )
        sign = np.where(q > 0, 1, -1)
        scale = np.sqrt(np.abs(q))
    unit = x / scale[..., None]
    with np.errstate(all="ignore"):  # beyond the double range: inf or nan
        values = np.ldexp(scale, k)[..., None] * np.prod(unit[..., None, :] ** data.float_block.T, axis=-1)
    return (sign, values) if x.ndim == 2 else (int(sign), values)


@dataclass(frozen=True, eq=False)
class CounterexampleResult:
    lambda_y: float
    scaled: np.ndarray
    twisted: np.ndarray
    g_gap: float
    orbit_distance: float


def construct_counterexample(data: HermiteData, y) -> CounterexampleResult:
    """Find the second unit-norm-preserving scale and the twisted signal it
    collides with under the unsigned scale-restored map.

    The twist multiplies coordinate k by lambda^scaling_k, which multiplies
    every row-read Laurent component by exactly lambda; the scaled signal
    lambda*y matches that because the map is homogeneous of degree one.  The
    two signals sit in different orbits (their coordinate moduli differ), so
    the collision certifies that the quadratic-form sign is a necessary
    measurement, not a redundancy.
    """
    y = _check_signal(data.group, y)
    if min(data.signature) >= 0:
        raise DomainError(
            "scaling vector is nonnegative; every scale collision forces lambda = 1"
        )
    if np.any(np.abs(y) == 0):
        raise DomainError("counterexample seed signal must have full support")
    if abs(_norm(y) - 1.0) > 1e-9:
        raise DomainError("counterexample seed signal must have unit norm")
    if signed_quadratic(data, y) <= 0:
        raise DomainError("counterexample seed signal needs a positive quadratic form")

    # In t = log(lambda) the scale condition reads p(t) = sum_k |y_k|^2 e^(2 c_k t) - 1 = 0.
    # p is convex with p(0) = ||y||^2 - 1 = 0: negative between its two roots and
    # positive beyond them, so the second root lies on the side where p falls at 0.
    weights = np.abs(y) ** 2
    exps = np.array([2.0 * float(c) for c in data.scaling])

    def poly(t: float) -> float:
        return float(np.dot(weights, np.exp(exps * t))) - 1.0

    slope = float(np.dot(weights, exps))  # p'(0)
    inner, outer = 0.0, -math.copysign(9.0 * math.log(10.0), slope)
    # Exponentials toward the far end overflow to inf, which still compares as positive.
    with np.errstate(over="ignore"):
        if slope == 0 or not poly(outer) > 0:
            raise DomainError("no second root of the scale polynomial in [1e-9, 1e9]")
        while abs(outer - inner) > 1e-12:
            mid = 0.5 * (inner + outer)
            if poly(mid) > 0:
                outer = mid
            else:
                inner = mid
    lambda_y = math.exp(0.5 * (inner + outer))
    if abs(lambda_y - 1.0) <= 2e-3:
        raise DomainError("second root degenerate against lambda = 1; reseed")

    twist = np.array([lambda_y ** float(c) for c in data.scaling])
    twisted = twist * y
    scaled = lambda_y * y

    def unsigned_map(w):
        norm = _norm(w)
        with np.errstate(all="ignore"):
            return norm * np.prod((w / norm) ** data.float_block, axis=-1)

    g_gap = float(_norm(unsigned_map(scaled) - unsigned_map(twisted)))
    distance = orbit_distance(data.group, scaled, twisted).distance
    if g_gap > COLLISION_TOL:
        raise InternalCheckError(f"collision gap {g_gap} exceeds {COLLISION_TOL}")
    if distance <= SEPARATION_FLOOR:
        raise InternalCheckError(
            f"counterexample pair is orbit-close (d = {distance})"
        )
    return CounterexampleResult(
        lambda_y=lambda_y,
        scaled=scaled,
        twisted=twisted,
        g_gap=g_gap,
        orbit_distance=distance,
    )


def hermite_as_dict(data: HermiteData) -> dict:
    """JSON-ready view: integers stay integers, rationals become exact
    strings, matrices become row lists."""
    out = {
        "orders": list(data.group.orders),
        "inv_exponents": [list(row) for row in data.inv_exponents],
        "scaling": [str(c) for c in data.scaling],
        "signature": list(data.signature),
    }
    if data.multiplier is not None:
        out["multiplier"] = [list(row) for row in data.multiplier]
        out["hermite"] = [list(row) for row in data.hermite]
    return out
