"""Exact Hermite-normal-form machinery and the rational invariants on top.

Integer work is arbitrary precision, rational work is exact Fraction; floats
appear only when a Laurent monomial is evaluated at a concrete signal.  The
pipeline: stack the character exponents against the negated generator orders,
reduce to column Hermite form, read the invariant Laurent exponents out of the
kernel block of the unimodular multiplier, then solve for the rational scaling
vector that makes the invariants jointly homogeneous of degree one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConfigError, DimensionError, DomainError, InternalCheckError
from .groups import GroupSpec, _check_signal, cyclic_shift_spec
from .metric import child_seed, orbit_distance, sample_pair
from .transforms import make_reduction, monomials

COLLISION_TOL = 1e-8
SEPARATION_FLOOR = 1e-3


def _as_int_rows(matrix):
    rows = [list(map(int, row)) for row in matrix]
    if not rows or any(len(row) != len(rows[0]) for row in rows):
        raise DimensionError("integer matrix must be rectangular and nonempty")
    return rows


def _extended_gcd(a: int, b: int):
    # Returns (g, u, v) with u*a + v*b = g and g >= 0.
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    if old_r < 0:
        return -old_r, -old_u, -old_v
    return old_r, old_u, old_v


def hermite_normal_form(matrix):
    """Column-style Hermite normal form: returns (H, U) with M @ U = H.

    H has positive pivots on a descending staircase, entries to the left of
    each pivot reduced into [0, pivot), zeros to the right; U is unimodular.
    Column operations only, so M @ U = H holds exactly at every step.
    """
    h = _as_int_rows(matrix)
    num_rows, num_cols = len(h), len(h[0])
    u = [[1 if r == c else 0 for c in range(num_cols)] for r in range(num_cols)]

    def combine(c1, c2, a11, a12, a21, a22):
        # (col c1, col c2) <- (a11*c1 + a12*c2, a21*c1 + a22*c2), det +-1.
        for table in (h, u):
            for row in table:
                x, y = row[c1], row[c2]
                row[c1] = a11 * x + a12 * y
                row[c2] = a21 * x + a22 * y

    def add_multiple(src, dst, factor):
        for table in (h, u):
            for row in table:
                row[dst] += factor * row[src]

    pivot_col = 0
    for row_idx in range(num_rows):
        if pivot_col >= num_cols:
            break
        for j in range(pivot_col + 1, num_cols):
            if h[row_idx][j] == 0:
                continue
            a, b = h[row_idx][pivot_col], h[row_idx][j]
            g, coef_a, coef_b = _extended_gcd(a, b)
            combine(pivot_col, j, coef_a, coef_b, -(b // g), a // g)
        if h[row_idx][pivot_col] == 0:
            continue  # rank-deficient row: pivot column stays available
        if h[row_idx][pivot_col] < 0:
            for table in (h, u):
                for row in table:
                    row[pivot_col] = -row[pivot_col]
        pivot = h[row_idx][pivot_col]
        for j in range(pivot_col):
            q = h[row_idx][j] // pivot  # floor: remainder lands in [0, pivot)
            if q:
                add_multiple(pivot_col, j, -q)
        pivot_col += 1

    freeze = lambda table: tuple(tuple(row) for row in table)
    return freeze(h), freeze(u)


def integer_determinant(matrix) -> int:
    """Exact determinant by Bareiss fraction-free elimination."""
    a = _as_int_rows(matrix)
    n = len(a)
    if len(a[0]) != n:
        raise DimensionError("determinant needs a square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def scaling_vector(block):
    """Exact rational solve of block @ c = (1, ..., 1); c as Fractions."""
    rows = _as_int_rows(block)
    n = len(rows)
    if len(rows[0]) != n:
        raise DimensionError("scaling solve needs a square exponent block")
    aug = [[Fraction(v) for v in row] + [Fraction(1)] for row in rows]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise DomainError("invariant exponent block is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = aug[col][col]
        aug[col] = [v / inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return tuple(row[n] for row in aug)


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

    def _block(self, rows, cols):
        if self.multiplier is None:
            return None
        return tuple(tuple(self.multiplier[r][c] for c in cols) for r in rows)

    @property
    def pivot_top(self):
        # N x s block: coordinate exponents paired with the Hermite pivots.
        s = len(self.group.orders)
        return self._block(range(self.dim), range(s))

    @property
    def pivot_bottom(self):
        s = len(self.group.orders)
        return self._block(range(self.dim, self.dim + s), range(s))

    @property
    def kernel_bottom(self):
        # s x N block: order multipliers certifying each column's invariance.
        s = len(self.group.orders)
        return self._block(range(self.dim, self.dim + s), range(s, s + self.dim))


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


def hermite_multiplier(group: GroupSpec) -> HermiteData:
    """Hermite-reduce the stacked exponents/orders matrix and package the
    invariant exponent block, its exact scaling vector, and the signature.

    Raises InternalCheckError if any defining identity fails: the reduction
    must leave a zero block of width N, a unimodular multiplier, exactly
    invariant columns, and a nonsingular exponent block.
    """
    n, s = group.dim, len(group.orders)
    stacked = [
        list(group.exponents[i]) + [-group.orders[i] if j == i else 0 for j in range(s)]
        for i in range(s)
    ]
    h_full, u = hermite_normal_form(stacked)
    if any(h_full[i][j] != 0 for i in range(s) for j in range(s, s + n)):
        raise InternalCheckError("Hermite reduction left a nonzero tail block")
    hermite = tuple(tuple(row[:s]) for row in h_full)
    if abs(integer_determinant(u)) != 1:
        raise InternalCheckError("column-operations matrix is not unimodular")
    block = tuple(tuple(u[r][c] for c in range(s, s + n)) for r in range(n))
    _column_invariance_exact(group, block)
    try:
        scaling = scaling_vector(block)
    except DomainError as exc:
        raise InternalCheckError("invariant exponent block is singular") from exc
    signature = tuple((c > 0) - (c < 0) for c in scaling)
    return HermiteData(
        group=group,
        inv_exponents=block,
        scaling=scaling,
        signature=signature,
        multiplier=u,
        hermite=hermite,
    )


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
    group = cyclic_shift_spec(n)
    block = cyclic_fixture_block(n)
    _column_invariance_exact(group, block)
    scaling = scaling_vector(block)
    signature = tuple((c > 0) - (c < 0) for c in scaling)
    return HermiteData(
        group=group, inv_exponents=block, scaling=scaling, signature=signature
    )


@dataclass(frozen=True, eq=False)
class RationalInvariantResult:
    values: np.ndarray
    domain_ok: bool


def eval_rational_invariants(data: HermiteData, z) -> RationalInvariantResult:
    """Evaluate the invariant Laurent monomials (one per column).

    A zero coordinate hit by a negative exponent poles the component: its
    value is reported as 0 and domain_ok turns false.  A zero hit only by
    positive exponents just zeroes the component.  Overflow to non-finite
    also clears domain_ok.
    """
    z = _check_signal(data.group, z)
    exps = np.array(data.inv_exponents, dtype=float).T
    poled = ((z == 0) & (exps < 0)).any(axis=1)
    annihilated = ((z == 0) & (exps > 0)).any(axis=1)
    values = monomials(z, np.arange(data.dim), exps)
    values[poled | annihilated] = 0
    domain_ok = not poled.any() and bool(np.isfinite(values).all())
    return RationalInvariantResult(values=values, domain_ok=domain_ok)


def signed_quadratic(data: HermiteData, x) -> float:
    """Sum of sign(scaling_k) * |x_k|^2.

    Equals ||x||^2 when every scaling entry is positive; zero entries drop
    their coordinate from the sum.
    """
    x = _check_signal(data.group, x)
    moduli_sq = np.abs(x) ** 2
    return float(sum(s * m for s, m in zip(data.signature, moduli_sq)))


def eval_scaled_invariants(data: HermiteData, x):
    """The sign of the quadratic form plus the scale-restored invariants:
    (sign, sqrt|q| * (x/sqrt|q|)^columns).  Needs full support.

    With a nonnegative scaling vector the plain norm restores the scale and
    the sign is +1; with mixed signs the signed quadratic form takes over and
    must not vanish.
    """
    x = _check_signal(data.group, x)
    if np.any(np.abs(x) == 0):
        raise DomainError("scaled invariants need a fully supported signal")
    if min(data.scaling) >= 0:
        sign = 1
        scale = float(np.linalg.norm(x))
    else:
        q = signed_quadratic(data, x)
        if q == 0.0:
            raise DomainError(
                "signed quadratic form vanishes; scale cannot be restored"
            )
        sign = 1 if q > 0 else -1
        scale = math.sqrt(abs(q))
    exps = np.array(data.inv_exponents, dtype=float).T
    return sign, scale * monomials(x / scale, np.arange(data.dim), exps)


@dataclass(frozen=True, eq=False)
class CounterexampleResult:
    lambda_y: float
    scaled: np.ndarray
    twisted: np.ndarray
    g_gap: float
    orbit_distance: float


def _scale_collision_poly(scaling, weights):
    exps = np.array([2.0 * float(c) for c in scaling])

    def poly(lam: float) -> float:
        return float(np.dot(weights, lam**exps) - 1.0)

    return exps, poly


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
    if min(data.scaling) >= 0:
        raise DomainError(
            "scaling vector is nonnegative; every scale collision forces lambda = 1"
        )
    if np.any(np.abs(y) == 0):
        raise DomainError("counterexample seed signal must have full support")
    if abs(np.linalg.norm(y) - 1.0) > 1e-9:
        raise DomainError("counterexample seed signal must have unit norm")
    if signed_quadratic(data, y) <= 0:
        raise DomainError("counterexample seed signal needs a positive quadratic form")

    weights = np.abs(y) ** 2
    exps, poly = _scale_collision_poly(data.scaling, weights)
    slope_at_one = float(np.dot(weights, exps))  # poly'(1)
    grid = np.logspace(-9.0, 9.0, 3601)
    values = np.power(grid[:, None], exps[None, :]) @ weights - 1.0

    bracket = None
    if slope_at_one > 0:
        # Convexity puts the second root below 1: poly > 0 near 0, < 0 near 1.
        below = grid < 1.0
        idx = np.nonzero(below[:-1] & (values[:-1] > 0) & (values[1:] <= 0))[0]
        if idx.size:
            bracket = (float(grid[idx[0]]), float(grid[idx[0] + 1]), +1)
    elif slope_at_one < 0:
        above = grid > 1.0
        idx = np.nonzero(above[1:] & (values[:-1] <= 0) & (values[1:] > 0))[0]
        if idx.size:
            bracket = (float(grid[idx[-1]]), float(grid[idx[-1] + 1]), -1)
    if bracket is None:
        raise DomainError("no second root of the scale polynomial in [1e-9, 1e9]")

    lo, hi, lo_sign = bracket
    while hi - lo > 1e-12 * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if (poly(mid) > 0) == (lo_sign > 0):
            lo = mid
        else:
            hi = mid
    lambda_y = 0.5 * (lo + hi)
    if abs(lambda_y - 1.0) <= 2e-3:
        raise DomainError("second root degenerate against lambda = 1; reseed")

    twist = np.array([lambda_y ** float(c) for c in data.scaling])
    twisted = twist * y
    scaled = lambda_y * y

    def unsigned_map(w):
        norm = float(np.linalg.norm(w))
        exps = np.array(data.inv_exponents, dtype=float)
        return norm * monomials(w / norm, np.arange(data.dim), exps)

    g_gap = float(np.linalg.norm(unsigned_map(scaled) - unsigned_map(twisted)))
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


def ae_projection_check(
    group: GroupSpec,
    polymap,
    out_dim: int,
    seed,
    samples: int,
    kind: str = "random",
    tol: float = 1e-9,
) -> dict:
    """Empirical check that a seeded generic linear reduction of an invariant
    polynomial map still separates: counts pairs that collide after reduction
    yet sit in distinct orbits.  out_dim below dim+2 leaves the generic
    separation theorem's contract, which is flagged, not fatal."""
    samples = int(samples)
    if samples < 1:
        raise ConfigError("samples must be positive")
    probe = np.asarray(polymap(np.ones(group.dim, dtype=complex)))
    poly_dim = int(probe.size)
    reduction_seed = seed if isinstance(seed, int) else abs(hash(tuple(seed)))
    ell = make_reduction(reduction_seed, poly_dim, out_dim)
    collisions = 0
    violations = 0
    for i in range(samples):
        x, y = sample_pair(group, kind, child_seed(seed, i))
        px = ell.matrix @ np.asarray(polymap(x))
        py = ell.matrix @ np.asarray(polymap(y))
        ref = max(1.0, float(np.linalg.norm(px)), float(np.linalg.norm(py)))
        if float(np.linalg.norm(px - py)) <= tol * ref:
            collisions += 1
            if orbit_distance(group, x, y).distance > 1e-6:
                violations += 1
    return {
        "out_dim": int(out_dim),
        "poly_dim": poly_dim,
        "in_contract": bool(out_dim >= group.dim + 2),
        "kind": kind,
        "samples": samples,
        "collisions": collisions,
        "violations": violations,
        "seed": seed,
        "tolerance": tol,
    }


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
