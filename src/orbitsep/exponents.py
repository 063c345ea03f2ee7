"""Minimal invariant monomial exponents, and the exact lattice core they share
with the Hermite code and the orbit metric.

For a diagonal action the monomial x_{k1}^{e1} * ... * x_{kt}^{et} is invariant
exactly when sum_j e_j * chi_{k_j} lies in the order lattice P spanned by the
vectors p_i * e_i, where chi_k is column k of the character matrix.  Per
coordinate subset of size <= 3 this module computes the minimal such exponent
tuple (minimal leading exponent, then lexicographically smallest completion),
which together define the separating monomial map.  The tuple is the first
column of the column Hermite form of the subset's invariant lattice, read off
the Hermite bases of the lattices Lambda(ks) = span(chi_ks) + P, so the cost
depends on N and s but not on the size of the orders.

The orbit metric needs G/K, the image of G in the unitary group (K fixes every
coordinate); phase_generators splits it into cyclic factors by diagonalizing
the phase-step matrix with the same reduction.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, DomainError
from .groups import GroupSpec


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


def _reduce(rows, height: int) -> None:
    """Column Hermite reduction, in place, of the first height rows; every
    column operation also acts on the rows below, which ride along.  Each one
    is a Bezout step (det 1), a sign flip (det -1) or a shear (det 1)."""
    num_cols = len(rows[0])
    pivot_col = 0
    for h_row in rows[:height]:
        if pivot_col >= num_cols:
            break
        for j in range(pivot_col + 1, num_cols):
            if h_row[j] == 0:
                continue
            a, b = h_row[pivot_col], h_row[j]
            g, a11, a12 = _extended_gcd(a, b)
            a21, a22 = -(b // g), a // g
            # (pivot, j) <- (a11*pivot + a12*j, a21*pivot + a22*j), det 1.
            for row in rows:
                x, y = row[pivot_col], row[j]
                row[pivot_col] = a11 * x + a12 * y
                row[j] = a21 * x + a22 * y
        if h_row[pivot_col] == 0:
            continue  # rank-deficient row: pivot column stays available
        if h_row[pivot_col] < 0:
            for row in rows:
                row[pivot_col] = -row[pivot_col]
        pivot = h_row[pivot_col]
        for j in range(pivot_col):
            q = h_row[j] // pivot  # floor: remainder lands in [0, pivot)
            if q:
                for row in rows:
                    row[j] -= q * row[pivot_col]
        pivot_col += 1


def hermite_normal_form(matrix):
    """Column-style Hermite normal form: returns (H, U) with M @ U = H.

    H has positive pivots on a descending staircase, entries to the left of
    each pivot reduced into [0, pivot), zeros to the right; U is unimodular.
    Column operations only, so M @ U = H holds exactly at every step.
    """
    h = _as_int_rows(matrix)
    num_cols = len(h[0])
    u = [[1 if r == c else 0 for c in range(num_cols)] for r in range(num_cols)]
    _reduce(h + u, len(h))  # U rides along under M
    freeze = lambda table: tuple(tuple(row) for row in table)
    return freeze(h), freeze(u)


def _stacked(group: GroupSpec, ks):
    """[chi_ks | -diag(orders)]: the character columns of the coordinates ks
    beside the negated generator orders, one row per generator."""
    s = len(group.orders)
    return [
        [row[k] for k in ks] + [-p if j == i else 0 for j in range(s)]
        for i, (row, p) in enumerate(zip(group.exponents, group.orders))
    ]


def _basis(group: GroupSpec, ks):
    """Lambda(ks): the s x s lower-triangular Hermite basis, one lattice vector
    per column, of the lattice spanned by chi_ks and the order vectors."""
    rows = _stacked(group, ks)
    _reduce(rows, len(rows))
    return tuple(tuple(row[:len(rows)]) for row in rows)


def phase_generators(group: GroupSpec):
    """(sigma, R): integers sigma and a unimodular s x s R whose column g_j
    has the phase vector g_j @ phase_steps(group) = sigma_j * w_j, the w_j of
    nonzero sigma_j distinct columns of one unimodular N x N matrix.  So the
    g_j split G/K into cyclic factors of orders L / gcd(L, sigma_j).  Column
    reductions of phase_steps(group).T (R rides below) alternate with those
    of its transpose until every row and column holds at most one nonzero."""
    s, n, L = len(group.orders), group.dim, group.phase_lcm
    t = [[(L // p) * a for a, p in zip(column, group.orders)] for column in zip(*group.exponents)]
    t += [[int(i == j) for j in range(s)] for i in range(s)]
    while True:
        _reduce(t, n)
        if all(sum(map(bool, line)) <= 1 for line in (*t[:n], *zip(*t[:n]))):
            break
        transposed = [list(col) for col in zip(*t[:n])]
        _reduce(transposed, s)
        t[:n] = [list(col) for col in zip(*transposed)]
    sigma = tuple(next(filter(None, col), 0) for col in zip(*t[:n]))
    return sigma, tuple(map(tuple, t[n:]))


def _solve_congruence(w: int, r: int, p: int):
    """Solutions of w*t = r (mod p) as (t0, q) meaning t = t0 (mod q) with
    0 <= t0 < q, or None."""
    g = math.gcd(w, p)
    if r % g:
        return None
    q = p // g
    return (r // g) * pow(w // g, -1, q) % q, q


def _solve(v, w, basis):
    """{t : v + t*w in the lattice of basis} as (t0, q), t = t0 (mod q) with
    0 <= t0 < q, or None when the set is empty.

    One sweep down the triangular basis: row i fixes t modulo a growing q so
    that the residual's row-i entry is a multiple of the pivot, and that
    multiple of pivot column i clears it from the rows below.  The residual
    is kept as r0 + u*r1 for t = t0 + q*u.
    """
    r0, r1 = list(v), list(w)
    t0, q = 0, 1
    for i, pivot_row in enumerate(basis):
        pivot = pivot_row[i]
        row = _solve_congruence(r1[i], -r0[i], pivot)
        if row is None:
            return None
        u, step = row
        t0, q = t0 + q * u, q * step
        x0, x1 = (r0[i] + u * r1[i]) // pivot, step * r1[i] // pivot
        for j in range(i + 1, len(basis)):
            c = basis[j][i]
            r0[j] += u * r1[j] - x0 * c
            r1[j] = step * r1[j] - x1 * c
    return t0, q


def _check_index(group: GroupSpec, k: int) -> int:
    k = int(k)
    if not 0 <= k < group.dim:
        raise DimensionError(
            f"coordinate index {k} out of range for dimension {group.dim}"
        )
    return k


def _minimal(columns, ks, basis) -> tuple:
    """Minimal exponent tuple of the subset ks: columns[k] is chi_k and
    basis(sub) returns Lambda(sub).

    The leading exponent is the least t >= 1 with t*chi_k1 in Lambda(ks[1:]).
    Each later exponent is the least t >= 0 that puts the running sum plus
    t*chi_kj into Lambda(ks[j+1:]), the last one into the order lattice.
    """
    exps, total = [], [0] * len(columns[0])
    for j, k in enumerate(ks):
        t0, q = _solve(total, columns[k], basis(ks[j + 1:]))
        t = t0 if exps else q
        exps.append(t)
        total = [a + t * w for a, w in zip(total, columns[k])]
    return tuple(exps)


def _minimal_of(group: GroupSpec, ks) -> tuple:
    ks = tuple(_check_index(group, k) for k in ks)
    if len(set(ks)) != len(ks):
        raise DimensionError(f"subset indices must be distinct, got {ks}")
    return _minimal(tuple(zip(*group.exponents)), ks, functools.partial(_basis, group))


def minimal_single(group: GroupSpec, k: int) -> int:
    """Least m >= 1 making x_k^m invariant: lcm over rows of p_i / gcd(A[i][k], p_i)."""
    return _minimal_of(group, (k,))[0]


def minimal_pair(group: GroupSpec, k1: int, k2: int):
    """Least a >= 1 admitting b with x_{k1}^a x_{k2}^b invariant; b minimal in [0, m_{k2})."""
    return _minimal_of(group, (k1, k2))


def minimal_triple(group: GroupSpec, k1: int, k2: int, k3: int):
    """Least c >= 1 admitting (d, e); (d, e) lexicographically smallest in range."""
    return _minimal_of(group, (k1, k2, k3))


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False  # cached tables share their arrays
    return array


def float_exponents(exponents) -> np.ndarray:
    """Exact integer exponents as a read-only float64 array, each rounded to
    the nearest double; one beyond the double range raises DomainError."""
    try:
        return _read_only(np.array(exponents, dtype=float))
    except OverflowError as exc:
        raise DomainError(f"invariant exponent beyond the double range: {exc}") from exc


def _frozen(rows, size: int, dtype) -> np.ndarray:
    """rows as a read-only (count, size) array; exponents that do not fit
    int64 are kept as Python ints in an object array, never rounded."""
    try:
        array = np.array(rows, dtype=dtype)
    except OverflowError:
        array = np.array(rows, dtype=object)
    return _read_only(array.reshape(-1, size))


@dataclass(frozen=True, eq=False)
class ExponentTable:
    """Minimal invariant exponents for every coordinate subset up to size 3.

    arrays holds one read-only (indices, exponents) pair per subset size 1,
    2 and 3, each of shape (count, size): intp indices and exact integer
    exponents (int64, or Python ints where int64 would overflow).  Component
    order is fixed: singles by ascending coordinate, then pairs in
    lexicographic index order, then triples likewise.  All indices 0-based.
    """

    group: GroupSpec
    arrays: tuple

    @property
    def total_dim(self) -> int:
        return sum(len(indices) for indices, _ in self.arrays)

    def components(self):
        """Yield (indices, exponents) per component as tuples of Python ints,
        in the fixed output order."""
        for indices, exponents in self.arrays:
            yield from zip(map(tuple, indices.tolist()), map(tuple, exponents.tolist()))

    @functools.cached_property
    def blocks(self) -> tuple:
        """arrays with float64 exponents, the form the transform kernel takes."""
        return tuple((indices, float_exponents(exponents)) for indices, exponents in self.arrays)


def build_exponent_table(group: GroupSpec, max_tuple_size: int = 3) -> ExponentTable:
    """Solve every subset of size <= max_tuple_size (1, 2, or 3)."""
    if max_tuple_size not in (1, 2, 3):
        raise ConfigError(
            f"max_tuple_size must be 1, 2, or 3, got {max_tuple_size}; "
            "larger tuple sizes are not supported"
        )
    # Lambda of each suffix subset, computed once per table.
    basis = functools.cache(functools.partial(_basis, group))
    columns = tuple(zip(*group.exponents))
    arrays = []
    for size in (1, 2, 3):
        subsets = []
        if size <= max_tuple_size:
            subsets = list(itertools.combinations(range(group.dim), size))
        exponents = [_minimal(columns, ks, basis) for ks in subsets]
        arrays.append((_frozen(subsets, size, np.intp), _frozen(exponents, size, np.int64)))
    return ExponentTable(group=group, arrays=tuple(arrays))


def table_as_dict(table: ExponentTable) -> dict:
    """JSON-ready view: {"singles": [...], "pairs": {"k1,k2": [a, b]}, ...}."""
    (_, singles), *tuples = table.arrays
    pairs, triples = (
        {",".join(map(str, ks)): exps for ks, exps in zip(indices.tolist(), exponents.tolist())}
        for indices, exponents in tuples
    )
    return {
        "singles": singles[:, 0].tolist(),
        "pairs": pairs,
        "triples": triples,
        "total_dim": table.total_dim,
    }
