"""Minimal invariant monomial exponents, and the exact lattice core they share
with the Hermite code and the orbit metric.

For a diagonal action the monomial x_{k1}^{e1} * ... * x_{kt}^{et} is invariant
exactly when sum_j e_j * chi_{k_j} lies in the order lattice P spanned by the
vectors p_i * e_i, where chi_k is column k of the character matrix.  Per
coordinate subset of size <= 3 this module computes the minimal such exponent
tuple (minimal leading exponent, then lexicographically smallest completion),
which together define the separating monomial map.  Two paths build the same
table:

- The lattice path, exact for any orders.  The tuple is the first column of
  the column Hermite form of the subset's invariant lattice, read off the
  Hermite bases of the lattices Lambda(ks) = span(chi_ks) + P.  Its cost, one
  congruence step per basis row per subset member, depends on N and s but
  not on the size of the orders.
- The discrete-log path.  K, the elements of G fixing every coordinate, acts
  trivially, so a monomial is invariant under G exactly when it is invariant
  under Q = G/K, and the tuple becomes discrete logarithms in Q, numpy
  gathers over its |Q| elements.  Its cost grows with |Q| and with the
  number of divisors of Q's exponent.

build_exponent_table picks the cheaper path from counts in Python ints,
before any int64 array is built.  Groups too small to repay the fixed cost of
the discrete-log path stay on the lattice without compiling Q.

compile_quotient compiles Q, once per group in the group's plan, for the
table and the orbit metric alike: phase_generators splits it into cyclic
factors by diagonalizing the phase-step matrix with the same reduction.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DimensionError, DomainError
from .groups import GroupSpec, _phase_rows


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
    s, n = len(group.orders), group.dim
    t = [list(column) for column in zip(*_phase_rows(group))]
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


class Quotient(NamedTuple):
    """A group's faithful quotient Q = G/K, split into cyclic factors of
    orders d_j > 1 (or just 1), ascending, in exact integers.  group is Q;
    lift has one row per factor, an element of G generating it; kernel is
    the s x s lower-triangular Hermite basis, one vector per column, of K',
    the elements of Z^s acting trivially.  Rows are tuples of Python ints."""

    group: GroupSpec
    lift: tuple
    kernel: tuple


def faithful_quotient(group: GroupSpec) -> Quotient:
    """G/K, compiled once per group in its plan (orbitsep.plan)."""
    from .plan import plan  # the plan module imports this one
    return plan(group).quotient


def compile_quotient(group: GroupSpec) -> Quotient:
    """G/K in exact integers, so any group compiles.  With (sigma, R) =
    phase_generators(group), G/K is the direct sum of the cyclic groups
    generated by the columns g_j of R, of orders d_j = L / gcd(L, sigma_j),
    and K' is spanned by the vectors d_j * g_j."""
    L, s = group.phase_lcm, group.num_generators
    sigma, R = phase_generators(group)
    d = [L // math.gcd(L, x) for x in sigma]
    kernel = [[x * d_j for x, d_j in zip(row, d)] for row in R]
    _reduce(kernel, s)
    keep = sorted((j for j in range(s) if d[j] > 1), key=d.__getitem__) or [0]
    # R's entries can exceed int64: reduce them mod the orders first.
    lift = tuple(tuple(R[i][j] % p for i, p in enumerate(group.orders)) for j in keep)
    # Factor j turns each coordinate by a multiple of L / d_j: its exponent.
    columns = tuple(zip(*_phase_rows(group)))
    exponents = tuple(
        tuple(sum(x * y for x, y in zip(g, column)) % L * d[j] // L for column in columns)
        for g, j in zip(lift, keep)
    )
    return Quotient(GroupSpec(tuple(d[j] for j in keep), exponents), lift, tuple(map(tuple, kernel)))


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
    def gather(self):
        """(steps, passes), decided once: how the transforms gather each factor
        z_k ** e.  A grid table (nonnegative int64 exponents, and fewer powers
        N * (top + 1) than factors) has steps 0 .. top in float64 and takes a
        factor from the powers z_k ** steps at k * (top + 1) + e; otherwise
        steps is None and a factor is z_k taken at k and powered by float e.
        passes holds (block, rows, columns, index, exps) per _PASS_ROWS rows of
        a block: its rows, their output columns, the gather index and the float
        exponents (None on a grid), all read-only."""
        exponents = [exps for _, exps in self.arrays]
        top = max(int(exps.max()) for exps in exponents if exps.size)
        grid = all(exps.dtype == np.int64 and not (exps < 0).any() for exps in exponents) and (
            self.group.dim * (top + 1) < sum(exps.size for exps in exponents))
        blocks = [(_read_only(k * (top + 1) + e), None) if grid else (k, float_exponents(e)) for k, e in self.arrays]
        passes, start = [], 0
        for block, (index, exps) in enumerate(blocks):
            for lo in range(0, len(index), _PASS_ROWS):
                rows = slice(lo, min(lo + _PASS_ROWS, len(index)))
                columns = slice(start + lo, start + rows.stop)
                passes.append((block, rows, columns, index[rows], None if grid else exps[rows]))
            start += len(index)
        return (_read_only(np.arange(top + 1, dtype=float)) if grid else None), tuple(passes)


_PASS_ROWS = 1 << 11  # table rows per pass of the transforms' factor gather
# Triples, or table entries, handled per numpy pass of the discrete-log
# path; larger blocks raised the peak RSS of shift 8x8 and ran no faster.
_BLOCK = 1 << 13
# The route, fitted to timings of both paths on 650 tables: the fresh-groups
# tables of seeds 1 and 2, shift 2x3 to 8x8 and cyclic 16 to 64 (2 cores,
# Python 3.11, numpy 2.4).  The lattice path took about 3.6 us per congruence
# step, one per basis row per subset member, s * (N + 2P + 3T) in all.  The
# discrete-log path took about 0.3 ms plus 5 to 30 ns per gather.  So one
# step is worth about _GATHERS_PER_STEP gathers, and the fixed cost about
# _SETUP_STEPS steps; without it the groups with N <= 4 went to the slower path.
_GATHERS_PER_STEP = 50
_SETUP_STEPS = 60


def _divisors(n: int) -> list:
    low = [x for x in range(1, math.isqrt(n) + 1) if n % x == 0]
    return sorted({*low, *(n // x for x in low)})


def _by_discrete_logs(group: GroupSpec) -> bool:
    """Whether build_exponent_table takes the discrete-log path, from counts
    in Python ints: its gathers, about (N + P)|Q|s + (P + T)tau(E) with tau(E)
    the number of divisors of Q's exponent E, against the lattice path's
    congruence steps less the discrete-log path's fixed cost.  E, the lcm of
    the orders of the characters, bounds |Q| from below, so Q is compiled
    only when the estimate at |Q| = E is within budget."""
    n, s = group.dim, group.num_generators
    pairs, triples = math.comb(n, 2), math.comb(n, 3)
    budget = _GATHERS_PER_STEP * (s * (n + 2 * pairs + 3 * triples) - _SETUP_STEPS)
    if budget <= 0:
        return False
    exponent = math.lcm(*(p // math.gcd(a, p) for row, p in zip(group.exponents, group.orders) for a in row))
    if (n + pairs) * exponent * s >= budget:
        return False
    tables = (n + pairs) * faithful_quotient(group).group.group_order * s
    return tables + (pairs + triples) * len(_divisors(exponent)) < budget


def _lattice_arrays(group: GroupSpec, max_tuple_size: int) -> tuple:
    """The table's arrays from one lattice solve per subset, exact for any orders."""
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
    return tuple(arrays)


def _subsets(n: int):
    """The pairs and triples of range(n) in lexicographic order: pairs
    (p1[i], p2[i]), and triples (t1[i], p1[u[i]], p2[u[i]])."""
    p1, p2 = np.triu_indices(n, 1)
    k = np.arange(n)
    counts = (n - 1 - k) * (n - 2 - k) // 2  # triples led by k
    # The triples led by k run over the pairs after those led by k or less.
    shift = (k + 1) * n - (k + 1) * (k + 2) // 2 - (np.cumsum(counts) - counts)
    t1 = np.repeat(k, counts)
    return p1, p2, t1, np.arange(len(t1)) + np.repeat(shift, counts)


def _least_divisor(divisors, member, count: int) -> np.ndarray:
    """For each of count items, the first of the ascending divisors x with
    member(x, items) true; the last divisor must hold for every item."""
    least = np.empty(count, dtype=np.int64)
    todo = np.arange(count)
    for x in divisors:
        hit = member(x, todo)
        least[todo[hit]] = x
        todo = todo[~hit]
        if not len(todo):
            break
    return least


def _discrete_log_arrays(quotient: GroupSpec, max_tuple_size: int) -> tuple:
    """The table's arrays by group arithmetic in the quotient Q, whose order
    the route keeps far inside int64.  Coordinate k carries the element c_k of Q, column k
    of its exponents; an element is kept as its mixed-radix index.

    Singles: the order of c_k.  The least t >= 1 with t*c in a subgroup H
    divides the exponent E of Q, so only the divisors of E are tried.
    Pairs: a is the least t with t*c_k1 in <c_k2>, b the discrete log of
    -a*c_k1 to the base c_k2.  Triples: per pair (k2, k3) one table over Q
    holds, for x in <c_k2, c_k3>, the least d >= 0 with x + d*c_k2 in
    <c_k3>; c is the least t with t*c_k1 in the table, d its entry, and e
    the discrete log of -(c*c_k1 + d*c_k2) to the base c_k3."""
    n, orders = quotient.dim, quotient.orders
    size, exponent = math.prod(orders), math.lcm(*orders)
    rows = np.array(quotient.exponents, dtype=np.int64)
    strides = [math.prod(orders[j + 1:]) for j in range(len(orders))]
    # Logs and table entries are below E, so the narrowest type holding -E fits them.
    small = np.min_scalar_type(-exponent)

    def element(*terms):
        """Index of sum(t * c_k) over the (t, k) terms, elementwise."""
        index = 0
        for row, p, stride in zip(rows, orders, strides):
            index = index + sum(t * row[k] for t, k in terms) % p * stride
        return index

    k = np.arange(n, dtype=np.intp)
    multiples = element((np.arange(exponent), k[:, None]))  # [k, t]: t*c_k
    column = np.array(orders)[:, None]
    order = np.lcm.reduce(column // np.gcd(rows, column), axis=0)
    # logs[k * size + x]: the discrete log of x to the base c_k, or -1.
    logs = np.full(n * size, -1, dtype=small)
    kt = np.nonzero(np.arange(exponent) < order[:, None])
    logs[kt[0] * size + multiples[kt]] = kt[1]
    divisors = _divisors(exponent)
    p1, p2, t1, u = _subsets(n)

    a = _least_divisor(divisors, lambda x, i: logs[p2[i] * size + multiples[p1[i], x % exponent]] >= 0, len(p1))
    b = logs[p2 * size + multiples[p1, -a % exponent]]
    arrays = [(k[:, None], order[:, None]), (np.stack([p1, p2], 1), np.stack([a, b], 1))][:max_tuple_size]
    if max_tuple_size == 3:
        # steps[u * size + x]: for the pair u = (k2, k3), the least d >= 0
        # with x + d*c_k2 in <c_k3>, or -1.  The cosets x = -d*c_k2 + <c_k3>,
        # d < a[u], are distinct and make up <c_k2, c_k3>.
        steps = np.full(len(p1) * size, -1, dtype=small)
        per_block = max(1, _BLOCK // size)
        for lo in range(0, len(p1), per_block):
            pair = np.arange(lo, min(lo + per_block, len(p1)))
            cosets = a[pair] * order[p2[pair]]
            pair = np.repeat(pair, cosets)
            offset = np.arange(len(pair)) - np.repeat(np.cumsum(cosets) - cosets, cosets)
            d, h = np.divmod(offset, order[p2[pair]])
            steps[pair * size + element((-d, p1[pair]), (h, p2[pair]))] = d
        triples = np.empty((len(t1), 3), dtype=np.int64)
        for lo in range(0, len(t1), _BLOCK):
            k1, v = t1[lo:lo + _BLOCK], u[lo:lo + _BLOCK]
            c = _least_divisor(divisors, lambda x, i: steps[v[i] * size + multiples[k1[i], x % exponent]] >= 0, len(v))
            d = steps[v * size + multiples[k1, c % exponent]]
            e = logs[p2[v] * size + element((-c, k1), (-d, p1[v]))]
            triples[lo:lo + _BLOCK] = np.stack([c, d, e], 1)
        arrays.append((np.stack([t1, p1[u], p2[u]], 1), triples))
    arrays = [(_read_only(indices), _read_only(exps.astype(np.int64, copy=False))) for indices, exps in arrays]
    empty = [(_frozen([], width, np.intp), _frozen([], width, np.int64)) for width in range(len(arrays) + 1, 4)]
    return tuple(arrays + empty)


def build_exponent_table(group: GroupSpec, max_tuple_size: int = 3) -> ExponentTable:
    """Solve every subset of size <= max_tuple_size (1, 2, or 3)."""
    if max_tuple_size not in (1, 2, 3):
        raise ConfigError(
            f"max_tuple_size must be 1, 2, or 3, got {max_tuple_size}; "
            "larger tuple sizes are not supported"
        )
    if _by_discrete_logs(group):
        arrays = _discrete_log_arrays(faithful_quotient(group).group, max_tuple_size)
    else:
        arrays = _lattice_arrays(group, max_tuple_size)
    return ExponentTable(group=group, arrays=arrays)

