"""Minimal invariant monomial exponents: singles, pairs, and triples.

For a diagonal action the monomial x_{k1}^{e1} * ... * x_{kt}^{et} is invariant
exactly when sum_j e_j * exponents[i][k_j] = 0 mod orders[i] for every
generator row i.  This module computes, per coordinate subset of size <= 3,
the minimal such exponent tuple (minimal leading exponent, then
lexicographically smallest completion), which together define the separating
monomial map.  oracle_minimal re-derives the same tuples by exhaustive search
and exists for validation only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError
from .groups import GroupSpec

# One row of the congruence system: coefficient, right-hand side, modulus.


def _solve_congruence(w: int, r: int, p: int):
    """Solutions of w*t = r (mod p) as (t0, q) meaning t = t0 (mod q), or None."""
    w %= p
    r %= p
    g = math.gcd(w, p)
    if r % g:
        return None
    q = p // g
    if q == 1:
        return (0, 1)
    t0 = (r // g) * pow(w // g, -1, q) % q
    return (t0, q)


def _merge_congruences(a1: int, q1: int, a2: int, q2: int):
    """Intersect t = a1 (mod q1) with t = a2 (mod q2), or None if incompatible."""
    g = math.gcd(q1, q2)
    if (a2 - a1) % g:
        return None
    lcm = q1 // g * q2
    if q2 == g:
        return (a1 % lcm, lcm)
    step = (a2 - a1) // g * pow(q1 // g, -1, q2 // g) % (q2 // g)
    return ((a1 + q1 * step) % lcm, lcm)


def _solve_rows(coeffs, rhs, orders):
    """Smallest t >= 0 with coeffs[i]*t = rhs[i] (mod orders[i]) for all i, or None.

    The solution set is a single residue class mod lcm of the per-row moduli,
    so the returned representative is the global minimum.
    """
    t, q = 0, 1
    for w, r, p in zip(coeffs, rhs, orders):
        row = _solve_congruence(w, r, p)
        if row is None:
            return None
        merged = _merge_congruences(t, q, row[0], row[1])
        if merged is None:
            return None
        t, q = merged
    return t


def _check_index(group: GroupSpec, k: int) -> int:
    k = int(k)
    if not 0 <= k < group.dim:
        raise DimensionError(
            f"coordinate index {k} out of range for dimension {group.dim}"
        )
    return k


def _column(group: GroupSpec, k: int):
    return [row[k] for row in group.exponents]


def minimal_single(group: GroupSpec, k: int) -> int:
    """Least m >= 1 making x_k^m invariant: lcm over rows of p_i / gcd(A[i][k], p_i)."""
    k = _check_index(group, k)
    return math.lcm(
        *(p // math.gcd(row[k], p) for row, p in zip(group.exponents, group.orders))
    )


def minimal_pair(group: GroupSpec, k1: int, k2: int):
    """Least a >= 1 admitting b with x_{k1}^a x_{k2}^b invariant; b minimal in [0, m_{k2})."""
    k1, k2 = _check_index(group, k1), _check_index(group, k2)
    if k1 == k2:
        raise DimensionError("pair indices must be distinct")
    col1, col2 = _column(group, k1), _column(group, k2)
    orders = group.orders
    for a in range(1, minimal_single(group, k1) + 1):
        rhs = [(-a * w) % p for w, p in zip(col1, orders)]
        b = _solve_rows(col2, rhs, orders)
        if b is not None:
            return (a, b)
    raise AssertionError("unreachable: a = m_k1 always admits b = 0")


def minimal_triple(group: GroupSpec, k1: int, k2: int, k3: int):
    """Least c >= 1 admitting (d, e); (d, e) lexicographically smallest in range."""
    k1, k2, k3 = (_check_index(group, k) for k in (k1, k2, k3))
    if len({k1, k2, k3}) != 3:
        raise DimensionError("triple indices must be distinct")
    col1, col2, col3 = (_column(group, k) for k in (k1, k2, k3))
    orders = group.orders
    m2 = minimal_single(group, k2)
    for c in range(1, minimal_single(group, k1) + 1):
        base = [(-c * w) % p for w, p in zip(col1, orders)]
        # Feasible d values repeat with period m_k2, so [0, m_k2) is a full scan.
        for d in range(m2):
            rhs = [(r - d * w) % p for r, w, p in zip(base, col2, orders)]
            e = _solve_rows(col3, rhs, orders)
            if e is not None:
                return (c, d, e)
    raise AssertionError("unreachable: c = m_k1 always admits d = e = 0")


@dataclass(frozen=True)
class ExponentTable:
    """Minimal invariant exponents for every coordinate subset up to size 3.

    Component order is fixed: singles by ascending coordinate, then pairs in
    lexicographic index order, then triples likewise.  All indices 0-based.
    """

    group: GroupSpec
    singles: tuple
    pairs: dict = field(default_factory=dict)
    triples: dict = field(default_factory=dict)

    @property
    def total_dim(self) -> int:
        return len(self.singles) + len(self.pairs) + len(self.triples)

    def components(self):
        """Yield (indices, exponents) per component, in the fixed output order."""
        for k, m in enumerate(self.singles):
            yield (k,), (m,)
        for idx, exps in self.pairs.items():
            yield idx, exps
        for idx, exps in self.triples.items():
            yield idx, exps

    @functools.cached_property
    def blocks(self) -> tuple:
        """Singles, pairs and triples as (indices, exponents) array pairs of
        shape (count, size), in component order; exponents are float64."""
        singles = {(k,): (m,) for k, m in enumerate(self.singles)}
        parts = (singles, self.pairs, self.triples)
        return tuple(
            (np.array(list(part), dtype=np.intp).reshape(-1, size),
             np.array(list(part.values()), dtype=float).reshape(-1, size))
            for size, part in enumerate(parts, start=1)
        )


def build_exponent_table(group: GroupSpec, max_tuple_size: int = 3) -> ExponentTable:
    """Solve every subset of size <= max_tuple_size (1, 2, or 3)."""
    if max_tuple_size not in (1, 2, 3):
        raise ConfigError(
            f"max_tuple_size must be 1, 2, or 3, got {max_tuple_size}; "
            "larger tuple sizes are not supported"
        )
    n = group.dim
    singles = tuple(minimal_single(group, k) for k in range(n))
    pairs = {}
    triples = {}
    if max_tuple_size >= 2:
        for k1 in range(n):
            for k2 in range(k1 + 1, n):
                pairs[(k1, k2)] = minimal_pair(group, k1, k2)
    if max_tuple_size >= 3:
        for k1 in range(n):
            for k2 in range(k1 + 1, n):
                for k3 in range(k2 + 1, n):
                    triples[(k1, k2, k3)] = minimal_triple(group, k1, k2, k3)
    return ExponentTable(group=group, singles=singles, pairs=pairs, triples=triples)


def table_as_dict(table: ExponentTable) -> dict:
    """JSON-ready view: {"singles": [...], "pairs": {"k1,k2": [a, b]}, ...}."""
    return {
        "singles": list(table.singles),
        "pairs": {
            ",".join(map(str, idx)): list(exps) for idx, exps in table.pairs.items()
        },
        "triples": {
            ",".join(map(str, idx)): list(exps) for idx, exps in table.triples.items()
        },
        "total_dim": table.total_dim,
    }


def _packed_residues(rows, orders):
    """Pack per-row residue arrays into single mixed-radix integer keys."""
    key = np.zeros_like(rows[0], dtype=np.int64)
    scale = 1
    for residues, p in zip(rows, orders):
        key += scale * residues
        scale *= p
    return key


def oracle_minimal(group: GroupSpec, subset):
    """Exhaustive-search minimum over exponents in [0, lcm of orders]; tests only.

    Same search order as the solver (leading exponent, then lex completion),
    implemented as a batched scan with no congruence reasoning.
    """
    subset = tuple(_check_index(group, k) for k in subset)
    if not 1 <= len(subset) <= 3:
        raise ConfigError(f"oracle supports subsets of size 1..3, got {len(subset)}")
    if len(set(subset)) != len(subset):
        raise DimensionError("subset indices must be distinct")
    L = group.phase_lcm
    orders = np.array(group.orders, dtype=np.int64)[:, None]
    cols = [np.array(_column(group, k), dtype=np.int64)[:, None] for k in subset]

    if len(subset) == 1:
        exps = np.arange(1, L + 1, dtype=np.int64)[None, :]
        ok = ((cols[0] * exps) % orders == 0).all(axis=0)
        return (int(np.nonzero(ok)[0][0]) + 1,)

    if len(subset) == 2:
        b_grid = np.arange(L, dtype=np.int64)[None, :]
        res_b = (cols[1] * b_grid) % orders
        for a in range(1, L + 1):
            res_a = (cols[0] * a) % orders
            ok = ((res_a + res_b) % orders == 0).all(axis=0)
            hits = np.nonzero(ok)[0]
            if hits.size:
                return (a, int(hits[0]))
        raise AssertionError("unreachable: a = lcm always admits b = 0")

    # Triples: match mixed-radix keys of required residues against e's residues.
    e_grid = np.arange(L, dtype=np.int64)[None, :]
    need_keys = _packed_residues((-(cols[2] * e_grid)) % orders, group.orders)
    c_grid = np.arange(L + 1, dtype=np.int64)[None, :]
    d_grid = np.arange(L, dtype=np.int64)[None, :]
    res_c = (cols[0] * c_grid) % orders
    res_d = (cols[1] * d_grid) % orders
    have = [
        (res_c[i][:, None] + res_d[i][None, :]) % int(orders[i, 0])
        for i in range(len(group.orders))
    ]
    have_keys = _packed_residues(have, group.orders)
    feasible = np.isin(have_keys, need_keys)
    feasible[0, :] = False
    flat = np.nonzero(feasible.ravel())[0]
    c, d = divmod(int(flat[0]), L)
    e = int(np.nonzero(need_keys == have_keys[c, d])[0][0])
    return (c, d, e)
