"""Orbit metric d(x, y) = min over g of ||x - g.y||, plus pair samplers.

The metric is the ground truth every invariant transform is judged against.
An orbit depends only on the group the action sees, Q = G/K (K fixes every
coordinate), compiled once per group into Z_{d_1} x ... x Z_{d_m} by one
diagonalization of the phase-step matrix.  For a diagonal action the overlap
q -> <x, q.y> is the Fourier transform on Q of x * conj(y) binned by Q's
characters, so one FFT over an array of shape (d_1, ..., d_m) scores every
coset of K at once.  The cosets within the FFT's error bound of the best are
scored again with the integer-exact phases all their elements share; the
witness is the lexicographically first element of G reaching the smallest
exact score, and its distance is recomputed directly so the reported value
matches ||x - act(witness, y)|| to machine precision.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .exponents import _read_only, _reduce, phase_generators
from .groups import (
    GroupSpec, _check_enumerable, _check_signal, _norm, _unit_scaled, act, enumerate_group,
    phase_steps,
)

_CHUNK = 4096

PAIR_KINDS = ("same_orbit", "random", "matched_support", "full_support")


@dataclass(frozen=True)
class OrbitDistanceResult:
    distance: float
    witness: tuple


@dataclass(frozen=True, eq=False)
class Quotient:
    """A group's faithful quotient Q = G/K, split into cyclic factors of
    orders d_j > 1 (or just 1), ascending.  Row j of lift is an element of G
    generating factor j, row j of turns its phase_steps(G) mod L.  kernel is
    the Hermite basis of K', the elements of Z^s acting trivially; bins holds
    Q's exponent rows."""

    group: GroupSpec
    lift: np.ndarray
    kernel: np.ndarray
    turns: np.ndarray
    bins: tuple

    def least_member(self, rows) -> tuple:
        """The least element of G in the cosets of K through the integer rows,
        whose entry i lands in [0, kernel[i, i])."""
        rows = np.array(rows, dtype=np.int64)
        for i, column in enumerate(self.kernel.T):
            rows -= (rows[:, i] // column[i])[:, None] * column
        return tuple(rows[np.lexsort(rows.T[::-1])[0]].tolist())


@functools.lru_cache(maxsize=8)
def faithful_quotient(group: GroupSpec) -> Quotient:
    """Built once per process while among the 8 most recently used.  With
    (sigma, R) = phase_generators(group), G/K is the direct sum of the cyclic
    groups generated by the columns g_j of R, of orders d_j = L / gcd(L,
    sigma_j), and K' is spanned by the vectors d_j * g_j."""
    L, s = group.phase_lcm, group.num_generators
    sigma, R = phase_generators(group)
    d = [L // math.gcd(L, x) for x in sigma]
    kernel = [[x * d_j for x, d_j in zip(row, d)] for row in R]
    _reduce(kernel, s)
    keep = sorted((j for j in range(s) if d[j] > 1), key=d.__getitem__) or [0]
    # R's entries can exceed int64: reduce them mod the orders first.
    lift = np.array([[R[i][j] % p for i, p in enumerate(group.orders)] for j in keep], dtype=np.int64)
    orders = np.array([d[j] for j in keep], dtype=np.int64)
    turns = lift @ phase_steps(group) % L
    exponents = turns * orders[:, None] // L
    return Quotient(
        group=GroupSpec(tuple(orders.tolist()), tuple(map(tuple, exponents.tolist()))),
        lift=_read_only(lift),
        kernel=_read_only(np.array(kernel, dtype=np.int64)),
        turns=_read_only(turns),
        bins=tuple(_read_only(exponents)),
    )


def orbit_distance(group: GroupSpec, x, y) -> OrbitDistanceResult:
    """Exact minimum of ||x - g.y|| over the whole (enumerable) group."""
    x = _check_signal(group, x)
    y = _check_signal(group, y)
    _check_enumerable(group)
    quotient = faithful_quotient(group)
    elements = enumerate_group(quotient.group)
    # One power of two puts every part in (-1, 1): no product below overflows.
    xy, k = _unit_scaled(np.concatenate([x, y]))
    x, y = xy.reshape(2, -1)
    # ||x - g.y||^2 = ||x||^2 + ||y||^2 - 2 Re(conj(phi_g) . (x * conj(y)))
    cross = x * np.conj(y)
    const = float(np.vdot(x, x).real + np.vdot(y, y).real)
    grid = np.zeros(quotient.group.orders, dtype=complex)
    np.add.at(grid, quotient.bins, cross)
    # In place: at |Q| = 10^6 a fresh output per axis doubles the time.
    overlap = np.fft.fftn(grid, out=grid).real
    # Each entry of an FFT of size n errs by about eps * log2(n) * sqrt(n)
    # * ||grid||_2 <= eps * log2(n) * sqrt(n) * const / 2, near 1e-12 * const
    # at n = ENUMERATION_CAP, so the exact best coset lies within twice that
    # of the FFT's best, far inside the slack.  The floor keeps the slack
    # above subnormal rounding; a non-finite overlap makes every coset a
    # candidate.
    slack = 1e-9 * max(const, 1e-290)
    candidates = np.flatnonzero(~(overlap < overlap.max() - slack))
    L, n = group.phase_lcm, len(candidates)
    blocks = -(-n // _CHUNK)
    # Even blocks, never one row for two or more candidates: a one-row
    # product rounds differently from the multi-row blocks it is compared with.
    exact = np.concatenate([
        np.exp((-2j * np.pi / L) * (elements[block] @ quotient.turns % L)) @ cross
        for block in (candidates[i * n // blocks:(i + 1) * n // blocks] for i in range(blocks))
    ])
    vals = const - 2.0 * exact.real
    best = vals.min()  # not finite only for non-finite input: row 0, the identity, stands
    tied = elements[candidates[vals == best]] if best < np.inf else elements[:1]
    witness = quotient.least_member(tied @ quotient.lift)
    with np.errstate(over="ignore"):  # a distance beyond the double range is inf
        distance = float(np.ldexp(np.linalg.norm(x - act(group, witness, y)), k))
    return OrbitDistanceResult(distance=distance, witness=witness)


def equivalent(group: GroupSpec, x, y, tol: float = 1e-9) -> bool:
    """Whether the orbit distance is below tol."""
    return orbit_distance(group, x, y).distance < tol


def child_seed(seed, index: int):
    """Derived per-sample seed, accepted by numpy's generator (ints or tuples)."""
    if isinstance(seed, (int, np.integer)):
        return (int(seed), int(index))
    return tuple(int(v) for v in seed) + (int(index),)


def _gaussian(rng, n: int) -> np.ndarray:
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)


def _full_support(rng, n: int, floor: float = 0.05) -> np.ndarray:
    z = _gaussian(rng, n)
    while True:
        small = np.abs(z) < floor
        if not small.any():
            return z
        z[small] = _gaussian(rng, int(small.sum()))


def sample_pair(group: GroupSpec, kind: str, seed):
    """Deterministic signal pair of the requested kind.

    same_orbit: y = g.x for a random element (distance 0).
    random: independent complex Gaussians.
    matched_support: independent values on one shared nonempty zero pattern.
    full_support: independent with every modulus >= 0.05.
    """
    rng = np.random.default_rng(seed)
    n = group.dim
    if kind == "same_orbit":
        x = _gaussian(rng, n)
        element = tuple(int(rng.integers(0, p)) for p in group.orders)
        return x, act(group, element, x)
    if kind == "random":
        return _gaussian(rng, n), _gaussian(rng, n)
    if kind == "matched_support":
        support = rng.random(n) < 0.5
        while not support.any():
            support = rng.random(n) < 0.5
        return _gaussian(rng, n) * support, _gaussian(rng, n) * support
    if kind == "full_support":
        return _full_support(rng, n), _full_support(rng, n)
    raise ConfigError(f"unknown pair kind {kind!r}; expected one of {PAIR_KINDS}")


def lipschitz_ratio_scan(
    transform, group: GroupSpec, kind: str, samples: int, seed
):
    """Max of ||T(x) - T(y)|| / d(x, y) over sampled pairs with d > 1e-9.

    transform: callable from signal to a complex vector.  Returns
    (max_ratio, (x, y)) for the maximizing pair.  A NaN ratio, from a
    transform that overflowed, makes the maximum NaN, as np.max does, and
    the first such pair is returned, as np.argmax picks it.
    """
    best, best_pair = -np.inf, None
    for i in range(int(samples)):
        x, y = sample_pair(group, kind, child_seed(seed, i))
        d = orbit_distance(group, x, y).distance
        if d <= 1e-9:
            continue
        tx, ty = np.asarray(transform(x)), np.asarray(transform(y))
        with np.errstate(all="ignore"):  # non-finite values give a non-finite gap
            gap = _norm(tx - ty)
        ratio = gap / d
        if np.isnan(ratio):
            return ratio, (x, y)
        if ratio > best:
            best, best_pair = ratio, (x, y)
    if best_pair is None:
        raise DomainError(
            "every sampled pair was orbit-equivalent; use another kind or seed"
        )
    return best, best_pair
