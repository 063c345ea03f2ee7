"""Orbit metric d(x, y) = min over g of ||x - g.y||, and the empirical
Lipschitz ratio scan over given pairs.

The metric is the ground truth every invariant transform is judged against.
An orbit depends only on the group the action sees, Q = G/K (K fixes every
coordinate), compiled into Z_{d_1} x ... x Z_{d_m} by one diagonalization
of the phase-step matrix.  For a diagonal action the overlap q -> <x, q.y>
is a sum of N terms x_k * conj(y_k) times a character of Q.  Cutting Q into
a leading and a trailing part of about sqrt|Q| elements each factors every
character, so one real matrix product of the two parts' phase tables, each
N columns wide, scores every coset of K at once; a stack of pairs stacks
its leading tables into the same one product.  Q, the two tables and the
other arrays that depend on the group alone are built once per group, in
its plan (orbitsep.plan); only the element rows of Q are listed per call.
One scan over the stack's overlaps lists the cosets within the product's
error bound of their pair's best; blocks of them are scored again, row by
row, with the integer-exact phases all their elements share.  The witness
is the first element of G reaching its pair's smallest exact score: one
lexsort keyed by pair per block, and one over the blocks' winners.  Each
distance is groups._norm's, recomputed from its witness, so it matches
||x - act(witness, y)|| to machine precision, and a stacked row equals the
call on its pair alone bit for bit.  The scan scores its pairs in
memory-bounded chunks: one metric call and one transform call each.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError
from .groups import (
    GroupSpec, _check_enumerable, _check_signal, _norm, _unit_scaled, act, enumerate_group, phase_steps,
)
from .plan import plan

_CHUNK = 4096
# Doubles one chunk of the Lipschitz scan may hold in one array: its pairs
# times |G/K| overlaps, or times the transform's width per pair.  On 2
# cores, 20 bench pairs of the 10^6 benchmark group (|G/K| = 125000) took
# 31 ms one at a time, 18 ms in stacks of 2 and 14 ms in stacks of 4 to 16;
# the benchmark's 10^4 groups take all 20 in one stack.
_STACK = 1 << 19


@dataclass(frozen=True)
class OrbitDistanceResult:
    distance: float
    witness: tuple


def _phases(shape, steps, L) -> np.ndarray:
    """exp(-2 pi i t / L), t = q @ steps mod L exactly, one row per q of the grid, in C order."""
    rows = np.indices(shape, dtype=np.int64).reshape(len(shape), -1).T
    return np.exp((-2j * np.pi / L) * (rows @ steps % L))


def _cut(quotient: GroupSpec):
    """Q's read-only phase tables: the cut q_j = a*s + b splits q into a
    leading part (axes before j, then a) and a trailing part (b, then axes
    after j) of about isqrt|Q| elements each; q's phase is the product of
    theirs.  The leading table is (A, N) complex, the trailing one is
    conjugated and viewed as (T, 2N) floats, and a*s + b >= d_j is padding."""
    orders, L = quotient.orders, quotient.phase_lcm
    steps = phase_steps(quotient)  # w_jk = e_jk * L / d_j
    target = math.isqrt(quotient.group_order)
    j = next(j for j in range(len(orders)) if math.prod(orders[:j + 1]) >= target)
    before = math.prod(orders[:j])
    s = -(-orders[j] // -(-target // before))
    a = -(-orders[j] // s)
    lead = _phases((*orders[:j], a), np.vstack([steps[:j], s * steps[j] % L]), L)
    trail = np.conj(_phases((s, *orders[j + 1:]), steps[j:], L)).view(float)
    lead.flags.writeable = trail.flags.writeable = False
    return lead, trail, (before, a * s, orders[j])


def _coset_overlap(cut, cross) -> np.ndarray:
    """Re sum_k cross_k exp(-2 pi i sum_j q_j e_jk / d_j) for every q in Q's
    _cut and every row of cross, (..., N), in C order, as a (..., d_1 ...
    d_m) view.  The rows' leading tables stack into one product."""
    lead, trail, (before, rows, d) = cut
    lead = cross[..., None, :] * lead
    # Re(u * v) = Re u * Re v - Im u * Im v: the float views interleave parts.
    overlap = lead.reshape(-1, cross.shape[-1]).view(float) @ trail.T
    return overlap.reshape(*cross.shape[:-1], before, rows, -1)[..., :d, :]


def _compile(group_plan) -> tuple:
    """The plan's read-only metric arrays: Q; lift, one element of G per
    factor of Q; turns = lift @ G's phase steps; K'; and Q's _cut."""
    quotient = group_plan.quotient
    # Below the enumeration cap every entry and product here fits int64.
    lift = np.array(quotient.lift, dtype=np.int64)
    turns = lift @ group_plan.phase_steps % group_plan.group.phase_lcm
    arrays = lift, turns, np.array(quotient.kernel, dtype=np.int64)
    for array in arrays:
        array.flags.writeable = False
    return quotient.group, *arrays, _cut(quotient.group)


def _least(scores, members, pair) -> tuple:
    """Each pair's lexicographically least (score, member) row, and the pairs;
    the rows' pairs ascend with none skipped, so each pair's rows sort in place."""
    order = np.lexsort((*members.T[::-1], scores, pair))
    pairs = np.arange(pair[0], pair[-1] + 1)
    first = order[np.searchsorted(pair, pairs)]
    return scores[first], members[first], pairs


def orbit_distance(group: GroupSpec, x, y):
    """Exact minimum of ||x - g.y|| over the whole (enumerable) group.

    x and y are one pair of (N,) signals, giving one OrbitDistanceResult, or
    two (B, N) stacks, giving the list of B results that B single calls give.
    """
    stacked = np.ndim(x) == 2
    x = _check_signal(group, x, stacked=True)
    y = _check_signal(group, y, stacked=True)
    if x.shape != y.shape:
        raise DimensionError(f"signals of shapes {x.shape} and {y.shape} do not pair up")
    _check_enumerable(group)
    if stacked and not len(x):
        return []
    quotient, lift, turns, kernel, cut = plan(group).metric
    elements = enumerate_group(quotient)
    L, n = group.phase_lcm, group.dim
    # One power of two per pair puts every part in (-1, 1): no product below overflows.
    xy, k = _unit_scaled(np.concatenate([x, y], axis=-1).reshape(-1, 2 * n))
    x, y = xy[:, :n], xy[:, n:]
    # ||x - g.y||^2 = ||x||^2 + ||y||^2 - 2 Re(conj(phi_g) . (x * conj(y)))
    cross = x * np.conj(y)
    const = np.vecdot(x, x).real + np.vecdot(y, y).real
    overlap = _coset_overlap(cut, cross)
    # Each entry is a sum of 2N products, the two for coordinate k bounded
    # together by |cross_k|, and sum |cross_k| <= const / 2, so it errs by
    # about 2N * eps * sum |cross_k| <= N * eps * const, near 2e-12 * const
    # at N = 10^4; the exact best coset lies within twice that of the
    # product's best, far inside the slack.  The floor keeps the slack
    # above subnormal rounding; a non-finite overlap makes every coset a
    # candidate.
    slack = 1e-9 * np.maximum(const, 1e-290)
    top = np.maximum.reduce(overlap, axis=(1, 2, 3)) - slack
    # pair * |G/K| + coset, ascending; every pair has one at least, its best.
    below = overlap < top[:, None, None, None]
    candidates = np.flatnonzero(np.invert(below, out=below))
    # Kernel column i moves entry i into [0, kernel[i][i]) in its coset; columns with later entries go first, in order.
    carried = [i for i, column in enumerate(kernel.T.tolist()) if any(column[i + 1:])]
    least = []  # per block, each of its pairs' least (exact score, member of G)
    for start in range(0, len(candidates), _CHUNK):
        pair, coset = np.divmod(candidates[start:start + _CHUNK], len(elements))
        rows = elements[coset]
        # Integer-exact phases, summed row by row, so a candidate scores alike in any block.
        phases = np.exp((-2j * np.pi / L) * (rows @ turns % L))
        exact = np.add.reduce(phases * cross.take(pair, axis=0), axis=-1).real
        members = rows @ lift
        for i in carried:
            members -= (members[:, i] // kernel[i, i])[:, None] * kernel[:, i]
        members %= kernel.diagonal()
        # NaN ties with inf: a pair with no finite score has every coset as a candidate, so takes the identity.
        least.append(_least(np.fmin(const[pair] - 2.0 * exact, np.inf), members, pair))
    _, witnesses, _ = _least(*map(np.concatenate, zip(*least))) if len(least) > 1 else least[0]
    with np.errstate(over="ignore"):  # a distance beyond the double range is inf
        distances = np.ldexp(_norm(x - act(group, witnesses, y)), k)
    results = [OrbitDistanceResult(float(d), tuple(w)) for d, w in zip(distances, witnesses.tolist())]
    return results if stacked else results[0]


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


def full_support_pairs(group: GroupSpec, samples: int, seed):
    """The bench scan's pairs, drawn one at a time: pair i is two
    full-support signals, every modulus >= 0.05, from one generator seeded
    with child_seed(seed, i)."""
    for i in range(int(samples)):
        rng = np.random.default_rng(child_seed(seed, i))
        yield _full_support(rng, group.dim), _full_support(rng, group.dim)


def lipschitz_ratio_scan(transform, group: GroupSpec, pairs, width: int = 0):
    """Max of ||T(x) - T(y)|| / d(x, y) over the (x, y) pairs with d > 1e-9.

    transform: callable from a (B, N) stack of signals to the (B, D) stack
    of their complex vectors, row by row.  width: the doubles the transform
    holds per pair in its largest array, as its caller knows it; 0 counts
    the metric alone.  The pairs are taken in chunks, each scored with one
    orbit_distance call and one transform call on the kept pairs' x rows
    stacked over their y rows.  A chunk holds _STACK over the larger of
    |G/K| and width pairs, at least one, so memory stays flat in the number
    of pairs.  Returns (max_ratio, (x, y)) for the first maximizing pair.  A
    NaN ratio, from a transform that overflowed, makes the maximum NaN, as
    np.max does, and the first such pair is returned, as np.argmax picks it.
    """
    width = max(plan(group).quotient.group.group_order, width)
    pairs = iter(pairs)
    best, best_pair, given = -np.inf, None, 0
    while chunk := list(itertools.islice(pairs, max(1, _STACK // width))):
        given += len(chunk)
        xs, ys = (np.array(side) for side in zip(*chunk))
        distances = np.array([r.distance for r in orbit_distance(group, xs, ys)])
        kept = np.flatnonzero(~(distances <= 1e-9))
        if not kept.size:
            continue
        values = np.asarray(transform(np.concatenate([xs[kept], ys[kept]])))
        with np.errstate(all="ignore"):  # non-finite values give a non-finite gap
            ratios = _norm(values[:kept.size] - values[kept.size:]) / distances[kept]
        i = np.argmax(ratios)
        if np.isnan(ratios[i]):
            return float(ratios[i]), chunk[kept[i]]
        if ratios[i] > best:
            best, best_pair = float(ratios[i]), chunk[kept[i]]
    if not given:
        raise DomainError("no pairs were given")
    if best_pair is None:
        raise DomainError("every sampled pair was orbit-equivalent; use another seed")
    return best, best_pair
