"""Orbit metric d(x, y) = min over g of ||x - g.y||, plus pair samplers.

The metric is the ground truth every invariant transform is judged against.
For a diagonal action the overlap g -> <x, g.y> is the Fourier transform on
G of x * conj(y) binned by character, so one FFT over an array of shape
`orders` scores every element at once.  The elements whose FFT score lies
within the FFT's error bound of the best are scored again with integer-exact
phases, the witness is the lexicographically first element reaching the
smallest exact score, and its distance is recomputed directly so the
reported value matches ||x - act(witness, y)|| to machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .groups import GroupSpec, _check_signal, act, enumerate_group, phase_steps

_CHUNK = 4096

PAIR_KINDS = ("same_orbit", "random", "matched_support", "full_support")


@dataclass(frozen=True)
class OrbitDistanceResult:
    distance: float
    witness: tuple


def orbit_distance(group: GroupSpec, x, y) -> OrbitDistanceResult:
    """Exact minimum of ||x - g.y|| over the whole (enumerable) group."""
    x = _check_signal(group, x)
    y = _check_signal(group, y)
    elements = enumerate_group(group)
    # ||x - g.y||^2 = ||x||^2 + ||y||^2 - 2 Re(conj(phi_g) . (x * conj(y)))
    cross = x * np.conj(y)
    const = float(np.vdot(x, x).real + np.vdot(y, y).real)
    grid = np.zeros(group.orders, dtype=complex)
    np.add.at(grid, tuple(np.array(group.exponents)), cross)
    # In place: at |G| = 10^6 a fresh output per axis doubles the time.
    overlap = np.fft.fftn(grid, out=grid).real
    # Each entry of an FFT of size n errs by about eps * log2(n) * sqrt(n)
    # * ||grid||_2 <= eps * log2(n) * sqrt(n) * const / 2, near 1e-12 * const
    # at n = ENUMERATION_CAP, so the exact best element lies within twice
    # that of the FFT's best, far inside the slack.  The floor keeps the
    # slack above subnormal rounding; a non-finite overlap makes every
    # element a candidate.
    slack = 1e-9 * max(const, 1e-290)
    candidates = np.flatnonzero(~(overlap < overlap.max() - slack))
    L = group.phase_lcm
    steps = phase_steps(group)
    best_val = np.inf
    best_idx = candidates[0]
    # Two or more candidates never give a one-row block, whose product would
    # round differently from the multi-row blocks it is compared with.
    for block in np.array_split(candidates, -(-len(candidates) // _CHUNK)):
        turns = elements[block] @ steps % L
        vals = const - 2.0 * (np.exp((-2j * np.pi / L) * turns) @ cross).real
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val = float(vals[i])
            best_idx = block[i]
    witness = tuple(int(v) for v in elements[best_idx])
    distance = float(np.linalg.norm(x - act(group, witness, y)))
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
    (max_ratio, (x, y)) for the maximizing pair.
    """
    best = -np.inf
    best_pair = None
    usable = 0
    for i in range(int(samples)):
        x, y = sample_pair(group, kind, child_seed(seed, i))
        d = orbit_distance(group, x, y).distance
        if d <= 1e-9:
            continue
        tx, ty = np.asarray(transform(x)), np.asarray(transform(y))
        with np.errstate(all="ignore"):  # non-finite values give a non-finite gap
            gap = float(np.linalg.norm(tx - ty))
        usable += 1
        ratio = gap / d
        if ratio > best:
            best = ratio
            best_pair = (x, y)
    if usable == 0:
        raise DomainError(
            "every sampled pair was orbit-equivalent; use another kind or seed"
        )
    return best, best_pair
