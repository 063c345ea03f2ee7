"""Finite Abelian group actions on complex signal space, in diagonal character form.

A group here is a product Z_{p_1} x ... x Z_{p_s} acting on C^N coordinate by
coordinate: generator i multiplies coordinate k by the unit phase
exp(2*pi*1j * exponents[i][k] / p_i).  Everything downstream (invariant
transforms, orbit metric, rational invariants) consumes this representation.
The 2D circular-shift action on images is reachable through shift_action_spec
plus to_fourier, which maps circular shifts onto the diagonal action exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, DomainError

# Largest group enumerate_group lists and orbit_distance accepts.  The metric
# holds the element rows and one overlap per coset of the group's faithful
# quotient, whose order is at most this.
ENUMERATION_CAP = 10**6


@dataclass(frozen=True)
class GroupSpec:
    """A finite Abelian group acting diagonally on C^N.

    orders: per-generator orders (p_1, ..., p_s), each >= 1.
    exponents: s x N integer matrix, row i reduced mod p_i; entry [i][k] is
        the character exponent of generator i on coordinate k.
    """

    orders: tuple
    exponents: tuple

    @property
    def num_generators(self) -> int:
        return len(self.orders)

    @property
    def dim(self) -> int:
        return len(self.exponents[0])

    @property
    def group_order(self) -> int:
        return math.prod(self.orders)

    @property
    def phase_lcm(self) -> int:
        return math.lcm(*self.orders)


def make_group(orders, exponents) -> GroupSpec:
    """Validate and normalize (orders, exponents) into a GroupSpec.

    Exponent entries are reduced mod the matching order, so any integer
    matrix of the right shape is accepted.
    """
    orders = tuple(int(p) for p in orders)
    if not orders:
        raise ConfigError("at least one generator order is required")
    if any(p < 1 for p in orders):
        raise ConfigError(f"generator orders must be positive, got {orders}")
    rows = [tuple(int(e) for e in row) for row in exponents]
    if len(rows) != len(orders):
        raise ConfigError(
            f"exponent matrix has {len(rows)} rows for {len(orders)} generator orders"
        )
    if not rows[0]:
        raise ConfigError("exponent matrix must have at least one column")
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise ConfigError("exponent matrix is ragged")
    reduced = tuple(
        tuple(e % p for e in row) for row, p in zip(rows, orders)
    )
    return GroupSpec(orders=orders, exponents=reduced)


def _phase_rows(group: GroupSpec) -> list:
    """Exact phase increments in units of 1/L turns, L = lcm(orders): row i
    turns coordinate k by (L / p_i) * a_ik, below L since a_ik < p_i."""
    L = group.phase_lcm
    return [[(L // p) * a for a in row] for row, p in zip(group.exponents, group.orders)]


def phase_steps(group: GroupSpec) -> np.ndarray:
    """_phase_rows as int64.  act() and the orbit metric accumulate these in
    exact integers and apply one complex exponential at the end, so repeated
    group operations cannot drift."""
    return np.array(_phase_rows(group), dtype=np.int64)


def _check_signal(group: GroupSpec, x, stacked: bool = False) -> np.ndarray:
    """x as a complex (N,) signal, or with stacked also a (B, N) stack of them."""
    x = np.asarray(x, dtype=complex)
    if x.ndim not in ((1, 2) if stacked else (1,)) or x.shape[-1] != group.dim:
        raise DimensionError(
            f"signal has shape {x.shape}, expected length {group.dim}"
        )
    return x


def _unit_scaled(z: np.ndarray):
    """(z * 2**-k, k) for a complex array z, one k per row of its last axis:
    the least integer putting every real and imaginary part of the row in
    (-1, 1), 0 for a zero row.  The scaling is exact while results stay
    normal, so norms and quotients of the scaled rows rescale exactly to
    those of z, without squares or reciprocals beyond the double range."""
    parts = z.view(float)
    k = np.frexp(np.abs(parts).max(axis=-1))[1]
    return np.ldexp(parts, -k[..., None]).view(complex), k


def _norm(z):
    """The package's one Euclidean norm: of a complex (N,) vector, or of each
    row of a (B, N) stack.  It is np.linalg.norm's own sum, sqrt(re . re +
    im . im), with one dot per row and part, so a stacked row rounds as its
    single call does; taken on the _unit_scaled rows and rescaled, it is
    finite whenever the norm is a finite double."""
    scaled, k = _unit_scaled(np.asarray(z, dtype=complex))
    return np.ldexp(_unit_norm(scaled), k)


def _unit_norm(scaled):
    """_norm of rows already _unit_scaled (k = 0), without scaling them again."""
    return np.sqrt(np.vecdot(scaled.real, scaled.real) + np.vecdot(scaled.imag, scaled.imag))


def act(group: GroupSpec, element, x) -> np.ndarray:
    """Apply group elements to signals.

    element: s integers, or a (B, s) stack of them, each reduced mod its
    order in Python ints (so any ints are accepted).  x: one (N,) signal
    or a (B, N) stack; the two broadcast, and a stacked row is moved bit
    for bit as its single call moves it.
    Unitary: moduli are preserved exactly.
    """
    x = _check_signal(group, x, stacked=True)
    g = np.array(element, dtype=object)  # Python ints, so the reduction is exact beyond int64
    if g.ndim not in (1, 2) or g.shape[-1] != group.num_generators:
        raise DimensionError(
            f"element has shape {g.shape}, expected {group.num_generators} components per row"
        )
    from .plan import plan  # the plan module imports this one
    L = group.phase_lcm
    turns = (g % np.array(group.orders, dtype=object)).astype(np.int64) @ plan(group).phase_steps % L
    return np.exp((2j * np.pi / L) * turns) * x


def _check_enumerable(group: GroupSpec) -> None:
    if (order := group.group_order) > ENUMERATION_CAP:
        raise DomainError(f"group order {order} exceeds enumeration cap {ENUMERATION_CAP}")


def enumerate_group(group: GroupSpec) -> np.ndarray:
    """All group elements, one read-only int64 row each, in lexicographic order."""
    _check_enumerable(group)
    rows = np.indices(group.orders, dtype=np.int64)
    rows = rows.reshape(group.num_generators, -1).T
    rows.flags.writeable = False
    return rows


def shift_action_spec(n: int, m: int) -> GroupSpec:
    """The Z_n x Z_m circular-shift action on n x m images, diagonalized.

    Coordinates are row-major over 1-based image frequencies (k, l); the
    character exponents are (k mod n, l mod m), so the trivial (DC) coordinate
    is the last one.
    """
    n, m = int(n), int(m)
    if n < 1 or m < 1:
        raise ConfigError(f"image sides must be positive, got {n}x{m}")
    row_n = [k % n for k in range(1, n + 1) for _ in range(m)]
    row_m = [l % m for _ in range(n) for l in range(1, m + 1)]
    return make_group([n, m], [row_n, row_m])


def cyclic_shift_spec(n: int) -> GroupSpec:
    """The cyclic shift action of Z_n on C^n (character exponents 1, 2, ..., n-1, 0)."""
    n = int(n)
    if n < 1:
        raise ConfigError(f"cyclic order must be positive, got {n}")
    return make_group([n], [[k % n for k in range(1, n + 1)]])


def to_fourier(image) -> np.ndarray:
    """Embed an n x m image as a length-nm signal on which shifts act diagonally.

    Unitary 2D DFT followed by an index shuffle that lines bin (u, v) up with
    the coordinate carrying character exponents (u, v); the DC bin lands at
    the last coordinate.  Shifting the image circularly by g, so that output
    pixel (u, v) reads input pixel ((u + g_0) % n, (v + g_1) % m), acts on
    the result as act(group, g, .) for the matching shift_action_spec group.
    The transform runs on the image's _unit_scaled pixels, so no sum inside
    it overflows and the result is finite whenever every coefficient is a
    finite double; one beyond the double range is inf.
    """
    image = np.asarray(image, dtype=complex)
    if image.ndim != 2:
        raise DimensionError(f"image must be 2D, got shape {image.shape}")
    n, m = image.shape
    pixels, k = _unit_scaled(image.reshape(n * m))
    spectrum = np.fft.fft2(pixels.reshape(n, m)) / math.sqrt(n * m)
    with np.errstate(over="ignore"):
        spectrum = np.ldexp(spectrum.view(float), k).view(complex)
    return np.roll(spectrum, (-1, -1), axis=(0, 1)).reshape(n * m)
