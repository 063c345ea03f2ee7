"""The four invariant transforms on an exponent table, each exactly invariant
under the group action by construction.  Each takes one (N,) signal or a
(B, N) stack, whose rows come out bit for bit as single calls give them, and
takes its factors z_k ** e from the table's one gather, decided once
(ExponentTable.gather): from a power grid on a grid table, else by direct
power.  This is the package's one table kernel; the Laurent invariants
(hermite) power the signal by their HermiteData's float block directly.
- monomial map: one invariant monomial per coordinate subset (separating).
- phase map: moduli-weighted phase monomials (only unit phases are powered).
- norm-scaled map: norm times the monomial map of the normalized signal,
  which grows linearly in the signal scale.
- low-dimensional map: moduli plus a seeded generic linear reduction of the
  phase monomials, scaled by the smallest nonzero modulus; dimension 3N+1 and
  Lipschitz on matching supports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError
from .exponents import ExponentTable
from .groups import _check_signal, _unit_norm, _unit_scaled

_DRAW_VALUES = 1 << 16  # normals drawn per chunk of make_reduction


@dataclass(frozen=True, eq=False)
class InvariantVector:
    transform_id: str
    values: np.ndarray

    @property
    def dim(self) -> int:
        return self.values.shape[-1]


@dataclass(frozen=True, eq=False)
class BetaWeights:
    """Moduli exponents for the phase map: one float array per table block,
    shaped (N, 1), (P, 2) and (T, 3); >= 1 on singles, >= 0 elsewhere."""

    blocks: tuple

    def __post_init__(self):
        singles, *rest = self.blocks
        if (singles < 1).any():
            raise ConfigError("single-coordinate beta weights must be >= 1")
        if any((weights < 0).any() for weights in rest):
            raise ConfigError("beta weights must be nonnegative")


def default_beta(table: ExponentTable) -> BetaWeights:
    """All weights 1, in the table's block layout."""
    return BetaWeights(tuple(np.ones(exps.shape) for _, exps in table.arrays))


def _factors(table: ExponentTable, z, first: int = 0):
    """Yield (block, rows, columns, factors) per pass of ExponentTable.gather
    over the blocks from first on: factors[..., i, j] is the j-th factor
    z_k ** e of row i, taken C contiguous by take.  A grid table
    powers each coordinate once per step and takes the factors from those
    powers: the same bits (a*b*c is not).  Callers ignore float errors."""
    steps, passes = table.gather
    if steps is not None:
        z = (z[..., None] ** steps).reshape(z.shape[:-1] + (z.shape[-1] * len(steps),))
    for block, rows, columns, index, exps in passes:
        if block >= first:
            factors = z.take(index, axis=-1)
            yield block, rows, columns, factors if exps is None else factors ** exps


def eval_monomial_map(table: ExponentTable, x) -> InvariantVector:
    """The separating monomial map: one monomial per subset, fixed order."""
    x = _check_signal(table.group, x, stacked=True)
    values = np.empty(x.shape[:-1] + (table.total_dim,), dtype=complex)
    with np.errstate(all="ignore"):  # multiply.reduce: np.prod's loop, without its Python wrapper
        for _, _, columns, factors in _factors(table, x):
            np.multiply.reduce(factors, axis=-1, out=values[..., columns])
    return InvariantVector(transform_id="F", values=values)


def eval_phase_map(table: ExponentTable, beta: BetaWeights, x) -> InvariantVector:
    """Phase-only map: singles are pure moduli |x_k|^beta; larger subsets are
    moduli-weighted unit-phase monomials; any subset touching a zero entry is
    exactly zero.  beta must be laid out in this table's blocks."""
    x = _check_signal(table.group, x, stacked=True)
    if [w.shape for w in beta.blocks] != [exps.shape for _, exps in table.arrays]:
        raise DimensionError("beta weights are not laid out in this table's blocks")
    moduli = np.abs(x)
    phases = _unit_phases(x)
    values = np.empty(x.shape[:-1] + (table.total_dim,), dtype=complex)
    with np.errstate(all="ignore"):
        np.power(moduli, beta.blocks[0][:, 0], out=values[..., :table.group.dim])
        for block, rows, columns, factors in _factors(table, phases, first=1):
            subset = moduli.take(table.arrays[block][0][rows], axis=-1)
            out = values[..., columns]
            np.multiply.reduce(subset ** beta.blocks[block][rows] * factors, axis=-1, out=out)
            out[(subset == 0).any(axis=-1)] = 0
    return InvariantVector(transform_id="Theta", values=values)


def eval_norm_scaled(table: ExponentTable, x) -> InvariantVector:
    """||x|| times the monomial map of x/||x||; zero maps to zero.

    Positively homogeneous of degree 1, hence linear growth in the moduli.
    Norm (groups._norm, as _unit_norm) and quotient are taken on x * 2**-k,
    the _unit_scaled rows, where no square leaves the double range.
    """
    x, k = _unit_scaled(_check_signal(table.group, x, stacked=True))
    norms = _unit_norm(x)
    # A zero row divides 0 by 0 here; it maps to zero below.  Beyond the
    # double range the values are inf or nan, as F gives them.
    with np.errstate(all="ignore"):
        values = eval_monomial_map(table, x / norms[..., None]).values
        # Scale on the left: numpy's complex product is not symmetric in
        # the sign of an underflowed zero.
        np.multiply(np.ldexp(norms, k)[..., None], values, out=values)
    values[norms == 0.0] = 0
    return InvariantVector(transform_id="PhiF", values=values)


def make_reduction(seed: int, in_dim: int, out_dim: int) -> np.ndarray:
    """Deterministic iid standard complex Gaussian out_dim x in_dim matrix.

    A fixed random draw realizes a generic linear map: the separating
    property it must preserve holds off a measure-zero set of matrices.
    """
    if in_dim < 1 or out_dim < 1:
        raise ConfigError(f"reduction dims must be positive, got {out_dim}x{in_dim}")
    rng = np.random.default_rng(seed)
    # Real parts first, then imaginary parts, each drawn in row chunks (the
    # stream of one whole draw) into one bounded real buffer and copied into
    # its slots of the complex matrix, which is then divided in place: the
    # draws and the rounding of (re + 1j * im) / sqrt(2), assembled exactly.
    ell = np.empty((out_dim, in_dim), dtype=complex)
    rows = max(1, _DRAW_VALUES // in_dim)
    normals = np.empty((min(rows, out_dim), in_dim))
    for chunk in (part[lo:lo + rows] for part in (ell.real, ell.imag) for lo in range(0, out_dim, rows)):
        chunk[...] = rng.standard_normal(out=normals[:len(chunk)])
    ell /= math.sqrt(2.0)
    return ell


def default_reduction(table: ExponentTable, seed: int) -> np.ndarray:
    """The seeded reduction to the default 2N+1 output dimensions for this table.

    Each call draws the (2N+1) x D matrix afresh; a group's plan
    (orbitsep.plan) keeps the last one drawn.
    """
    return make_reduction(seed, table.total_dim, 2 * table.group.dim + 1)


def _check_reduction(table: ExponentTable, ell: np.ndarray) -> None:
    if ell.ndim != 2 or len(ell) < 1 or ell.shape[1] != table.total_dim:
        raise DimensionError(
            f"reduction has shape {ell.shape}, expected at least one row of {table.total_dim} columns"
        )


def _unit_phases(x) -> np.ndarray:
    # N(x): x_k/|x_k| on the support, exactly 0 elsewhere; on x_k * 2**-e_k, 1/|x_k| is finite.
    x = _unit_scaled(x[..., None])[0][..., 0]
    moduli = np.abs(x)
    with np.errstate(all="ignore"):  # an infinite entry's phase is inf / inf, nan
        return np.where(moduli > 0, x / np.where(moduli > 0, moduli, 1.0), 0j)


def eval_lowdim(
    table: ExponentTable, ell: np.ndarray, x, mode: str = "repaired"
) -> InvariantVector:
    """Low-dimensional Lipschitz map: (|x_1|, ..., |x_N|, mu(x) * ell @ v).

    mu(x) is the smallest nonzero modulus.  In mode "repaired" v is the full
    monomial map of the unit-phase vector (diagonal entries are phase powers),
    the variant whose separation argument is sound; in mode "as_written" v
    keeps support indicators in the diagonal slots instead.  Zero maps to
    zero.  ell @ v stays one matrix-vector product per row: a matrix-matrix
    product over the stack would round differently.
    """
    if mode not in ("as_written", "repaired"):
        raise ConfigError(f"mode must be 'as_written' or 'repaired', got {mode!r}")
    x = _check_signal(table.group, x, stacked=True)
    _check_reduction(table, ell)
    moduli = np.abs(x)
    v = eval_monomial_map(table, _unit_phases(x)).values
    if mode == "as_written":
        v[..., :table.group.dim] = moduli > 0
    mu = np.min(moduli, axis=-1, keepdims=True, initial=np.inf, where=moduli > 0)
    with np.errstate(all="ignore"):  # beyond the double range: inf or nan, as PhiF gives
        products = np.array([ell @ row for row in v.reshape(-1, v.shape[-1])], dtype=complex)
        reduced = mu * products.reshape(*x.shape[:-1], len(ell))
    reduced[~moduli.any(axis=-1)] = 0
    values = np.concatenate([moduli.astype(complex), reduced], axis=-1)
    return InvariantVector(transform_id="Phi", values=values)


def lipschitz_bound(table: ExponentTable, ell: np.ndarray) -> float:
    """Certified Lipschitz constant 3*||ell||*C + 1 for the low-dimensional map
    on matching supports, in the closed form the table's group admits;
    ||ell||, the largest singular value, is computed on each call.

    image, two generators of orders p1, p2 on N = p1*p2 coordinates (the
        shift action on images): 3*sqrt(6)*(p1*p2)^(5/2)*||ell|| + 1.
    two_factor, other two-generator groups: 3*sqrt(6)*(p1*p2)*N^(3/2)*||ell|| + 1.
    generic, all others: C = max(sqrt(sum over components of sum e_j^2),
        sqrt(dim)); on the closed unit polydisc each monomial partial has
        modulus at most its exponent, so this C is the exact sup bound.
    """
    _check_reduction(table, ell)
    norm = float(np.linalg.svd(ell, compute_uv=False)[0])
    orders = table.group.orders
    if len(orders) == 2:
        nm = orders[0] * orders[1]
        if table.group.dim == nm:
            return 3.0 * math.sqrt(6.0) * nm**2.5 * norm + 1.0
        return 3.0 * math.sqrt(6.0) * nm * table.group.dim ** 1.5 * norm + 1.0
    gradient_sq = sum(int(e) ** 2 for _, exps in table.components() for e in exps)
    c = max(math.sqrt(gradient_sq), math.sqrt(table.total_dim))
    return 3.0 * norm * c + 1.0
