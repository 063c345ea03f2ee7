"""The four invariant transforms on an exponent table and their one kernel.

All four are exactly invariant under the group action by construction:
- monomial map: one invariant monomial per coordinate subset (separating).
- phase map: moduli-weighted phase monomials (only unit phases are powered).
- norm-scaled map: norm times the monomial map of the normalized signal,
  which grows linearly in the signal scale.
- low-dimensional map: moduli plus a seeded generic linear reduction of the
  phase monomials, scaled by the smallest nonzero modulus; dimension 3N+1 and
  Lipschitz on matching supports.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError
from .exponents import ExponentTable
from .groups import _check_signal


@dataclass(frozen=True, eq=False)
class InvariantVector:
    transform_id: str
    values: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.values)


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
    return BetaWeights(tuple(np.ones_like(exps) for _, exps in table.blocks))


def monomials(z, indices, exponents) -> np.ndarray:
    """prod_j z[indices[..., j]] ** exponents[..., j] along the last axis.

    The kernel behind F, PhiF, Phi and the Laurent invariants.  exponents
    are float64: exact below 2**53, and the same conversion CPython's
    complex ** int makes.  Overflow gives inf or nan, never a warning.
    """
    with np.errstate(all="ignore"):
        return np.prod(z[indices] ** exponents, axis=-1)


def eval_monomial_map(table: ExponentTable, x) -> InvariantVector:
    """The separating monomial map: one monomial per subset, fixed order."""
    x = _check_signal(table.group, x)
    values = np.concatenate([monomials(x, idx, exps) for idx, exps in table.blocks])
    return InvariantVector(transform_id="F", values=values)


def eval_phase_map(table: ExponentTable, beta: BetaWeights, x) -> InvariantVector:
    """Phase-only map: singles are pure moduli |x_k|^beta; larger subsets are
    moduli-weighted unit-phase monomials; any subset touching a zero entry is
    exactly zero.  beta must be laid out in this table's blocks."""
    x = _check_signal(table.group, x)
    if [w.shape for w in beta.blocks] != [exps.shape for _, exps in table.blocks]:
        raise DimensionError("beta weights are not laid out in this table's blocks")
    moduli = np.abs(x)
    phases = _unit_phases(x, moduli)
    with np.errstate(all="ignore"):
        values = [(moduli ** beta.blocks[0][:, 0]).astype(complex)]
        for (idx, exps), w in zip(table.blocks[1:], beta.blocks[1:]):
            value = np.prod(moduli[idx] ** w * phases[idx] ** exps, axis=-1)
            values.append(np.where((moduli[idx] == 0).any(axis=-1), 0j, value))
    return InvariantVector(transform_id="Theta", values=np.concatenate(values))


def eval_norm_scaled(table: ExponentTable, x) -> InvariantVector:
    """||x|| times the monomial map of x/||x||; zero maps to zero.

    Positively homogeneous of degree 1, hence linear growth in the moduli.
    """
    x = _check_signal(table.group, x)
    norm = float(np.linalg.norm(x))
    if norm == 0.0:
        values = np.zeros(table.total_dim, dtype=complex)
    else:
        values = norm * eval_monomial_map(table, x / norm).values
    return InvariantVector(transform_id="PhiF", values=values)


@dataclass(frozen=True, eq=False)
class LinearReduction:
    """Seeded complex Gaussian matrix; its operator norm is computed on first use."""

    matrix: np.ndarray
    seed: int

    @functools.cached_property
    def operator_norm(self) -> float:
        return float(np.linalg.svd(self.matrix, compute_uv=False)[0])

    @property
    def out_dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def in_dim(self) -> int:
        return self.matrix.shape[1]


def make_reduction(seed: int, in_dim: int, out_dim: int) -> LinearReduction:
    """Deterministic iid standard complex Gaussian out_dim x in_dim matrix.

    A fixed random draw realizes a generic linear map: the separating
    property it must preserve holds off a measure-zero set of matrices.
    """
    if in_dim < 1 or out_dim < 1:
        raise ConfigError(f"reduction dims must be positive, got {out_dim}x{in_dim}")
    rng = np.random.default_rng(seed)
    matrix = (
        rng.standard_normal((out_dim, in_dim))
        + 1j * rng.standard_normal((out_dim, in_dim))
    ) / math.sqrt(2.0)
    return LinearReduction(matrix=matrix, seed=int(seed))


def default_reduction(table: ExponentTable, seed: int) -> LinearReduction:
    """Reduction to the default 2N+1 output dimensions for this table."""
    return make_reduction(seed, table.total_dim, 2 * table.group.dim + 1)


def _unit_phases(x, moduli) -> np.ndarray:
    # N(x): x_k/|x_k| on the support, exactly 0 elsewhere.
    safe = np.where(moduli > 0, moduli, 1.0)
    return np.where(moduli > 0, x / safe, 0j)


def eval_lowdim(
    table: ExponentTable, ell: LinearReduction, x, mode: str = "repaired"
) -> InvariantVector:
    """Low-dimensional Lipschitz map: (|x_1|, ..., |x_N|, mu(x) * ell(v)).

    mu(x) is the smallest nonzero modulus.  In mode "repaired" v is the full
    monomial map of the unit-phase vector (diagonal entries are phase powers),
    the variant whose separation argument is sound; in mode "as_written" v
    keeps support indicators in the diagonal slots instead.  Zero maps to
    zero.
    """
    if mode not in ("as_written", "repaired"):
        raise ConfigError(f"mode must be 'as_written' or 'repaired', got {mode!r}")
    x = _check_signal(table.group, x)
    if ell.in_dim != table.total_dim:
        raise DimensionError(
            f"reduction expects input dim {ell.in_dim}, table has {table.total_dim}"
        )
    n = table.group.dim
    moduli = np.abs(x)
    if not moduli.any():
        return InvariantVector(
            transform_id="Phi", values=np.zeros(n + ell.out_dim, dtype=complex)
        )
    v = eval_monomial_map(table, _unit_phases(x, moduli)).values
    if mode == "as_written":
        v[:n] = moduli > 0
    mu = float(moduli[moduli > 0].min())
    return InvariantVector(
        transform_id="Phi",
        values=np.concatenate([moduli.astype(complex), mu * (ell.matrix @ v)]),
    )


GROUP_KINDS = ("generic", "two_factor", "image", "trivial")


def lipschitz_bound(
    table: ExponentTable, ell: LinearReduction, group_kind: str = "generic"
) -> float:
    """Certified Lipschitz constant 3*||ell||*C + 1 for the low-dimensional map
    on matching supports.

    generic: C = max(sqrt(sum over components of sum e_j^2), sqrt(dim)); on
        the closed unit polydisc each monomial partial has modulus at most its
        exponent, so this C is the exact sup bound.
    two_factor: closed form 3*sqrt(6)*(p1*p2)*N^(3/2)*||ell|| + 1 for
        two-generator groups.
    image: closed form 3*sqrt(6)*(p1*p2)^(5/2)*||ell|| + 1 when N = p1*p2
        (the shift action on images).
    trivial: 3*||ell|| + 1.
    """
    norm = ell.operator_norm
    if group_kind == "trivial":
        return 3.0 * norm + 1.0
    if group_kind == "generic":
        gradient_sq = sum(int(e) ** 2 for _, exps in table.components() for e in exps)
        c = max(math.sqrt(gradient_sq), math.sqrt(table.total_dim))
        return 3.0 * norm * c + 1.0
    orders = table.group.orders
    if group_kind == "two_factor":
        if len(orders) != 2:
            raise ConfigError("two_factor bound needs exactly two generator orders")
        nm = orders[0] * orders[1]
        return 3.0 * math.sqrt(6.0) * nm * table.group.dim ** 1.5 * norm + 1.0
    if group_kind == "image":
        if len(orders) != 2 or table.group.dim != orders[0] * orders[1]:
            raise ConfigError("image bound needs a shift action with N = n*m")
        nm = orders[0] * orders[1]
        return 3.0 * math.sqrt(6.0) * nm**2.5 * norm + 1.0
    raise ConfigError(f"unknown group_kind {group_kind!r}; expected one of {GROUP_KINDS}")
