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

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, DomainError
from .exponents import ExponentTable
from .groups import _check_signal

EQUALITY_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class InvariantVector:
    transform_id: str
    values: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.values)


@dataclass(frozen=True, eq=False)
class BetaWeights:
    """Moduli exponents for the phase map: >= 1 on singles, >= 0 elsewhere."""

    singles: tuple
    pairs: dict
    triples: dict

    def __post_init__(self):
        if any(b < 1 for b in self.singles):
            raise ConfigError("single-coordinate beta weights must be >= 1")
        for weights in (*self.pairs.values(), *self.triples.values()):
            if any(b < 0 for b in weights):
                raise ConfigError("beta weights must be nonnegative")

    def for_subset(self, indices):
        if len(indices) == 2:
            return self.pairs[indices]
        return self.triples[indices]


def default_beta(table: ExponentTable) -> BetaWeights:
    """All weights 1, matching the table's subsets."""
    return BetaWeights(
        singles=tuple(1.0 for _ in table.singles),
        pairs={idx: (1.0, 1.0) for idx in table.pairs},
        triples={idx: (1.0, 1.0, 1.0) for idx in table.triples},
    )


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
    exactly zero."""
    x = _check_signal(table.group, x)
    moduli = np.abs(x)
    phases = _unit_phases(x, moduli)
    with np.errstate(all="ignore"):
        values = [(moduli ** np.array(beta.singles)).astype(complex)]
        for (idx, exps), subsets in zip(table.blocks[1:], (table.pairs, table.triples)):
            weights = np.array([beta.for_subset(s) for s in subsets]).reshape(idx.shape)
            value = np.prod(moduli[idx] ** weights * phases[idx] ** exps, axis=-1)
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
    """Seeded complex Gaussian matrix with its cached operator norm."""

    matrix: np.ndarray
    seed: int
    operator_norm: float

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
    operator_norm = float(np.linalg.svd(matrix, compute_uv=False)[0])
    return LinearReduction(matrix=matrix, seed=int(seed), operator_norm=operator_norm)


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
    phases = _unit_phases(x, moduli)
    if mode == "repaired":
        v = eval_monomial_map(table, phases).values
    else:
        support = (moduli > 0).astype(complex)
        v = np.concatenate(
            [support, *(monomials(phases, idx, exps) for idx, exps in table.blocks[1:])]
        )
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
        gradient_sq = 0
        for _, exps in table.components():
            gradient_sq += sum(int(e) ** 2 for e in exps)
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


def check_npp(table: ExponentTable, x, y, scale: float) -> bool:
    """Whether the monomial maps are proportional: F(x) = scale * F(y)
    componentwise within 1e-9, for unit-norm signals and scale > 0."""
    x = _check_signal(table.group, x)
    y = _check_signal(table.group, y)
    scale = float(scale)
    if scale <= 0:
        raise DomainError(f"proportionality scale must be positive, got {scale}")
    for name, z in (("x", x), ("y", y)):
        if abs(np.linalg.norm(z) - 1.0) > 1e-9:
            raise DomainError(f"{name} must have unit norm")
    fx = eval_monomial_map(table, x).values
    fy = eval_monomial_map(table, y).values
    ref = max(1.0, float(np.abs(fx).max()), float(np.abs(scale * fy).max()))
    return bool(np.all(np.abs(fx - scale * fy) <= EQUALITY_TOL * ref))
