"""Scalar references for the vectorised transforms: one complex ** int
product per component, multiplied left to right starting from 1."""

import cmath
import math

import numpy as np

from orbitsep import cyclic_shift_spec, shift_action_spec

# Groups the vectorised transforms are checked against these references on.
ORACLE_GROUPS = {
    "shift2x3": shift_action_spec(2, 3),
    "shift4x4": shift_action_spec(4, 4),
    "shift6x6": shift_action_spec(6, 6),
    "cyclic16": cyclic_shift_spec(16),
}


def monomial(z, indices, exponents) -> complex:
    value = complex(1.0)
    for k, e in zip(indices, exponents):
        value *= complex(z[k]) ** int(e)
    return value


def monomial_map(table, x) -> np.ndarray:
    return np.array([monomial(x, idx, exps) for idx, exps in table.components()])


def norm_scaled(table, x) -> np.ndarray:
    norm = float(np.linalg.norm(x))
    if norm == 0.0:
        return np.zeros(table.total_dim, dtype=complex)
    return norm * monomial_map(table, x / norm)


def phase_map(table, beta, x) -> np.ndarray:
    moduli = np.abs(x)
    values = []
    for idx, exps in table.components():
        if len(idx) == 1:
            values.append(complex(moduli[idx[0]] ** beta.singles[idx[0]]))
        elif any(moduli[k] == 0 for k in idx):
            values.append(0j)
        else:
            value = complex(1.0)
            for k, e, b in zip(idx, exps, beta.for_subset(idx)):
                value *= moduli[k] ** b * (x[k] / moduli[k]) ** int(e)
            values.append(value)
    return np.array(values)


def lowdim(table, ell, x, mode) -> np.ndarray:
    moduli = np.abs(x)
    if not moduli.any():
        return np.zeros(table.group.dim + ell.out_dim, dtype=complex)
    phases = np.where(moduli > 0, x / np.where(moduli > 0, moduli, 1.0), 0j)
    if mode == "repaired":
        v = monomial_map(table, phases)
    else:
        off_diagonal = [
            monomial(phases, idx, exps) for idx, exps in table.components() if len(idx) > 1
        ]
        v = np.concatenate([(moduli > 0).astype(complex), np.array(off_diagonal, dtype=complex)])
    mu = float(moduli[moduli > 0].min())
    return np.concatenate([moduli.astype(complex), mu * (ell.matrix @ v)])


def rational_invariants(data, z):
    """(values, domain_ok): column j is prod_k z_k ** block[k][j]; a pole or
    an annihilating zero reports 0, a pole or a non-finite value clears
    domain_ok."""
    n = data.dim
    values = np.zeros(n, dtype=complex)
    domain_ok = True
    for j in range(n):
        column = [data.inv_exponents[k][j] for k in range(n)]
        if any(z[k] == 0 and e < 0 for k, e in enumerate(column)):
            domain_ok = False
        elif not any(z[k] == 0 and e > 0 for k, e in enumerate(column)):
            values[j] = monomial(z, range(n), column)
            domain_ok = domain_ok and cmath.isfinite(values[j])
    return values, domain_ok


def scaled_invariants(data, x) -> np.ndarray:
    """sqrt|q| * (x / sqrt|q|)^columns, q the norm squared when the scaling
    vector is nonnegative and the signed quadratic form otherwise."""
    n = data.dim
    signs = [1 if min(data.scaling) >= 0 else s for s in data.signature]
    scale = math.sqrt(abs(sum(s * abs(complex(v)) ** 2 for s, v in zip(signs, x))))
    columns = [[data.inv_exponents[k][j] for k in range(n)] for j in range(n)]
    return scale * np.array([monomial(x / scale, range(n), col) for col in columns])
