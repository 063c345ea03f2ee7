"""Test-only references: scalar products for the vectorised transforms (one
complex ** int product per component, multiplied left to right starting
from 1), the direct-power monomial kernel (one np.prod per component, the
bits the fast paths keep), the exhaustive minimal-exponent oracle, the
closed form of the single exponents, the lattice solver run on one subset at a time, the
Fraction Gauss-Jordan solve, the chunked brute-force orbit metric, the
least element of G in a coset of the kernel K (the metric's witness
rule), the dense FFT overlap over a quotient's grid, the distinct phase
vectors of a group's elements, the image-side circular shift and the
inverse of to_fourier, the seeded pair samplers of four kinds, the
orbit-equivalence test, the Lipschitz ratio scan one pair at a time and
in chunks with a per-pair choice, the reduction matrix as first drawn,
the empirical separation and proportionality checks, a JSON emitter that
picks its layout from a registry of scalar types, the float byte pass's
decimal tables with their scales from Fraction powers, and the exponent
table as a dict of string keys, the payload that emitter takes."""

import cmath
import functools
import itertools
import json
import math
import sys
from fractions import Fraction

import numpy as np

from orbitsep import (
    ConfigError,
    DimensionError,
    DomainError,
    child_seed,
    cyclic_shift_spec,
    eval_monomial_map,
    make_reduction,
    orbit_distance,
    shift_action_spec,
)
import orbitsep.metric
from orbitsep.exponents import _basis, _minimal
from orbitsep.groups import _check_signal, _norm, act, phase_steps
from orbitsep.io import _EXPONENTS, _LE64, _SIGNIFICANT, _SPLIT, _WORD_BASE, _WORD_DIGITS, KeyedRows, _le64
from orbitsep.metric import OrbitDistanceResult, _full_support, _gaussian
from orbitsep.plan import plan

EQUALITY_TOL = 1e-9
# Natural logs of the smallest normal and of the largest double.
LOG_RANGE = (math.log(sys.float_info.min), math.log(sys.float_info.max))

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


def monomials(z, indices, exponents) -> np.ndarray:
    """prod_j z[..., indices[..., j]] ** exponents[..., j] along the last axis
    by direct power, in one np.prod: the bits the table gather and the
    Laurent evaluators must give.  exponents are float64, as
    exponents.float_exponents gives them.  take gathers C contiguous, so a
    stacked row's product rounds as the single row's does."""
    with np.errstate(all="ignore"):
        return np.prod(z.take(indices, axis=-1) ** exponents, axis=-1)


def monomial_map(table, x) -> np.ndarray:
    return np.array([monomial(x, idx, exps) for idx, exps in table.components()])


def norm_scaled(table, x) -> np.ndarray:
    norm = float(np.linalg.norm(x))
    if norm == 0.0:
        return np.zeros(table.total_dim, dtype=complex)
    return norm * monomial_map(table, x / norm)


def phase_map(table, beta, x) -> np.ndarray:
    moduli = np.abs(x)
    weights = [tuple(row) for block in beta.blocks for row in block]
    values = []
    for (idx, exps), ws in zip(table.components(), weights, strict=True):
        if len(idx) == 1:
            values.append(complex(moduli[idx[0]] ** ws[0]))
        elif any(moduli[k] == 0 for k in idx):
            values.append(0j)
        else:
            value = complex(1.0)
            for k, e, b in zip(idx, exps, ws, strict=True):
                value *= moduli[k] ** b * (x[k] / moduli[k]) ** int(e)
            values.append(value)
    return np.array(values)


def lowdim(table, ell, x, mode) -> np.ndarray:
    moduli = np.abs(x)
    if not moduli.any():
        return np.zeros(table.group.dim + len(ell), dtype=complex)
    phases = np.where(moduli > 0, x / np.where(moduli > 0, moduli, 1.0), 0j)
    if mode == "repaired":
        v = monomial_map(table, phases)
    else:
        off_diagonal = [
            monomial(phases, idx, exps) for idx, exps in table.components() if len(idx) > 1
        ]
        v = np.concatenate([(moduli > 0).astype(complex), np.array(off_diagonal, dtype=complex)])
    mu = float(moduli[moduli > 0].min())
    return np.concatenate([moduli.astype(complex), mu * (ell @ v)])


def rational_invariants(data, z):
    """(values, domain_ok): column j is prod_k z_k ** block[k][j]; a pole or
    an annihilating zero reports 0, a pole or a non-finite value clears
    domain_ok, and so does a factor log-modulus e_k * log|z_k|, or a running
    sum of them in coordinate order, outside the open log range of normal
    doubles."""
    n = data.dim
    values = np.zeros(n, dtype=complex)
    domain_ok = True
    for j in range(n):
        column = [data.inv_exponents[k][j] for k in range(n)]
        if any(z[k] == 0 and e < 0 for k, e in enumerate(column)):
            domain_ok = False
        elif not any(z[k] == 0 and e > 0 for k, e in enumerate(column)):
            values[j] = monomial(z, range(n), column)
            terms = [float(e) * math.log(abs(complex(z[k]))) for k, e in enumerate(column) if e]
            domain_ok = domain_ok and cmath.isfinite(values[j]) and all(
                LOG_RANGE[0] < t < LOG_RANGE[1] for t in (*terms, *itertools.accumulate(terms))
            )
    return values, domain_ok


def scaled_invariants(data, x) -> np.ndarray:
    """sqrt|q| * (x / sqrt|q|)^columns, q the norm squared when the scaling
    vector is nonnegative and the signed quadratic form otherwise."""
    n = data.dim
    signs = [1 if min(data.scaling) >= 0 else s for s in data.signature]
    scale = math.sqrt(abs(sum(s * abs(complex(v)) ** 2 for s, v in zip(signs, x))))
    columns = [[data.inv_exponents[k][j] for k in range(n)] for j in range(n)]
    return scale * np.array([monomial(x / scale, range(n), col) for col in columns])


def fraction_solve(matrix):
    """Exact solve of matrix @ c = (1, ..., 1) by Gauss-Jordan elimination
    over Fractions; DomainError when the matrix is singular."""
    n = len(matrix)
    aug = [[Fraction(int(v)) for v in row] + [Fraction(1)] for row in matrix]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise DomainError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = aug[col][col]
        aug[col] = [v / inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return tuple(row[n] for row in aug)


def _packed_residues(rows, orders):
    """Pack per-row residue arrays into single mixed-radix integer keys."""
    key = np.zeros_like(rows[0], dtype=np.int64)
    scale = 1
    for residues, p in zip(rows, orders):
        key += scale * residues
        scale *= p
    return key


def oracle_minimal(group, subset):
    """Exhaustive-search minimum over exponents in [0, lcm of orders].

    Same search order as the solver (leading exponent, then lex completion),
    implemented as a batched scan with no congruence reasoning.
    """
    subset = tuple(int(k) for k in subset)
    if any(not 0 <= k < group.dim for k in subset):
        raise DimensionError(f"subset {subset} out of range for dimension {group.dim}")
    if not 1 <= len(subset) <= 3:
        raise ConfigError(f"oracle supports subsets of size 1..3, got {len(subset)}")
    if len(set(subset)) != len(subset):
        raise DimensionError("subset indices must be distinct")
    L = group.phase_lcm
    orders = np.array(group.orders, dtype=np.int64)[:, None]
    cols = [
        np.array([row[k] for row in group.exponents], dtype=np.int64)[:, None]
        for k in subset
    ]

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


def solver_minimal(group, ks) -> tuple:
    """The package's lattice solver on the one subset ks, with its indices
    checked: each in range and all distinct, else DimensionError."""
    ks = tuple(int(k) for k in ks)
    for k in ks:
        if not 0 <= k < group.dim:
            raise DimensionError(f"coordinate index {k} out of range for dimension {group.dim}")
    if len(set(ks)) != len(ks):
        raise DimensionError(f"subset indices must be distinct, got {ks}")
    return _minimal(tuple(zip(*group.exponents)), ks, functools.partial(_basis, group))


def minimal_single(group, k: int) -> int:
    """Least m >= 1 making x_k^m invariant."""
    return solver_minimal(group, (k,))[0]


def minimal_pair(group, k1: int, k2: int) -> tuple:
    """Least a >= 1 admitting b with x_{k1}^a x_{k2}^b invariant; b minimal in [0, m_{k2})."""
    return solver_minimal(group, (k1, k2))


def minimal_triple(group, k1: int, k2: int, k3: int) -> tuple:
    """Least c >= 1 admitting (d, e); (d, e) lexicographically smallest in range."""
    return solver_minimal(group, (k1, k2, k3))


def lcm_single(group, k: int) -> int:
    """Least m >= 1 making x_k^m invariant, in closed form: the lcm over the
    generators of p_i / gcd(A[i][k], p_i)."""
    return math.lcm(
        *(p // math.gcd(row[k], p) for row, p in zip(group.exponents, group.orders))
    )


def brute_orbit_distance(group, x, y, chunk: int = 4096) -> OrbitDistanceResult:
    """Orbit distance by scoring every element, in lexicographic order and in
    blocks of `chunk` elements, with integer-exact phases; the first element
    with the smallest score is the witness."""
    x = _check_signal(group, x)
    y = _check_signal(group, y)
    elements = list(itertools.product(*(range(p) for p in group.orders)))
    L = group.phase_lcm
    steps = phase_steps(group)
    cross = x * np.conj(y)
    const = float(np.vdot(x, x).real + np.vdot(y, y).real)
    best_val = np.inf
    best_idx = 0
    for start in range(0, len(elements), chunk):
        block = np.array(elements[start : start + chunk], dtype=np.int64)
        turns = block @ steps % L
        overlap = np.exp((-2j * np.pi / L) * turns) @ cross
        vals = const - 2.0 * overlap.real
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val = float(vals[i])
            best_idx = start + i
    witness = tuple(int(v) for v in elements[best_idx])
    distance = float(np.linalg.norm(x - act(group, witness, y)))
    return OrbitDistanceResult(distance=distance, witness=witness)


def least_member(kernel, rows) -> tuple:
    """The least element of G in the cosets of K through the integer rows:
    kernel is faithful_quotient(G).kernel, and each pivot column i moves
    entry i into [0, kernel[i][i]) without changing the coset."""
    rows = np.array(rows, dtype=np.int64)
    for i, column in enumerate(np.asarray(kernel, dtype=np.int64).T):
        rows -= (rows[:, i] // column[i])[:, None] * column
    return tuple(rows[np.lexsort(rows.T[::-1])[0]].tolist())


def fft_overlap(quotient, cross) -> np.ndarray:
    """Re sum_k cross_k exp(-2 pi i sum_j q_j e_jk / d_j) for every q in
    Q = Z_{d_1} x ... x Z_{d_m}, shaped like Q: cross binned onto Q's grid
    by its characters, then one FFT over the whole grid."""
    grid = np.zeros(quotient.orders, dtype=complex)
    np.add.at(grid, quotient.exponents, cross)  # one index row per axis
    return np.fft.fftn(grid).real


def brute_phase_vectors(group) -> set:
    """The distinct phase vectors of the group's elements, each as its
    integer turns mod L per coordinate, from every element in turn."""
    L = group.phase_lcm
    steps = phase_steps(group).tolist()
    return {
        tuple(sum(g * row[k] for g, row in zip(element, steps)) % L for k in range(group.dim))
        for element in itertools.product(*(range(p) for p in group.orders))
    }


def brute_quotient_order(group) -> int:
    """|G/K|: the number of distinct phase vectors, since two elements act
    alike exactly when they differ by an element of the kernel K."""
    return len(brute_phase_vectors(group))


def shift_image(image, shift) -> np.ndarray:
    """Circularly shift an image: output[u, v] = image[(u+i) % n, (v+j) % m]."""
    image = np.asarray(image)
    if image.ndim != 2:
        raise DimensionError(f"image must be 2D, got shape {image.shape}")
    i, j = int(shift[0]), int(shift[1])
    return np.roll(image, (-i, -j), axis=(0, 1))


def from_fourier(signal, n: int, m: int) -> np.ndarray:
    """Invert to_fourier; round-trips within 1e-12 relative."""
    signal = np.asarray(signal, dtype=complex)
    n, m = int(n), int(m)
    if signal.ndim != 1 or signal.shape[0] != n * m:
        raise DimensionError(f"signal has shape {signal.shape}, expected length {n * m}")
    spectrum = np.roll(signal.reshape(n, m), (1, 1), axis=(0, 1))
    return np.fft.ifft2(spectrum) * math.sqrt(n * m)


PAIR_KINDS = ("same_orbit", "random", "matched_support", "full_support")


def sample_pair(group, kind: str, seed):
    """Deterministic signal pair of the requested kind.

    same_orbit: y = g.x for a random element (distance 0).
    random: independent complex Gaussians.
    matched_support: independent values on one shared nonempty zero pattern.
    full_support: independent with every modulus >= 0.05, drawn as the
    package's bench scan draws them.
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


def pairs(group, kind: str, samples: int, seed):
    """Pair i is sample_pair(group, kind, child_seed(seed, i)), for i below samples."""
    for i in range(int(samples)):
        yield sample_pair(group, kind, child_seed(seed, i))


def equivalent(group, x, y, tol: float = 1e-9) -> bool:
    """Whether the orbit distance is below tol."""
    return orbit_distance(group, x, y).distance < tol


def ratio_scan(transform, group, pairs):
    """The Lipschitz ratio scan one pair at a time: one orbit_distance call
    per pair and one transform call per signal of each pair not skipped."""
    best, best_pair = -np.inf, None
    for x, y in pairs:
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
        raise DomainError("every sampled pair was orbit-equivalent; use another seed")
    return best, best_pair


def chunked_ratio_scan(transform, group, pairs, width: int = 0):
    """lipschitz_ratio_scan with its kept pairs, gaps, ratios and choices
    taken one pair at a time in Python: the same chunks of
    orbitsep.metric._STACK // width pairs, each scored with one metric call
    and one transform call."""
    width = max(plan(group).quotient.group.group_order, width)
    pairs = iter(pairs)
    best, best_pair, given = -np.inf, None, 0
    while chunk := list(itertools.islice(pairs, max(1, orbitsep.metric._STACK // width))):
        given += len(chunk)
        xs, ys = (np.array(side) for side in zip(*chunk))
        distances = [r.distance for r in orbit_distance(group, xs, ys)]
        kept = [i for i, d in enumerate(distances) if not d <= 1e-9]
        if not kept:
            continue
        values = np.asarray(transform(np.concatenate([xs[kept], ys[kept]])))
        with np.errstate(all="ignore"):  # non-finite values give a non-finite gap
            gaps = [_norm(row) for row in values[:len(kept)] - values[len(kept):]]
        for i, gap in zip(kept, gaps):
            ratio = gap / distances[i]
            if np.isnan(ratio):
                return ratio, chunk[i]
            if ratio > best:
                best, best_pair = ratio, chunk[i]
    if not given:
        raise DomainError("no pairs were given")
    if best_pair is None:
        raise DomainError("every sampled pair was orbit-equivalent; use another seed")
    return best, best_pair


def drawn_reduction(seed: int, in_dim: int, out_dim: int) -> np.ndarray:
    """make_reduction's matrix as first written: (re + 1j * im) / sqrt(2)
    from two whole draws of standard normals."""
    rng = np.random.default_rng(seed)
    return (
        rng.standard_normal((out_dim, in_dim))
        + 1j * rng.standard_normal((out_dim, in_dim))
    ) / math.sqrt(2.0)


def check_npp(table, x, y, scale: float) -> bool:
    """Whether the monomial maps are proportional: F(x) = scale * F(y)
    componentwise within 1e-9, for unit-norm signals and scale > 0."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
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


def ae_projection_check(
    group,
    polymap,
    out_dim: int,
    seed,
    samples: int,
    kind: str = "random",
    tol: float = 1e-9,
) -> dict:
    """Empirical check that a seeded generic linear reduction of an invariant
    polynomial map still separates: counts pairs that collide after reduction
    yet sit in distinct orbits.  out_dim below dim+2 leaves the generic
    separation theorem's contract, which is flagged, not fatal."""
    samples = int(samples)
    if samples < 1:
        raise ConfigError("samples must be positive")
    probe = np.asarray(polymap(np.ones(group.dim, dtype=complex)))
    poly_dim = int(probe.size)
    reduction_seed = seed if isinstance(seed, int) else abs(hash(tuple(seed)))
    ell = make_reduction(reduction_seed, poly_dim, out_dim)
    collisions = 0
    violations = 0
    for i in range(samples):
        x, y = sample_pair(group, kind, child_seed(seed, i))
        px = ell @ np.asarray(polymap(x))
        py = ell @ np.asarray(polymap(y))
        ref = max(1.0, float(np.linalg.norm(px)), float(np.linalg.norm(py)))
        if float(np.linalg.norm(px - py)) <= tol * ref:
            collisions += 1
            if orbit_distance(group, x, y).distance > 1e-6:
                violations += 1
    return {
        "out_dim": int(out_dim),
        "poly_dim": poly_dim,
        "in_contract": bool(out_dim >= group.dim + 2),
        "kind": kind,
        "samples": samples,
        "collisions": collisions,
        "violations": violations,
        "seed": seed,
        "tolerance": tol,
    }


def _reference_float_text(x: float) -> str:
    if math.isnan(x):
        return '"NaN"'
    if math.isinf(x):
        return '"Infinity"' if x > 0 else '"-Infinity"'
    return format(float(x), ".17g")


_REFERENCE_SCALAR_TYPES = (
    bool,
    int,
    float,
    complex,
    str,
    Fraction,
    type(None),
    np.integer,
    np.floating,
    np.complexfloating,
)


def _reference_scalar_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _reference_float_text(float(value))
    if isinstance(value, (complex, np.complexfloating)):
        return f"[{_reference_float_text(value.real)}, {_reference_float_text(value.imag)}]"
    if isinstance(value, Fraction):
        return json.dumps(str(value))
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    raise TypeError(f"not a scalar: {type(value)!r}")


def _reference_emit(value, depth: int) -> str:
    if isinstance(value, KeyedRows):
        value = rows_as_dict(*value)
    if isinstance(value, _REFERENCE_SCALAR_TYPES) or value is None:
        return _reference_scalar_text(value)
    if isinstance(value, np.ndarray):
        return _reference_emit(value.tolist(), depth)
    pad = "  " * (depth + 1)
    close = "  " * depth
    if isinstance(value, dict):
        if not value:
            return "{}"
        parts = [
            f"{pad}{json.dumps(str(key))}: {_reference_emit(item, depth + 1)}"
            for key, item in value.items()
        ]
        return "{\n" + ",\n".join(parts) + "\n" + close + "}"
    if isinstance(value, (list, tuple)):
        if not len(value):
            return "[]"
        if all(isinstance(item, _REFERENCE_SCALAR_TYPES) for item in value):
            return "[" + ", ".join(_reference_scalar_text(item) for item in value) + "]"
        parts = [f"{pad}{_reference_emit(item, depth + 1)}" for item in value]
        return "[\n" + ",\n".join(parts) + "\n" + close + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def reference_emit_json(payload: dict) -> str:
    """The emitter with a registry of scalar types deciding the layout,
    non-finite floats sorted out before formatting, and KeyedRows written
    as a dict of one entry per row; the package's emitter must give the
    same text."""
    return _reference_emit(payload, 0) + "\n"


def decimal_tables():
    """io._decimal_tables with its scales from Fraction powers: the scale
    10**(16 - X), its residual and whether it is exact, rounded by float of
    a Fraction; the prefix, suffix, row, masks and trailing tables as the
    byte pass takes them."""
    xs = np.array(_EXPONENTS)
    scale = np.empty((len(xs), 4))
    exact = np.empty(len(xs), bool)
    for i, x in enumerate(xs.tolist()):
        power = Fraction(10) ** (16 - x)
        double = float(power)
        c = double * _SPLIT
        high = c - (c - double)
        scale[i] = double, high, double - high, float(power - Fraction(double))
        exact[i] = power == double
    fixed = (xs >= -4) & (xs < _SIGNIFICANT)
    prefix = np.zeros((2, len(xs)), _LE64)
    suffix = np.zeros(len(xs), _LE64)
    for i, x in enumerate(xs.tolist()):
        lead = "0." + "0" * (-x - 1) if -4 <= x < 0 else ""
        for sign in (0, 1):
            text = "-" * sign + lead
            prefix[sign, i] = _le64(text) << 8 * (8 - len(text))
        suffix[i] = _le64("" if fixed[i] else "e%+03d" % x)
    # p: X + 1 in fixed notation, 1 in exponent notation, and past the
    # digits when the prefix holds the point ("0.000" of X < 0)
    point = np.where(fixed, np.where(xs >= 0, xs + 1, _SIGNIFICANT), 1)
    kept = np.arange(_SIGNIFICANT + 1)  # digits left when trailing zeros go
    width = np.where(kept > point[:, None], kept + 1, point[:, None])  # field bytes
    width[fixed & (xs < 0)] = kept
    row = (point[:, None] * (_SIGNIFICANT + 2) + width).ravel()
    b = np.arange(24)
    p, w = np.divmod(np.arange((_SIGNIFICANT + 1) * (_SIGNIFICANT + 2))[:, None], _SIGNIFICANT + 2)
    below = (b >= 3) & (b < 3 + np.minimum(p, w))
    above = (b > 3 + p) & (b < 3 + w)
    masks = [np.where(m, fill, 0).astype(np.uint8).view(_LE64)
             for m, fill in ((below, 0xFF), (above, 0xFF), ((b == 3 + p) & (b < 3 + w), ord(".")))]
    v = np.arange(_WORD_BASE)
    trailing = sum((v % 10**e == 0).astype(np.int8) for e in range(1, _WORD_DIGITS + 1))
    return scale, exact, prefix.ravel(), suffix, row, masks, trailing


def rows_as_dict(keys, values) -> dict:
    """{"k1,k2": [a, b], ...}: one string key and one list per row."""
    return {",".join(map(str, ks)): items for ks, items in zip(keys.tolist(), values.tolist())}


def table_as_dict(table) -> dict:
    """JSON-ready view: {"singles": [...], "pairs": {"k1,k2": [a, b]}, ...}."""
    (_, singles), *tuples = table.arrays
    pairs, triples = (rows_as_dict(indices, exponents) for indices, exponents in tuples)
    return {
        "singles": singles[:, 0].tolist(),
        "pairs": pairs,
        "triples": triples,
        "total_dim": table.total_dim,
    }
