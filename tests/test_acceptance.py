"""Acceptance gate: one test per release criterion, each emitting a single
pass/fail line through the criterion fixture."""

import math
from fractions import Fraction

import numpy as np
import pytest

from orbitsep import (
    act,
    build_exponent_table,
    child_seed,
    construct_counterexample,
    cyclic_fixture_data,
    default_beta,
    default_reduction,
    enumerate_group,
    eval_lowdim,
    eval_monomial_map,
    eval_norm_scaled,
    eval_phase_map,
    eval_scaled_invariants,
    hermite_multiplier,
    integer_determinant,
    lipschitz_bound,
    lipschitz_ratio_scan,
    make_group,
    orbit_distance,
    shift_action_spec,
    signed_quadratic,
)
from reference import (
    ae_projection_check,
    check_npp,
    minimal_pair,
    minimal_single,
    minimal_triple,
    oracle_minimal,
    pairs,
    sample_pair,
    shift_image,
)

SEED = 20260817
SHIFT23 = shift_action_spec(2, 3)


def random_group(rng, max_order=12, max_dim=5):
    s = int(rng.integers(1, 4))
    orders = [int(v) for v in rng.integers(1, max_order + 1, size=s)]
    n = int(rng.integers(1, max_dim + 1))
    exps = rng.integers(0, 25, size=(s, n)).tolist()
    return make_group(orders, exps)


def rel_equal(a, b, tol=1e-9):
    scale = max(1.0, float(np.abs(a).max()), float(np.abs(b).max()))
    return float(np.abs(a - b).max()) <= tol * scale


def test_minimal_exponents_match_exhaustive_oracle(criterion):
    rng = np.random.default_rng(SEED)
    checked = 0
    for _ in range(200):
        group = random_group(rng)
        n = group.dim
        for k in range(n):
            assert minimal_single(group, k) == oracle_minimal(group, (k,))[0]
            checked += 1
        for k1 in range(n):
            for k2 in range(k1 + 1, n):
                assert minimal_pair(group, k1, k2) == oracle_minimal(group, (k1, k2))
                checked += 1
                for k3 in range(k2 + 1, n):
                    assert minimal_triple(group, k1, k2, k3) == oracle_minimal(
                        group, (k1, k2, k3)
                    )
                    checked += 1
    criterion(1, True, f"200 random groups, {checked} tuples equal the oracle")


def test_table_dimension_formula(criterion):
    for n in range(1, 9):
        group = make_group([6], [list(range(1, n + 1))])
        want = n + n * (n - 1) // 2 + n * (n - 1) * (n - 2) // 6
        assert build_exponent_table(group).total_dim == want
    criterion(2, True, "total_dim matches the closed count for N = 1..8")


def test_transform_invariance_suite(criterion):
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for group in (make_group([2, 3], [[1, 0], [0, 1]]), shift_action_spec(3, 2)):
        table = build_exponent_table(group)
        beta = default_beta(table)
        ell = default_reduction(table, 7)
        maps = (
            lambda x: eval_monomial_map(table, x).values,
            lambda x: eval_phase_map(table, beta, x).values,
            lambda x: eval_norm_scaled(table, x).values,
            lambda x: eval_lowdim(table, ell, x).values,
        )
        for i in range(100):
            x = rng.standard_normal(group.dim) + 1j * rng.standard_normal(group.dim)
            if i % 10 == 0:
                x[int(rng.integers(0, group.dim))] = 0
            for fn in maps:
                base = fn(x)
                scale = max(1.0, float(np.abs(base).max()))
                for el in enumerate_group(group):
                    err = float(np.abs(fn(act(group, el, x)) - base).max()) / scale
                    worst = max(worst, err)
                    assert err <= 1e-10
    criterion(3, True, f"four transforms invariant, worst relative error {worst:.2e}")


def test_transform_equality_matches_orbit_oracle(criterion):
    table = build_exponent_table(SHIFT23)
    beta = default_beta(table)
    ell = default_reduction(table, 9)
    maps = (
        lambda x: eval_monomial_map(table, x).values,
        lambda x: eval_phase_map(table, beta, x).values,
        lambda x: eval_norm_scaled(table, x).values,
        lambda x: eval_lowdim(table, ell, x).values,
    )
    kinds = ("same_orbit", "random", "matched_support", "full_support")
    merges = splits = 0
    for i in range(500):
        x, y = sample_pair(SHIFT23, kinds[i % 4], child_seed(SEED + 2, i))
        same_orbit = orbit_distance(SHIFT23, x, y).distance < 1e-9
        for fn in maps:
            equal = rel_equal(fn(x), fn(y))
            if equal and not same_orbit:
                merges += 1
            if same_orbit and not equal:
                splits += 1
    assert merges == 0 and splits == 0
    criterion(
        4, True, "500 pairs, 4 transforms: zero false merges, zero false splits"
    )


def test_lowdim_ratio_within_certified_bound(criterion):
    table = build_exponent_table(SHIFT23)
    ell = default_reduction(table, 11)
    bound = lipschitz_bound(table, ell)
    transform = lambda x: eval_lowdim(table, ell, x).values
    ratio, _ = lipschitz_ratio_scan(transform, SHIFT23, pairs(SHIFT23, "full_support", 1000, SEED + 3))
    assert ratio <= bound
    criterion(5, True, f"max ratio {ratio:.3f} within certified bound {bound:.1f}")


def test_hermite_identities_exact(criterion):
    rng = np.random.default_rng(SEED + 4)
    worst = 0.0
    for _ in range(100):
        group = random_group(rng, max_order=8, max_dim=5)
        data = hermite_multiplier(group)
        n, s = group.dim, group.num_generators
        stacked = [
            list(group.exponents[i])
            + [-group.orders[i] if j == i else 0 for j in range(s)]
            for i in range(s)
        ]
        m = np.array(stacked, dtype=object)
        u = np.array([list(r) for r in data.multiplier], dtype=object)
        product = m @ u
        assert (product[:, :s] == np.array(
            [list(r) for r in data.hermite], dtype=object
        )).all()
        assert not product[:, s:].any()
        assert abs(integer_determinant(data.multiplier)) == 1
        for row in data.inv_exponents:
            assert sum(Fraction(v) * c for v, c in zip(row, data.scaling)) == 1
        block = np.array([list(r) for r in data.inv_exponents], dtype=float)
        # unit-modulus points keep every Laurent monomial bounded, so the
        # comparison is meaningful no matter how large the exponents get
        z = np.exp(2j * np.pi * rng.random(n))
        base = np.array([np.prod(z ** block[:, j]) for j in range(n)])
        for g_idx in range(s):
            el = tuple(1 if i == g_idx else 0 for i in range(s))
            moved_z = act(group, el, z)
            moved = np.array([np.prod(moved_z ** block[:, j]) for j in range(n)])
            err = float(np.abs(moved - base).max())
            worst = max(worst, err)
            assert err <= 1e-10
    criterion(
        6, True, f"100 groups: exact identities, worst invariance error {worst:.2e}"
    )


def test_cyclic_fixture_scaling_closed_form(criterion):
    data3 = cyclic_fixture_data(3)
    assert data3.scaling == (Fraction(0), Fraction(1), Fraction(1))
    sizes = range(3, 13)
    mismatches = []
    for n in sizes:
        data = cyclic_fixture_data(n)
        # The block has first row (n, n-2, ..., 1, 0) and identity rows below,
        # so block @ c = 1 forces c_k = 1 for k >= 1 and then
        # n*c_0 + (n-1)(n-2)/2 = 1, i.e. c_0 = (3 - n)/2.
        want = Fraction(3 - n, 2)
        got = data.scaling[0]
        if got != want:
            mismatches.append(f"N={n}: leading scale {got}, closed form {want}")
        assert data.scaling[1:] == (Fraction(1),) * (n - 1)
        assert data.signature[0] == (3 - n > 0) - (3 - n < 0)
    passed = not mismatches
    detail = (
        "leading scale matches the closed form (3 - N)/2 for "
        f"N = {sizes.start}..{sizes.stop - 1}"
        if passed
        else "reference closed form disagrees with the exact solve: "
        + "; ".join(mismatches)
    )
    criterion(7, passed, detail)


def test_scale_collision_counterexamples(criterion):
    data = cyclic_fixture_data(4)
    built = 0
    worst_gap, least_distance = 0.0, np.inf
    for seed_idx in range(20):
        result = None
        for attempt in range(64):
            rng = np.random.default_rng(child_seed((SEED + 5, seed_idx), attempt))
            y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            y += 0.1 * (np.sign(y.real) + 1j * np.sign(y.imag))
            y /= np.linalg.norm(y)
            if signed_quadratic(data, y) <= 0:
                continue
            try:
                result = construct_counterexample(data, y)
                break
            except Exception:
                continue
        assert result is not None
        assert result.g_gap <= 1e-8
        assert result.orbit_distance >= 1e-3
        built += 1
        worst_gap = max(worst_gap, result.g_gap)
        least_distance = min(least_distance, result.orbit_distance)
    criterion(
        8,
        built == 20,
        f"20 collisions: max map gap {worst_gap:.1e}, min orbit distance "
        f"{least_distance:.3f}",
    )


def test_scaled_invariants_separate_full_support(criterion):
    data = hermite_multiplier(SHIFT23)
    kinds = ("same_orbit", "full_support")
    violations = 0
    tested = 0
    for i in range(500):
        x, y = sample_pair(SHIFT23, kinds[i % 2], child_seed(SEED + 6, i))
        if np.any(np.abs(x) < 1e-12) or np.any(np.abs(y) < 1e-12):
            continue
        if signed_quadratic(data, x) == 0 or signed_quadratic(data, y) == 0:
            continue
        tested += 1
        sx, vx = eval_scaled_invariants(data, x)
        sy, vy = eval_scaled_invariants(data, y)
        equal = sx == sy and rel_equal(vx, vy)
        same_orbit = orbit_distance(SHIFT23, x, y).distance < 1e-9
        if equal != same_orbit:
            violations += 1
    assert violations == 0
    criterion(9, True, f"{tested} full-support pairs, zero separation violations")


def test_generic_projection_keeps_separation(criterion):
    table = build_exponent_table(SHIFT23)

    def polymap(x):
        return eval_monomial_map(table, x).values

    report = ae_projection_check(SHIFT23, polymap, SHIFT23.dim + 2, SEED + 7, 1000)
    assert report["in_contract"]
    assert report["violations"] == 0
    criterion(
        10,
        True,
        f"1000 pairs at out_dim {report['out_dim']}: "
        f"{report['collisions']} collisions, 0 violations",
    )


def test_no_proportional_monomials_between_orbits(criterion):
    table = build_exponent_table(SHIFT23)
    rng = np.random.default_rng(SEED + 8)
    false_hits = 0
    for _ in range(1000):
        x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        y = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        x /= np.linalg.norm(x)
        y /= np.linalg.norm(y)
        lam = float(rng.uniform(0.25, 4.0))
        if abs(lam - 1.0) < 1e-6:
            continue
        if check_npp(table, x, y, lam) and orbit_distance(
            SHIFT23, x, y
        ).distance > 1e-6:
            false_hits += 1
    assert false_hits == 0
    criterion(11, True, "1000 scaled pairs: no proportionality between orbits")


def test_fourier_bridge_diagonalizes_shifts(criterion):
    from orbitsep import to_fourier

    rng = np.random.default_rng(SEED + 9)
    img = rng.standard_normal((2, 3))
    base = to_fourier(img)
    worst = 0.0
    for el in enumerate_group(SHIFT23):
        via_image = to_fourier(shift_image(img, el))
        via_action = act(SHIFT23, el, base)
        err = float(np.abs(via_image - via_action).max())
        worst = max(worst, err)
        assert err <= 1e-10
    criterion(12, True, f"all 6 shifts commute with the transform, max gap {worst:.1e}")
