"""Hermite reduction, rational invariants, the signed scale restoration,
and the scale-collision counterexample."""

import math
from fractions import Fraction

import numpy as np
import pytest
import reference

from orbitsep import (
    ConfigError,
    DimensionError,
    DomainError,
    HermiteData,
    act,
    construct_counterexample,
    cyclic_fixture_block,
    cyclic_fixture_data,
    cyclic_shift_spec,
    enumerate_group,
    eval_monomial_map,
    build_exponent_table,
    eval_rational_invariants,
    eval_scaled_invariants,
    ae_projection_check,
    hermite_multiplier,
    hermite_normal_form,
    integer_determinant,
    make_group,
    scaling_vector,
    shift_action_spec,
    signed_quadratic,
)
from orbitsep.hermite import hermite_as_dict


def as_np(rows):
    return np.array([list(r) for r in rows], dtype=object)


def test_hnf_identity_fixed_point():
    h, u = hermite_normal_form([[1, 0], [0, 1]])
    assert h == ((1, 0), (0, 1))
    assert u == ((1, 0), (0, 1))


def test_hnf_single_row():
    h, u = hermite_normal_form([[2, 4]])
    assert h == ((2, 0),)
    assert abs(integer_determinant(u)) == 1


def test_hnf_skips_zero_rows():
    h, _ = hermite_normal_form([[0, 0], [2, 4]])
    assert h == ((0, 0), (2, 0))


def test_hnf_random_property():
    rng = np.random.default_rng(21)
    for _ in range(50):
        rows = int(rng.integers(1, 5))
        cols = int(rng.integers(1, 6))
        m = rng.integers(-9, 10, size=(rows, cols)).tolist()
        h, u = hermite_normal_form(m)
        assert (as_np(m) @ as_np(u) == as_np(h)).all()
        assert abs(integer_determinant(u)) == 1
        # staircase: one pivot column per full-rank row, advancing rightward
        pivot_col = 0
        for r in range(rows):
            if pivot_col >= cols:
                break
            if all(h[r][c] == 0 for c in range(pivot_col, cols)):
                continue
            pivot = h[r][pivot_col]
            assert pivot > 0
            assert all(h[r][c] == 0 for c in range(pivot_col + 1, cols))
            assert all(0 <= h[r][c] < pivot for c in range(pivot_col))
            pivot_col += 1


def test_integer_determinant_matches_numpy_and_is_exact():
    rng = np.random.default_rng(22)
    for _ in range(25):
        n = int(rng.integers(1, 6))
        m = rng.integers(-6, 7, size=(n, n)).tolist()
        got = integer_determinant(m)
        want = round(float(np.linalg.det(np.array(m, dtype=float))))
        assert got == want
    big = 10**12
    assert integer_determinant([[big, 1], [1, big]]) == big * big - 1
    with pytest.raises(DimensionError):
        integer_determinant([[1, 2, 3], [4, 5, 6]])


def test_scaling_vector_exact_fraction_solve():
    assert scaling_vector(cyclic_fixture_block(3)) == (
        Fraction(0),
        Fraction(1),
        Fraction(1),
    )
    rng = np.random.default_rng(23)
    hits = 0
    while hits < 10:
        m = rng.integers(-4, 5, size=(3, 3)).tolist()
        if integer_determinant(m) == 0:
            continue
        hits += 1
        c = scaling_vector(m)
        for row in m:
            assert sum(Fraction(v) * cv for v, cv in zip(row, c)) == 1
    with pytest.raises(DomainError):
        scaling_vector([[1, 1], [2, 2]])
    with pytest.raises(DimensionError):
        scaling_vector([[1, 2]])


@pytest.mark.parametrize(
    "n,first", [(3, Fraction(0)), (4, Fraction(-1, 2)), (5, Fraction(-1)), (6, Fraction(-3, 2))]
)
def test_cyclic_fixture_scalings(n, first):
    data = cyclic_fixture_data(n)
    assert data.scaling[0] == first
    assert data.scaling[1:] == tuple([Fraction(1)] * (n - 1))
    assert data.signature[0] == (0 if first == 0 else -1)
    with pytest.raises(ConfigError):
        cyclic_fixture_block(2)


@pytest.mark.parametrize(
    "orders,exps",
    [
        ([6], [[1, 2, 3]]),
        ([2, 3], [[1, 0, 1, 0, 1, 0], [0, 1, 2, 0, 1, 2]]),
        ([4, 6], [[1, 3, 2], [5, 1, 4]]),
        ([1], [[0, 0]]),
    ],
)
def test_hermite_multiplier_defining_identity(orders, exps):
    group = make_group(orders, exps)
    data = hermite_multiplier(group)
    n, s = group.dim, group.num_generators
    stacked = [
        list(group.exponents[i])
        + [-group.orders[i] if j == i else 0 for j in range(s)]
        for i in range(s)
    ]
    # rows of the stacked matrix are (A | -diag(orders)); the reduction must
    # leave the pivot block followed by an all-zero tail of width n
    product = as_np(stacked) @ as_np(data.multiplier)
    assert (product[:, :s] == as_np(data.hermite)).all()
    assert not product[:, s:].any()
    assert abs(integer_determinant(data.multiplier)) == 1
    assert len(data.inv_exponents) == n
    # exact scaling identity: every row of the invariant block dots to one
    for row in data.inv_exponents:
        assert sum(Fraction(v) * c for v, c in zip(row, data.scaling)) == 1


def test_hermite_invariant_columns_under_action():
    rng = np.random.default_rng(24)
    for orders, exps in [
        ([6], [[1, 2, 3]]),
        ([2, 3], [[1, 0, 1, 0, 1, 0], [0, 1, 2, 0, 1, 2]]),
        ([5], [[1, 2, 3, 4]]),
    ]:
        group = make_group(orders, exps)
        data = hermite_multiplier(group)
        n = group.dim
        block = np.array([list(r) for r in data.inv_exponents], dtype=float)
        for _ in range(10):
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            z += 0.3 * np.sign(z.real) + 0.3j  # keep away from zero
            base = np.array(
                [np.prod(z ** block[:, j]) for j in range(n)]
            )
            for el in enumerate_group(group):
                moved_z = act(group, el, z)
                moved = np.array(
                    [np.prod(moved_z ** block[:, j]) for j in range(n)]
                )
                assert np.abs(moved - base).max() <= 1e-10 * max(
                    1.0, np.abs(base).max()
                )


@pytest.mark.parametrize(
    "group", reference.ORACLE_GROUPS.values(), ids=reference.ORACLE_GROUPS.keys()
)
def test_laurent_invariants_match_scalar_reference(group):
    data = hermite_multiplier(group)
    rng = np.random.default_rng(29)
    n = group.dim
    full = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    sparse = full.copy()
    sparse[::3] = 0
    for z in (full, sparse, np.zeros(n, dtype=complex)):
        got = eval_rational_invariants(data, z)
        values, domain_ok = reference.rational_invariants(data, z)
        assert got.domain_ok == domain_ok
        zeros = values == 0
        assert np.array_equal(got.values == 0, zeros)
        # Poles and annihilated components are exactly +0, never -0 or 0 * inf.
        assert not np.signbit(got.values[zeros].view(float)).any()
        np.testing.assert_allclose(got.values, values, rtol=1e-12, atol=0)
    _, scaled = eval_scaled_invariants(data, full)
    np.testing.assert_allclose(
        scaled, reference.scaled_invariants(data, full), rtol=1e-12, atol=0
    )


def test_rational_invariants_on_ones_and_invariance():
    group = cyclic_shift_spec(4)
    data = hermite_multiplier(group)
    ones = np.ones(4, dtype=complex)
    res = eval_rational_invariants(data, ones)
    assert res.domain_ok
    np.testing.assert_allclose(res.values, np.ones(4), atol=1e-12)
    rng = np.random.default_rng(25)
    z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    z += 0.4 * (1 + 1j)
    base = eval_rational_invariants(data, z)
    for el in enumerate_group(group):
        moved = eval_rational_invariants(data, act(group, el, z))
        assert moved.domain_ok == base.domain_ok
        np.testing.assert_allclose(moved.values, base.values, rtol=1e-9, atol=1e-9)


def synthetic_data(block, scaling):
    group = make_group([1], [[0] * len(block)])
    return HermiteData(
        group=group,
        inv_exponents=tuple(tuple(r) for r in block),
        scaling=tuple(Fraction(c) for c in scaling),
        signature=tuple(
            0 if c == 0 else (1 if c > 0 else -1) for c in scaling
        ),
    )


def test_rational_invariants_pole_vs_annihilation():
    poled = synthetic_data([[-1, 0], [0, 1]], [-1, 1])
    res = eval_rational_invariants(poled, np.array([0.0, 2.0], dtype=complex))
    assert not res.domain_ok
    assert res.values[0] == 0
    benign = synthetic_data([[1, 0], [0, 1]], [1, 1])
    res2 = eval_rational_invariants(benign, np.array([0.0, 2.0], dtype=complex))
    assert res2.domain_ok
    assert res2.values[0] == 0 and res2.values[1] == 2


def test_signed_quadratic_values():
    data3 = cyclic_fixture_data(3)
    x = np.array([5.0, 1.0, 2j])
    assert signed_quadratic(data3, x) == pytest.approx(5.0)
    assert signed_quadratic(data3, np.zeros(3, complex)) == 0.0
    nonneg = synthetic_data([[1, 0], [0, 1]], [1, 1])
    y = np.array([3.0, 4.0], dtype=complex)
    assert signed_quadratic(nonneg, y) == pytest.approx(25.0)
    data4 = cyclic_fixture_data(4)
    w = np.array([2.0, 1.0, 1.0, 1.0], dtype=complex)
    assert signed_quadratic(data4, w) == pytest.approx(-1.0)


def test_scaled_invariants_unit_norm_identity():
    data = cyclic_fixture_data(3)
    rng = np.random.default_rng(26)
    x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    x += 0.4 * (1 + 1j)
    x /= np.linalg.norm(x)
    sign, values = eval_scaled_invariants(data, x)
    assert sign == 1
    block = np.array([list(r) for r in data.inv_exponents])
    direct = np.array([np.prod(x ** block[:, j]) for j in range(3)])
    np.testing.assert_allclose(values, direct, rtol=1e-12)


def test_scaled_invariants_invariance_and_separation():
    group = shift_action_spec(2, 3)
    data = hermite_multiplier(group)
    rng = np.random.default_rng(27)
    x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    x += 0.5 * (1 + 1j)
    sign, base = eval_scaled_invariants(data, x)
    for el in enumerate_group(group):
        s2, moved = eval_scaled_invariants(data, act(group, el, x))
        assert s2 == sign
        np.testing.assert_allclose(moved, base, rtol=1e-9, atol=1e-9)
    y = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    y += 0.5 * (1 + 1j)
    s3, other = eval_scaled_invariants(data, y)
    assert s3 != sign or np.abs(other - base).max() > 1e-6


def test_scaled_invariants_domain_errors():
    data = cyclic_fixture_data(4)
    with pytest.raises(DomainError):
        eval_scaled_invariants(data, np.array([0.0, 1.0, 1.0, 1.0], complex))
    # mixed-sign scaling with an exactly vanishing quadratic form: 9 = 4+4+1
    with pytest.raises(DomainError):
        eval_scaled_invariants(data, np.array([3.0, 2.0, 2.0, 1.0], complex))


def test_counterexample_matches_closed_form():
    data = cyclic_fixture_data(4)
    rng = np.random.default_rng(28)
    for _ in range(5):
        y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        y += 0.4 * (1 + 1j)
        y /= np.linalg.norm(y)
        t = abs(y[0]) ** 2
        if t >= 0.45 or t <= 0.02:
            continue
        result = construct_counterexample(data, y)
        closed = (-1.0 + math.sqrt((1.0 + 3.0 * t) / (1.0 - t))) / 2.0
        assert result.lambda_y == pytest.approx(closed, rel=1e-9)
        assert np.linalg.norm(result.twisted) == pytest.approx(1.0, abs=1e-9)
        assert np.linalg.norm(result.scaled) == pytest.approx(
            result.lambda_y, abs=1e-9
        )
        assert result.g_gap <= 1e-8
        assert result.orbit_distance > 1e-3


def test_counterexample_rejections():
    data4 = cyclic_fixture_data(4)
    with pytest.raises(DomainError):
        # nonnegative scaling: only the trivial scale fixes the norm
        construct_counterexample(cyclic_fixture_data(3), np.ones(3) / math.sqrt(3))
    with pytest.raises(DomainError):
        construct_counterexample(data4, np.array([0, 0.6, 0.6, 0.52915026], complex))
    with pytest.raises(DomainError):
        construct_counterexample(data4, np.full(4, 0.7, dtype=complex))
    heavy = np.array([0.9, 0.25, 0.25, 0.25], dtype=complex)
    heavy /= np.linalg.norm(heavy)
    with pytest.raises(DomainError):
        # |y_1|^2 > 1/2 flips the quadratic form negative
        construct_counterexample(data4, heavy)
    degenerate = np.array(
        [math.sqrt(2.0 / 3.0)] + [math.sqrt(1.0 / 9.0)] * 3, dtype=complex
    )
    with pytest.raises(DomainError):
        # second root collapses onto lambda = 1 exactly at |y_1|^2 = 2/3
        construct_counterexample(data4, degenerate)


def test_ae_projection_check_report():
    group = shift_action_spec(2, 3)
    table = build_exponent_table(group)

    def polymap(x):
        return eval_monomial_map(table, x).values

    report = ae_projection_check(group, polymap, 8, 900, 40)
    assert report["out_dim"] == 8
    assert report["poly_dim"] == table.total_dim
    assert report["in_contract"] is True
    assert report["samples"] == 40
    assert report["violations"] == 0
    again = ae_projection_check(group, polymap, 8, 900, 40)
    assert report == again

    same = ae_projection_check(group, polymap, 8, 901, 30, kind="same_orbit")
    assert same["collisions"] == 30 and same["violations"] == 0

    narrow = ae_projection_check(group, polymap, 1, 902, 10)
    assert narrow["in_contract"] is False
    with pytest.raises(ConfigError):
        ae_projection_check(group, polymap, 8, 900, 0)


def test_hermite_as_dict_strings():
    data = cyclic_fixture_data(4)
    payload = hermite_as_dict(data)
    assert payload["scaling"] == ["-1/2", "1", "1", "1"]
    assert payload["signature"] == [-1, 1, 1, 1]
    assert payload["inv_exponents"][0][0] == 4
    assert "multiplier" not in payload
    full = hermite_as_dict(hermite_multiplier(cyclic_shift_spec(3)))
    assert "multiplier" in full and "hermite" in full
