"""Hermite reduction, rational invariants, the signed scale restoration,
and the scale-collision counterexample."""

import contextlib
import math
from fractions import Fraction

import numpy as np
import pytest
import reference
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
    hermite_multiplier,
    hermite_normal_form,
    integer_determinant,
    make_group,
    scaling_vector,
    shift_action_spec,
    signed_quadratic,
)
import orbitsep.hermite
from orbitsep.errors import InternalCheckError
from orbitsep.exponents import _reduce, float_exponents
from orbitsep.groups import _norm, _unit_norm, _unit_scaled
from orbitsep.hermite import hermite_as_dict
from orbitsep.metric import _full_support, child_seed
from orbitsep.plan import plan


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


@st.composite
def wide_matrices(draw):
    """Integer matrices up to 4 x 8, entries up to +-2**70 mixed with small
    ones, some rows and columns zeroed."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    entry = st.one_of(st.integers(-2, 2), st.integers(-(2**70), 2**70))
    m = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    zero_rows = draw(st.sets(st.integers(0, rows - 1), max_size=rows))
    zero_cols = draw(st.sets(st.integers(0, cols - 1), max_size=cols))
    return [
        [0 if r in zero_rows or c in zero_cols else v for c, v in enumerate(row)]
        for r, row in enumerate(m)
    ]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(wide_matrices())
def test_one_reduction_with_and_without_riding_rows(m):
    h, u = hermite_normal_form(m)
    assert (as_np(m) @ as_np(u) == as_np(h)).all()
    assert abs(integer_determinant(u)) == 1
    alone = [list(row) for row in m]
    _reduce(alone, len(alone))
    assert tuple(map(tuple, alone)) == h


def test_hermite_multiplier_checks_still_raise(monkeypatch):
    group = make_group([6], [[1, 2, 3]])
    real = hermite_normal_form

    def corrupted(edit):
        def reduce(matrix):
            h, u = ([list(row) for row in part] for part in real(matrix))
            edit(h, u)
            return h, u
        return reduce

    def tail(h, u):
        h[0][1] = 1

    def not_invariant(h, u):
        u[0][1] += 1

    def singular(h, u):
        for row in u:
            row[2] = row[1]

    for edit, reason in [(tail, "tail"), (not_invariant, "congruence"), (singular, "singular")]:
        monkeypatch.setattr("orbitsep.hermite.hermite_normal_form", corrupted(edit))
        with pytest.raises(InternalCheckError, match=reason):
            hermite_multiplier(group)


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


@st.composite
def square_matrices(draw):
    """Square integer matrices, about a third made singular by a zero row or
    a row that is a multiple of another.  Either N from 1 to 8 with entries
    up to +-2**70 mixed with small ones (so zero pivots force row swaps), or
    N from 9 to 64 with small entries and a small determinant, so the float
    guess runs: the identity with up to three dense rows, sheared by column
    operations and with its rows permuted."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 8))
        entry = st.one_of(st.integers(-2, 2), st.integers(-(2**70), 2**70))
        m = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    else:
        n = draw(st.integers(9, 64))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        a = np.eye(n, dtype=np.int64)
        a[rng.choice(n, size=draw(st.integers(1, 3)), replace=False)] = rng.integers(-3, 4, size=n)
        for _ in range(draw(st.integers(0, 2 * n))):
            i, j = rng.choice(n, size=2, replace=False)
            a[:, j] += int(rng.integers(-2, 3)) * a[:, i]
        m = a[rng.permutation(n)].tolist()
    if draw(st.integers(0, 2)) == 0:
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        factor = draw(st.integers(-3, 3)) if i != j else 0
        m[i] = [factor * v for v in m[j]]
    return m


@settings(derandomize=True, max_examples=300, deadline=None)
@given(square_matrices())
def test_bareiss_solve_and_determinant_match_oracles(m):
    assert integer_determinant(m) == sympy.Matrix(m).to_DM().det()
    try:
        want = reference.fraction_solve(m)
    except DomainError:
        with pytest.raises(DomainError):
            scaling_vector(m)
        return
    assert scaling_vector(m) == want


@pytest.mark.parametrize(
    "m,solution",
    [([[1, 1], [1, 1]], (1, 0)), ([[1, 0, 1], [1, 1, 2], [1, 2, 3]], (1, 0, 0))],
    ids=["2x2", "rank-2 3x3"],
)
def test_singular_systems_with_a_solution_raise(monkeypatch, m, solution):
    # Each system is consistent (1 is the first column) but singular.
    assert integer_determinant(m) == 0
    assert all(sum(b * v for b, v in zip(row, solution)) == 1 for row in m)
    with pytest.raises(DomainError):
        scaling_vector(m)
    # Roundoff can make a singular block look nonsingular to the float
    # guess.  Here it sees det 1 and an inverse whose row sums solve the
    # system exactly; only the proof that B @ Z is q * I, so that det B is
    # not 0, keeps that solution from being taken as the unique one.
    monkeypatch.setattr(orbitsep.hermite, "_GUESS_MIN_DIM", 1)
    monkeypatch.setattr(np.linalg, "det", lambda a: 1.0)
    monkeypatch.setattr(np.linalg, "inv", lambda a: np.diag(np.array(solution, dtype=float)))
    with pytest.raises(DomainError):
        scaling_vector(m)


def test_float_guess_is_refused_where_its_product_rounds(monkeypatch):
    # B @ Z is [[1, 0], [-1, 1]], but its products need more than 53 bits
    # and it rounds to the identity in float64, so only the bound on
    # N max|B| max|Z| keeps this wrong inverse from being taken.
    block = [[79398627, 36957973], [120392309, 56039454]]
    wrong = np.array([[92997427, -36957973], [-199790936, 79398627]], dtype=float)
    assert (np.array(block, dtype=float) @ wrong == np.eye(2)).all()
    monkeypatch.setattr(orbitsep.hermite, "_GUESS_MIN_DIM", 1)
    monkeypatch.setattr(np.linalg, "inv", lambda a: wrong)
    assert scaling_vector(block) == reference.fraction_solve(block)


def test_float_guess_skips_elimination_until_it_cannot_be_proved(monkeypatch):
    calls = []
    eliminate = orbitsep.hermite._eliminate
    monkeypatch.setattr(orbitsep.hermite, "_eliminate", lambda rows: calls.append(len(rows)) or eliminate(rows))
    for n in (16, 45, 62):
        data = hermite_multiplier(cyclic_shift_spec(n))
        assert data.scaling == reference.fraction_solve(data.inv_exponents)
    assert calls == []
    # A block with an entry beyond 2**53 is refused by the guess, and one
    # below _GUESS_MIN_DIM rows never tries it: both are eliminated.
    big = np.eye(12, dtype=object)
    big[0, :3] = [2**60, 3, -7]
    small = cyclic_fixture_block(orbitsep.hermite._GUESS_MIN_DIM - 1)
    for block in (big.tolist(), small):
        assert scaling_vector(block) == reference.fraction_solve(block)
    assert calls == [12, len(small)]


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


LOG_MIN, LOG_MAX = reference.LOG_RANGE


def exact_log(value: Fraction) -> float:
    return math.log(value.numerator) - math.log(value.denominator)


@st.composite
def laurent_cases(draw):
    """An n x n block of exponents in [-40, 40] and a signal whose moduli
    run from subnormal to near the top of the double range, moderate ones
    and zeros among them, each at a random phase."""
    n = draw(st.integers(1, 5))
    block = draw(st.lists(st.lists(st.integers(-40, 40), min_size=n, max_size=n), min_size=n, max_size=n))
    z = []
    for _ in range(n):
        if draw(st.integers(0, 5)) == 0:
            z.append(0j)
            continue
        scale = draw(st.integers(-20, 20) | st.integers(-1074, 1023))
        modulus = math.ldexp(draw(st.floats(1.0, 2.0, exclude_max=True)), scale)
        angle = draw(st.floats(-math.pi, math.pi))
        z.append(complex(modulus * math.cos(angle), modulus * math.sin(angle)))
    return block, np.array(z)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(laurent_cases())
def test_rational_domain_flag_matches_exact_factor_ranges(case):
    # Oracle: every factor |z_k| ** e_k with e_k != 0 and every running
    # product of them in coordinate order, in exact Fractions, lies strictly
    # between the smallest normal and the largest double; cases within 1e-6
    # of a bound in log, where the flag's rounded logs may fall either way,
    # are skipped.
    block, z = case
    n = len(block)
    data = synthetic_data(block, [1] * n)
    got = eval_rational_invariants(data, z)
    ok = np.isfinite(got.values).all()
    for j in range(n):
        column = [(abs(complex(z[k])), block[k][j]) for k in range(n) if block[k][j]]
        if any(modulus == 0 and e < 0 for modulus, e in column):
            ok = False
        if any(modulus == 0 for modulus, _ in column):
            continue
        running = Fraction(1)
        for modulus, e in column:
            factor = Fraction(modulus) ** e
            running *= factor
            for log in (exact_log(factor), exact_log(running)):
                assume(min(abs(log - LOG_MIN), abs(log - LOG_MAX)) > 1e-6)
                ok = ok and LOG_MIN < log < LOG_MAX
    assert got.domain_ok == ok


def test_rational_domain_flag_catches_an_underflow_to_zero():
    # 2**-600 squared is 2**-1200: the value underflows to exactly 0 with
    # no zero coordinate, which the non-finite check alone cannot see.
    data = synthetic_data([[2, 0], [0, 1]], [Fraction(1, 2), 1])
    res = eval_rational_invariants(data, np.array([2.0**-600, 1.0], dtype=complex))
    assert res.values[0] == 0
    assert not res.domain_ok
    assert eval_rational_invariants(data, np.array([2.0**-500, 1.0], dtype=complex)).domain_ok


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


@pytest.mark.parametrize("k", [-600, -540, 520, 600])
@pytest.mark.parametrize(
    "data", [hermite_multiplier(shift_action_spec(2, 3)), cyclic_fixture_data(5)],
    ids=["norm", "signed-quadratic"],
)
def test_scaled_invariants_power_of_two_homogeneity_is_exact(data, k):
    # Squares of these signals leave the double range; the values must not.
    x = [1, 1j] @ np.random.default_rng(30).standard_normal((2, data.dim)) + 0.3 * (1 + 1j)
    sign, base = eval_scaled_invariants(data, x)
    scaled_sign, scaled = eval_scaled_invariants(data, np.ldexp(x.view(float), k).view(complex))
    assert scaled_sign == sign
    assert np.array_equal(scaled.view(np.uint64), np.ldexp(base.view(float), k).view(np.uint64))


def test_scaled_invariants_domain_errors():
    data = cyclic_fixture_data(4)
    with pytest.raises(DomainError):
        eval_scaled_invariants(data, np.array([0.0, 1.0, 1.0, 1.0], complex))
    # mixed-sign scaling with an exactly vanishing quadratic form: 9 = 4+4+1
    with pytest.raises(DomainError):
        eval_scaled_invariants(data, np.array([3.0, 2.0, 2.0, 1.0], complex))


# Nonnegative scalings (cyclic 12, the n = 3 fixture with its zero entry)
# and mixed-sign ones, with negative exponents that pole at a zero.
STACK_DATA = [hermite_multiplier(g) for g in (cyclic_shift_spec(12), shift_action_spec(3, 4), shift_action_spec(2, 3),
                                              make_group([4, 6], [[1, 2, 3], [5, 0, 1]]))]
STACK_DATA += [cyclic_fixture_data(3), cyclic_fixture_data(6)]


def bits(value):
    return np.asarray(value).tobytes()


def ldexp_or_inf(x, e):
    """math.ldexp, with the infinity of x's sign beyond the double range."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)


@st.composite
def stacks(draw):
    """(data, z, full, elements): a (B, N) stack, B = 1 to 4, of signals
    at scales 2**-1060 (subnormal) to 2**1000, one scale per row; z has
    planted zeros, full has none; one element of s ints per row, unreduced
    and beyond int64."""
    data = draw(st.sampled_from(STACK_DATA))
    rows = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scales = draw(st.lists(st.integers(-1060, 1000), min_size=rows, max_size=rows))
    full = np.ldexp(rng.standard_normal((rows, 2 * data.dim)), np.array(scales)[:, None]).view(complex)
    z = np.where(rng.random(full.shape) < draw(st.floats(0, 0.5)), 0, full)
    element = st.lists(st.integers(-2**70, 2**70), min_size=data.group.num_generators,
                       max_size=data.group.num_generators)
    return data, z, full, draw(st.lists(element, min_size=rows, max_size=rows))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(stacks())
def test_stacked_rows_match_single_calls(stack):
    # Rational, G, the signed quadratic form and act each take one (N,)
    # signal or a (B, N) stack, and each stacked row comes out bit for bit
    # as its single call: one domain_ok, sign and element per row.
    data, z, full, elements = stack
    rational = eval_rational_invariants(data, z)
    assert rational.domain_ok.shape == (len(z),)
    for row, ok, values in zip(z, rational.domain_ok, rational.values):
        single = eval_rational_invariants(data, row)
        assert single.domain_ok is bool(ok)
        assert bits(single.values) == bits(values)
    quadratic = signed_quadratic(data, full)
    for row, value in zip(full, quadratic):
        single = signed_quadratic(data, row)
        # Left to right, as a Python sum adds; a pairwise sum rounds otherwise.
        # The rows are _unit_scaled first, so no square leaves the double range.
        scaled, k = _unit_scaled(row)
        left_to_right = ldexp_or_inf(sum(s * m for s, m in zip(data.signature, np.abs(scaled) ** 2)), 2 * int(k))
        assert type(single) is float and bits(single) == bits(value) == bits(left_to_right)
    try:
        signs, values = eval_scaled_invariants(data, full)
    except DomainError:  # a vanishing form or an underflowed entry in some row
        failed = 0
        for row in full:
            with contextlib.suppress(DomainError):
                eval_scaled_invariants(data, row)
                continue
            failed += 1
        assert failed
    else:
        for row, sign, row_values in zip(full, signs, values):
            single_sign, single_values = eval_scaled_invariants(data, row)
            assert type(single_sign) is int and single_sign == sign
            assert bits(single_values) == bits(row_values)
    moved = act(data.group, elements, z)
    for element, row, row_moved in zip(elements, z, moved):
        assert bits(act(data.group, element, row)) == bits(row_moved)
    reduced = np.array([[e % p for e, p in zip(element, data.group.orders)] for element in elements])
    assert bits(act(data.group, reduced, z)) == bits(moved)


@st.composite
def plan_stacks(draw):
    """(group, z, full): a group of 1 to 3 generators on N = 1 to 12
    coordinates, and a (B, N) stack, B = 1 to 4, at scales 2**-600 to
    2**600, one per row; z has planted zeros, full has none."""
    n = draw(st.integers(1, 12))
    orders = draw(st.lists(st.integers(1, 12), min_size=1, max_size=3))
    matrix = [draw(st.lists(st.integers(0, 11), min_size=n, max_size=n)) for _ in orders]
    rows = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scales = draw(st.lists(st.integers(-600, 600), min_size=rows, max_size=rows))
    full = np.ldexp(rng.standard_normal((rows, 2 * n)), np.array(scales)[:, None]).view(complex)
    z = np.where(rng.random(full.shape) < draw(st.floats(0, 0.5)), 0, full)
    return make_group(orders, matrix), z, full


def direct_rational(data, z):
    """eval_rational_invariants' values and domain_ok, the values by
    reference.monomials on a fresh float64 conversion of the block."""
    exps = float_exponents(data.inv_exponents).T
    zero = (z == 0)[..., None, :]
    poled, annihilated = ((zero & side).any(axis=-1) for side in (exps < 0, exps > 0))
    values = reference.monomials(z[..., None, :], np.arange(data.dim), exps)
    values[poled | annihilated] = 0
    with np.errstate(all="ignore"):
        terms = np.where(exps != 0, exps * np.log(np.abs(z))[..., None, :], 0.0)
        logs = np.concatenate([terms, np.cumsum(terms, axis=-1)], axis=-1)
    in_range = ((reference.LOG_RANGE[0] < logs) & (logs < reference.LOG_RANGE[1])).all(axis=-1)
    return values, ~poled.any(axis=-1) & np.isfinite(values).all(axis=-1) & (in_range | annihilated).all(axis=-1)


def direct_unsigned_map(data, w):
    """The counterexample's row-read map by reference.monomials."""
    norm = _norm(w)
    with np.errstate(all="ignore"):
        return norm * reference.monomials(w / norm, np.arange(data.dim), float_exponents(data.inv_exponents))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(plan_stacks(), st.integers(4, 12))
def test_plan_float_block_evaluates_as_direct_monomials(case, n):
    # The plan's Hermite data converts its block to float64 once; rational
    # values and domain_ok, G's sign and values, and the counterexample's
    # g_gap powered by that block give the bits of reference.monomials on a
    # fresh conversion, the columns gathered by index.
    group, z, full = case
    data = plan(group).hermite
    assert data is plan(group).hermite
    exps = float_exponents(data.inv_exponents)
    assert bits(data.float_block) == bits(exps) and not data.float_block.flags.writeable
    rational = eval_rational_invariants(data, z)
    values, domain_ok = direct_rational(data, z)
    assert bits(rational.values) == bits(values) and bits(rational.domain_ok) == bits(domain_ok)
    x, k = _unit_scaled(full)
    q = signed_quadratic(data, x)
    scale = _unit_norm(x) if min(data.scaling) >= 0 else np.sqrt(np.abs(q))
    with contextlib.suppress(DomainError):  # a vanishing form
        sign, values = eval_scaled_invariants(data, full)
        assert sign.tolist() == [1 if min(data.scaling) >= 0 or v > 0 else -1 for v in q]
        unit = (x / scale[:, None])[:, None, :]
        with np.errstate(all="ignore"):
            want = np.ldexp(scale, k)[:, None] * reference.monomials(unit, np.arange(data.dim), exps.T)
        assert bits(values) == bits(want)
    for data, y in ((data, full[0]), (cyclic_fixture_data(n), _full_support(np.random.default_rng(n), n))):
        # Large exponents can take the map to NaN beside entries past 1e154,
        # and _norm does not scale a row holding NaN, so its squares warn.
        with np.errstate(all="ignore"):
            try:
                result = construct_counterexample(data, y / _norm(y))
            except (DomainError, InternalCheckError):  # no mixed-sign scaling or no usable root
                continue
            gap = _norm(direct_unsigned_map(data, result.scaled) - direct_unsigned_map(data, result.twisted))
        assert bits(result.g_gap) == bits(gap)


def test_signed_quadratic_is_taken_on_scaled_rows():
    # Squares of entries above about 1.3e154 leave the double range: the
    # form is taken on the _unit_scaled rows, so it rescales exactly where
    # it is a double and is an infinity of its sign beyond, without a
    # warning (the suite raises on a RuntimeWarning).
    data = cyclic_fixture_data(6)  # mixed signs
    y = np.random.default_rng(4).standard_normal(12).view(complex)
    q = signed_quadratic(data, y)
    assert q != 0
    assert signed_quadratic(data, np.ldexp(y.view(float), 500).view(complex)) == math.ldexp(q, 1000)
    huge = np.ldexp(y.view(float), 600).view(complex)
    assert signed_quadratic(data, huge) == math.copysign(math.inf, q)
    stacked = signed_quadratic(data, np.stack([huge, y]))
    assert bits(stacked) == bits([math.copysign(math.inf, q), q])


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


def test_counterexample_finds_the_root_next_to_one():
    # The first draw of `counterexample --n 50 --seed 3`: the second root,
    # 0.99577, sits closer to 1 than one step of a 3601-point log grid on
    # [1e-9, 1e9], and p(1.0) rounds to +2.2e-16.
    data = cyclic_fixture_data(50)
    y = _full_support(np.random.default_rng(child_seed(3, 0)), 50)
    y /= np.linalg.norm(y)
    result = construct_counterexample(data, y)
    exps = np.array([2.0 * float(c) for c in data.scaling])
    assert result.lambda_y < 1
    assert abs(np.dot(np.abs(y) ** 2, result.lambda_y**exps) - 1.0) <= 1e-12


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

    report = reference.ae_projection_check(group, polymap, 8, 900, 40)
    assert report["out_dim"] == 8
    assert report["poly_dim"] == table.total_dim
    assert report["in_contract"] is True
    assert report["samples"] == 40
    assert report["violations"] == 0
    again = reference.ae_projection_check(group, polymap, 8, 900, 40)
    assert report == again

    same = reference.ae_projection_check(group, polymap, 8, 901, 30, kind="same_orbit")
    assert same["collisions"] == 30 and same["violations"] == 0

    narrow = reference.ae_projection_check(group, polymap, 1, 902, 10)
    assert narrow["in_contract"] is False
    with pytest.raises(ConfigError):
        reference.ae_projection_check(group, polymap, 8, 900, 0)


def test_hermite_as_dict_strings():
    data = cyclic_fixture_data(4)
    payload = hermite_as_dict(data)
    assert payload["scaling"] == ["-1/2", "1", "1", "1"]
    assert payload["signature"] == [-1, 1, 1, 1]
    assert payload["inv_exponents"][0][0] == 4
    assert "multiplier" not in payload
    full = hermite_as_dict(hermite_multiplier(cyclic_shift_spec(3)))
    assert "multiplier" in full and "hermite" in full
