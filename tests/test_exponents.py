"""Minimal invariant exponents: singles, pairs and triples from one lattice
solver, checked against the closed form of the singles, the exhaustive
oracle, and the assembled table; the discrete-log builder checked against
the lattice builder, and the route between them.  Also the diagonalization
of the phase steps, the lattice of elements acting trivially and the
faithful quotient built from them, checked against brute force and sympy."""

import itertools
import math
import random

import numpy as np
import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitsep import (
    ConfigError,
    DimensionError,
    DomainError,
    act,
    build_exponent_table,
    cyclic_shift_spec,
    make_group,
    shift_action_spec,
)
import orbitsep.exponents
from orbitsep.exponents import (
    _by_discrete_logs, _discrete_log_arrays, _lattice_arrays, faithful_quotient, float_exponents,
    phase_generators,
)
from orbitsep.groups import enumerate_group, phase_steps
from reference import (
    brute_phase_vectors,
    brute_quotient_order,
    lcm_single,
    least_member,
    minimal_pair,
    minimal_single,
    minimal_triple,
    oracle_minimal,
    table_as_dict,
)


def naive_minimal(group, subset):
    """Reference search, deliberately dumb: lexicographic scan of all
    exponent tuples with first entry >= 1 until the invariance congruences
    hold for every generator row."""
    L = group.phase_lcm
    rows = [[group.exponents[i][k] for k in subset] for i in range(len(group.orders))]

    def invariant(exps):
        return all(
            sum(r * e for r, e in zip(row, exps)) % p == 0
            for row, p in zip(rows, group.orders)
        )

    width = len(subset)
    for first in range(1, L + 1):
        for rest in itertools.product(range(L), repeat=width - 1):
            exps = (first,) + rest
            if invariant(exps):
                return exps
    raise AssertionError("exhaustive scan found nothing below the order lcm")


def test_minimal_single_known_values():
    g = make_group([4], [[1, 2]])
    assert minimal_single(g, 0) == 4
    assert minimal_single(g, 1) == 2
    sh = cyclic_shift_spec(3)
    assert [minimal_single(sh, k) for k in range(3)] == [3, 3, 1]


def test_minimal_pair_known_values():
    g = make_group([4], [[1, 2]])
    assert minimal_pair(g, 0, 1) == (2, 1)
    sh = cyclic_shift_spec(3)
    assert minimal_pair(sh, 0, 1) == (1, 1)


def test_minimal_triple_values():
    g = make_group([2, 2], [[1, 1, 0], [0, 1, 1]])
    assert minimal_triple(g, 0, 1, 2) == (1, 1, 1)
    # frozen from the exhaustive oracle: (1,0,1) beats (1,1,2) and friends
    g2 = make_group([4], [[1, 2, 3]])
    assert minimal_triple(g2, 0, 1, 2) == (1, 0, 1)
    assert oracle_minimal(g2, (0, 1, 2)) == (1, 0, 1)


def test_solvers_match_naive_reference():
    rng = np.random.default_rng(7)
    for _ in range(25):
        s = int(rng.integers(1, 3))
        orders = [int(v) for v in rng.integers(1, 7, size=s)]
        n = int(rng.integers(1, 4))
        matrix = rng.integers(0, 12, size=(s, n)).tolist()
        g = make_group(orders, matrix)
        for k in range(n):
            assert minimal_single(g, k) == naive_minimal(g, (k,))[0]
        for k1, k2 in itertools.combinations(range(n), 2):
            want = naive_minimal(g, (k1, k2))
            assert minimal_pair(g, k1, k2) == want
            assert oracle_minimal(g, (k1, k2)) == want
        for sub in itertools.combinations(range(n), 3):
            want = naive_minimal(g, sub)
            assert minimal_triple(g, *sub) == want
            assert oracle_minimal(g, sub) == want


def test_solver_matches_vectorized_oracle_on_large_lcm():
    g = make_group([7, 11, 12], [[1, 3, 5, 2, 0], [4, 1, 0, 9, 2], [6, 5, 1, 0, 7]])
    assert g.phase_lcm == 924
    for k in range(5):
        assert oracle_minimal(g, (k,)) == (minimal_single(g, k),)
    assert oracle_minimal(g, (0, 3)) == minimal_pair(g, 0, 3)
    assert oracle_minimal(g, (1, 2, 4)) == minimal_triple(g, 1, 2, 4)


def test_minimal_exponents_define_invariant_monomials():
    rng = np.random.default_rng(8)
    g = make_group([4, 6], [[1, 2, 3], [5, 0, 1]])
    x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    table = build_exponent_table(g)
    gens = [(1, 0), (0, 1)]

    def monomial(z, idx, exps):
        return np.prod([z[k] ** e for k, e in zip(idx, exps)])

    for idx, exps in table.components():
        base = monomial(x, idx, exps)
        for gen in gens:
            moved = monomial(act(g, gen, x), idx, exps)
            assert abs(moved - base) <= 1e-10 * max(1.0, abs(base))


def test_minimality_of_single_exponents():
    g = make_group([4, 6], [[1, 2, 3], [5, 0, 1]])
    L = g.phase_lcm
    for k in range(3):
        m = minimal_single(g, k)
        for e in range(1, m):
            # a smaller power must break invariance for some generator
            broken = any(
                (e * g.exponents[i][k]) % g.orders[i] != 0
                for i in range(len(g.orders))
            )
            assert broken, (k, e)
        assert all((m * g.exponents[i][k]) % g.orders[i] == 0 for i in range(2))
        assert m <= L


def test_table_dimension_formula():
    for n in range(1, 9):
        g = cyclic_shift_spec(n) if n >= 2 else make_group([1], [[0]])
        table = build_exponent_table(g)
        want = n + n * (n - 1) // 2 + n * (n - 1) * (n - 2) // 6
        assert table.total_dim == want


def test_table_component_order_and_dict():
    g = shift_action_spec(3, 1)
    table = build_exponent_table(g)
    subsets = [idx for idx, _ in table.components()]
    assert subsets[:3] == [(0,), (1,), (2,)]
    assert subsets[3:6] == [(0, 1), (0, 2), (1, 2)]
    assert subsets[6] == (0, 1, 2)
    d = table_as_dict(table)
    assert d["singles"] == [3, 3, 1]
    assert d["total_dim"] == 7
    assert set(d["pairs"]) == {"0,1", "0,2", "1,2"}
    assert d["pairs"]["0,1"] == [1, 1]


def test_truncated_tables():
    g = cyclic_shift_spec(4)
    assert build_exponent_table(g, 1).total_dim == 4
    assert build_exponent_table(g, 2).total_dim == 4 + 6
    with pytest.raises(ConfigError):
        build_exponent_table(g, 4)


def test_index_validation():
    g = cyclic_shift_spec(3)
    with pytest.raises(DimensionError):
        minimal_single(g, 3)
    with pytest.raises(DimensionError):
        minimal_pair(g, 1, 1)
    with pytest.raises(DimensionError):
        minimal_triple(g, 0, 2, 2)
    with pytest.raises(DimensionError):
        oracle_minimal(g, (0, 0))
    with pytest.raises(ConfigError):
        oracle_minimal(g, (0, 1, 2, 0))


def test_single_exponent_lcm_formula():
    # m_k = lcm_i(p_i / gcd(A_ik, p_i)), checked against the naive scan
    rng = np.random.default_rng(9)
    for _ in range(20):
        p = [int(v) for v in rng.integers(1, 11, size=2)]
        a = rng.integers(0, 20, size=(2, 2)).tolist()
        g = make_group(p, a)
        for k in range(2):
            want = math.lcm(
                *(pi // math.gcd(g.exponents[i][k], pi) for i, pi in enumerate(p))
            )
            assert minimal_single(g, k) == want


@st.composite
def groups(draw, max_order, max_dim=5):
    """Groups with s <= 3 generators of order <= max_order and N <= max_dim."""
    s = draw(st.integers(1, 3))
    n = draw(st.integers(1, max_dim))
    orders = draw(st.lists(st.integers(1, max_order), min_size=s, max_size=s))
    entries = st.integers(0, 2 * max_order)
    matrix = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=s, max_size=s))
    return make_group(orders, matrix)


@st.composite
def small_lcm_groups(draw):
    """Orders in [2, 60] drawn among the divisors of one L <= 240, so the
    exhaustive oracle's (L + 1) x L scan stays small.  Composite L values
    give orders with shared factors."""
    lcm = draw(st.sampled_from([120, 168, 180, 210, 240]) | st.integers(2, 240))
    divisors = [d for d in range(2, 61) if lcm % d == 0] or [1]
    group = draw(groups(60))
    orders = [draw(st.sampled_from(divisors)) for _ in group.orders]
    return make_group(orders, group.exponents)


def subsets(group):
    n = group.dim
    return [ks for size in (1, 2, 3) for ks in itertools.combinations(range(n), size)]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(small_lcm_groups())
def test_table_matches_oracle_on_random_groups(group):
    found = dict(build_exponent_table(group).components())
    assert found == {ks: oracle_minimal(group, ks) for ks in subsets(group)}
    # exact Python ints, as the oracle gives, not numpy scalars or floats
    assert all(type(e) is int for exps in found.values() for e in exps)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(groups(10**5))
def test_large_order_tuples_invariant_and_reduced(group):
    table = build_exponent_table(group)
    singles = table.arrays[0][1][:, 0].tolist()
    for ks, exps in table.components():
        for row, p in zip(group.exponents, group.orders):
            assert sum(e * row[k] for k, e in zip(ks, exps)) % p == 0
        assert exps[0] >= 1
        assert singles[ks[0]] % exps[0] == 0
        for k, e in zip(ks[1:], exps[1:]):
            assert 0 <= e < singles[k]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(groups(10**5) | groups(2**80))
def test_singles_match_the_lcm_closed_form(group):
    singles = build_exponent_table(group, 1).arrays[0][1][:, 0].tolist()
    want = [lcm_single(group, k) for k in range(group.dim)]
    assert [minimal_single(group, k) for k in range(group.dim)] == singles == want


@pytest.mark.parametrize(
    "orders,matrix",
    [([10**400], [[1, 2, 3]]), ([2**64 + 13, 2**63 + 1, 6], [[1, 2, 3], [0, 3, 9], [5, 2, 0]])],
    ids=["ten-to-the-400", "beyond-int64"],
)
def test_singles_match_the_lcm_closed_form_on_huge_orders(orders, matrix):
    group = make_group(orders, matrix)
    singles = [minimal_single(group, k) for k in range(group.dim)]
    assert singles == [lcm_single(group, k) for k in range(group.dim)]
    assert max(singles) > 2**63


def test_float_exponents_is_the_float64_cast():
    rng = np.random.default_rng(25)
    draw = random.Random(25).randrange
    int64 = rng.integers(-(2**63), 2**63 - 1, size=(40, 3), endpoint=True)
    huge = [draw(-(2**1023), 2**1023 + 1) >> draw(0, 1023) for _ in range(120)]
    exact = np.array(huge + [2**1023, -(2**1023), 2**53 + 1, 0], dtype=object).reshape(-1, 2)
    for exponents in (int64, exact, tuple(map(tuple, exact.tolist()))):
        got = float_exponents(exponents)
        want = np.array(exponents, dtype=float)
        assert got.dtype == np.float64 and not got.flags.writeable
        assert (got.view(np.uint64) == want.view(np.uint64)).all()
    for beyond in (2**1024, -(2**1024), 10**400):
        with pytest.raises(DomainError, match="double range"):
            float_exponents(np.array([[1, beyond]], dtype=object))


@st.composite
def acting_groups(draw):
    """Groups drawn like test_metric.metric_cases: s <= 3, orders <= 30 and
    N <= 8, with a common factor on the characters, some zero columns and
    zero rows, and some N < s, so that many actions have a kernel and some
    generators act trivially."""
    s = draw(st.integers(1, 3))
    n = draw(st.one_of(st.integers(1, 8), st.integers(1, s)))
    orders = draw(st.lists(st.integers(1, 30), min_size=s, max_size=s))
    rows = st.lists(st.integers(0, 59), min_size=n, max_size=n)
    matrix = np.array(draw(st.lists(rows, min_size=s, max_size=s)))
    matrix *= draw(st.sampled_from([1, 2, 3, 5, 6]))
    matrix[:, draw(st.lists(st.booleans(), min_size=n, max_size=n))] = 0
    matrix[draw(st.lists(st.booleans(), min_size=s, max_size=s))] = 0
    return make_group(orders, matrix.tolist())


def acts_trivially(group, vectors) -> bool:
    vectors = np.array(vectors, dtype=np.int64).reshape(-1, group.num_generators)
    return not (vectors @ phase_steps(group) % group.phase_lcm).any()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(acting_groups())
def test_kernel_lattice_is_the_hermite_basis_of_the_trivial_elements(group):
    kernel = np.array(faithful_quotient(group).kernel)
    pivots = kernel.diagonal()
    assert (pivots > 0).all() and not np.triu(kernel, 1).any()
    assert all((0 <= kernel[i, :i]).all() and (kernel[i, :i] < pivots[i]).all() for i in range(len(pivots)))
    assert acts_trivially(group, kernel.T)
    # A full-rank sublattice of the trivial elements with index |G/K| is all of them.
    assert math.prod(pivots.tolist()) == brute_quotient_order(group)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(acting_groups())
def test_phase_generators_split_the_quotient_into_cyclic_factors(group):
    sigma, R = phase_generators(group)
    L, s = group.phase_lcm, group.num_generators
    # sympy's exact determinant: R's entries outgrow a float determinant.
    assert abs(sympy.Matrix(R).det()) == 1
    d = [L // math.gcd(L, x) for x in sigma]
    multiples = np.arange(1, L + 1)[:, None]
    for j, order in enumerate(d):
        g = [R[i][j] % p for i, p in enumerate(group.orders)]
        phases = np.array(g) @ phase_steps(group) % L
        assert np.flatnonzero(~(multiples * phases % L).any(axis=1))[0] + 1 == order
    assert math.prod(d) == brute_quotient_order(group)
    # The quotient keeps the factors above 1, ascending, so that its longest
    # axis is the contiguous one.
    quotient = faithful_quotient(group)
    assert quotient.group.orders == (tuple(sorted(x for x in d if x > 1)) or (1,))
    # The sum of the Z_{d_j} is Z^s / K': equal invariant factors.
    invariants = lambda matrix: sorted(abs(int(matrix[i, i])) for i in range(s))
    want = smith_normal_form(sympy.Matrix(quotient.kernel))
    assert invariants(smith_normal_form(sympy.diag(*d))) == invariants(want)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(acting_groups())
def test_faithful_quotient_acts_like_the_group(group):
    quotient = faithful_quotient(group)
    assert quotient.group.group_order == brute_quotient_order(group)
    assert all(d > 1 for d in quotient.group.orders) or quotient.group.orders == (1,)
    # Q's own characters and its lifts into G give each element of Q the
    # same phases, and together exactly the phase vectors of G.
    L, LQ = group.phase_lcm, quotient.group.phase_lcm
    elements = enumerate_group(quotient.group)
    own = elements @ phase_steps(quotient.group) % LQ * (L // LQ)
    lifted = elements @ np.array(quotient.lift) @ phase_steps(group) % L
    assert (own == lifted).all()
    assert {tuple(row) for row in own.tolist()} == brute_phase_vectors(group)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(acting_groups(), st.lists(st.integers(-100, 100), min_size=3, max_size=3))
def test_least_member_is_the_least_element_of_the_coset(group, vector):
    quotient = faithful_quotient(group)
    v = np.array(vector[:group.num_generators])
    coset = [
        element for element in itertools.product(*(range(p) for p in group.orders))
        if acts_trivially(group, np.array(element) - v)
    ]
    assert least_member(quotient.kernel, [v]) == min(coset)


def test_off_diagonal_kernel_of_a_group_with_kernel_of_order_four():
    # The elements (5, 0, 5) and (0, 5, 0) fix every coordinate; the first
    # gives the echelon its entry below the diagonal.
    group = make_group((10, 10, 10), ((1, 2, 3), (4, 0, 6), (7, 8, 5)))
    quotient = faithful_quotient(group)
    assert quotient.kernel == ((5, 0, 0), (0, 5, 0), (5, 0, 10))
    assert quotient.group.orders == (5, 5, 10)
    assert quotient.group.group_order == brute_quotient_order(group) == 250
    assert least_member(quotient.kernel, [[7, 9, 3], [5, 5, 5]]) == (0, 0, 0)
    assert least_member(quotient.kernel, [[7, 9, 3]]) == (2, 4, 8)


@pytest.mark.parametrize(
    "group",
    [
        make_group([2**70], [[2**69, 0, 2**69]]),
        make_group((10, 10, 10), ((1, 2, 3), (4, 0, 6), (7, 8, 5))),
        make_group([4], [[0, 0, 0]]),
    ],
    ids=["beyond-int64", "kernel", "trivial"],
)
def test_quotient_holds_only_tuples_of_python_ints(group):
    quotient = faithful_quotient(group)
    tables = (quotient.group.exponents, quotient.lift, quotient.kernel)
    rows = [quotient.group.orders, *(row for table in tables for row in table)]
    assert all(type(table) is tuple for table in tables)
    assert all(type(row) is tuple and all(type(x) is int for x in row) for row in rows)


def test_trivial_action_has_a_quotient_of_order_one():
    quotient = faithful_quotient(make_group([4], [[0, 0, 0]]))
    assert quotient.group.orders == (1,)
    assert quotient.kernel == ((1,),)
    assert least_member(quotient.kernel, [[3]]) == (0,)


def assert_both_builders_agree(group, max_tuple_size=3):
    lattice = _lattice_arrays(group, max_tuple_size)
    logs = _discrete_log_arrays(faithful_quotient(group).group, max_tuple_size)
    assert len(lattice) == len(logs) == 3
    for want, got in zip((a for pair in lattice for a in pair), (a for pair in logs for a in pair)):
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert (got == want).all()
        assert not got.flags.writeable


@st.composite
def table_groups(draw):
    """acting_groups with some characters repeated: columns drawn, with
    repetition, from the drawn matrix."""
    group = draw(acting_groups())
    columns = draw(st.lists(st.integers(0, group.dim - 1), min_size=1, max_size=9))
    return make_group(group.orders, [[row[k] for k in columns] for row in group.exponents])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(table_groups(), st.sampled_from([1, 2, 3]))
def test_discrete_logs_build_the_lattice_table(group, max_tuple_size):
    assert_both_builders_agree(group, max_tuple_size)


@pytest.mark.parametrize(
    "group",
    [
        make_group([4], [[0, 0, 0, 0]]),  # trivial action: |Q| = 1
        make_group([6, 10], [[1, 2], [3, 4]]),  # N < s
        make_group([12], [[5, 5, 5, 0, 5]]),  # repeated characters and a zero column
        make_group((10, 10, 10), ((1, 2, 3), (4, 0, 6), (7, 8, 5))),  # kernel of order 4
        make_group([1], [[0]]),
        shift_action_spec(4, 4),
        cyclic_shift_spec(16),
    ],
    ids=["trivial", "n-below-s", "repeated", "kernel", "one-coordinate", "shift4x4", "cyclic16"],
)
def test_discrete_logs_build_the_lattice_table_on_fixed_groups(group):
    for max_tuple_size in (1, 2, 3):
        assert_both_builders_agree(group, max_tuple_size)


def orbit_pairs_group():
    return make_group((100, 100, 100), ((11, 45, 94, 65), (48, 68, 72, 52), (92, 88, 18, 76)))


@pytest.mark.parametrize(
    "group,by_logs",
    [
        (shift_action_spec(8, 8), True),
        (cyclic_shift_spec(64), True),
        (make_group([2**70 + 25], [[1, 2]]), False),
        (orbit_pairs_group(), False),
        (cyclic_shift_spec(3), False),
    ],
    ids=["shift8x8", "cyclic64", "beyond-int64", "orbit-pairs-1e6", "cyclic3"],
)
def test_route_between_the_two_builders(group, by_logs):
    assert _by_discrete_logs(group) is by_logs


@pytest.mark.parametrize("n", [2, 7])
def test_orders_beyond_int64_never_compile_the_quotient(monkeypatch, n):
    # At N = 2 the lattice is too small to repay the discrete-log path; at
    # N = 7 the exponent of Q, read off the characters, already rules it out.
    def no_quotient(group):
        raise AssertionError("faithful_quotient called")

    p = 2**70 + 25
    group = make_group([p], [list(range(1, n + 1))])
    monkeypatch.setattr(orbitsep.exponents, "faithful_quotient", no_quotient)
    table = build_exponent_table(group)
    assert table_as_dict(table)["singles"] == [p] * n
    # 1 + 2b = 0 mod p for the odd p.
    assert table_as_dict(table)["pairs"]["0,1"] == [1, (p - 1) // 2]


def test_orders_beyond_int64_with_a_small_quotient_take_discrete_logs():
    # Q = Z_2, but its generator turns coordinates by 2**69 units of
    # 1/2**70, beyond int64: the quotient compiles in exact integers, and
    # the table needs no int64 view of its phases.
    group = make_group([2**70], [[2**69, 0, 2**69, 2**69, 0, 2**69]])
    assert _by_discrete_logs(group)
    assert faithful_quotient(group).group.orders == (2,)
    got = [a for pair in build_exponent_table(group).arrays for a in pair]
    want = [a for pair in _lattice_arrays(group, 3) for a in pair]
    assert [(a.dtype, a.tolist()) for a in got] == [(a.dtype, a.tolist()) for a in want]


def test_large_quotient_of_few_coordinates_keeps_the_lattice(monkeypatch):
    # The orbit-pairs group of order 10^6 acts through a quotient of order
    # 125000 on 4 coordinates: its table stays on the lattice path, and the
    # discrete-log builder is not called.
    group = orbit_pairs_group()
    assert faithful_quotient(group).group.group_order == 125000
    monkeypatch.setattr(orbitsep.exponents, "_discrete_log_arrays", None)
    table = build_exponent_table(group)
    assert dict(table.components()) == {ks: oracle_minimal(group, ks) for ks in subsets(group)}
