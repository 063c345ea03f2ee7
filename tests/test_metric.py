"""Orbit metric against the brute-force scan, stacked pairs against single
calls, its coset overlap against the dense FFT, the pair samplers of the
tests and of the bench command, and the ratio scan against the per-pair
scan."""

import functools
import math
import tracemalloc
import types
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbitsep import (
    ENUMERATION_CAP,
    ConfigError,
    DimensionError,
    DomainError,
    act,
    build_exponent_table,
    child_seed,
    cyclic_shift_spec,
    default_beta,
    default_reduction,
    enumerate_group,
    eval_lowdim,
    eval_monomial_map,
    eval_norm_scaled,
    eval_phase_map,
    lipschitz_ratio_scan,
    make_group,
    orbit_distance,
    shift_action_spec,
)
import orbitsep.cli
import orbitsep.metric
import orbitsep.plan
from orbitsep.exponents import faithful_quotient
from orbitsep.metric import _coset_overlap, _cut, full_support_pairs
from reference import (
    PAIR_KINDS, brute_orbit_distance, chunked_ratio_scan, equivalent, fft_overlap, pairs, ratio_scan,
    sample_pair,
)


def random_signal(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def test_distance_zero_on_identity():
    g = shift_action_spec(2, 3)
    x = random_signal(np.random.default_rng(0), 6)
    res = orbit_distance(g, x, x)
    assert res.distance < 1e-12
    assert res.witness == (0, 0)


def test_sign_action_example():
    g = make_group([2], [[1]])
    res = orbit_distance(g, np.array([1 + 0j]), np.array([1j]))
    assert abs(res.distance - np.sqrt(2)) < 1e-12


def test_orbit_members_at_distance_zero():
    g = shift_action_spec(2, 3)
    x = random_signal(np.random.default_rng(1), 6)
    for el in enumerate_group(g):
        res = orbit_distance(g, x, act(g, el, x))
        assert res.distance < 1e-12
        # the witness must map the second argument back onto the first
        np.testing.assert_allclose(act(g, res.witness, act(g, el, x)), x, atol=1e-10)


def test_witness_achieves_reported_distance():
    rng = np.random.default_rng(2)
    g = shift_action_spec(3, 2)
    x, y = random_signal(rng, 6), random_signal(rng, 6)
    res = orbit_distance(g, x, y)
    assert abs(res.distance - np.linalg.norm(x - act(g, res.witness, y))) < 1e-12
    dists = [np.linalg.norm(x - act(g, el, y)) for el in enumerate_group(g)]
    assert res.distance <= min(dists) + 1e-12


def test_metric_symmetry_and_triangle():
    rng = np.random.default_rng(3)
    g = shift_action_spec(2, 3)
    for _ in range(10):
        x, y, z = (random_signal(rng, 6) for _ in range(3))
        dxy = orbit_distance(g, x, y).distance
        dyx = orbit_distance(g, y, x).distance
        assert abs(dxy - dyx) < 1e-12
        dxz = orbit_distance(g, x, z).distance
        dzy = orbit_distance(g, z, y).distance
        assert dxy <= dxz + dzy + 1e-10


def test_metric_invariant_under_action():
    rng = np.random.default_rng(4)
    g = shift_action_spec(2, 3)
    x, y = random_signal(rng, 6), random_signal(rng, 6)
    d = orbit_distance(g, x, y).distance
    for el in enumerate_group(g):
        assert abs(orbit_distance(g, act(g, el, x), y).distance - d) < 1e-12


def test_equivalent_thresholds():
    rng = np.random.default_rng(5)
    g = shift_action_spec(2, 3)
    x = random_signal(rng, 6)
    assert equivalent(g, x, act(g, (1, 2), x), tol=1e-9)
    assert not equivalent(g, x, random_signal(rng, 6), tol=1e-9)
    assert not equivalent(g, x, 1.0001 * x, tol=1e-6)


def test_sample_pair_contracts():
    g = shift_action_spec(2, 3)
    for kind in PAIR_KINDS:
        a1, b1 = sample_pair(g, kind, 11)
        a2, b2 = sample_pair(g, kind, 11)
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(b1, b2)
    a, b = sample_pair(g, "same_orbit", 12)
    assert orbit_distance(g, a, b).distance < 1e-12
    a, b = sample_pair(g, "full_support", 13)
    assert np.abs(a).min() >= 0.05 and np.abs(b).min() >= 0.05
    a, b = sample_pair(g, "matched_support", 14)
    np.testing.assert_array_equal(np.abs(a) > 0, np.abs(b) > 0)
    with pytest.raises(ConfigError):
        sample_pair(g, "bogus", 0)


def test_matched_support_hits_zero_patterns():
    g = shift_action_spec(2, 2)
    seen_zero = False
    for seed in range(40):
        a, _ = sample_pair(g, "matched_support", seed)
        if (np.abs(a) == 0).any():
            seen_zero = True
            break
    assert seen_zero


def test_child_seed_shapes():
    assert child_seed(5, 3) == (5, 3)
    assert child_seed((5, 3), 1) == (5, 3, 1)


def test_bench_pairs_are_the_full_support_samples_drawn_one_at_a_time():
    g = shift_action_spec(2, 3)
    assert orbitsep.cli.full_support_pairs is full_support_pairs
    for seed in (17, (17, 4)):
        drawn = full_support_pairs(g, 6, seed)
        assert isinstance(drawn, types.GeneratorType)
        got = list(drawn)
        assert len(got) == 6
        for i, (x, y) in enumerate(got):
            want_x, want_y = sample_pair(g, "full_support", child_seed(seed, i))
            assert x.tobytes() == want_x.tobytes() and y.tobytes() == want_y.tobytes()


def test_ratio_scan_identity_on_trivial_group():
    g = make_group([1], [[0, 0]])
    ratio, pair = lipschitz_ratio_scan(lambda z: z, g, pairs(g, "random", 30, 21))
    assert abs(ratio - 1.0) < 1e-12
    assert len(pair) == 2


def test_ratio_scan_rejects_all_equivalent():
    g = make_group([1], [[0]])
    with pytest.raises(DomainError, match="orbit-equivalent"):
        lipschitz_ratio_scan(lambda z: z, g, pairs(g, "same_orbit", 10, 0))
    with pytest.raises(DomainError, match="no pairs were given"):
        lipschitz_ratio_scan(lambda z: z, g, [])


def pairs_per_chunk(group, size: int) -> int:
    """The metric._STACK that makes a scan with width 0 take `size` pairs per chunk."""
    return size * faithful_quotient(group).group.group_order


def test_ratio_scan_nan_ratio_is_the_maximum():
    # The third pair's ratio would beat the first's, but the second's NaN is
    # the maximum, as np.max makes it, and np.argmax picks its pair; the
    # fourth pair's NaN comes later in draw order, in the same chunk or not.
    g = shift_action_spec(2, 3)
    drawn = list(pairs(g, "random", 5, 4))
    scales = {}
    for i, (x, y) in enumerate(drawn):
        for z in (x, y):
            scales[z.tobytes()] = np.nan if i in (1, 3) else 1e6 * (i + 1)

    def transform(stack):
        return stack * np.array([scales[z.tobytes()] for z in stack])[:, None]

    for size in (1, 2, 3, 5):
        with patch.object(orbitsep.metric, "_STACK", pairs_per_chunk(g, size)):
            ratio, (x, y) = lipschitz_ratio_scan(transform, g, iter(drawn))
        assert np.isnan(ratio)
        assert x is drawn[1][0] and y is drawn[1][1]


def crafted_scan(case: str):
    """Six pairs and a transform that scales each pair's rows by its own
    factor: "nan" turns the third pair NaN after a larger ratio and an
    orbit-equivalent pair, "tie" repeats the second pair as the fifth at the
    largest ratio, "skipped" puts orbit-equivalent pairs between the kept
    ones, and "equivalent" has no pair to keep."""
    g = shift_action_spec(2, 3)
    kinds = {"equivalent": ["same_orbit"] * 6, "skipped": ["same_orbit", "random"] * 3,
             "nan": ["random", "same_orbit"] + ["random"] * 4}
    drawn = [sample_pair(g, kind, child_seed(11, i)) for i, kind in enumerate(kinds.get(case, ["random"] * 6))]
    scales = {"nan": {0: 1e6, 2: np.nan}, "tie": {1: 1e6, 4: 1e6}, "skipped": {5: 1e6}}.get(case, {})
    if case == "tie":
        drawn[4] = tuple(z.copy() for z in drawn[1])
    factor = {z.tobytes(): scales.get(i, 1.0) for i, pair in enumerate(drawn) for z in pair}
    return g, lambda stack: stack * np.array([factor[z.tobytes()] for z in stack])[:, None], drawn


@pytest.mark.parametrize("size", [1, 2, 3, 6])
@pytest.mark.parametrize("case", ["nan", "tie", "skipped", "equivalent"])
def test_ratio_scan_chooses_the_pair_the_per_pair_loop_chooses(case, size):
    g, transform, drawn = crafted_scan(case)
    with patch.object(orbitsep.metric, "_STACK", pairs_per_chunk(g, size)):
        if case == "equivalent":
            for scan in (chunked_ratio_scan, lipschitz_ratio_scan):
                with pytest.raises(DomainError, match="orbit-equivalent"):
                    scan(transform, g, iter(drawn))
            return
        want_ratio, want_pair = chunked_ratio_scan(transform, g, iter(drawn))
        ratio, pair = lipschitz_ratio_scan(transform, g, iter(drawn))
    assert bits(ratio) == bits(want_ratio)
    assert pair[0] is want_pair[0] and pair[1] is want_pair[1]
    assert pair[0] is drawn[{"nan": 2, "tie": 1, "skipped": 5}[case]][0]


def test_ratio_scan_scores_each_chunk_with_one_call_each():
    # Seven pairs in chunks of three: the metric sees stacks of 3, 3 and 1
    # pairs, the transform the x rows over the y rows of each.
    g = shift_action_spec(2, 3)
    drawn = list(pairs(g, "random", 7, 5))
    metric_stacks, transform_stacks = [], []

    def metric(group, x, y):
        metric_stacks.append(x.shape)
        return orbit_distance(group, x, y)

    def transform(stack):
        transform_stacks.append(stack.copy())
        return stack

    with patch.object(orbitsep.metric, "_STACK", pairs_per_chunk(g, 3)), \
            patch.object(orbitsep.metric, "orbit_distance", metric):
        lipschitz_ratio_scan(transform, g, iter(drawn))
    assert metric_stacks == [(3, 6), (3, 6), (1, 6)]
    assert [len(stack) for stack in transform_stacks] == [6, 6, 2]
    first = transform_stacks[0]
    assert all(np.array_equal(first[i], drawn[i][0]) and np.array_equal(first[3 + i], drawn[i][1])
               for i in range(3))


def test_ratio_scan_chunks_by_the_larger_of_the_quotient_and_the_width():
    # _STACK = 60 doubles: |G/K| = 6 gives chunks of 10 pairs, a transform
    # width of 20 doubles per pair chunks of 3, one above 60 chunks of 1.
    g = shift_action_spec(2, 3)
    drawn = list(pairs(g, "random", 10, 5))
    for width, sizes in [(0, [10]), (20, [3, 3, 3, 1]), (61, [1] * 10)]:
        stacks = []

        def metric(group, x, y):
            stacks.append(len(x))
            return orbit_distance(group, x, y)

        with patch.object(orbitsep.metric, "_STACK", 60), \
                patch.object(orbitsep.metric, "orbit_distance", metric):
            lipschitz_ratio_scan(lambda z: z, g, iter(drawn), width)
        assert stacks == sizes


def test_ratio_scan_gap_stays_finite_above_the_square_root_of_the_largest_double():
    # Scaling the transform by 2**600 scales every ratio by exactly 2**600,
    # though the squares of the gap's entries overflow.
    g = shift_action_spec(2, 3)
    ratio, _ = lipschitz_ratio_scan(lambda z: z, g, pairs(g, "random", 5, 6))
    scale = lambda z: np.ldexp(z.view(float), 600).view(complex)
    scaled, _ = lipschitz_ratio_scan(scale, g, pairs(g, "random", 5, 6))
    assert scaled == math.ldexp(ratio, 600)


def test_ratio_scan_reproducible():
    g = shift_action_spec(2, 3)
    r1, _ = lipschitz_ratio_scan(lambda z: np.abs(z).astype(complex), g, pairs(g, "random", 40, 9))
    r2, _ = lipschitz_ratio_scan(lambda z: np.abs(z).astype(complex), g, pairs(g, "random", 40, 9))
    assert r1 == r2


def assert_same_result(got, want):
    assert got.witness == want.witness
    assert np.float64(got.distance).view(np.uint64) == np.float64(want.distance).view(np.uint64)


@st.composite
def signal_pairs(draw, group):
    """A signal pair for the group: zero entries, and half the time the
    second signal on the first's orbit."""
    n = group.dim
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = random_signal(rng, n) * ~np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    if draw(st.booleans()):
        y = act(group, [int(rng.integers(0, p)) for p in group.orders], x)
    else:
        y = random_signal(rng, n) * ~np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    return x, y


@st.composite
def metric_cases(draw):
    """A group with s <= 3, orders <= 30 and N <= 8, and a signal pair.

    A common factor on the characters gives the action a kernel, so several
    elements tie; zero columns, same-orbit pairs and zero entries add more."""
    s = draw(st.integers(1, 3))
    n = draw(st.integers(1, 8))
    orders = draw(st.lists(st.integers(1, 30), min_size=s, max_size=s))
    rows = st.lists(st.integers(0, 59), min_size=n, max_size=n)
    matrix = np.array(draw(st.lists(rows, min_size=s, max_size=s)))
    matrix *= draw(st.sampled_from([1, 2, 3, 5, 6]))
    matrix[:, draw(st.lists(st.booleans(), min_size=n, max_size=n))] = 0
    group = make_group(orders, matrix.tolist())
    return (group, *draw(signal_pairs(group)))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(metric_cases())
def test_fft_metric_matches_brute_force(case):
    group, x, y = case
    assert_same_result(orbit_distance(group, x, y), brute_orbit_distance(group, x, y))


@st.composite
def stacked_metric_cases(draw):
    """One to seven pairs of metric_cases' kind on one group, or on a
    group whose quotient is trivial: all of its cosets tie."""
    group, x, y = draw(metric_cases())
    group = draw(st.sampled_from([group, group, make_group([4], [[0] * group.dim]),
                                  make_group([1000, 1000], [[0] * group.dim] * 2)]))
    rest = draw(st.lists(signal_pairs(group), max_size=6))
    return group, [(x, y), *rest]


def assert_rows_match_single_calls(group, stack):
    xs, ys = (np.array([pair[side] for pair in stack]).reshape(-1, group.dim) for side in (0, 1))
    got = orbit_distance(group, xs, ys)
    assert len(got) == len(stack)
    for row, (x, y) in zip(got, stack):
        assert_same_result(row, orbit_distance(group, x, y))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(stacked_metric_cases())
@example((make_group((10, 10, 10), ((1, 2, 3), (4, 0, 6), (7, 8, 5))),
          [(np.array([1, 0.5 - 2j, 0.25]), np.array([1j, -0.5, 1.5])), (np.zeros(3), np.ones(3)),
           (np.array([0, 1, 0j]), np.array([0, 1j, 0]))]))
@example((make_group((4, 6), ((1, 2, 3), (5, 0, 1))), []))
def test_stacked_distance_rows_match_single_calls(case):
    # Stacked pairs share one overlap product; every row keeps the witness
    # and the distance bits a call on its pair alone gives, ties included.
    # Two (0, N) stacks give no rows, as zero single calls do.
    assert_rows_match_single_calls(*case)


def test_stacked_distance_rows_on_the_trivial_1000x1000_group():
    g = make_group([1000, 1000], [[0] * 64, [0] * 64])
    rng = np.random.default_rng(14)
    stack = [(random_signal(rng, 64), random_signal(rng, 64)) for _ in range(5)]
    assert_rows_match_single_calls(g, stack)
    assert {r.witness for r in orbit_distance(g, *map(np.array, zip(*stack)))} == {(0, 0)}


def test_stacked_distance_needs_stacks_of_one_shape():
    g = shift_action_spec(2, 3)
    with pytest.raises(DimensionError):
        orbit_distance(g, np.ones((2, 6)), np.ones((3, 6)))
    with pytest.raises(DimensionError):
        orbit_distance(g, np.ones((2, 2, 6)), np.ones((2, 2, 6)))


def test_exact_rescoring_breaks_near_ties():
    # Both elements score within the overlap's slack of each other; only the
    # integer-exact scores see that the second is nearer, by 4e-12.
    g = make_group([2], [[1, 0]])
    x, y = np.array([1e-6, 1.0 + 0j]), np.array([-1e-6, 1.0 + 0j])
    res = orbit_distance(g, x, y)
    assert res.witness == (1,)
    assert_same_result(res, brute_orbit_distance(g, x, y))


def test_fft_metric_matches_brute_force_on_order_1e6():
    # The largest orbit-pairs benchmark group: one same-orbit and one
    # independent pair.
    g = make_group((100, 100, 100), ((11, 45, 94, 65), (48, 68, 72, 52), (92, 88, 18, 76)))
    rng = np.random.default_rng(6)
    x = random_signal(rng, 4)
    for y in (act(g, (3, 71, 40), x), random_signal(rng, 4)):
        assert_same_result(orbit_distance(g, x, y), brute_orbit_distance(g, x, y))


def test_all_tied_elements_rescored_in_bounded_memory():
    # Every one of the 10^6 elements acts trivially, so G/K has one coset:
    # one candidate, and no array over the elements of G.
    g = make_group([1000, 1000], [[0] * 64, [0] * 64])
    rng = np.random.default_rng(7)
    x, y = random_signal(rng, 64), random_signal(rng, 64)
    tracemalloc.start()
    try:
        res = orbit_distance(g, x, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.witness == (0, 0)
    assert res.distance == float(np.linalg.norm(x - y))
    assert peak < 128 * 2**20


ORDER_1E6 = make_group((100, 100, 100), ((11, 45, 94, 65), (48, 68, 72, 52), (92, 88, 18, 76)))


def test_trivial_action_witness_is_the_identity():
    g = make_group([4], [[0, 0, 0]])
    rng = np.random.default_rng(8)
    x, y = random_signal(rng, 3), random_signal(rng, 3)
    res = orbit_distance(g, x, y)
    assert res.witness == (0,)
    assert_same_result(res, brute_orbit_distance(g, x, y))


def test_exact_ties_across_cosets_take_the_least_element():
    # Generator 2 acts trivially and coordinate 0 of both signals is zero, so
    # the cosets of 2 and of 5 under generator 1 score exactly alike.
    g = make_group([6, 2], [[1, 2], [0, 0]])
    x = np.array([0, 1.0 + 0.5j])
    y = act(g, (4, 1), x)
    res = orbit_distance(g, x, y)
    assert res.witness == (2, 0)
    assert_same_result(res, brute_orbit_distance(g, x, y))


def test_non_finite_overlap_keeps_the_identity_witness():
    g = make_group([6, 2], [[1, 2], [0, 0]])
    for bad in (np.inf, np.nan):
        x, y = np.array([bad, 1.0 + 0j]), np.array([1j, 1.0 + 0j])
        with np.errstate(all="ignore"):  # non-finite input makes numpy warn
            res = orbit_distance(g, x, y)
        assert res.witness == (0, 0)


def test_a_pair_scored_inf_and_nan_keeps_the_identity_witness_in_a_stack():
    # On Z_4 an infinite entry scores some cosets inf and others inf - inf,
    # NaN; no score is finite, so the identity stands beside a finite pair.
    g = make_group([4], [[1]])
    xs = np.array([[np.inf], [1 + 1j], [-np.inf], [1]])
    ys = np.array([[1 + 1j], [np.inf], [0.5 - 2j], [-1j]])
    with np.errstate(all="ignore"):  # non-finite input makes numpy warn
        got = orbit_distance(g, xs, ys)
    assert [row.witness for row in got] == [(0,), (0,), (0,), (1,)]


def test_signals_near_the_top_of_the_double_range():
    # Scaling both signals by a power of two scales every score exactly, so
    # the witness stays and the distance scales exactly; unscaled, x * conj(y)
    # overflows.
    rng = np.random.default_rng(9)
    x, y = random_signal(rng, 4), random_signal(rng, 4)
    small = orbit_distance(ORDER_1E6, x, y)
    big = orbit_distance(ORDER_1E6, 2.0**996 * x, 2.0**996 * y)
    assert big.witness == small.witness
    assert big.distance == 2.0**996 * small.distance
    tiny = orbit_distance(ORDER_1E6, 2.0**-1000 * x, 2.0**-1000 * y)
    assert tiny.witness == small.witness
    assert tiny.distance == 2.0**-1000 * small.distance


def test_near_ties_rescored_over_several_blocks_match_brute_force():
    # Coordinate 1 is too weak to move any overlap beyond the slack, so all
    # 10^4 cosets with generator 1 at 0 are candidates, scored in three
    # blocks; the exact scores pick the best of them.
    g = make_group([2, 10000], [[1, 0], [0, 1]])
    x, y = np.array([1.0, 1e-6 + 2e-6j]), np.array([1.0 + 0j, 3e-6 - 1e-6j])
    res = orbit_distance(g, x, y)
    assert res.witness[0] == 0
    assert_same_result(res, brute_orbit_distance(g, x, y))


def test_warm_distance_on_order_1e6_peaks_below_8_mb():
    # The overlap and the element rows cover G/K (125000 cosets, |K| = 8),
    # not the 10^6 elements of G.
    rng = np.random.default_rng(10)
    x, y = random_signal(rng, 4), random_signal(rng, 4)
    orbit_distance(ORDER_1E6, x, y)
    tracemalloc.start()
    try:
        orbit_distance(ORDER_1E6, x, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


PRIMES = (2, 3, 5, 7, 11, 13, 97, 101, 997, 1009, 9973)


@st.composite
def quotient_cases(draw):
    """A quotient Q of 1 to 4 axes with orders 1 to 10^4, primes among them,
    |Q| at most the enumeration cap, N from 1 to 12 characters, and a cross
    vector with zero entries."""
    orders = []
    for _ in range(draw(st.integers(1, 4))):
        top = min(10**4, ENUMERATION_CAP // math.prod(orders))
        primes = [p for p in PRIMES if p <= top] or [1]
        orders.append(draw(st.integers(1, top) | st.sampled_from(primes)))
    n = draw(st.integers(1, 12))
    matrix = [draw(st.lists(st.integers(0, d - 1), min_size=n, max_size=n)) for d in orders]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cross = random_signal(rng, n) * ~np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    return make_group(orders, matrix), cross


@settings(derandomize=True, max_examples=200, deadline=None)
@given(quotient_cases())
@example((make_group([1], [[0, 0]]), np.array([1 + 2j, -0.5j])))  # |Q| = 1
@example((make_group([1, 1, 1, 1], [[0]] * 4), np.array([0j])))
@example((make_group([9973], [[1, 4567, 0]]), np.array([1j, 2.0, 0])))  # s = 101 does not divide 9973
@example((make_group([3, 9973, 7], [[1, 2], [5, 9972], [6, 0]]), np.array([1 - 1j, 0.5])))
def test_coset_overlap_matches_the_dense_fft(case):
    # Both sum the same N terms per coset; the product's entries are sums of
    # 2N products, each FFT entry a sum over the whole grid.
    quotient, cross = case
    got = _coset_overlap(_cut(quotient), cross)
    want = fft_overlap(quotient, cross)
    assert np.abs(got.reshape(want.shape) - want).max() <= 1e-13 * np.abs(cross).sum()


# Groups whose quotient is cyclic of prime order 999983, or of order
# 999991 = 997 * 1003, the largest single axes below the enumeration cap.
CORNER_GROUPS = {
    "999983": make_group((999983,), ((1, 5, 17, 123, 4567, 89012, 345678, 999982),)),
    "997x1003": make_group((997, 1003), ((1, 2, 5, 7, 11, 13), (3, 8, 100, 250, 701, 1002))),
}


@pytest.mark.parametrize("label", CORNER_GROUPS)
def test_corner_quotients_match_brute_force(label):
    g = CORNER_GROUPS[label]
    rng = np.random.default_rng(12)
    x = random_signal(rng, g.dim)
    for y in (act(g, [int(rng.integers(0, p)) for p in g.orders], x), random_signal(rng, g.dim)):
        assert_same_result(orbit_distance(g, x, y), brute_orbit_distance(g, x, y))


@pytest.mark.parametrize("label", CORNER_GROUPS)
def test_warm_distance_on_corner_quotients_peaks_below_20_mb(label):
    # The element rows take 8 MB and the overlap, about 1000 x 1000 doubles,
    # another 8 MB; the two phase tables hold about 1000 rows each.
    g = CORNER_GROUPS[label]
    rng = np.random.default_rng(13)
    x, y = random_signal(rng, g.dim), random_signal(rng, g.dim)
    orbit_distance(g, x, y)
    tracemalloc.start()
    try:
        orbit_distance(g, x, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


# The batched scan against the per-pair oracle: the bench's two groups,
# a group with |K| = 4, and two small groups the transforms are checked on.
SCAN_GROUPS = {
    "shift2x3": shift_action_spec(2, 3),
    "cyclic16": cyclic_shift_spec(16),
    "1e4a": make_group((10, 10, 10, 10), ((7, 0, 2, 2, 2, 9, 5, 9), (6, 2, 6, 1, 0, 6, 7, 6),
                                          (0, 1, 8, 7, 2, 8, 7, 1), (8, 8, 2, 1, 0, 1, 1, 1))),
    "1e4b": make_group((10, 1000), ((7, 2, 5, 2, 6), (641, 687, 597, 740, 609))),
    "10x10x10": make_group((10, 10, 10), ((1, 2, 3), (4, 0, 6), (7, 8, 5))),
}


@functools.cache
def scan_transform(label: str, name: str):
    """The named transform on the labelled group, for (N,) and (B, N) input;
    "nan" turns every row whose first entry has real part above 1 to NaN."""
    table = build_exponent_table(SCAN_GROUPS[label])
    if name == "nan":
        return lambda z: np.where(z.real[..., :1] > 1.0, np.nan, 1.0) * z
    if name == "f":
        return lambda z: eval_monomial_map(table, z).values
    if name == "theta":
        beta = default_beta(table)
        return lambda z: eval_phase_map(table, beta, z).values
    if name == "phif":
        return lambda z: eval_norm_scaled(table, z).values
    ell = default_reduction(table, 7)
    return lambda z: eval_lowdim(table, ell, z, name.removeprefix("phi_")).values


@st.composite
def scan_cases(draw):
    """A group, a transform, a chunk size and a pair list whose length falls
    on or one either side of a multiple of it.  Pairs are independent,
    on one orbit (skipped), or independent and scaled by 2**600, where F
    and Theta overflow and their gaps turn NaN."""
    label = draw(st.sampled_from(sorted(SCAN_GROUPS)))
    name = draw(st.sampled_from(["f", "theta", "phif", "phi_repaired", "phi_as_written", "nan"]))
    size = draw(st.integers(1, 4))
    samples = max(1, size * draw(st.integers(1, 3)) + draw(st.integers(-1, 1)))
    kinds = draw(st.lists(st.sampled_from(["random", "random", "same_orbit", "huge"]),
                          min_size=samples, max_size=samples))
    seed = draw(st.integers(0, 2**32 - 1))
    group = SCAN_GROUPS[label]
    drawn = []
    for i, kind in enumerate(kinds):
        x, y = sample_pair(group, "random" if kind == "huge" else kind, child_seed(seed, i))
        drawn.append((2.0**600 * x, 2.0**600 * y) if kind == "huge" else (x, y))
    return group, scan_transform(label, name), size, drawn


def bits(value) -> int:
    return int(np.float64(value).view(np.uint64))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(scan_cases())
def test_batched_scan_matches_the_per_pair_scan_bit_for_bit(case):
    group, transform, size, drawn = case
    stack = patch.object(orbitsep.metric, "_STACK", pairs_per_chunk(group, size))
    try:
        want_ratio, want_pair = ratio_scan(transform, group, iter(drawn))
    except DomainError:
        with pytest.raises(DomainError), stack:
            lipschitz_ratio_scan(transform, group, iter(drawn))
        return
    with stack:
        ratio, pair = lipschitz_ratio_scan(transform, group, iter(drawn))
    assert bits(ratio) == bits(want_ratio)
    assert pair[0] is want_pair[0] and pair[1] is want_pair[1]


@pytest.mark.parametrize("label", ["1e4a", "1e4b"])
def test_bench_scan_matches_the_per_pair_scan_at_its_own_chunk_size(label):
    # The bench's 20 pairs on its groups, as cmd_bench scans them.
    group = SCAN_GROUPS[label]
    transform = scan_transform(label, "phi_repaired")
    ratio, pair = lipschitz_ratio_scan(transform, group, full_support_pairs(group, 20, 3))
    want_ratio, want_pair = ratio_scan(transform, group, full_support_pairs(group, 20, 3))
    assert bits(ratio) == bits(want_ratio)
    assert pair[0].tobytes() == want_pair[0].tobytes() and pair[1].tobytes() == want_pair[1].tobytes()


def warm_peak(call) -> int:
    """tracemalloc's peak over a second call, after a first one warmed the caches."""
    call()
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_warm_bench_of_2000_samples_peaks_below_8_mb(tmp_path):
    # The scan holds one chunk of pairs at a time, 52 pairs of this group
    # with |G/K| = 10^4, so 2000 samples peak as 200 do, near 5 MB.
    flags = ["--orders", "10,1000", "--matrix", "7,2,5,2,6;641,687,597,740,609"]
    argv = ["bench", *flags, "--samples", "2000", "--out", str(tmp_path / "out.json")]
    assert warm_peak(lambda: orbitsep.cli.main(argv)) < 8 * 2**20


@pytest.mark.parametrize("pairs, mib", [(1, 14.5), (4, 17.4)])
def test_all_tied_cosets_of_order_1e6_take_the_identity_in_bounded_memory(pairs, mib):
    # y = 0 scores every one of the 125000 cosets alike, so all are
    # candidates: 31 blocks of 4096 for one pair, 123 for the scan's stack
    # of four, each held with its winners only.  The bounds are the peaks
    # that rescoring each pair of the stack on its own reaches.
    rng = np.random.default_rng(17)
    xs, ys = random_signal(rng, 4 * pairs).reshape(pairs, 4), np.zeros((pairs, 4), dtype=complex)
    got = orbit_distance(ORDER_1E6, xs, ys)
    assert [row.witness for row in got] == [(0, 0, 0)] * pairs
    assert [row.distance for row in got] == [float(np.linalg.norm(x)) for x in xs]
    assert warm_peak(lambda: orbit_distance(ORDER_1E6, xs, ys)) < mib * 2**20


def test_warm_scan_of_20_pairs_on_order_1e6_peaks_below_12_mb():
    # Four pairs per chunk of 125000 cosets each: the overlaps take 4 MB
    # and the element rows 3 MB.
    table = build_exponent_table(ORDER_1E6)
    ell = default_reduction(table, 0)
    transform = lambda z: eval_lowdim(table, ell, z).values
    scan = lambda: lipschitz_ratio_scan(transform, ORDER_1E6, full_support_pairs(ORDER_1E6, 20, 1))
    assert warm_peak(scan) < 12 * 2**20


# The four orbit-pairs benchmark groups, and groups whose cosets or
# elements tie: a common factor on the characters, a trivial quotient.
PLAN_GROUPS = {
    "1e6": ORDER_1E6,
    "1e5": make_group((10, 100, 100), ((7, 1, 7, 5, 2, 6), (55, 46, 30, 2, 64, 62), (3, 30, 13, 80, 51, 10))),
    "1e4a": SCAN_GROUPS["1e4a"],
    "1e4b": SCAN_GROUPS["1e4b"],
    "10x10x10": SCAN_GROUPS["10x10x10"],
    "kernel": make_group((6, 30), ((0, 2, 4, 2), (6, 12, 18, 0))),
    "trivial-quotient": make_group((1000, 1000), ((0,) * 4,) * 2),
}


def plan_pairs(group):
    """A same-orbit pair, an independent pair and a zero signal's pair; the
    first signal has a zero entry, so more elements tie."""
    rng = np.random.default_rng(16)
    x = random_signal(rng, group.dim)
    x[0] = 0
    same = act(group, [int(rng.integers(0, p)) for p in group.orders], x)
    return [(x, same), (x, random_signal(rng, group.dim)), (np.zeros(group.dim), x)]


@pytest.mark.parametrize("label", PLAN_GROUPS)
def test_warm_plan_distance_equals_the_cold_call_bit_for_bit(label):
    group = PLAN_GROUPS[label]
    stack = plan_pairs(group)
    for x, y in [*stack, tuple(map(np.array, zip(*stack)))]:
        orbitsep.plan.plan.cache_clear()
        cold = orbit_distance(group, x, y)
        warm = orbit_distance(group, x, y)
        assert type(warm) is type(cold)
        for got, want in zip(*(r if isinstance(r, list) else [r] for r in (warm, cold))):
            assert_same_result(got, want)


def test_warm_distance_builds_no_phase_table(monkeypatch):
    calls = []
    original = orbitsep.metric._phases
    monkeypatch.setattr(orbitsep.metric, "_phases", lambda *a: calls.append(a) or original(*a))
    stack = plan_pairs(ORDER_1E6)
    orbit_distance(ORDER_1E6, *stack[0])
    assert len(calls) == 2  # the leading and the trailing table
    orbit_distance(ORDER_1E6, *stack[1])
    orbit_distance(ORDER_1E6, *map(np.array, zip(*stack)))
    lipschitz_ratio_scan(lambda z: z, ORDER_1E6, stack)
    assert len(calls) == 2


def test_plan_metric_arrays_are_read_only():
    group = PLAN_GROUPS["1e4a"]
    orbit_distance(group, *plan_pairs(group)[1])
    _, *arrays, (lead, trail, _) = orbitsep.plan.plan(group).metric
    assert len(arrays) == 3  # lift, turns, kernel
    for array in (*arrays, lead, trail):
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


@st.composite
def tie_heavy_stacks(draw):
    """One to seven pairs on a group whose cosets tie: characters with a
    common factor, a kernel of order 4 whose basis has an entry below a
    pivot, or a trivial quotient.  Pairs have zero entries, zero signals or
    one orbit; a block size for the candidates from 1 up, so blocks split
    the pairs."""
    group = draw(st.sampled_from([PLAN_GROUPS["kernel"], SCAN_GROUPS["10x10x10"],
                                  make_group((4, 6), ((0,) * 4,) * 2)]))
    stack = []
    for _ in range(draw(st.integers(1, 7))):
        x, y = draw(signal_pairs(group))
        zero = draw(st.sampled_from(["", "", "x", "y", "xy"]))
        stack.append((0 * x if "x" in zero else x, 0 * y if "y" in zero else y))
    return group, stack, draw(st.sampled_from([1, 2, 3, 7, 4096]))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(tie_heavy_stacks())
def test_stacked_witnesses_on_tie_heavy_groups_match_brute_force(case):
    # Each pair's best score and least member come out of candidate blocks
    # that start and end anywhere in the stack; every row is the oracle's.
    group, stack, chunk = case
    xs, ys = (np.array([pair[side] for pair in stack]) for side in (0, 1))
    with patch.object(orbitsep.metric, "_CHUNK", chunk):
        got = orbit_distance(group, xs, ys)
    for row, (x, y) in zip(got, stack, strict=True):
        assert_same_result(row, brute_orbit_distance(group, x, y))
