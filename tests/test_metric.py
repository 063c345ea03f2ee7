"""Orbit metric against the brute-force scan, its coset overlap against the
dense FFT, the pair samplers of the tests and of the bench command, and the
ratio scan."""

import math
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbitsep import (
    ENUMERATION_CAP,
    ConfigError,
    DomainError,
    act,
    child_seed,
    enumerate_group,
    lipschitz_ratio_scan,
    make_group,
    orbit_distance,
    shift_action_spec,
)
import orbitsep.cli
from orbitsep.metric import _coset_overlap, full_support_pairs
from reference import PAIR_KINDS, brute_orbit_distance, equivalent, fft_overlap, pairs, sample_pair


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
    with pytest.raises(DomainError):
        lipschitz_ratio_scan(lambda z: z, g, pairs(g, "same_orbit", 10, 0))


def test_ratio_scan_nan_ratio_is_the_maximum():
    # The third pair's ratios would beat the first's, but the second's NaN
    # is the maximum, as np.max makes it, and np.argmax picks its pair.
    g = shift_action_spec(2, 3)
    seen = []

    def transform(z):
        seen.append(z)
        return z * (np.nan if len(seen) == 3 else 1e6 * len(seen))

    ratio, (x, y) = lipschitz_ratio_scan(transform, g, pairs(g, "random", 3, 4))
    assert np.isnan(ratio)
    assert x is seen[2] and y is seen[3]


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
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = random_signal(rng, n) * ~np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    if draw(st.booleans()):
        y = act(group, [int(rng.integers(0, p)) for p in orders], x)
    else:
        y = random_signal(rng, n) * ~np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    return group, x, y


@settings(derandomize=True, max_examples=300, deadline=None)
@given(metric_cases())
def test_fft_metric_matches_brute_force(case):
    group, x, y = case
    assert_same_result(orbit_distance(group, x, y), brute_orbit_distance(group, x, y))


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
    # Every one of the 10^6 elements acts trivially, so every element is a
    # candidate; scoring them in one block would take about 1.5 GB.
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
    got = _coset_overlap(quotient, cross)
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
