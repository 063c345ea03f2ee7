"""Group construction, the diagonal action, enumeration, the image shift
bridge through the normalized DFT, and the package's one row norm."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitsep import (
    ConfigError,
    DimensionError,
    DomainError,
    act,
    cyclic_shift_spec,
    enumerate_group,
    make_group,
    shift_action_spec,
    to_fourier,
)
from orbitsep.groups import _norm, _unit_norm, _unit_scaled, phase_steps
from reference import from_fourier, shift_image


def random_signal(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def test_make_group_reduces_exponents_mod_orders():
    g = make_group([2, 3], [[5, -1], [7, 3]])
    assert g.exponents == ((1, 1), (1, 0))
    assert g.orders == (2, 3)
    assert g.dim == 2
    assert g.group_order == 6
    assert g.phase_lcm == 6


@pytest.mark.parametrize(
    "orders,matrix",
    [
        ([], []),
        ([0], [[1]]),
        ([-2], [[1]]),
        ([2], []),
        ([2], [[1], [1]]),
        ([2, 3], [[1, 2], [0]]),
    ],
)
def test_make_group_rejects_bad_shapes(orders, matrix):
    with pytest.raises(ConfigError):
        make_group(orders, matrix)


def test_act_character_phases_cyclic_3():
    g = make_group([3], [[1, 2, 0]])
    x = np.ones(3, dtype=complex)
    out = act(g, (1,), x)
    expected = np.exp(2j * np.pi * np.array([1, 2, 0]) / 3)
    np.testing.assert_allclose(out, expected, atol=1e-14)


def test_act_is_a_group_action():
    rng = np.random.default_rng(0)
    g = make_group([4, 6], [[1, 2, 3], [5, 0, 1]])
    x = random_signal(rng, 3)
    for _ in range(20):
        a = tuple(rng.integers(0, 12, size=2))
        b = tuple(rng.integers(0, 12, size=2))
        ab = tuple(int(u + v) for u, v in zip(a, b))
        np.testing.assert_allclose(
            act(g, a, act(g, b, x)), act(g, ab, x), atol=1e-12
        )
    np.testing.assert_allclose(act(g, (0, 0), x), x, atol=0)


def test_phase_steps_are_not_shared_between_callers():
    # A caller that writes into its steps must not change later actions.
    rng = np.random.default_rng(2)
    g = make_group([4, 6], [[1, 2, 3], [5, 0, 1]])
    x = random_signal(rng, 3)
    moved = act(g, (1, 1), x)
    steps = phase_steps(g)
    want = steps.copy()
    steps[0, 0] += 1
    assert (phase_steps(g) == want).all()
    assert (act(g, (1, 1), x).view(np.uint64) == moved.view(np.uint64)).all()


def test_act_is_unitary():
    rng = np.random.default_rng(1)
    g = shift_action_spec(3, 2)
    x = random_signal(rng, 6)
    for el in enumerate_group(g):
        assert abs(np.linalg.norm(act(g, el, x)) - np.linalg.norm(x)) < 1e-12


def test_act_rejects_wrong_signal_length():
    g = make_group([2], [[1, 1]])
    with pytest.raises(DimensionError):
        act(g, (1,), np.ones(3, dtype=complex))


def test_enumerate_group_is_lexicographic():
    g = make_group([2, 3], [[1, 0], [0, 1]])
    els = enumerate_group(g)
    assert els.shape == (6, 2)
    assert els.dtype == np.int64
    assert els.tolist() == [[0, 0], [0, 1], [0, 2], [1, 0], [1, 1], [1, 2]]


def test_enumerate_group_cap():
    g = make_group([101, 101, 101], [[1], [1], [1]])
    with pytest.raises(DomainError):
        enumerate_group(g)


def test_shift_action_spec_exponent_rows():
    g = shift_action_spec(3, 2)
    # coordinate for pixel (k, l) in row-major order carries (k mod 3, l mod 2)
    assert g.orders == (3, 2)
    assert g.exponents[0] == (1, 1, 2, 2, 0, 0)
    assert g.exponents[1] == (1, 0, 1, 0, 1, 0)


def test_cyclic_shift_spec_matches_manual_group():
    assert cyclic_shift_spec(4) == make_group([4], [[1, 2, 3, 0]])


def test_shift_image_semantics():
    img = np.array([[1.0, 2.0], [3.0, 4.0]])
    # row shift by 1: output pixel (i, j) reads input pixel (i+1, j)
    np.testing.assert_array_equal(
        shift_image(img, (1, 0)), np.array([[3.0, 4.0], [1.0, 2.0]])
    )
    np.testing.assert_array_equal(
        shift_image(img, (0, 1)), np.array([[2.0, 1.0], [4.0, 3.0]])
    )
    with pytest.raises(DimensionError):
        shift_image(np.ones(4), (1, 0))


def test_fourier_round_trip():
    rng = np.random.default_rng(2)
    img = rng.standard_normal((3, 4))
    sig = to_fourier(img)
    assert sig.shape == (12,)
    np.testing.assert_allclose(from_fourier(sig, 3, 4), img, atol=1e-12)


def test_fourier_constant_image_concentrates_at_last_index():
    sig = to_fourier(np.ones((2, 2)))
    np.testing.assert_allclose(sig[:3], 0, atol=1e-14)
    np.testing.assert_allclose(sig[3], 2.0, atol=1e-14)


def test_fourier_norm_preserved():
    rng = np.random.default_rng(3)
    img = rng.standard_normal((2, 3))
    assert abs(np.linalg.norm(to_fourier(img)) - np.linalg.norm(img)) < 1e-12


def test_shift_becomes_diagonal_action_under_fourier():
    rng = np.random.default_rng(4)
    g = shift_action_spec(2, 3)
    img = rng.standard_normal((2, 3))
    sig = to_fourier(img)
    for el in enumerate_group(g):
        lhs = to_fourier(shift_image(img, el))
        rhs = act(g, el, sig)
        assert np.abs(lhs - rhs).max() < 1e-12


@st.composite
def norm_stacks(draw):
    """(B, D) complex stacks with parts +-m * 2**(e - 52), m a 53-bit
    integer, subnormals included: e within 2 of one center, so the order of
    the sum shows in the rounding, or over the whole double range; and some
    zero rows and inf or NaN parts."""
    b, d = draw(st.integers(1, 4)), draw(st.integers(1, 40))
    center, spread = draw(st.integers(-1074, 1023)), draw(st.sampled_from([2, 2100]))
    special = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan])
    finite = st.builds(lambda sign, m, e: sign * math.ldexp(m, e - 52), st.sampled_from([-1.0, 1.0]),
                       st.integers(2**52, 2**53 - 1),
                       st.integers(max(-1074, center - spread), min(1023, center + spread)))
    parts = np.array(draw(st.lists(finite, min_size=2 * b * d, max_size=2 * b * d)))
    for i, value in draw(st.lists(st.tuples(st.integers(0, 2 * b * d - 1), special), max_size=3)):
        parts[i] = value
    stack = parts.view(complex).reshape(b, d)
    for row in draw(st.lists(st.integers(0, b - 1), max_size=b)):
        stack[row] = 0
    return stack


def float_bits(values) -> list:
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


@settings(max_examples=300, deadline=None)
@given(norm_stacks())
def test_norm_of_a_stack_is_each_rows_norm_bit_for_bit(stack):
    with np.errstate(over="ignore"):  # a norm beyond the double range is inf
        got = _norm(stack)
        assert got.shape == (len(stack),)
        for b, row in enumerate(stack):
            scaled, k = _unit_scaled(row)
            want = np.ldexp(np.linalg.norm(scaled), k)
            assert float_bits([got[b], _norm(row)]) == float_bits([want, want])
        # Rows already scaled keep k = 0, so _unit_norm skips no rescaling.
        scaled = _unit_scaled(stack)[0]
        assert float_bits(_unit_norm(scaled)) == float_bits(_norm(scaled))
