"""The four invariant transforms, the seeded reduction, the certified
Lipschitz constants, and the proportionality check."""

from unittest import mock

import numpy as np
import pytest
import reference
from hypothesis import given, settings
from hypothesis import strategies as st

import orbitsep.transforms

from orbitsep import (
    BetaWeights,
    ConfigError,
    DimensionError,
    DomainError,
    act,
    build_exponent_table,
    cyclic_shift_spec,
    default_beta,
    default_reduction,
    enumerate_group,
    eval_lowdim,
    eval_monomial_map,
    eval_norm_scaled,
    eval_phase_map,
    lipschitz_bound,
    make_group,
    make_reduction,
    shift_action_spec,
)
from orbitsep.groups import _unit_scaled
from orbitsep.transforms import _grid_top, monomials
from reference import minimal_single

DIAG = make_group([2, 3], [[1, 0], [0, 1]])
SHIFT = shift_action_spec(2, 3)


def random_signal(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def transforms_under_test(table, seed=5):
    ell = default_reduction(table, seed)
    beta = default_beta(table)
    return [
        lambda x: eval_monomial_map(table, x),
        lambda x: eval_phase_map(table, beta, x),
        lambda x: eval_norm_scaled(table, x),
        lambda x: eval_lowdim(table, ell, x),
        lambda x: eval_lowdim(table, ell, x, mode="as_written"),
    ]


@pytest.mark.parametrize("group", [DIAG, SHIFT])
def test_all_transforms_invariant(group):
    rng = np.random.default_rng(10)
    table = build_exponent_table(group)
    for fn in transforms_under_test(table):
        x = random_signal(rng, group.dim)
        base = fn(x).values
        scale = max(1.0, np.abs(base).max())
        for el in enumerate_group(group):
            moved = fn(act(group, el, x)).values
            assert np.abs(moved - base).max() <= 1e-10 * scale


def oracle_signals(rng, n):
    """A random signal, one with every third entry exactly zero, and zero."""
    sparse = random_signal(rng, n)
    sparse[::3] = 0
    return [random_signal(rng, n), sparse, np.zeros(n, dtype=complex)]


@pytest.mark.parametrize(
    "group", reference.ORACLE_GROUPS.values(), ids=reference.ORACLE_GROUPS.keys()
)
def test_transforms_match_scalar_reference(group):
    # Below exponent 100 numpy's complex power takes the same integer path
    # as CPython's, so F, PhiF and Phi agree bit for bit, signed zeros too.
    rng = np.random.default_rng(17)
    table = build_exponent_table(group)
    # Weights of 0 make the zero rule visible: 0 ** 0 is 1, not 0.
    singles, *rest = (exps.shape for _, exps in table.blocks)
    beta = BetaWeights(
        (1.0 + rng.integers(0, 2, singles), *(rng.integers(0, 3, shape) * 1.0 for shape in rest))
    )
    ell = default_reduction(table, 5)
    for x in oracle_signals(rng, group.dim):
        pairs = [
            (eval_monomial_map(table, x), reference.monomial_map(table, x)),
            (eval_norm_scaled(table, x), reference.norm_scaled(table, x)),
            *(
                (eval_lowdim(table, ell, x, mode), reference.lowdim(table, ell, x, mode))
                for mode in ("repaired", "as_written")
            ),
        ]
        for got, want in pairs:
            assert np.array_equal(got.values.view(np.uint64), want.view(np.uint64))
        np.testing.assert_allclose(
            eval_phase_map(table, beta, x).values,
            reference.phase_map(table, beta, x),
            rtol=1e-15,
            atol=0,
        )


def test_monomial_map_values_and_dim():
    table = build_exponent_table(DIAG)
    x = np.array([2.0 + 0j, 1.0 + 1j])
    out = eval_monomial_map(table, x)
    assert out.transform_id == "F"
    assert out.dim == table.total_dim == 3
    m0, m1 = minimal_single(DIAG, 0), minimal_single(DIAG, 1)
    a, b = dict(table.components())[(0, 1)]
    np.testing.assert_allclose(
        out.values, [x[0] ** m0, x[1] ** m1, x[0] ** a * x[1] ** b], atol=1e-12
    )


def test_monomial_map_rejects_wrong_length():
    table = build_exponent_table(DIAG)
    with pytest.raises(DimensionError):
        eval_monomial_map(table, np.ones(3, dtype=complex))


def test_phase_map_zero_rule_is_exact():
    table = build_exponent_table(SHIFT)
    beta = default_beta(table)
    rng = np.random.default_rng(11)
    x = random_signal(rng, 6)
    x[2] = 0
    out = eval_phase_map(table, beta, x).values
    for pos, (idx, _) in enumerate(table.components()):
        if 2 in idx:
            assert out[pos] == 0
    # singles are pure moduli powers: real and nonnegative
    for pos, (idx, _) in enumerate(table.components()):
        if len(idx) == 1:
            assert out[pos].imag == 0 and out[pos].real >= 0


def test_phase_map_singles_never_power_the_phase():
    table = build_exponent_table(DIAG)
    beta = default_beta(table)
    x = np.array([2j, 3.0 + 0j])
    out = eval_phase_map(table, beta, x).values
    np.testing.assert_allclose(out[0], 2.0, atol=1e-14)
    np.testing.assert_allclose(out[1], 3.0, atol=1e-14)


def test_beta_weight_validation():
    table = build_exponent_table(DIAG)
    pair = np.zeros((1, 2))
    with pytest.raises(ConfigError):
        BetaWeights((np.array([[0.5], [1.0]]), pair, np.zeros((0, 3))))
    with pytest.raises(ConfigError):
        BetaWeights((np.ones((2, 1)), np.array([[-1.0, 0.0]]), np.zeros((0, 3))))
    beta = default_beta(table)
    assert [w.shape for w in beta.blocks] == [(2, 1), (1, 2), (0, 3)]
    assert all((w == 1.0).all() and w.dtype == float for w in beta.blocks)


def test_phase_map_rejects_weights_of_another_table():
    table = build_exponent_table(SHIFT)
    other = default_beta(build_exponent_table(DIAG))
    with pytest.raises(DimensionError):
        eval_phase_map(table, other, np.ones(6, complex))


def test_norm_scaled_positive_homogeneity():
    table = build_exponent_table(SHIFT)
    rng = np.random.default_rng(12)
    x = random_signal(rng, 6)
    base = eval_norm_scaled(table, x)
    assert base.transform_id == "PhiF"
    for t in (0.5, 2.0, 7.25):
        scaled = eval_norm_scaled(table, t * x).values
        np.testing.assert_allclose(scaled, t * base.values, rtol=1e-12, atol=1e-12)
    assert not eval_norm_scaled(table, np.zeros(6, complex)).values.any()


@pytest.mark.parametrize("k", [-600, -540, 520, 600])
def test_norm_scaled_power_of_two_homogeneity_is_exact(k):
    # Squares of these signals leave the double range; the values must not.
    table = build_exponent_table(SHIFT)
    x = random_signal(np.random.default_rng(18), 6)
    base = eval_norm_scaled(table, x).values
    scaled = eval_norm_scaled(table, np.ldexp(x.view(float), k).view(complex)).values
    assert np.array_equal(scaled.view(np.uint64), np.ldexp(base.view(float), k).view(np.uint64))


@pytest.mark.parametrize("entry", [1e-320 + 2e-320j, 5e-324, -3e-310j])
def test_phase_maps_stay_finite_on_a_subnormal_entry(entry):
    # 1/|x_k| overflows for a subnormal entry; its unit phase must not.
    table = build_exponent_table(SHIFT)
    x = random_signal(np.random.default_rng(19), 6)
    x[1] = entry
    for fn in transforms_under_test(table)[1:]:
        values = fn(x).values
        assert np.isfinite(values).all()
        assert np.abs(values[6:]).max() > 0


def test_make_reduction_deterministic_without_svd(monkeypatch):
    svd_calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: svd_calls.append(a) or svd(*a, **k))
    r1 = make_reduction(42, 7, 3)
    r2 = make_reduction(42, 7, 3)
    np.testing.assert_array_equal(r1, r2)
    assert r1.shape == (3, 7) and r1.dtype == complex
    assert not svd_calls  # drawing the matrix needs no SVD
    assert not np.array_equal(make_reduction(43, 7, 3), r1)
    with pytest.raises(ConfigError):
        make_reduction(0, 0, 3)


@pytest.mark.parametrize("shape", [(1, 1), (2, 3), (13, 41), (73, 7806), (7, 2)])
def test_make_reduction_is_the_matrix_first_drawn_bit_for_bit(shape):
    # One buffer filled part by part gives the draws and the rounding of
    # (re + 1j * im) / sqrt(2).
    for seed in range(40 if shape[1] < 1000 else 3):
        got = make_reduction(seed, shape[1], shape[0])
        want = reference.drawn_reduction(seed, shape[1], shape[0])
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("draw_values", [1, 10, 21])
def test_make_reduction_keeps_its_bits_when_the_chunks_split_unevenly(monkeypatch, draw_values):
    # Chunks of one row (fewer values than a row), and of 2 and 4 rows of 5
    # values over 7 rows: the last chunk is short.
    monkeypatch.setattr(orbitsep.transforms, "_DRAW_VALUES", draw_values)
    for seed in range(5):
        got = make_reduction(seed, 5, 7)
        assert got.tobytes() == reference.drawn_reduction(seed, 5, 7).tobytes()


# Blocks of exponent tables, some with a grid smaller than their factors and
# some not, and the signal length they index.
TABLE_BLOCKS = [(group.dim, indices, exps) for group in (
    cyclic_shift_spec(16), shift_action_spec(2, 3), shift_action_spec(3, 4), make_group([10, 1000], [[7, 2, 5], [641, 687, 597]])
) for indices, exps in build_exponent_table(group).blocks]


@st.composite
def synthetic_blocks(draw):
    """(N, indices, exponents): random float exponents 0 .. top, both ends planted."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, size, count, top = draw(st.integers(1, 6)), draw(st.integers(1, 3)), draw(st.integers(1, 40)), draw(st.integers(0, 6))
    exps = rng.integers(0, top, size=(count, size), endpoint=True).astype(float)
    exps.flat[0], exps.flat[-1] = 0.0, top
    return n, rng.integers(0, n, size=(count, size)).astype(np.intp), exps


@st.composite
def kernel_inputs(draw):
    """(grid rows, z, indices, exponents): one signal or a stack of 1 to 4,
    with planted zeros, subnormal, huge, infinite and NaN entries, and the
    rows per pass of the power grid, so that small blocks take it too."""
    grid_rows = draw(st.sampled_from([1, 3, 64, orbitsep.transforms._GRID_ROWS]))
    n, indices, exps = draw(st.one_of(st.sampled_from(TABLE_BLOCKS), synthetic_blocks()))
    rows = draw(st.sampled_from([(), (1,), (2,), (3,), (4,)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.standard_normal(rows + (2 * n,)).view(complex)
    special = np.array([0, 5e-324, 2.5e-310 + 1e-320j, 1e300, -1e300j, np.inf, complex(np.nan, 1), complex(1, np.inf)])
    planted = rng.random(z.shape) < draw(st.floats(0, 0.5))
    z[planted] = rng.choice(special, size=int(planted.sum()))
    return grid_rows, z, indices, exps


@settings(derandomize=True, max_examples=300, deadline=None)
@given(kernel_inputs())
def test_monomial_grid_matches_direct_power(inputs):
    grid_rows, z, indices, exps = inputs
    with np.errstate(all="ignore"):
        want = np.prod(z.take(indices, axis=-1) ** exps, axis=-1)
    with mock.patch.object(orbitsep.transforms, "_GRID_ROWS", grid_rows):
        got = monomials(z, indices, exps)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_grid_is_taken_only_when_smaller_than_the_factors(monkeypatch):
    z = np.ones(4, complex)
    indices = np.zeros((7, 2), np.intp)
    exps = np.full((7, 2), 2.0)  # 14 factors against a grid of 4 * 3 powers
    assert _grid_top(z, indices, exps) is None  # fewer rows than one pass
    monkeypatch.setattr(orbitsep.transforms, "_GRID_ROWS", 7)
    assert _grid_top(z, indices, exps) == 2
    assert _grid_top(np.ones((3, 4), complex), indices, exps) == 2
    assert _grid_top(z, indices[:6], exps[:6]) is None  # 6 rows
    monkeypatch.setattr(orbitsep.transforms, "_GRID_ROWS", 6)
    assert _grid_top(z, indices[:6], exps[:6]) is None  # 12 factors: no smaller
    assert _grid_top(z, indices, -exps) is None  # a Laurent block
    assert _grid_top(z, np.arange(2), exps) is None  # the rational invariants' broadcast
    monkeypatch.setattr(orbitsep.transforms, "_GRID_ROWS", 1)
    taken = [_grid_top(np.ones(n), indices, exps) is not None for n, indices, exps in TABLE_BLOCKS]
    assert any(taken) and not all(taken)
    # At the full pass length, the triples of shift 8x8 and cyclic 62 take the grid.
    monkeypatch.undo()
    for group in (shift_action_spec(8, 8), cyclic_shift_spec(62)):
        (indices, exps) = build_exponent_table(group).blocks[2]
        assert _grid_top(np.ones((2, group.dim)), indices, exps) is not None


def stack_rows(rng, n: int, count: int) -> np.ndarray:
    """count signals cycling through plain, zero-entried, all-zero,
    subnormal and 2**520-scaled rows."""
    rows = []
    for i in range(count):
        z = random_signal(rng, n)
        kind = i % 5
        if kind == 1:
            z[::2] = 0
        elif kind == 2:
            z[:] = 0
        elif kind == 3:
            z *= 2.0**-1060
        elif kind == 4:
            z *= 2.0**520
        rows.append(z)
    return np.array(rows)


@pytest.mark.parametrize(
    "group", [SHIFT, shift_action_spec(4, 4), make_group([10, 1000], [[7, 2, 5], [641, 687, 597]])],
    ids=["shift2x3", "shift4x4", "10x1000"],
)
def test_stacked_transform_rows_equal_single_calls_bit_for_bit(group):
    table = build_exponent_table(group)
    rng = np.random.default_rng(31)
    for fn in transforms_under_test(table):
        for count in range(1, 10):
            stack = stack_rows(rng, group.dim, count)
            got = fn(stack)
            assert got.values.shape == (count, got.dim)
            for row, z in zip(got.values, stack):
                assert row.tobytes() == fn(z).values.tobytes()


@pytest.mark.parametrize("shape", [(2, 3), (4, 4), (8, 8)], ids=["shift2x3", "shift4x4", "shift8x8"])
def test_norm_scaled_single_calls_keep_the_linalg_norm_bytes(shape):
    # PhiF sums its norms as np.linalg.norm does, so a single signal keeps
    # the bytes of one norm call per signal.  The scale multiplies from the
    # left: numpy's complex product signs an underflowed zero by operand
    # order, and the subnormal rows here underflow.
    table = build_exponent_table(shift_action_spec(*shape))
    rng = np.random.default_rng(37)
    for z in stack_rows(rng, table.group.dim, 10):
        scaled, k = _unit_scaled(z)
        norm = float(np.linalg.norm(scaled))
        want = np.zeros(table.total_dim, complex)
        if norm:
            with np.errstate(all="ignore"):
                unit = eval_monomial_map(table, scaled / norm).values
                want = np.multiply(np.ldexp(norm, k), unit)
        assert eval_norm_scaled(table, z).values.tobytes() == want.tobytes()


def test_stacked_transforms_take_one_or_two_axes_only():
    table = build_exponent_table(SHIFT)
    for fn in transforms_under_test(table):
        with pytest.raises(DimensionError):
            fn(np.ones((2, 2, 6)))
        with pytest.raises(DimensionError):
            fn(np.ones((2, 5)))


def test_lowdim_shape_and_zero():
    table = build_exponent_table(SHIFT)
    ell = default_reduction(table, 3)
    out = eval_lowdim(table, ell, np.zeros(6, complex))
    assert out.transform_id == "Phi"
    assert out.dim == 3 * 6 + 1
    assert not out.values.any()


def test_lowdim_leading_block_is_the_moduli():
    table = build_exponent_table(SHIFT)
    ell = default_reduction(table, 3)
    rng = np.random.default_rng(13)
    x = random_signal(rng, 6)
    out = eval_lowdim(table, ell, x).values
    np.testing.assert_allclose(out[:6], np.abs(x), atol=1e-14)


def test_lowdim_modes_differ_but_both_run():
    table = build_exponent_table(SHIFT)
    ell = default_reduction(table, 3)
    rng = np.random.default_rng(14)
    x = random_signal(rng, 6)
    a = eval_lowdim(table, ell, x, mode="repaired").values
    b = eval_lowdim(table, ell, x, mode="as_written").values
    assert np.abs(a - b).max() > 1e-6
    with pytest.raises(ConfigError):
        eval_lowdim(table, ell, x, mode="fixed")


def test_lowdim_dimension_mismatch():
    # Phi and its bound take only a 2-D reduction with at least one row of table.total_dim columns.
    table = build_exponent_table(SHIFT)
    d = table.total_dim
    for ell in (make_reduction(0, 5, 3), np.ones(d, complex), np.ones((0, d), complex), np.ones((2, 3, d), complex)):
        with pytest.raises(DimensionError):
            eval_lowdim(table, ell, np.ones(6, complex))
        with pytest.raises(DimensionError):
            lipschitz_bound(table, ell)


def test_lipschitz_bound_formulas():
    # The closed form follows from the orders and N alone.
    def generic(table):
        grad_sq = sum(sum(int(e) ** 2 for e in exps) for _, exps in table.components())
        return max(np.sqrt(grad_sq), np.sqrt(table.total_dim))

    cases = [
        (SHIFT, lambda table: np.sqrt(6.0) * 6**2.5),  # two generators, N = 2*3: image
        (make_group([2, 2], [[1, 0, 1, 1], [0, 1, 1, 0]]), lambda table: np.sqrt(6.0) * 4**2.5),
        (DIAG, lambda table: np.sqrt(6.0) * 6 * 2**1.5),  # two generators, N = 2: two-factor
        (make_group([7], [[1, 2, 3]]), generic),
        (make_group([2, 3, 5], [[1, 0, 1], [0, 1, 2], [1, 1, 1]]), generic),
    ]
    for group, constant in cases:
        table = build_exponent_table(group)
        ell = default_reduction(table, 1)
        want = 3.0 * np.linalg.norm(ell, 2) * constant(table) + 1.0
        assert lipschitz_bound(table, ell) == pytest.approx(want, rel=1e-12)


def test_npp_identity_and_rejections():
    table = build_exponent_table(SHIFT)
    rng = np.random.default_rng(15)
    x = random_signal(rng, 6)
    x /= np.linalg.norm(x)
    y = act(SHIFT, (1, 2), x)
    assert reference.check_npp(table, x, y, 1.0)
    z = random_signal(rng, 6)
    z /= np.linalg.norm(z)
    assert not reference.check_npp(table, x, z, 1.0)
    with pytest.raises(DomainError):
        reference.check_npp(table, 2 * x, y, 1.0)
    with pytest.raises(DomainError):
        reference.check_npp(table, x, y, 0.0)
    with pytest.raises(DomainError):
        reference.check_npp(table, x, y, -2.0)


def test_root_scaled_signal_satisfies_single_identities():
    # scaling coordinate k by lam**(1/m_k) multiplies every single-coordinate
    # monomial by exactly lam; mixed monomials pick up lam**(a/m1 + b/m2)
    table = build_exponent_table(SHIFT)
    rng = np.random.default_rng(16)
    y = random_signal(rng, 6)
    lam = 1.7
    singles = table.arrays[0][1][:, 0].tolist()
    roots = np.array([lam ** (1.0 / singles[k]) for k in range(6)])
    fy = eval_monomial_map(table, y).values
    fscaled = eval_monomial_map(table, roots * y).values
    for pos, (idx, exps) in enumerate(table.components()):
        if len(idx) == 1:
            np.testing.assert_allclose(fscaled[pos], lam * fy[pos], rtol=1e-9)
        else:
            power = sum(e / singles[k] for k, e in zip(idx, exps))
            np.testing.assert_allclose(
                fscaled[pos], lam**power * fy[pos], rtol=1e-9
            )
