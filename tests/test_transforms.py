"""The four invariant transforms, the seeded reduction, the certified
Lipschitz constants, and the proportionality check."""

import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import reference
from hypothesis import given, settings
from hypothesis import strategies as st

import orbitsep.exponents
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
from orbitsep.exponents import ExponentTable, float_exponents
from orbitsep.groups import _unit_scaled
from orbitsep.transforms import _unit_phases
from reference import minimal_single, monomials

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
    singles, *rest = (exps.shape for _, exps in table.arrays)
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


def direct_monomial_map(table, x):
    """F as whole table blocks of direct powers: the bits the gather must give."""
    return np.concatenate([monomials(x, idx, float_exponents(exps)) for idx, exps in table.arrays], axis=-1)


def direct_phase_map(table, beta, x):
    """Theta as whole table blocks of direct powers of the unit phases."""
    moduli, phases = np.abs(x), _unit_phases(x)
    with np.errstate(all="ignore"):
        values = [(moduli ** beta.blocks[0][:, 0]).astype(complex)]
        for (idx, exps), w in zip(table.arrays[1:], beta.blocks[1:]):
            subset = moduli.take(idx, axis=-1)
            value = np.prod(subset ** w * phases.take(idx, axis=-1) ** float_exponents(exps), axis=-1)
            values.append(np.where((subset == 0).any(axis=-1), 0j, value))
    return np.concatenate(values, axis=-1)


# Tables of every tuple size, grid tables and direct ones.
REAL_TABLES = [build_exponent_table(group, size) for group in (
    cyclic_shift_spec(16), shift_action_spec(2, 3), shift_action_spec(3, 4),
    make_group([10, 1000], [[7, 2, 5], [641, 687, 597]]), make_group([100, 100, 100], [[11, 45], [48, 68], [92, 88]]),
) for size in (1, 2, 3)]


@st.composite
def synthetic_tables(draw):
    """A table over N = 1 .. 6 coordinates with random rows and exponents
    0 .. top, both ends planted; some hold one negative exponent, or hold
    their exponents as Python ints."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, top = draw(st.integers(1, 6)), draw(st.integers(0, 6))
    arrays = []
    for size in (1, 2, 3):
        count = n if size == 1 else draw(st.integers(0, 40))
        indices = np.arange(n)[:, None] if size == 1 else rng.integers(0, n, size=(count, size))
        arrays.append([indices.astype(np.intp), rng.integers(0, top, size=(count, size), endpoint=True)])
    arrays[0][1][0, 0], arrays[0][1][-1, 0] = 0, top
    kind = draw(st.sampled_from(["int64", "negative", "object"]))
    if kind == "negative":
        arrays[0][1][0, 0] = -1
    elif kind == "object":
        arrays = [(indices, exps.astype(object)) for indices, exps in arrays]
    return ExponentTable(make_group([2], [[1] * n]), tuple(map(tuple, arrays)))


@st.composite
def gather_inputs(draw):
    """(table, beta, z): a real or synthetic table whose gather is decided in
    passes of 1, 3, 64 or the full rows; weights >= 1 on singles and >= 0,
    some 0, elsewhere; one signal or a stack of 1 to 4, with planted zeros,
    subnormal, huge, infinite and NaN entries."""
    table = draw(st.one_of(st.sampled_from(REAL_TABLES), synthetic_tables()))
    table = ExponentTable(table.group, table.arrays)  # a fresh gather
    with mock.patch.object(orbitsep.exponents, "_PASS_ROWS", draw(st.sampled_from([1, 3, 64, 2048]))):
        table.gather
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = [rng.choice([0.0, 0.5, 1.0, 2.5], size=exps.shape) for _, exps in table.arrays]
    weights[0] += 1.0
    rows = draw(st.sampled_from([(), (1,), (2,), (3,), (4,)]))
    z = rng.standard_normal(rows + (2 * table.group.dim,)).view(complex)
    special = np.array([0, 5e-324, 2.5e-310 + 1e-320j, 1e300, -1e300j, np.inf, complex(np.nan, 1), complex(1, np.inf)])
    planted = rng.random(z.shape) < draw(st.floats(0, 0.5))
    z[planted] = rng.choice(special, size=int(planted.sum()))
    return table, BetaWeights(tuple(weights)), z


@settings(derandomize=True, max_examples=300, deadline=None)
@given(gather_inputs())
def test_grid_and_passes_match_whole_block_direct_powers(inputs):
    table, beta, z = inputs
    got, want = eval_monomial_map(table, z).values, direct_monomial_map(table, z)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    got, want = eval_phase_map(table, beta, z).values, direct_phase_map(table, beta, z)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_an_infinite_entry_has_a_nan_phase_and_raises_no_warning():
    # Theta and Phi take its unit phase, inf / inf, under the suite's
    # error::RuntimeWarning filter; its modulus stays inf.
    table = build_exponent_table(SHIFT)
    x = np.ones(6, dtype=complex)
    x[0] = complex(np.inf, 1)
    beta = default_beta(table)
    theta = eval_phase_map(table, beta, x).values
    assert theta.tobytes() == direct_phase_map(table, beta, x).tobytes()
    assert theta[0] == np.inf and (theta[1:6] == 1).all()
    touches = np.concatenate([(idx == 0).any(axis=-1) for idx, _ in table.arrays[1:]])
    assert np.isnan(theta[6:][touches]).all() and np.isfinite(theta[6:][~touches]).all()
    phi = eval_lowdim(table, default_reduction(table, 0), x).values
    assert phi[:6].tobytes() == np.abs(x).astype(complex).tobytes()
    assert np.isnan(phi[6:]).all()


def edge_table(top, dtype=np.int64, negative=False):
    """N = 4 with all its 4 singles, 6 pairs and 4 triples, 28 factors, every
    exponent top (one -1 if negative)."""
    arrays = [(np.array(list(itertools.combinations(range(4), size)), dtype=np.intp), None) for size in (1, 2, 3)]
    arrays = [(indices, np.full(indices.shape, top, dtype=dtype)) for indices, _ in arrays]
    if negative:
        arrays[2][1][0, 0] = -1
    return ExponentTable(make_group([7], [[1, 2, 3, 4]]), tuple(arrays))


def test_grid_is_decided_once_per_table_from_its_factor_count():
    # 4 * (5 + 1) = 24 powers are fewer than the 28 factors; 4 * (6 + 1) are as many.
    assert edge_table(5).gather[0] is not None
    assert edge_table(6).gather[0] is None
    assert edge_table(5, negative=True).gather[0] is None
    assert edge_table(5, dtype=object).gather[0] is None
    for group in (SHIFT, shift_action_spec(8, 8), cyclic_shift_spec(62)):
        assert build_exponent_table(group).gather[0] is not None
        singles_only = build_exponent_table(group, 1)  # N * (top + 1) >= N, and two empty blocks
        assert singles_only.gather[0] is None and len(singles_only.gather[1]) == 1
    assert build_exponent_table(make_group([100, 100, 100], [[11, 45], [48, 68], [92, 88]])).gather[0] is None
    table = build_exponent_table(SHIFT)
    assert table.gather is table.gather  # decided once


def test_grid_arrays_are_read_only_flat_indices():
    direct = build_exponent_table(make_group([100, 100, 100], [[11, 45], [48, 68], [92, 88]]))
    for table in (build_exponent_table(shift_action_spec(4, 4)), edge_table(5), direct):
        steps, passes = table.gather
        arrays = [steps] if steps is not None else []
        for block, rows, columns, index, exps in passes:
            indices, exponents = table.arrays[block]
            if steps is None:
                assert (index == indices[rows]).all() and (exps == exponents[rows]).all()
                arrays.append(exps)
            else:
                assert exps is None and (index // len(steps) == indices[rows]).all()
                assert (steps[index % len(steps)] == exponents[rows]).all()
            assert columns.stop - columns.start == len(index)
            arrays.append(index)
        assert arrays and not any(array.flags.writeable for array in arrays)


@pytest.mark.parametrize("group, rows, parent_peak", [
    (shift_action_spec(8, 8), (), 1_400_384), (shift_action_spec(8, 8), (2,), 2_800_224), (cyclic_shift_spec(62), (), 1_273_312),
], ids=["shift8x8", "shift8x8-stack", "cyclic62"])
def test_monomial_map_peak_stays_under_the_parents(group, rows, parent_peak):
    # Before the table-level gather, F peaked at these bytes here: passes of
    # 2048 rows and a concatenation of the blocks.  Gathering the 8x8
    # triples whole would take 2 MB per signal on its own.
    table = build_exponent_table(group)
    x = np.random.default_rng(5).standard_normal(rows + (2 * group.dim,)).view(complex)
    eval_monomial_map(table, x)  # the gather is decided on the first call
    tracemalloc.start()
    try:
        eval_monomial_map(table, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= parent_peak


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


def test_an_empty_stack_gives_no_rows():
    # A grid table's powers of no rows reshape by their explicit width.
    direct = make_group([100, 100, 100], [[11, 45], [48, 68], [92, 88]])
    for table in (build_exponent_table(SHIFT), build_exponent_table(direct)):
        for fn in transforms_under_test(table):
            assert fn(np.empty((0, table.group.dim))).values.shape == (0, fn(np.ones(table.group.dim)).dim)
    table = build_exponent_table(shift_action_spec(8, 8))
    assert eval_monomial_map(table, np.empty((0, 64))).values.shape == (0, table.total_dim)


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
