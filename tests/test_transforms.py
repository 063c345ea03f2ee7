"""The four invariant transforms, the seeded reduction, the certified
Lipschitz constants, and the proportionality check."""

import numpy as np
import pytest
import reference

from orbitsep import (
    BetaWeights,
    ConfigError,
    DimensionError,
    DomainError,
    act,
    build_exponent_table,
    check_npp,
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
    minimal_single,
    shift_action_spec,
)

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
    """A random signal and one with every third entry exactly zero."""
    sparse = random_signal(rng, n)
    sparse[::3] = 0
    return [random_signal(rng, n), sparse]


@pytest.mark.parametrize(
    "group", reference.ORACLE_GROUPS.values(), ids=reference.ORACLE_GROUPS.keys()
)
def test_transforms_match_scalar_reference(group):
    # Below exponent 100 numpy's complex power takes the same integer path
    # as CPython's, so F, PhiF and Phi agree bit for bit, signed zeros too.
    rng = np.random.default_rng(17)
    table = build_exponent_table(group)
    # Weights of 0 make the zero rule visible: 0 ** 0 is 1, not 0.
    beta = BetaWeights(
        singles=tuple(1.0 + rng.integers(0, 2, len(table.singles))),
        pairs={idx: tuple(rng.integers(0, 3, 2) * 1.0) for idx in table.pairs},
        triples={idx: tuple(rng.integers(0, 3, 3) * 1.0) for idx in table.triples},
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
    a, b = table.pairs[(0, 1)]
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
    with pytest.raises(ConfigError):
        BetaWeights(singles=(0.5, 1.0), pairs={}, triples={})
    with pytest.raises(ConfigError):
        BetaWeights(singles=(1.0, 1.0), pairs={(0, 1): (-1.0, 0.0)}, triples={})
    beta = default_beta(table)
    assert beta.singles == (1.0, 1.0)
    assert beta.pairs[(0, 1)] == (1.0, 1.0)


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


def test_make_reduction_deterministic_with_cached_norm():
    r1 = make_reduction(42, 7, 3)
    r2 = make_reduction(42, 7, 3)
    np.testing.assert_array_equal(r1.matrix, r2.matrix)
    assert r1.matrix.shape == (3, 7)
    assert r1.in_dim == 7 and r1.out_dim == 3
    assert abs(r1.operator_norm - np.linalg.norm(r1.matrix, 2)) < 1e-12
    with pytest.raises(ConfigError):
        make_reduction(0, 0, 3)


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
    table = build_exponent_table(SHIFT)
    with pytest.raises(DimensionError):
        eval_lowdim(table, make_reduction(0, 5, 3), np.ones(6, complex))


def test_lipschitz_bound_formulas():
    table = build_exponent_table(SHIFT)
    ell = default_reduction(table, 1)
    norm = ell.operator_norm
    grad_sq = sum(
        sum(int(e) ** 2 for e in exps) for _, exps in table.components()
    )
    want_generic = 3.0 * norm * max(np.sqrt(grad_sq), np.sqrt(table.total_dim)) + 1.0
    assert abs(lipschitz_bound(table, ell, "generic") - want_generic) < 1e-12
    want_two = 3.0 * np.sqrt(6.0) * 6 * 6**1.5 * norm + 1.0
    assert abs(lipschitz_bound(table, ell, "two_factor") - want_two) < 1e-9
    want_image = 3.0 * np.sqrt(6.0) * 6**2.5 * norm + 1.0
    assert abs(lipschitz_bound(table, ell, "image") - want_image) < 1e-9
    assert abs(lipschitz_bound(table, ell, "trivial") - (3.0 * norm + 1.0)) < 1e-12
    with pytest.raises(ConfigError):
        lipschitz_bound(table, ell, "other")
    diag_table = build_exponent_table(DIAG)
    with pytest.raises(ConfigError):
        # image form needs the full shift geometry, dim == product of orders
        lipschitz_bound(diag_table, default_reduction(diag_table, 1), "image")


def test_npp_identity_and_rejections():
    table = build_exponent_table(SHIFT)
    rng = np.random.default_rng(15)
    x = random_signal(rng, 6)
    x /= np.linalg.norm(x)
    y = act(SHIFT, (1, 2), x)
    assert check_npp(table, x, y, 1.0)
    z = random_signal(rng, 6)
    z /= np.linalg.norm(z)
    assert not check_npp(table, x, z, 1.0)
    with pytest.raises(DomainError):
        check_npp(table, 2 * x, y, 1.0)
    with pytest.raises(DomainError):
        check_npp(table, x, y, 0.0)
    with pytest.raises(DomainError):
        check_npp(table, x, y, -2.0)


def test_root_scaled_signal_satisfies_single_identities():
    # scaling coordinate k by lam**(1/m_k) multiplies every single-coordinate
    # monomial by exactly lam; mixed monomials pick up lam**(a/m1 + b/m2)
    table = build_exponent_table(SHIFT)
    rng = np.random.default_rng(16)
    y = random_signal(rng, 6)
    lam = 1.7
    roots = np.array([lam ** (1.0 / table.singles[k]) for k in range(6)])
    fy = eval_monomial_map(table, y).values
    fscaled = eval_monomial_map(table, roots * y).values
    for pos, (idx, exps) in enumerate(table.components()):
        if len(idx) == 1:
            np.testing.assert_allclose(fscaled[pos], lam * fy[pos], rtol=1e-9)
        else:
            power = sum(e / table.singles[k] for k, e in zip(idx, exps))
            np.testing.assert_allclose(
                fscaled[pos], lam**power * fy[pos], rtol=1e-9
            )
