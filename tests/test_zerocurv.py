"""Zero-curvature residuals for both component families and the Yang-Mills
quadrature on connection forms."""

from itertools import permutations, product

import numpy as np
import pytest

from kpsym import (
    ConnForm,
    LoopFn,
    Symbol,
    TSeries,
    build_Z,
    curvature_entry,
    ddt,
    eval_t,
    kp_residual,
    kp_solve,
    realize_matrix,
    tcommutator,
    ym_value,
    zs_residual,
)
from kpsym.criteria import JetCriteria
from kpsym.symbol import plan_stats


@pytest.fixture(scope="module")
def forms(small_jet):
    return build_Z(small_jet)


def test_forms_reuse_the_powers_of_the_residuals(small_jet, small_params):
    for n in range(1, small_params.K + 1):
        kp_residual(small_jet, n)
    before = plan_stats()["compose_calls"]
    build_Z(small_jet)
    JetCriteria(small_jet).zero_curvature()
    assert plan_stats()["compose_calls"] == before


def test_build_Z_trivial(small_params):
    S0 = Symbol.from_terms(small_params, {0: LoopFn.const(1, 16, 1.0)})
    jet = kp_solve(S0, small_params)
    Z_D, Z_S = build_Z(jet)
    for k in range(1, 4):
        assert (Z_D.component(k).term((0, 0, 0)) - Symbol.xi(small_params, k)).is_zero(1e-12)
    assert all(W.is_zero(1e-12) for W in Z_S.components.values())


def test_build_Z_reconstruction(forms, small_jet):
    from kpsym.tseries import tmul

    Z_D, Z_S = forms
    pw = small_jet.L
    for k in range(1, 4):
        if k > 1:
            pw = tmul(pw, small_jet.L)
        recon = Z_D.component(k) - Z_S.component(k)
        assert (recon - pw).norm() < 1e-12


def test_build_Z_st_component(forms):
    # Z_S,1 = -pi_S(L): sigma_{-1} at t = 0 is -sin x for the cosine dressing
    _, Z_S = forms
    got = Z_S.component(1).term((0, 0, 0)).coeff(-1)
    assert (got + LoopFn.sin(16)).norm() < 1e-12


def test_zs_residuals_both_families(forms, small_params):
    Z_D, Z_S = forms
    raw_S = -Z_S  # components pi_S(L^k)
    for m in range(1, 4):
        for n in range(m + 1, 4):
            assert zs_residual(Z_D, m, n, +1) < 1e-7
            assert zs_residual(raw_S, m, n, -1) < 1e-7


def test_smoothing_form_residual_either_sign(forms, small_params):
    # pi_S(L^k) = -Z_S with sign -1 negates the components back exactly
    _, Z_S = forms
    for m in range(1, 4):
        for n in range(m + 1, 4):
            assert zs_residual(Z_S, m, n, +1).hex() == zs_residual(-Z_S, m, n, -1).hex()


def uncapped_entry(theta, i, j):
    """F_ij from brackets over every valuation <= V, then its monomials of
    valuation <= V - max(i, j): the reference for the capped operands."""
    ti, tj = theta.component(i), theta.component(j)
    F = ddt(tj, i) - ddt(ti, j) - tcommutator(ti, tj)
    cap = theta.params.V - max(i, j)
    return TSeries(F.params, {m: s for m, s in F.terms.items() if m.val <= cap})


def test_zs_residual_equals_the_uncapped_reference(forms, small_params):
    Z_D, Z_S = forms
    for W in (Z_D, Z_S, -Z_S):
        for m, n in permutations(range(1, small_params.K + 1), 2):
            for sign in (1, -1):
                theta = W if sign == 1 else ConnForm({k: -W.component(k) for k in (m, n)})
                assert zs_residual(W, m, n, sign).hex() == uncapped_entry(theta, m, n).norm().hex()


def test_ym_value_equals_the_uncapped_reference(forms, small_params):
    k, n, Mr, Q = 0.05, 2, 8, 4
    nodes, weights = np.polynomial.legendre.leggauss(Q)
    for theta in forms:
        for i, j in ((1, 2), (1, 3), (2, 3)):
            F = uncapped_entry(theta, i, j).map_coeffs(lambda s: s.band(lo=small_params.F))
            want = 0.0
            for combo in product(range(Q), repeat=n):
                t = [nodes[q] * k for q in combo] + [0.0] * (small_params.K - n)
                w = float(np.prod([weights[q] * k for q in combo]))
                want += w * float(np.sum(np.abs(realize_matrix(eval_t(F, t), Mr)) ** 2))
            assert ym_value(theta, k, n, i, j, Mr, Q).hex() == want.hex()


def test_zs_sign_flip_is_detected(forms):
    Z_D, _ = forms
    assert zs_residual(Z_D, 1, 2, -1) > 1e-2


def test_zs_rejects_bad_indices(forms):
    Z_D, _ = forms
    with pytest.raises(ValueError):
        zs_residual(Z_D, 1, 1, +1)
    with pytest.raises(ValueError):
        zs_residual(Z_D, 0, 2, +1)
    with pytest.raises(ValueError):
        zs_residual(Z_D, 1, 2, 2)


def test_curvature_zero_cases(small_params):
    pairs = [(i, j) for i in (1, 2, 3) for j in range(i + 1, 4)]
    theta0 = ConnForm({k: TSeries.zero(small_params) for k in (1, 2, 3)})
    assert max(curvature_entry(theta0, i, j).norm() for i, j in pairs) == 0.0
    const = ConnForm(
        {k: TSeries.constant(small_params, Symbol.xi(small_params, k)) for k in (1, 2, 3)}
    )
    assert max(curvature_entry(const, i, j).norm() for i, j in pairs) < 1e-12


def test_curvature_entry_antisymmetry(forms):
    # F_ji = -F_ij and F_ii = 0, up to the order in which the Cauchy
    # products sum their terms
    _, Z_S = forms
    for i, j in ((1, 2), (1, 3), (2, 3)):
        F = curvature_entry(Z_S, i, j)
        assert (curvature_entry(Z_S, j, i) + F).norm() <= 1e-15 * F.norm()
    for i in (1, 2, 3):
        assert curvature_entry(Z_S, i, i).norm() <= 1e-15 * Z_S.component(i).norm()


def test_ym_zero_connection(small_params):
    theta0 = ConnForm({k: TSeries.zero(small_params) for k in (1, 2, 3)})
    assert ym_value(theta0, 0.05, 2, 2, 3, Mr=8, Q=4) == 0.0


def test_ym_positive_witness(small_params):
    pert = TSeries.monomial(
        small_params, (1, 0, 0), Symbol.from_terms(small_params, {-1: LoopFn.cos(16)})
    )
    theta = ConnForm({1: TSeries.zero(small_params), 2: pert, 3: TSeries.zero(small_params)})
    v = ym_value(theta, 0.05, 2, 1, 2, Mr=8, Q=4)
    assert v > 0.0


def test_ym_flat_vs_perturbed():
    # needs the full valuation depth: the (2,3) curvature entry is exact only
    # through val V - 3, so V = 4 would leave an O(k^2) truncation residual
    from kpsym import TruncParams

    params = TruncParams(M=16, F=-6, g=8, V=6, K=3)
    S0 = Symbol.from_terms(params, {0: LoopFn.const(1, 16, 1.0), -1: LoopFn.cos(16)})
    Z_D, Z_S = build_Z(kp_solve(S0, params))
    base = ym_value(Z_S, 0.05, 2, 2, 3, Mr=12, Q=6)
    assert base >= 0.0
    rng = np.random.default_rng(2)
    pert = TSeries.monomial(
        params,
        (0, 1, 0),
        Symbol.from_terms(params, {-1: LoopFn.random_trig(rng, 16, 2, amp=1e-2)}),
    )
    v = ym_value(Z_S.add_term(3, pert), 0.05, 2, 2, 3, Mr=12, Q=6)
    assert base <= 1e-4 * v


def test_ym_validation(forms):
    _, Z_S = forms
    with pytest.raises(ValueError):
        ym_value(Z_S, 0.05, 2, 3, 2, Mr=8)
    with pytest.raises(ValueError):
        ym_value(Z_S, 0.05, 4, 1, 2, Mr=8)
    with pytest.raises(ValueError):
        ym_value(Z_S, 0.05, 2, 1, 2, Mr=64)
    with pytest.raises(ValueError):
        ym_value(Z_S, -0.1, 2, 1, 2, Mr=8)


def test_ym_quadrature_exactness(forms, small_params):
    # the integrand is polynomial in t; past the degree threshold the node
    # count must not change the value
    _, Z_S = forms
    a = ym_value(Z_S, 0.05, 2, 2, 3, Mr=10, Q=8)
    b = ym_value(Z_S, 0.05, 2, 2, 3, Mr=10, Q=12)
    assert abs(a - b) <= 1e-12 * max(abs(a), 1.0)
