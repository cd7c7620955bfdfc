"""Dressing/differential splitting of the flow exponential, and the jet solver.

The recursion is cross-checked against a genuinely independent path: the
level-by-level constraints are assembled into one dense linear system over
all smoothing-direction coefficients and solved with LAPACK, without using
the recursion's ordering.
"""

from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from kpsym import (
    KPJet,
    LoopFn,
    Symbol,
    TMono,
    TSeries,
    TruncParams,
    build_U,
    compose,
    conj_consistency,
    conj_from,
    conj_t,
    ddt,
    kp_residual,
    kp_solve,
    lax_defects,
    mulase_factorize,
    tcommutator,
    tinvert,
    tmul,
)
from kpsym import criteria
from kpsym.symbol import plan_stats
from kpsym.tseries import tpowers


def dressing(params, entries):
    terms = {0: LoopFn.const(params.d, params.M, 1.0)}
    terms.update(entries)
    return Symbol.from_terms(params, terms)


def test_trivial_dressing(small_params):
    S0 = dressing(small_params, {})
    jet = kp_solve(S0, small_params)
    assert (jet.S - TSeries.one(small_params)).norm() == 0.0
    assert (jet.Y - jet.U).norm() == 0.0
    # L(t) = xi for all t
    for mono, sym in jet.L.terms.items():
        if mono.val == 0:
            assert (sym - Symbol.xi(small_params)).is_zero()
        else:
            assert sym.is_zero()


def test_build_U_coefficients(small_params):
    L0 = Symbol.xi(small_params)
    U = build_U(L0, small_params)
    assert (U.term((0, 1, 0)) - Symbol.xi(small_params, 2)).is_zero()
    got = U.term((2, 0, 0))
    assert (got - Symbol.xi(small_params, 2).scale(0.5)).is_zero()
    assert (U.term((1, 1, 0)) - Symbol.xi(small_params, 3)).is_zero()


def test_build_U_rejects_bad_leading(small_params):
    with pytest.raises(ValueError):
        build_U(Symbol.xi(small_params, 2), small_params)
    with pytest.raises(ValueError):
        build_U(Symbol.xi(small_params, 1, 2.0), small_params)


def test_rescaled_calculus_is_read_from_the_params(small_params):
    # deform = 1/2 is the calculus of h = 2: d/dx has the symbol 2 xi
    params_h = small_params.with_deform(0.5)
    assert params_h.h == 2.0
    with pytest.raises(ValueError, match="leading coefficient"):
        build_U(Symbol.xi(params_h, 1), params_h)
    U = build_U(Symbol.xi(params_h, 1, 2.0), params_h)  # t_2 carries h^2 (2 xi)^2
    assert (U.term((0, 1, 0)) - Symbol.xi(params_h, 2, 16.0)).is_zero()
    S0 = dressing(small_params, {-1: LoopFn.cos(16)})
    L0 = conj_from(S0.recast(params_h), params_h)
    assert (L0.coeff(1) - LoopFn.const(1, 16, 2.0)).norm() == 0.0
    jet_h = kp_solve(S0.recast(params_h), params_h)
    assert (jet_h.L0.coeff(1) - LoopFn.const(1, 16, 2.0)).norm() == 0.0
    # a dressing of the plain calculus would give a lead-1 base operator
    with pytest.raises(ValueError, match="incompatible"):
        kp_solve(S0, params_h)


def test_factorize_structure(small_jet, small_params):
    jet = small_jet
    # S o U = Y exactly as computed
    assert (tmul(jet.S, jet.U) - jet.Y).norm() < 1e-12
    # Y strictly differential (structural, not tolerance)
    for sym in jet.Y.terms.values():
        assert all(n >= 0 for n, f in sym.a.items() if not f.is_zero())
    # S - 1 strictly smoothing
    S1 = jet.S - TSeries.one(small_params)
    for sym in S1.terms.values():
        assert all(n <= -1 for n, f in sym.a.items() if not f.is_zero())
    # growth bounds
    jet.S.assert_growth(0)
    jet.Y.assert_growth(0)
    jet.L.assert_growth(1)


def test_factorize_idempotent(small_jet, small_params):
    # re-factorizing S^{-1} Y returns the same pair (uniqueness)
    U2 = tmul(tinvert(small_jet.S), small_jet.Y)
    S2, Y2 = mulase_factorize(U2)
    assert (S2 - small_jet.S).norm() < 1e-10
    assert (Y2 - small_jet.Y).norm() < 1e-10


def test_factorize_rejects_non_unit(small_params):
    bad = TSeries.monomial(small_params, (1, 0, 0), Symbol.xi(small_params))
    with pytest.raises(ValueError):
        mulase_factorize(bad)


NAN = float("nan")


@pytest.mark.parametrize(
    "solve, message",
    [
        (lambda p: kp_solve(dressing(p, {0: LoopFn.const(1, 16, NAN), -1: LoopFn.cos(16)}), p), "of the form 1 +"),
        (lambda p: build_U(Symbol.xi(p, 1, NAN) + Symbol.xi(p, -1, 0.5), p), "leading coefficient"),
        (lambda p: mulase_factorize(TSeries.constant(p, Symbol.xi(p, 0, NAN))), "constant term 1"),
    ],
    ids=["kp_solve", "build_U", "mulase_factorize"],
)
def test_solvers_refuse_nan_inputs(small_params, solve, message):
    # every comparison with a NaN is False, so each guard is written to fail on one
    with pytest.raises(ValueError, match=message):
        solve(small_params)


def dense_oracle(U, params):
    """Solve S o U = Y as one dense linear system (independent of the
    valuation recursion): unknowns are all smoothing-direction coefficients
    of S, equations are pi_S((S o U)_alpha) = 0 with S_0 = 1."""
    monos = [m for m in sorted(U.terms, key=TMono.key) if m.val > 0]
    orders = list(range(params.floor, 0))
    L = 2 * params.M + 1
    block = len(orders) * L

    def flatten(sym):
        return np.concatenate([sym.coeff(n).c[:, 0, 0] for n in orders])

    def unflatten(vec):
        terms = {}
        for i, n in enumerate(orders):
            arr = vec[i * L : (i + 1) * L]
            if np.any(arr):
                terms[n] = LoopFn(1, params.M, np.asarray(arr)[:, None, None])
        return Symbol(params, terms)

    nm = len(monos)
    A = np.eye(nm * block, dtype=complex)
    b = np.zeros(nm * block, dtype=complex)
    for i, alpha in enumerate(monos):
        b[i * block : (i + 1) * block] = -flatten(U.term(alpha).s_part())
        for j, beta in enumerate(monos):
            gamma = tuple(a - bb for a, bb in zip(alpha, beta))
            if beta == alpha or any(g < 0 for g in gamma):
                continue
            Ug = U.term(gamma)
            if Ug.is_zero():
                continue
            # columns: basis coefficient at (order n, mode m) composed with Ug
            for oi, n in enumerate(orders):
                for mi in range(L):
                    e = np.zeros(L, dtype=complex)
                    e[mi] = 1.0
                    basis = Symbol(params, {n: LoopFn(1, params.M, e[:, None, None])})
                    col = flatten(compose(basis, Ug).s_part())
                    A[i * block : (i + 1) * block, j * block + oi * L + mi] += col
    # equilibrate: deep orders carry geometrically growing magnitudes that
    # would otherwise dominate the conditioning
    w = np.concatenate([np.full(L, 4.0 ** (-n)) for n in orders])
    scale = np.concatenate([w for _ in monos])
    As = A * scale[None, :] / scale[:, None]
    sol = scale * np.linalg.solve(As, b / scale)
    terms = {TMono.zero(params.K): Symbol.identity(params)}
    terms.update((alpha, unflatten(sol[i * block : (i + 1) * block])) for i, alpha in enumerate(monos))
    S = TSeries(params, terms)
    Y = tmul(S, U).d_part()
    return S, Y


def test_recursion_matches_dense_solve():
    params = TruncParams(M=8, F=-4, g=4, V=3, K=3)
    S0 = dressing(params, {-1: LoopFn.cos(8)})
    jet = kp_solve(S0, params)
    S_ref, Y_ref = dense_oracle(jet.U, params)
    assert (jet.S - S_ref).norm() < 1e-10
    assert (jet.Y - Y_ref).norm() < 1e-10


def test_kp_solve_initial_value(small_jet, small_params):
    # L(0) = L0 with sigma_{-1} = sin x for the cosine dressing
    L0 = small_jet.L.term((0, 0, 0))
    assert (L0 - small_jet.L0).is_zero()
    assert (small_jet.L0.coeff(-1) - LoopFn.sin(16)).norm() < 1e-12


def test_kp_solve_rejects_bad_dressing(small_params):
    with pytest.raises(ValueError):
        kp_solve(Symbol.xi(small_params), small_params)
    with pytest.raises(ValueError):
        kp_solve(
            Symbol.from_terms(small_params, {0: LoopFn.const(1, 16, 2.0)}), small_params
        )


def test_kp_residual_small(small_jet, small_params):
    # rounding-floor tolerances at plain double precision; the strict 1e-9
    # bounds are exercised at the extended-precision desk scale
    for n in (1, 2, 3):
        assert kp_residual(small_jet, n) < 1e-7
        assert lax_defects(small_jet, n)[1] < 1e-8
    # the powers are indexed by n - 1, so n = 0 must not read L^K
    for n in (0, small_params.K + 1):
        for defect in (kp_residual, lax_defects):
            with pytest.raises(ValueError):
                defect(small_jet, n)
    # with V < n the flow t_n reads no valuation: its cap V - n is refused
    shallow = replace(small_params, V=2)
    jet = kp_solve(dressing(shallow, {-1: LoopFn.cos(16)}), shallow)
    for defect in (kp_residual, lax_defects):
        with pytest.raises(ValueError, match="V >= 0"):
            defect(jet, 3)


def test_lax_defects_equal_the_uncapped_brackets(small_jet):
    # reference: brackets over every valuation <= V, then the monomials of
    # valuation <= V - n; the capped operands must give the same floats
    L, V = small_jet.L, small_jet.params.V

    def norm_up_to(X, cap):
        return max([s.norm() for m, s in X.terms.items() if m.val <= cap], default=0.0)

    for n in range(1, small_jet.params.K + 1):
        Ln = small_jet.powers[n - 1]
        rhs_d, rhs_s = tcommutator(Ln.d_part(), L), tcommutator(Ln.s_part(), L)
        lhs = ddt(L, n)
        residual = max(norm_up_to(lhs - rhs_d, V - n), norm_up_to(lhs + rhs_s, V - n))
        want = (residual, norm_up_to(rhs_d + rhs_s, V - n))
        assert [x.hex() for x in lax_defects(small_jet, n)] == [x.hex() for x in want]


def test_second_conjugation_route_is_formed_on_first_read(small_params):
    jet = kp_solve(dressing(small_params, {-1: LoopFn.cos(16)}), small_params)
    before = plan_stats()["compose_calls"]
    value = conj_consistency(jet)
    assert plan_stats()["compose_calls"] > before
    assert value == (jet.L - conj_t(jet.Y, jet.L0)).norm()


def test_jet_powers_follow_its_operator(small_jet):
    first = small_jet.powers
    X = small_jet.L.scale(0.5)
    moved = replace(small_jet, L=X)
    assert small_jet.powers is first
    p = small_jet.params
    for got, want in zip(moved.powers, tpowers(X, p.K, lo=p.F - p.K), strict=True):
        assert got.terms.keys() == want.terms.keys()
        assert all(np.array_equal(got.terms[m].c, want.terms[m].c) for m in want.terms)
    with pytest.raises(FrozenInstanceError):
        small_jet.L = X


def test_floored_lax_values_equal_the_full_floor_values(small_jet):
    # the jet's powers, its brackets and its second route are formed only
    # on the orders the records read; the records keep the full forms' bits
    p = small_jet.params
    powers = list(tpowers(small_jet.L, p.K))
    for n in range(1, p.K + 1):
        cap = p.V - n
        L, Ln = small_jet.L.capped(cap), powers[n - 1].capped(cap)
        rhs_d, rhs_s = tcommutator(Ln.d_part(), L), tcommutator(Ln.s_part(), L)
        lhs = ddt(small_jet.L, n).capped(cap)
        want = (max((lhs - rhs_d).norm(), (lhs + rhs_s).norm()), (rhs_d + rhs_s).norm())
        assert [v.hex() for v in lax_defects(small_jet, n)] == [v.hex() for v in want]
    want = (small_jet.L - conj_t(small_jet.Y, small_jet.L0)).norm()
    assert conj_consistency(small_jet).hex() == want.hex()


def test_a_second_lax_check_misses_no_plan(small_jet):
    # once the jet keeps its powers and second route, the floored brackets
    # of its Lax records fit the plan cache
    small_jet.powers, small_jet.L_via_Y
    criteria.lax(small_jet)
    first = plan_stats()
    criteria.lax(small_jet)
    again = plan_stats()
    assert again["plan_hits"] > first["plan_hits"] and again["plan_misses"] == first["plan_misses"]


def test_a_tiny_negative_order_of_y_fails_its_record(small_jet, small_params):
    # 1e-300 squares to 0, so an l2 norm would read this coefficient as absent
    tiny = Symbol.xi(small_params, -1, 1e-300)
    assert tiny.order_norms() == {-1: 0.0}
    jet = replace(small_jet, Y=small_jet.Y + TSeries.monomial(small_params, (0, 1, 0), tiny))
    records = {r.name: r for r in criteria.factorization(jet)}
    record = records["factorize/y-strictly-differential"]
    assert record.value == 1e-300 and not record.passed
    assert {r.name: r for r in criteria.factorization(small_jet)}["factorize/y-strictly-differential"].value == 0.0


def test_conj_consistency_and_sensitivity(small_jet, small_params):
    assert conj_consistency(small_jet) < 1e-7
    # corrupting one coefficient of Y by 1e-3 must be detected
    jet = small_jet
    bump = Symbol.from_terms(small_params, {1: LoopFn.const(1, 16, 1e-3)})
    Y_bad = jet.Y + TSeries.monomial(small_params, (1, 0, 0), bump)
    corrupted = KPJet(S0=jet.S0, L0=jet.L0, U=jet.U, S=jet.S, Y=Y_bad, L=jet.L)
    assert conj_consistency(corrupted) > 1e-4


def test_nan_in_L_fails_the_lax_records(small_jet, small_params):
    # a NaN coefficient must reach the records, not be dropped by a max
    nan = Symbol.from_terms(small_params, {-1: LoopFn.from_modes(1, 16, {1: np.nan})})
    jet = replace(small_jet, L=small_jet.L + TSeries.monomial(small_params, (1, 0, 0), nan))
    records = criteria.lax(jet)
    assert all(np.isnan(r.value) and not r.passed for r in records)


def test_lipschitz_probe(small_jet, small_params):
    base = small_jet
    ratios = []
    for eps in (1e-3, 1e-4):
        S0p = base.S0 + Symbol.from_terms(small_params, {-1: LoopFn.cos(16, 1, eps)})
        jp = kp_solve(S0p, small_params)
        delta = max((jp.S - base.S).norm(), (jp.Y - base.Y).norm())
        ratios.append(delta / eps)
    assert max(ratios) / min(ratios) < 2.0


def test_h_scaling_covariance_small(small_params):
    from kpsym.tseries import scale_h

    S0 = dressing(small_params, {-1: LoopFn.cos(16)})
    jet = kp_solve(S0, small_params)
    h = 2.0
    scaled = scale_h(jet.L, h)
    params_h = small_params.with_deform(1.0 / h)
    S0h = Symbol(params_h, {n: f * (h ** float(n)) for n, f in S0.a.items()})
    jet_h = kp_solve(S0h, params_h)
    diff = 0.0
    for mono in set(scaled.terms) | set(jet_h.L.terms):
        a = scaled.terms.get(mono, Symbol.zero(small_params))
        b = jet_h.L.terms.get(mono, Symbol.zero(params_h))
        for n in set(a.a) | set(b.a):
            if n >= small_params.F:
                diff = max(diff, float(np.linalg.norm((a.coeff(n).c - b.coeff(n).c).astype(complex))))
    assert diff < 1e-9


def test_random_dressings_roundtrip(small_params):
    rng = np.random.default_rng(17)
    for _ in range(3):
        entries = {
            -1: LoopFn.random_trig(rng, 16, 2, amp=0.3),
            -2: LoopFn.random_trig(rng, 16, 2, amp=0.2),
            -3: LoopFn.random_trig(rng, 16, 2, amp=0.1),
        }
        S0 = dressing(small_params, entries)
        jet = kp_solve(S0, small_params)
        assert (tmul(jet.S, jet.U) - jet.Y).norm() < 1e-11
        jet.S.assert_growth(0)
        jet.Y.assert_growth(0)
