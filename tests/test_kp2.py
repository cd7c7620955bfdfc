"""Extraction of u_{-1}, u_{-2}, the degree-1 equation checks, the
prime/eliminated system equivalence, and the numeric operator flows."""

import numpy as np
import pytest

from kpsym import (
    FlowBlowup,
    LoopFn,
    Symbol,
    TMono,
    TruncParams,
    TSeries,
    check_t12,
    check_t13,
    check_t23,
    conj_from,
    equiv_t23,
    eval_taylor,
    extract_u,
    flow_delinearized,
    flows_commute,
    kp_solve,
    taylor_jet,
)
from kpsym import criteria
from kpsym.symbol import clear_plans, plan_stats

# a reduced scale for the NaN cases
P8 = TruncParams(M=8, F=-4, g=4, V=3)


def test_extract_trivial(small_params):
    L = Symbol.xi(small_params)
    u1, u2 = extract_u(L)
    assert u1.norm() == 0.0 and u2.norm() == 0.0


def test_extract_derived(small_jet):
    u1, _ = extract_u(small_jet.L0)
    assert (u1 - LoopFn.sin(16)).norm() < 1e-12


def test_extract_round_trip(small_params):
    u1 = LoopFn.sin(16, 2)
    u2 = LoopFn.cos(16, 3)
    L = Symbol.from_terms(small_params, {1: LoopFn.const(1, 16, 1.0), -1: u1, -2: u2})
    got1, got2 = extract_u(L)
    assert (got1 - u1).norm() == 0.0 and (got2 - u2).norm() == 0.0


def test_extract_rejects_bad_leading(small_params):
    with pytest.raises(ValueError):
        extract_u(Symbol.xi(small_params, 1, 2.0))


def test_extract_refuses_nan_leading():
    # xi.NaN + cos.xi^-1: NaN - 1 compares False with any tolerance
    L = Symbol.xi(P8, 1, np.nan) + Symbol.from_terms(P8, {-1: LoopFn.cos(8)})
    with pytest.raises(ValueError, match="leading coefficient is not 1"):
        extract_u(L)


def test_extract_refuses_nan_jet_leading():
    L = Symbol.xi(P8, 1, np.nan) + Symbol.from_terms(P8, {-1: LoopFn.cos(8)})
    with pytest.raises(ValueError, match="jet leading coefficient is not xi"):
        extract_u(TSeries.constant(P8, L))


def test_extract_warns_on_nan_order_zero():
    L = Symbol.xi(P8) + Symbol.xi(P8, 0, np.nan) + Symbol.from_terms(P8, {-1: LoopFn.cos(8)})
    with pytest.warns(UserWarning, match="order-0 part has norm nan"):
        extract_u(L)


def test_checks_trivial(small_params):
    S0 = Symbol.from_terms(small_params, {0: LoopFn.const(1, 16, 1.0)})
    jet = kp_solve(S0, small_params)
    assert check_t12(jet) == 0.0
    assert check_t13(jet) == 0.0
    assert check_t23(jet) == 0.0


def test_checks_derived(small_jet):
    assert check_t12(small_jet) < 1e-8
    assert check_t13(small_jet) < 1e-8
    assert check_t23(small_jet) < 1e-8


def test_check_sensitivity(small_jet, small_params):
    # corrupting the t1 coefficient of u_{-1} by 1e-3 must surface ~1e-3
    bump = Symbol.from_terms(small_params, {-1: LoopFn.const(1, 16, 1e-3)})
    jet_L = small_jet.L + TSeries.monomial(small_params, (1, 0, 0), bump)

    class Stub:
        L = jet_L
        params = small_params

    r = check_t12(Stub())
    assert 1e-4 < r < 1e-2


def synthetic_jets(params, rng, satisfy_eq1=True):
    """Random scalar jets; when satisfy_eq1 is set, the t2-dependence of u1 is
    filled in so that du1/dt2 = u1'' + 2 u2' holds exactly."""
    def draw():
        return Symbol(params, {0: LoopFn.random_trig(rng, params.M, 3)})

    u2 = TSeries(params, {mono: draw() for mono in [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (1, 1, 0)]})
    u1 = {TMono(mono): draw() for mono in [(0, 0, 0), (1, 0, 0), (0, 0, 1), (2, 0, 0), (1, 0, 1)]}
    if satisfy_eq1:
        # recursive fill: (a2 + 1) u1_{alpha + e2} = dx^2 u1_alpha + 2 dx u2_alpha
        for val in range(params.V):
            for mono in list(u1):
                nxt = TMono((mono[0], mono[1] + 1, mono[2]))
                if nxt.val > params.V:
                    continue
                rhs = u1[mono].map_coeffs(lambda f: f.dx(2)) + u2.term(mono).map_coeffs(lambda f: f.dx()).scale(2.0)
                u1[nxt] = rhs.scale(1.0 / (mono[1] + 1))
    else:
        u1[TMono((0, 1, 0))] = draw()
    return TSeries(params, u1), u2


def test_equiv_t23_on_eq1_jets(small_params):
    rng = np.random.default_rng(31)
    u = synthetic_jets(small_params, rng, satisfy_eq1=True)
    # independent derivation: the eliminated second equation has right side
    # -6 u' u - 2 u''' - 3 v''; the raw-minus-eliminated gap is 3 dx of the
    # first-equation defect, hence zero here
    assert equiv_t23(*u) < 1e-10


def test_equiv_t23_zero_jets(small_params):
    assert equiv_t23(TSeries.zero(small_params), TSeries.zero(small_params)) == 0.0


def test_equiv_t23_flags_violations(small_params):
    rng = np.random.default_rng(33)
    u = synthetic_jets(small_params, rng, satisfy_eq1=False)
    assert equiv_t23(*u) > 1e-3


def test_flow_trivial(small_params):
    L0 = Symbol.xi(small_params)
    state = flow_delinearized(L0, 2, 0.01, 0.01 / 64)
    assert (state.L - L0).norm(floor=small_params.floor) == 0.0
    assert state.t == pytest.approx(0.01)


def test_flow_rejects_bad_input(small_params):
    with pytest.raises(ValueError):
        flow_delinearized(Symbol.xi(small_params), 2, 0.01, -1.0)
    with pytest.raises(ValueError):
        flow_delinearized(Symbol.xi(small_params, 2), 2, 0.01, 0.001)
    with pytest.raises(ValueError, match="end time"):
        flow_delinearized(Symbol.xi(small_params), 2, -0.01, 0.001)
    with pytest.raises(ValueError, match="double precision"):
        flow_delinearized(Symbol.xi(small_params.with_wide(True)), 2, 0.01, 0.001)


@pytest.mark.parametrize(
    "t_end, dt, message",
    [(0.01, np.nan, "step size"), (0.01, np.inf, "step size"), (np.nan, 0.001, "end time"), (np.inf, 0.001, "end time")],
    ids=["dt-nan", "dt-inf", "t_end-nan", "t_end-inf"],
)
def test_flow_refuses_non_finite_times(small_params, t_end, dt, message):
    with pytest.raises(ValueError, match=message):
        flow_delinearized(Symbol.xi(small_params), 2, t_end, dt)


def test_flow_jet_ratio_fails_on_a_nan_deviation(monkeypatch):
    # a NaN in the Taylor branch makes both deviations NaN: NaN > 0 is False,
    # so the ratio must be tested against 0 with != to stay NaN, not read inf
    L0 = conj_from(Symbol.from_terms(P8, {0: LoopFn.const(1, 8, 1.0), -1: LoopFn.cos(8)}), P8)
    jet = criteria.taylor_jet

    def nan_jet(L0, n, degree):
        coeffs = jet(L0, n, degree)
        return coeffs[:-1] + [coeffs[-1] + Symbol.xi(P8, -2, np.nan)]

    monkeypatch.setattr(criteria, "taylor_jet", nan_jet)
    record, rows = criteria.flow_jet_ratio(L0, 2, 0.01, 3)
    assert len(rows) == 2 and all(np.isnan(err) for _, err in rows)
    assert np.isnan(record.value) and not record.passed


def test_flow_order_preservation(small_jet, small_params):
    state = flow_delinearized(small_jet.L0, 2, 0.01, 0.01 / 256)
    one = LoopFn.const(1, 16, 1.0)
    assert (state.L.coeff(1) - one).norm() < 1e-10
    assert state.L.coeff(0).norm() < 1e-10
    assert all(n <= 1 for n in state.L.a)


def test_flow_t1_is_translation(small_jet, small_params):
    tau = 0.01
    state = flow_delinearized(small_jet.L0, 1, tau, tau / 256)
    shifted = small_jet.L0.mode_filter(12).map_coeffs(lambda f: f.shift_x(tau))
    assert (state.L - shifted).norm() < 1e-6


def test_jet_symbol_table_end_to_end(small_jet, small_params):
    # the closed-form table holds for the jet's operator at t = 0
    from kpsym.symbol import commutator, power

    L0 = small_jet.L.term((0, 0, 0))
    u1, u2 = extract_u(L0)
    L2, L3 = power(L0, 2), power(L0, 3)
    assert (L2.coeff(0) - 2.0 * u1).norm() < 1e-10
    assert (L3.coeff(1) - 3.0 * u1).norm() < 1e-10
    assert (L3.coeff(0) - (3.0 * u2 + 3.0 * u1.dx())).norm() < 1e-10
    bracket = commutator(L2.d_part(), L3.d_part())
    want1 = 3.0 * u1.dx(2) + 6.0 * u2.dx()
    want0 = 3.0 * u2.dx(2) + u1.dx(3) - 6.0 * (u1.dx() * u1)
    assert (bracket.coeff(1) - want1).norm() < 1e-10
    assert (bracket.coeff(0) - want0).norm() < 1e-10


def test_taylor_jet_matches_hierarchy(small_jet, small_params):
    # the single-direction Taylor coefficients agree with the hierarchy jet
    # on overlapping valuations
    for direction in (2, 3):
        coeffs = taylor_jet(small_jet.L0, direction, small_params.V)
        for j in range(small_params.V // direction + 1):
            mono = [0, 0, 0]
            mono[direction - 1] = j
            want = small_jet.L.term(mono)
            assert (coeffs[j] - want).norm() < 1e-8


def test_taylor_jet_rejects_bad_direction_and_degree(small_jet):
    for n in (0, -3):
        with pytest.raises(ValueError):
            taylor_jet(small_jet.L0, n, 2)
    with pytest.raises(ValueError):
        taylor_jet(small_jet.L0, 2, -1)


def test_taylor_jet_grows_its_powers_one_degree_per_step(small_jet):
    # degree j of L(s)^k takes j + 1 products: 21 per power to degree 6
    for direction in (1, 2, 3):
        before = plan_stats()["compose_calls"]
        taylor_jet(small_jet.L0, direction, 6)
        assert plan_stats()["compose_calls"] - before == 21 * (direction - 1)


def test_taylor_jet_reuses_plans():
    # a desk-scale t2 Taylor jet needs fewer compose plans than the cache
    # holds, so a repeat finds every plan it needs
    p = TruncParams()
    L0 = conj_from(Symbol.from_terms(p, {0: LoopFn.const(1, p.M, 1.0), -1: LoopFn.cos(p.M)}), p)
    clear_plans()
    taylor_jet(L0, 2, p.V)
    first = plan_stats()
    taylor_jet(L0, 2, p.V)
    again = plan_stats()
    assert again["plan_hits"] > first["plan_hits"] and again["plan_misses"] == first["plan_misses"]


def test_flow_jet_consistency_dir2(small_jet, small_params):
    coeffs = taylor_jet(small_jet.L0, 2, 6)
    errs = []
    for t in (0.02, 0.01):
        state = flow_delinearized(small_jet.L0, 2, t, t / 256)
        errs.append((state.L - eval_taylor(coeffs, t)).norm())
    # degree-6 jet: error drops by about 2^7 when halving t
    assert errs[0] / errs[1] >= 0.7 * 2**7


@pytest.mark.slow
def test_flows_commute_12(small_jet):
    assert flows_commute(small_jet.L0, 1, 2, 0.01, 0.01 / 256) < 1e-6


def test_flow_negative_control_sign_error(small_jet, small_params):
    # integrating with the D-form and a deliberate sign error must drift from
    # the correct flow
    from kpsym.kp2 import _flow_rhs
    from kpsym.symbol import commutator, power

    L0 = small_jet.L0.mode_filter(12)
    dt, steps = 0.01 / 64, 64
    good = bad = L0
    for _ in range(steps):
        def wrong_rhs(L):
            return commutator(power(L, 2).d_part(), L).scale(-1.0)

        k1 = _flow_rhs(good, 2)
        good = good + k1.scale(dt)
        bad = bad + wrong_rhs(bad).scale(dt)
    assert (good - bad).norm() > 1e-2


def test_flow_blowup_detected(small_params):
    # a large dispersive state at a reckless step size must be rejected
    big = Symbol.from_terms(
        small_params,
        {1: LoopFn.const(1, 16, 1.0), -1: LoopFn.random_trig(np.random.default_rng(1), 16, 14, amp=40.0)},
    )
    with pytest.raises(FlowBlowup):
        flow_delinearized(big, 3, 0.5, 0.5 / 64)


def test_flow_non_finite_state_detected(small_params):
    # NaN compares False with any bound, so a NaN state must not pass as small
    nan = LoopFn.from_modes(1, 16, {1: np.nan})
    L0 = Symbol.from_terms(small_params, {1: LoopFn.const(1, 16, 1.0), -3: nan})
    with pytest.raises(FlowBlowup):
        flow_delinearized(L0, 2, 5e-4, 5e-4 / 4)
