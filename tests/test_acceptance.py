"""Acceptance suite at the desk scale: d=1, M=32, F=-10, V=6, K=3, g=8,
Mr=24.  Each numbered criterion prints one pass/fail line (run with -s to
see them as they complete).

The jet pipelines run in extended precision: at this scale the operator's
genuine coefficients near the reported floor reach 1e5..1e6, so plain double
arithmetic bottoms out around 1e-9 absolute, right at the tolerances below
(see the Precision section of README.md).
"""

import numpy as np
import pytest

from kpsym import (
    LoopFn,
    Path,
    Symbol,
    TMono,
    TSeries,
    TruncParams,
    build_Z,
    commutator,
    conj_consistency,
    ds_rhs_gap,
    eval_taylor,
    flow_delinearized,
    flows_commute,
    kp_residual,
    kp_solve,
    power,
    product_integral,
    taylor_jet,
    texp,
    tmul,
    ym_value,
    zs_residual,
)
from kpsym.tseries import scale_h, set_growth_checks, ddt
from test_factorization import dense_oracle, dressing


def outcome(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_symbol_table():
    params = TruncParams()  # narrow double precision suffices at orders >= 0
    M = params.M
    rng = np.random.default_rng(101)
    one = LoopFn.const(1, M, 1.0)
    zero = LoopFn.zero(1, M)
    worst = 0.0
    for _ in range(20):
        u1 = LoopFn.random_trig(rng, M, 8)
        u2 = LoopFn.random_trig(rng, M, 8)
        L = Symbol.from_terms(params, {1: one, -1: u1, -2: u2})
        L2, L3 = power(L, 2), power(L, 3)
        rows = [
            (L2.coeff(3), zero),
            (L2.coeff(2), one),
            (L2.coeff(1), zero),
            (L2.coeff(0), 2.0 * u1),
            (L3.coeff(3), one),
            (L3.coeff(2), zero),
            (L3.coeff(1), 3.0 * u1),
            (L3.coeff(0), 3.0 * u2 + 3.0 * u1.dx()),
        ]
        worst = max(worst, max((got - want).norm() for got, want in rows))
        bracket = commutator(L2.d_part(), L3.d_part())
        want1 = 3.0 * u1.dx(2) + 6.0 * u2.dx()
        want0 = 3.0 * u2.dx(2) + u1.dx(3) - 6.0 * (u1.dx() * u1)
        worst = max(worst, (bracket.coeff(1) - want1).norm())
        worst = max(worst, (bracket.coeff(0) - want0).norm())
    outcome(1, worst <= 1e-10, f"symbol table and bracket closed form, worst {worst:.2e} <= 1e-10")


def _random_dressings(params, count=5, seed=202):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        out.append(
            dressing(
                params,
                {
                    -1: LoopFn.random_trig(rng, params.M, 3, amp=0.3),
                    -2: LoopFn.random_trig(rng, params.M, 3, amp=0.2),
                    -3: LoopFn.random_trig(rng, params.M, 2, amp=0.1),
                },
            )
        )
    return out


def test_criterion_2_factorization(desk_params, desk_jet):
    worst_resid = (tmul(desk_jet.S, desk_jet.U) - desk_jet.Y).norm()
    jets = [desk_jet]
    for S0 in _random_dressings(desk_params):
        jets.append(kp_solve(S0, desk_params))
    for jet in jets[1:]:
        worst_resid = max(worst_resid, (tmul(jet.S, jet.U) - jet.Y).norm())
    neg = max(
        (
            f.norm()
            for jet in jets
            for sym in jet.Y.terms.values()
            for n, f in sym.a.items()
            if n < 0
        ),
        default=0.0,
    )
    # independent dense-solve oracle; V <= 3 at a reduced mode cutoff
    oracle_params = TruncParams(M=8, F=-4, g=4, V=3, K=3)
    worst_oracle = 0.0
    oracle_s0 = [dressing(oracle_params, {-1: LoopFn.cos(8)})] + _random_dressings(
        oracle_params, count=5, seed=203
    )
    for S0 in oracle_s0:
        jet = kp_solve(S0, oracle_params)
        S_ref, Y_ref = dense_oracle(jet.U, oracle_params)
        worst_oracle = max(worst_oracle, (jet.S - S_ref).norm(), (jet.Y - Y_ref).norm())
    ok = worst_resid <= 1e-10 and neg == 0.0 and worst_oracle <= 1e-10
    outcome(
        2,
        ok,
        f"S.U-Y {worst_resid:.2e} <= 1e-10, Y differential (neg {neg:.1e}), dense oracle {worst_oracle:.2e} <= 1e-10",
    )


def test_criterion_3_kp_residuals(desk_jet):
    rs = [kp_residual(desk_jet, n) for n in (1, 2, 3)]
    gaps = [ds_rhs_gap(desk_jet, n) for n in (1, 2, 3)]
    cc = conj_consistency(desk_jet)
    ok = max(rs) <= 1e-9 and max(gaps) <= 1e-9 and cc <= 1e-9
    outcome(
        3,
        ok,
        f"kp residuals {['%.1e' % r for r in rs]}, D/S gaps {['%.1e' % g for g in gaps]}, conj {cc:.1e}, all <= 1e-9",
    )


def test_criterion_4_zero_curvature(desk_params, desk_jet):
    Z_D, Z_S = build_Z(desk_jet)
    raw_S = -Z_S
    worst = 0.0
    for m in range(1, 4):
        for n in range(m + 1, 4):
            worst = max(worst, zs_residual(Z_D, m, n, +1))
            worst = max(worst, zs_residual(raw_S, m, n, -1))
    flipped = zs_residual(Z_D, 1, 2, -1)
    ok = worst <= 1e-9 and flipped >= 1e-2
    outcome(4, ok, f"zs residuals worst {worst:.2e} <= 1e-9, sign-flip control {flipped:.2e} >= 1e-2")


def test_criterion_5_yang_mills(desk_params, desk_jet):
    _, Z_S = build_Z(desk_jet)
    base = ym_value(Z_S, 0.05, 2, 2, 3, Mr=24, Q=8)
    rng = np.random.default_rng(505)
    worst_ratio = 0.0
    all_nonneg = base >= 0.0
    for _ in range(10):
        pert = TSeries.monomial(
            desk_params,
            (0, 1, 0),
            Symbol(desk_params, {-1: LoopFn.random_trig(rng, desk_params.M, 2, amp=1e-2)}),
        )
        v = ym_value(Z_S.add_term(3, pert), 0.05, 2, 2, 3, Mr=24, Q=8)
        all_nonneg = all_nonneg and v >= 0.0
        worst_ratio = max(worst_ratio, base / v)
    ok = worst_ratio <= 1e-4 and all_nonneg
    outcome(5, ok, f"flat/perturbed worst ratio {worst_ratio:.2e} <= 1e-4, values nonnegative: {all_nonneg}")


def test_criterion_6_scaling_covariance(desk_params, desk_jet):
    h = 2.0
    scaled = scale_h(desk_jet.L, h)
    params_h = desk_params.with_deform(1.0 / h)
    S0h = Symbol(params_h, {n: f * (h ** float(n)) for n, f in desk_jet.S0.a.items()})
    jet_h = kp_solve(
        S0h, params_h, xi_scale=h, time_weights=[h**n for n in range(1, desk_params.K + 1)]
    )
    diff = 0.0
    for mono in set(scaled.terms) | set(jet_h.L.terms):
        a = scaled.terms.get(mono, Symbol.zero(desk_params))
        b = jet_h.L.terms.get(mono, Symbol.zero(params_h))
        for n in set(a.a) | set(b.a):
            if n >= desk_params.F:
                diff = max(diff, float(np.linalg.norm((a.coeff(n).c - b.coeff(n).c).astype(complex))))
    outcome(6, diff <= 1e-9, f"scaled-solve vs solve-then-scale at h=2: {diff:.2e} <= 1e-9")


def test_criterion_7_product_integral():
    params = TruncParams()  # plain precision; the rate is O(1e-3) scale
    gen = TSeries.monomial(
        params, (1, 0, 0), Symbol(params, {-1: LoopFn.cos(params.M), 0: LoopFn.const(1, params.M, 0.4)})
    )
    target = texp(gen)
    errs = [
        (product_integral(Path.constant(gen), n) - target).norm() for n in (64, 128, 256)
    ]
    r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
    ok = 1.8 <= r1 <= 2.2 and 1.8 <= r2 <= 2.2
    outcome(7, ok, f"ordered-product error halving ratios {r1:.3f}, {r2:.3f} in [1.8, 2.2]")


@pytest.fixture(scope="module")
def flow_base(desk_jet):
    return desk_jet.L0.narrow()


def test_criterion_8_direction_t2(flow_base):
    L0 = flow_base
    coeffs = taylor_jet(L0, 2, 6)
    errs = []
    for t in (0.02, 0.01):
        state = flow_delinearized(L0, 2, t, t / 256)
        errs.append((state.L - eval_taylor(coeffs, t)).norm())
    ratio = errs[0] / errs[1]
    bound = 0.7 * 2**7
    disc = flows_commute(L0, 1, 2, 0.01, 0.01 / 256)
    ok = ratio >= bound and disc <= 1e-6
    outcome(
        8,
        ok,
        f"t2 flow/jet ratio {ratio:.1f} >= {bound:.1f}, commuting-flow discrepancy {disc:.2e} <= 1e-6",
    )


def test_criterion_8_direction_t3(flow_base):
    # Honest negative result: the direction-3 flow of the truncated tower
    # diverges before t = 0.01 at dt = t/256 for every truncation depth and
    # mode filter tried, and shallow truncations change u_{-1} by O(1e-2), so
    # the stated ratio bound cannot be met.  The analysis is recorded in
    # README.md; this test states the criterion faithfully and fails.
    L0 = flow_base
    coeffs = taylor_jet(L0, 3, 6)
    try:
        errs = []
        for t in (0.02, 0.01):
            state = flow_delinearized(L0, 3, t, t / 256)
            errs.append((state.L - eval_taylor(coeffs, t)).norm())
        ratio = errs[0] / errs[1]
    except Exception as exc:  # FlowBlowup expected
        outcome(8, False, f"t3 flow at dt=t/256 diverges ({exc}); ratio bound unattainable")
        return
    outcome(8, ratio >= 0.7 * 2**7, f"t3 flow/jet ratio {ratio:.1f} >= 89.6")


def test_criterion_9_structural_invariants():
    params = TruncParams(M=8, F=-4, N=6, g=4, V=3, K=3)
    prev = set_growth_checks(True)
    try:
        for seed in range(100):
            rng = np.random.default_rng(seed)
            X = TSeries.zero(params)
            X.set_term((0, 0, 0), Symbol.identity(params))
            for mono in [(1, 0, 0), (0, 1, 0), (2, 0, 0)]:
                val = TMono(mono).val
                orders = {
                    n: LoopFn.random_trig(rng, params.M, 2)
                    for n in range(-2, min(val, 1) + 1)
                }
                X.set_term(mono, Symbol(params, orders))
            Y = tmul(X, X)  # growth asserted internally
            Y.assert_growth(0)
            E = texp(X - TSeries.one(params))
            E.assert_growth(0)
            # projector algebra, exact
            A = Symbol(
                params,
                {n: LoopFn.random_trig(rng, params.M, 2) for n in (-2, -1, 0, 1)},
            )
            D, S = A.d_part(), A.s_part()
            assert ((D + S) - A).norm(floor=params.floor) == 0.0
            assert D.s_part().is_zero() and S.d_part().is_zero()
            assert (D.d_part() - D).is_zero() and (S.s_part() - S).is_zero()
            # mixed partials, exact
            for n, m in ((1, 2), (2, 3)):
                assert (ddt(ddt(X, n), m) - ddt(ddt(X, m), n)).norm() == 0.0
            # parity by construction: one coefficient per order
            x, xi = rng.uniform(0, 2 * np.pi), complex(rng.uniform(0.5, 2.0))
            lhs = A.eval_sym(x, -xi)
            rhs = sum((-1.0) ** n * A.coeff(n).eval_at(x) * xi**n for n in A.orders())
            assert np.allclose(np.asarray(lhs, dtype=complex), np.asarray(rhs, dtype=complex))
    finally:
        set_growth_checks(prev)
    outcome(9, True, "growth, projector, mixed-partial, parity assertions over 100 seeds")
