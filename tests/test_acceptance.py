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

from kpsym import LoopFn, Symbol, TMono, TSeries, TruncParams, kp_solve, texp, tmul
from kpsym.criteria import JetCriteria, flow_commute, flow_jet_ratio, product_integral_rates, symbol_table
from kpsym.tseries import ddt
from test_factorization import dense_oracle, dressing


def outcome(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def values(records) -> dict:
    return {r.name: r.value for r in records}


@pytest.fixture(scope="module")
def desk_criteria(desk_jet):
    return JetCriteria(desk_jet)


def test_criterion_1_symbol_table():
    params = TruncParams()  # narrow double precision suffices at orders >= 0
    M = params.M
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(20):
        u1 = LoopFn.random_trig(rng, M, 8)
        u2 = LoopFn.random_trig(rng, M, 8)
        worst = max([worst] + [r.value for r in symbol_table(params, u1, u2)])
    outcome(1, worst <= 1e-10, f"symbol table and bracket closed form, worst {worst:.2e} <= 1e-10")


def _random_dressings(params, count=5, seed=202):
    rng = np.random.default_rng(seed)
    modes_amps = {-1: (3, 0.3), -2: (3, 0.2), -3: (2, 0.1)}
    return [
        dressing(params, {n: LoopFn.random_trig(rng, params.M, k, amp=a) for n, (k, a) in modes_amps.items()})
        for _ in range(count)
    ]


@pytest.mark.slow
def test_criterion_2_factorization(desk_params, desk_jet):
    jets = [desk_jet] + [kp_solve(S0, desk_params) for S0 in _random_dressings(desk_params)]
    checks = [values(JetCriteria(jet).factorization()) for jet in jets]
    worst_resid = max(v["factorize/su-equals-y"] for v in checks)
    neg = max(v["factorize/y-strictly-differential"] for v in checks)
    # independent dense-solve oracle; V <= 3 at a reduced mode cutoff
    oracle_params = TruncParams(M=8, F=-4, g=4, V=3, K=3)
    worst_oracle = 0.0
    oracle_s0 = [dressing(oracle_params, {-1: LoopFn.cos(8)})]
    oracle_s0 += _random_dressings(oracle_params, count=5, seed=203)
    for S0 in oracle_s0:
        jet = kp_solve(S0, oracle_params)
        S_ref, Y_ref = dense_oracle(jet.U, oracle_params)
        worst_oracle = max(worst_oracle, (jet.S - S_ref).norm(), (jet.Y - Y_ref).norm())
    ok = worst_resid <= 1e-10 and neg == 0.0 and worst_oracle <= 1e-10
    outcome(2, ok, f"S.U-Y {worst_resid:.2e} <= 1e-10, Y differential (neg {neg:.1e}), "
                   f"dense oracle {worst_oracle:.2e} <= 1e-10")


def test_criterion_3_kp_residuals(desk_criteria):
    v = values(desk_criteria.lax())
    rs = [v[f"kp/residual-t{n}"] for n in (1, 2, 3)]
    gaps = [v[f"kp/ds-gap-t{n}"] for n in (1, 2, 3)]
    cc = v["kp/conj-consistency"]
    ok = max(rs) <= 1e-9 and max(gaps) <= 1e-9 and cc <= 1e-9
    outcome(3, ok, f"kp residuals {['%.1e' % r for r in rs]}, D/S gaps {['%.1e' % g for g in gaps]}, "
                   f"conj {cc:.1e}, all <= 1e-9")


def test_criterion_4_zero_curvature(desk_criteria):
    records = desk_criteria.zero_curvature()
    worst = max([0.0] + [r.value for r in records if "-form-" in r.name])
    flipped = values(records)["zs/sign-flip-control"]
    ok = worst <= 1e-9 and flipped >= 1e-2
    outcome(4, ok, f"zs residuals worst {worst:.2e} <= 1e-9, sign-flip control {flipped:.2e} >= 1e-2")


def test_criterion_5_yang_mills(desk_criteria):
    flat, ratio = desk_criteria.yang_mills(np.random.default_rng(505), 10, 0.05, 2, Mr=24, Q=8)
    all_nonneg = flat.passed
    worst_ratio = ratio.value
    ok = worst_ratio <= 1e-4 and all_nonneg
    outcome(5, ok, f"flat/perturbed worst ratio {worst_ratio:.2e} <= 1e-4, values nonnegative: {all_nonneg}")


def test_criterion_6_scaling_covariance(desk_criteria):
    diff = desk_criteria.scaling()[0].value
    outcome(6, diff <= 1e-9, f"scaled-solve vs solve-then-scale at h=2: {diff:.2e} <= 1e-9")


def test_criterion_7_product_integral():
    params = TruncParams()  # plain precision; the rate is O(1e-3) scale
    gen = TSeries.monomial(
        params, (1, 0, 0), Symbol(params, {-1: LoopFn.cos(params.M), 0: LoopFn.const(1, params.M, 0.4)})
    )
    r1, r2 = (r.value for r in product_integral_rates(gen))
    ok = 1.8 <= r1 <= 2.2 and 1.8 <= r2 <= 2.2
    outcome(7, ok, f"ordered-product error halving ratios {r1:.3f}, {r2:.3f} in [1.8, 2.2]")


@pytest.fixture(scope="module")
def flow_base(desk_jet):
    return desk_jet.L0.narrow()


@pytest.mark.slow
def test_criterion_8_direction_t2(flow_base):
    L0 = flow_base
    ratio = flow_jet_ratio(L0, 2, 0.01, 6)[0].value
    bound = 0.7 * 2**7
    disc = flow_commute(L0, 0.01).value
    ok = ratio >= bound and disc <= 1e-6
    outcome(8, ok, f"t2 flow/jet ratio {ratio:.1f} >= {bound:.1f}, commuting-flow discrepancy {disc:.2e} <= 1e-6")


def test_criterion_8_direction_t3(flow_base):
    # Honest negative result: the direction-3 flow of the truncated tower
    # diverges before t = 0.01 at dt = t/256 for every truncation depth and
    # mode filter tried, and shallow truncations change u_{-1} by O(1e-2), so
    # the stated ratio bound cannot be met.  The analysis is recorded in
    # README.md; this test states the criterion faithfully and fails.
    L0 = flow_base
    record, _ = flow_jet_ratio(L0, 3, 0.01, 6)
    if record.message is not None:  # FlowBlowup expected
        outcome(8, False, f"t3 flow at dt=t/256 diverges ({record.message}); ratio bound unattainable")
        return
    ratio = record.value
    outcome(8, ratio >= 0.7 * 2**7, f"t3 flow/jet ratio {ratio:.1f} >= 89.6")


def test_criterion_9_structural_invariants():
    params = TruncParams(M=8, F=-4, N=6, g=4, V=3, K=3)
    for seed in range(100):
        rng = np.random.default_rng(seed)
        terms = {(0, 0, 0): Symbol.identity(params)}
        for mono in [(1, 0, 0), (0, 1, 0), (2, 0, 0)]:
            val = TMono(mono).val
            orders = {
                n: LoopFn.random_trig(rng, params.M, 2)
                for n in range(-2, min(val, 1) + 1)
            }
            terms[mono] = Symbol(params, orders)
        X = TSeries(params, terms)
        Y = tmul(X, X)
        Y.assert_growth(params.N)
        Y.assert_growth(0)
        # the powers (X - 1)^k, k <= V, that texp sums, and its result
        N, pw = X - TSeries.one(params), TSeries.one(params)
        for _ in range(params.V):
            pw = tmul(pw, N)
            pw.assert_growth(params.N)
        E = texp(N)
        E.assert_growth(params.N)
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
            parts = [ddt(X, n), ddt(X, m)]
            parts += [ddt(parts[0], m), ddt(parts[1], n)]
            for part in parts:
                part.assert_growth(params.N)
            assert (parts[2] - parts[3]).norm() == 0.0
        # parity by construction: one coefficient per order
        x, xi = rng.uniform(0, 2 * np.pi), complex(rng.uniform(0.5, 2.0))
        lhs = A.eval_sym(x, -xi)
        rhs = sum((-1.0) ** n * A.coeff(n).eval_at(x) * xi**n for n in A.orders())
        assert np.allclose(np.asarray(lhs, dtype=complex), np.asarray(rhs, dtype=complex))
    outcome(9, True, "growth, projector, mixed-partial, parity assertions over 100 seeds")
