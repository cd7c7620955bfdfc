"""The paper's claims as records (name, anchor, value, tol, pass), computed
from a solved jet, a base operator or symbol-table input, for both the
`kpsym` commands and the acceptance suite; the callers choose the inputs.
Each criterion is a plain function of its inputs; those of a solved
`KPJet`, such as `lax(jet)` and `zero_curvature(jet)`, read the Lax
residuals and the connection forms from the powers L^k the jet keeps.
"""

from __future__ import annotations

from collections import namedtuple
from math import inf

from .factorization import KPJet, conj_consistency, kp_solve, lax_defects
from .kp2 import FlowBlowup, check_t12, check_t13, check_t23, equiv_t23, eval_taylor, extract_u
from .kp2 import flow_delinearized, flows_commute, taylor_jet
from .loopfn import LoopFn
from .symbol import Symbol, TruncParams, commutator, compose, largest, power
from .tseries import TSeries, product_integral, scale_h, texp, tmul
from .zerocurv import build_Z, ym_value, zs_residual

__all__ = [
    "Record", "symbol_table", "factorization", "lipschitz", "lax", "zero_curvature", "yang_mills", "kp2", "scaling",
    "product_integral_rates", "flow_jet_ratio", "flow_commute",
]


# `message` says why a check could not run to its end (None when it did).
Record = namedtuple("Record", "name anchor value tol passed message", defaults=(None,))


def _at_most(name: str, anchor: str, value: float, tol: float) -> Record:
    return Record(name, anchor, value, tol, bool(value <= tol))


def symbol_table(params: TruncParams, u1: LoopFn, u2: LoopFn) -> list:
    """For L = xi + u1 xi^-1 + u2 xi^-2: the orders 3..0 of L^2 and L^3 and
    the orders 1, 0 of [(L^2)_D, (L^3)_D] against their closed forms."""
    one, zero = LoopFn.const(params.d, params.M, 1.0), LoopFn.zero(params.d, params.M)
    L = Symbol(params, {1: one, -1: u1, -2: u2})
    L2 = power(L, 2)
    L3 = compose(L2, L)
    bracket = commutator(L2.d_part(), L3.d_part())
    expected = {
        "L2/sigma3": (L2.coeff(3), zero),
        "L2/sigma2": (L2.coeff(2), one),
        "L2/sigma1": (L2.coeff(1), zero),
        "L2/sigma0": (L2.coeff(0), 2.0 * u1),
        "L3/sigma3": (L3.coeff(3), one),
        "L3/sigma2": (L3.coeff(2), zero),
        "L3/sigma1": (L3.coeff(1), 3.0 * u1),
        "L3/sigma0": (L3.coeff(0), 3.0 * u2 + 3.0 * u1.dx()),
        "bracket-sigma1": (bracket.coeff(1), 3.0 * u1.dx(2) + 6.0 * u2.dx()),
        "bracket-sigma0": (bracket.coeff(0), 3.0 * u2.dx(2) + u1.dx(3) - 6.0 * (u1.dx() * u1)),
    }
    return [_at_most(f"table/{k}", "symbol-table", (got - want).norm(), 1e-10) for k, (got, want) in expected.items()]


def factorization(jet: KPJet) -> list:
    """S o U - Y on the orders >= F that its norm reads, the largest modulus
    on the negative orders of Y (not an l2 norm, whose squares underflow to
    0 below a modulus of about 1e-162), and the growth bounds of S, Y, L."""
    su_y = (tmul(jet.S, jet.U, lo=jet.params.F) - jet.Y).norm()
    neg = largest(sym.s_part().sup_norm() for sym in jet.Y.terms.values())
    try:
        jet.S.assert_growth(0)
        jet.Y.assert_growth(0)
        jet.L.assert_growth(1)
        growth = 0.0
    except AssertionError:
        growth = 1.0
    return [
        _at_most("factorize/su-equals-y", "factorization", su_y, 1e-10),
        Record("factorize/y-strictly-differential", "factorization", neg, 0.0, neg == 0.0),
        Record("factorize/growth-condition", "factorization", growth, 0.0, growth == 0.0),
    ]


def lipschitz(jet: KPJet) -> list:
    """The response of S and Y per unit cos bump of the dressing at two
    bump sizes; the record is the larger response over the smaller."""
    params = jet.params
    ratios = []
    for eps_size in (1e-3, 1e-4):
        bump = Symbol(params, {-1: LoopFn.cos(params.M, 1, eps_size, d=params.d)})
        jet_p = kp_solve(jet.S0 + bump, params)
        ratios.append(largest(((jet_p.S - jet.S).norm(), (jet_p.Y - jet.Y).norm())) / eps_size)
    return [_at_most("factorize/lipschitz-ratio-stable", "factorization", largest(ratios) / min(ratios), 2.0)]


def lax(jet: KPJet) -> list:
    """Per flow n, the residual of dL/dt_n = [(L^n)_D, L] = -[(L^n)_S, L]
    and the gap between the two right-hand sides; then S L0 S^-1 - Y L0 Y^-1."""
    out = []
    for n in range(1, jet.params.K + 1):
        residual, gap = lax_defects(jet, n)
        out += [_at_most(f"kp/residual-t{n}", "kp-residual", residual, 1e-9),
                _at_most(f"kp/ds-gap-t{n}", "kp-residual", gap, 1e-9)]
    return out + [_at_most("kp/conj-consistency", "kp-residual", conj_consistency(jet), 1e-9)]


def zero_curvature(jet: KPJet) -> list:
    """Zakharov-Shabat residuals of every time pair for Z_D and Z_S (sign
    +1), and the sign-flipped Z_D equation, which must fail."""
    Z_D, Z_S = build_Z(jet)
    K = jet.params.K
    out = []
    for m in range(1, K + 1):
        for n in range(m + 1, K + 1):
            out.append(_at_most(f"zs/d-form-{m}{n}", "zero-curvature", zs_residual(Z_D, m, n, +1), 1e-9))
            out.append(_at_most(f"zs/s-form-{m}{n}", "zero-curvature", zs_residual(Z_S, m, n, +1), 1e-9))
    flipped = zs_residual(Z_D, 1, 2, -1)
    return out + [Record("zs/sign-flip-control", "zero-curvature", flipped, 1e-2, flipped >= 1e-2)]


def yang_mills(jet: KPJet, rng, count: int, k: float, n: int, Mr: int, Q: int) -> list:
    """The Yang-Mills value (entry (2, 3), cube [-k, k]^n) of Z_S, passing
    when it and every perturbed value are nonnegative, and its largest
    ratio to the value after one of `count` random order -1 bumps at t_2."""
    params, Z_S = jet.params, build_Z(jet)[1]
    base = ym_value(Z_S, k, n, 2, 3, Mr, Q)
    values = []
    for _ in range(count):
        bump = Symbol(params, {-1: LoopFn.random_trig(rng, params.M, 2, amp=1e-2, d=params.d)})
        values.append(ym_value(Z_S.add_term(3, TSeries.monomial(params, (0, 1, 0), bump)), k, n, 2, 3, Mr, Q))
    worst = largest(base / v if v > 0 else inf for v in values)
    return [Record("ym/flat-value", "yang-mills", base, 1e-4, all(v >= 0 for v in [base] + values)),
            _at_most("ym/flat-vs-perturbed", "yang-mills", worst, 1e-4)]


def kp2(jet: KPJet) -> list:
    """The degree-1 KP-II equations of the time pairs (1,2), (1,3), (2,3)
    and the raw against the eliminated (2,3) equation."""
    out = [_at_most(f"kp2/{t}", "zero-curvature", check(jet), 1e-9) for t, check in
           (("t12", check_t12), ("t13", check_t13), ("t23", check_t23))]
    return out + [_at_most("kp2/equiv-t23", "zero-curvature", equiv_t23(*extract_u(jet.L)), 1e-10)]


def scaling(jet: KPJet) -> list:
    """The jet rescaled by t_n -> h^n t_n, xi -> h xi against the jet solved
    in the rescaled calculus, at h = 2, over the reported orders."""
    h, params = 2.0, jet.params
    scaled = scale_h(jet.L, h)
    params_h = params.with_deform(1.0 / h)
    S0h = jet.S0.scale_orders(h).recast(params_h)
    jet_h = kp_solve(S0h, params_h)
    gaps = [scaled.term(m) - jet_h.L.term(m).recast(params) for m in set(scaled.terms) | set(jet_h.L.terms)]
    diff = largest(v for gap in gaps for v in gap.narrow().band(lo=params.F).order_norms().values())
    return [_at_most("scaling/covariance-h2", "scaling", diff, 1e-9)]


def product_integral_rates(gen: TSeries) -> list:
    """Ratios of the errors of the ordered product against texp(gen) at
    64/128 and 128/256 steps, which must lie in [1.8, 2.2]."""
    target = texp(gen)
    errs = [(product_integral(lambda s: gen, n) - target).norm() for n in (64, 128, 256)]
    ratios = {n: errs[i] / errs[i + 1] for i, n in enumerate((64, 128))}
    return [Record(f"product-integral/rate-n{n}", "product-integral", r, 2.2, 1.8 <= r <= 2.2) for n, r in ratios.items()]


def flow_jet_ratio(L0: Symbol, direction: int, t_end: float, degree: int) -> tuple:
    """(record, rows): the deviations (t, err) of the flow at dt = t/256
    from the Taylor jet of `degree` at t = 2 t_end and t_end, and their ratio,
    which must reach 0.7 * 2^(degree + 1).  If the flow blows up, the ratio
    reads 0, rows holds the times reached and the record's message says why."""
    coeffs = taylor_jet(L0, direction, degree)
    rows, blowup = [], None
    try:
        for t in (2 * t_end, t_end):
            state = flow_delinearized(L0, direction, t, t / 256)
            rows.append((t, (state.L - eval_taylor(coeffs, t)).norm()))
        ratio = rows[0][1] / rows[1][1] if rows[1][1] != 0 else inf  # a NaN deviation gives a NaN ratio
    except FlowBlowup as exc:
        ratio, blowup = 0.0, str(exc)
    tol = 0.7 * 2 ** (degree + 1)
    return Record(f"flow/jet-ratio-t{direction}", "flow", ratio, tol, ratio >= tol, blowup), rows


def flow_commute(L0: Symbol, t_end: float) -> Record:
    """Flowing t_1 then t_2 against t_2 then t_1, each for t_end at dt = t_end/256."""
    return _at_most("flow/commute-12", "flow", flows_commute(L0, 1, 2, t_end, t_end / 256), 1e-6)

