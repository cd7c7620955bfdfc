"""Splitting U = S^{-1} Y of the time-exponential flow into a dressing series S
(1 plus strictly negative orders) and a series Y of differential operators,
solved order by order in the valuation, plus the jet solver built on it.

With U = sum_v U_v and S = 1 + sum_{v >= 1} S_v, the recursion

    W_v = U_v + sum_{0 < w < v} S_w o U_{v-w},
    Y_v = pi_D(W_v),   S_v = -pi_S(W_v)

enforces S o U = Y level by level; the splitting makes the pair unique.
The solver forms L = S L0 S^{-1} from L o S = S o L0 by back-substitution
over the valuation (`conj_t`), with no inverse of S.  The jet forms the
second route, the same sweep with Y in place of S, on first read, so the
agreement of the two routes stays an independent check; it also keeps the
powers of L that the checks read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .symbol import Symbol, TruncParams, compose, conj, largest
from .tseries import TMono, TSeries, conj_t, ddt, tcommutator, texp, tpowers

__all__ = [
    "KPJet",
    "build_U",
    "mulase_factorize",
    "kp_solve",
    "conj_from",
    "kp_residual",
    "lax_defects",
    "conj_consistency",
]


@dataclass(frozen=True)
class KPJet:
    """A solved hierarchy instance: dressing datum, base operator, flow
    exponential, factorization pair, and the evolved operator L = S L0 S^{-1}.

    What the checks derive from L0, Y and L is formed on first read and kept
    on the frozen jet, so it can never outlive the fields it came from.  The
    checks read orders >= F only, so these are formed only as low as that
    needs: `L_via_Y` on orders >= F, and `powers` on orders >= F - K."""

    S0: Symbol
    L0: Symbol
    U: TSeries
    S: TSeries
    Y: TSeries
    L: TSeries

    @property
    def params(self) -> TruncParams:
        return self.L0.params

    @cached_property
    def L_via_Y(self) -> TSeries:
        """The second conjugation route Y L0 Y^{-1} on orders >= F (below F
        it holds L0 alone).  The sweep of `conj_t` forms the valuation-v
        term on the orders >= F - (V - v), since Y has order <= val, and
        no lower than the working floor: the orders >= F keep the values
        of the sweep run at the working floor, bit for bit."""
        return conj_t(self.Y, self.L0, lo=self.params.F)

    @cached_property
    def powers(self) -> list:
        """[L, L^2, ..., L^K], each the product of the one before with L on
        the orders >= F - K.  L has order <= 1, so each product reads the
        power before it one order lower: L^n keeps the full power's values
        on the orders >= F - K + n - 2, which reach the F - 1 that a bracket
        with L reads for its orders >= F."""
        params = self.params
        return list(tpowers(self.L, params.K, lo=params.F - params.K))


def build_U(L0: Symbol, params: TruncParams) -> TSeries:
    """exp(sum_n h^n t_n L0^n) for n = 1..K, with h = params.h.

    L0 must have order 1 with the constant leading coefficient h of the
    calculus (1 for the plain one): an order-1 band off h.xi by more than
    1e-9, or NaN, raises ValueError.  The growth bound holds automatically
    because the valuation of t_n matches the order of L0^n.
    """
    if L0.order != 1:
        raise ValueError(f"base operator must have order 1, got {L0.order}")
    h = params.h
    if not (L0.band(1, 1) - Symbol.xi(params, 1, h)).norm() <= 1e-9:  # a NaN fails this test too
        raise ValueError(f"base operator must have constant leading coefficient h = {h}")
    gen, pw = {}, None
    for n in range(1, params.K + 1):
        pw = L0 if pw is None else compose(pw, L0)
        gen[TMono.unit(params.K, n)] = pw.scale(h**n)
    return texp(TSeries(params, gen))


def mulase_factorize(U: TSeries) -> tuple:
    """Unique pair (S, Y) with S o U = Y, S = 1 + (orders <= -1), Y differential.

    Raises ValueError if the constant term of U is off 1 by more than 1e-9
    or is NaN, and AssertionError if a level produces a differential part
    whose order exceeds the valuation (growth violation).
    """
    params = U.params
    zero = TMono.zero(params.K)
    U0 = U.term(zero)
    if not (U0 - Symbol.identity(params)).norm(floor=params.floor) <= 1e-9:  # a NaN fails this test too
        raise ValueError("factorization expects a unit with constant term 1")

    S, Y = {}, {zero: Symbol.identity(params)}  # S: the terms of val >= 1, in graded order
    for mono in sorted(U.terms, key=TMono.key):
        if mono == zero:
            continue
        W = U.terms[mono]
        for beta, Sb in S.items():
            gamma = mono.quotient(beta)
            if gamma in U.terms:
                W = W + compose(Sb, U.terms[gamma])
        Yv = W.d_part()
        top = Yv.order
        if top is not None and top > mono.val:
            raise AssertionError(
                f"growth violation: differential part at {tuple(mono)} has order {top} > val {mono.val}"
            )
        Sv = -W.s_part()
        if not Sv.is_zero():
            S[mono] = Sv
        Y[mono] = Yv
    return TSeries(params, {zero: Symbol.identity(params), **S}), TSeries(params, Y)


def kp_solve(S0: Symbol, params: TruncParams) -> KPJet:
    """Solve the hierarchy jet for a dressing S0 = 1 + (orders <= -1) in the
    calculus of `params`: kp_solve(S0, p.with_deform(1/h)) solves the
    h-rescaled jet.

    The base operator is L0 = S0 o (h.xi) o S0^{-1}; the evolved operator
    is L = S L0 S^{-1}.  The jet forms Y L0 Y^{-1} only when a check reads it,
    so the agreement of the two routes stays a checkable statement, not a
    definition.  A dressing with positive orders, or whose order-0 band is
    off 1 by more than 1e-12 or NaN, raises ValueError.
    """
    if (S0.order or 0) > 0:
        raise ValueError("dressing must be an order-0 symbol")
    if not (S0.band(0, 0) - Symbol.identity(params)).norm() <= 1e-12:  # a NaN fails this test too
        raise ValueError("dressing must be of the form 1 + (orders <= -1)")
    L0 = conj_from(S0, params)
    U = build_U(L0, params)
    S, Y = mulase_factorize(U)
    return KPJet(S0=S0, L0=L0, U=U, S=S, Y=Y, L=conj_t(S, L0))


def conj_from(S0: Symbol, params: TruncParams) -> Symbol:
    """Base operator S0 o (h.xi) o S0^{-1}, h = params.h: the symbol of d/dx
    in the calculus of `params`."""
    return conj(S0, Symbol.xi(params, 1, params.h))


def kp_residual(jet: KPJet, n: int) -> float:
    """Defect of d L / d t_n = [(L^n)_D, L] over valuations <= V - n.

    Also computed with the right-hand side -[(L^n)_S, L]; the returned value
    is the max of the two residual norms, so it certifies both forms at once.
    """
    return lax_defects(jet, n)[0]


def lax_defects(jet: KPJet, n: int) -> tuple:
    """(residual, gap) of the flow t_n, 1 <= n <= K, over valuations <= V - n:
    the larger defect of dL/dt_n = [(L^n)_D, L] and dL/dt_n = -[(L^n)_S, L],
    and the norm of [(L^n)_D, L] + [(L^n)_S, L].  Each bracket is formed once,
    on the orders >= F that the norms read, and serves both values."""
    K = jet.params.K
    if not 1 <= n <= K:
        raise ValueError(f"flow index {n} outside [1, {K}]")
    F, cap = jet.params.F, jet.params.V - n
    L, Ln = jet.L.capped(cap), jet.powers[n - 1].capped(cap)
    rhs_d = tcommutator(Ln.d_part(), L, lo=F)
    rhs_s = tcommutator(Ln.s_part(), L, lo=F)
    lhs = ddt(jet.L, n).capped(cap)
    residual = largest(((lhs - rhs_d).norm(), (lhs + rhs_s).norm()))
    return residual, (rhs_d + rhs_s).norm()


def conj_consistency(jet: KPJet) -> float:
    """Norm of S L0 S^{-1} - Y L0 Y^{-1} over all retained valuations."""
    return (jet.L - jet.L_via_Y).norm()
