"""Reduction to the pair (u_{-1}, u_{-2}) of the first two negative
coefficients of L = xi + sum_{k <= -1} u_k xi^k, the degree-1 consequences
of the zero-curvature equations for the time pairs (1,2), (1,3), (2,3), and
the numeric (non-series) integration of the operator flows

    dL/dt_n = [L^n_D, L] = -[L^n_S, L].

The flows use the smoothing-direction right-hand side, which for scalar
coefficients has orders <= -1 and therefore preserves the differential part
exactly.  Taylor jets of a single flow direction provide the formal branch
for the formal-vs-numeric comparison.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .symbol import Symbol, commutator, compose, largest, power
from .tseries import TSeries, ddt, tmul

__all__ = [
    "FlowState",
    "FlowBlowup",
    "extract_u",
    "check_t12",
    "check_t13",
    "check_t23",
    "equiv_t23",
    "flow_delinearized",
    "flows_commute",
    "taylor_jet",
    "eval_taylor",
]


FILTER_FRAC = 0.75  # flow states keep the modes |m| <= FILTER_FRAC * M
BLOWUP = 1e6  # a flow fails once a reported-band coefficient exceeds this sup-norm


class FlowBlowup(RuntimeError):
    pass


@dataclass(frozen=True)
class FlowState:
    """The operator a flow reached and the time it reached it at."""

    L: Symbol
    t: float


def _scalar_jet(X: TSeries, order: int) -> TSeries:
    """Extract the order-`order` coefficient of every monomial, re-embedded at
    order 0 so the scalar jets multiply pointwise."""
    return TSeries(X.params, {mono: Symbol(X.params, {0: sym.coeff(order)}) for mono, sym in X.terms.items()})


def jet_dx(X: TSeries, k: int = 1) -> TSeries:
    """x-derivative applied to every coefficient function."""
    return X.map_coeffs(lambda s: s.map_coeffs(lambda f: f.dx(k)))


def extract_u(L) -> tuple:
    """The pair (u_{-1}, u_{-2}) of an order-1 operator with unit leading
    coefficient: series for a TSeries jet, functions for a plain Symbol
    (numeric state).  Raises ValueError only if the order-1 band (of the
    t = 0 term, for a jet) is not xi to within 1e-9 or is NaN; an order-0
    part of a Symbol with norm above 1e-8, or NaN, draws a warning.
    """
    series = isinstance(L, TSeries)
    L_at_0 = L.term([0] * L.params.K) if series else L
    if not (L_at_0.band(1, 1) - Symbol.xi(L.params)).norm() <= 1e-9:  # a NaN fails this test too
        raise ValueError("jet leading coefficient is not xi" if series else "leading coefficient is not 1")
    if series:
        return _scalar_jet(L, -1), _scalar_jet(L, -2)
    s0 = L.coeff(0).norm()
    if not s0 <= 1e-8:
        warnings.warn(f"order-0 part has norm {s0:.3e}; extraction assumes it vanishes")
    return L.coeff(-1), L.coeff(-2)


def check_t12(jet) -> float:
    """Residual of  d u_{-1} / d t_1 = d/dx u_{-1}  over valuations <= V - 1."""
    u1, _ = extract_u(jet.L)
    return (ddt(u1, 1) - jet_dx(u1)).capped(jet.params.V - 1).norm()


def check_t13(jet) -> float:
    """Residuals of the pair  d u_{-1}/d t_1 = d/dx u_{-1}  and
    d u_{-2}/d t_1 = d/dx u_{-2}; returns the larger one."""
    return largest((ddt(w, 1) - jet_dx(w)).capped(jet.params.V - 1).norm() for w in extract_u(jet.L))


def check_t23(jet) -> float:
    """Residuals of the (t_2, t_3) pair over valuations <= V - 3:

        d u_{-1}/d t_2 = d^2/dx^2 u_{-1} + 2 d/dx u_{-2}
        3 d u_{-2}/d t_2 - 2 d u_{-1}/d t_3
            = -6 (d/dx u_{-1}) u_{-1} - 2 d^3/dx^3 u_{-1} - 3 d^2/dx^2 u_{-2}
    """
    u1, u2 = extract_u(jet.L)
    cap = jet.params.V - 3
    r1 = (ddt(u1, 2) - jet_dx(u1, 2) - jet_dx(u2).scale(2.0)).capped(cap).norm()
    return largest((r1, _t23_eliminated(u1, u2).capped(cap).norm()))


def _t23_eliminated(u1: TSeries, u2: TSeries) -> TSeries:
    """Left minus right side of the second (t_2, t_3) equation of check_t23."""
    rhs = tmul(jet_dx(u1), u1).scale(-6.0) - jet_dx(u1, 3).scale(2.0) - jet_dx(u2, 2).scale(3.0)
    return ddt(u2, 2).scale(3.0) - ddt(u1, 3).scale(2.0) - rhs


def equiv_t23(u1: TSeries, u2: TSeries) -> float:
    """Discrepancy between the raw second (t_2, t_3) equation, with the mixed
    d^2 u_{-1} / (d t_2 dx) term left in place,

        3 d u_{-2}/d t_2 + 3 d^2 u_{-1}/(d t_2 dx) - 2 d u_{-1}/d t_3
            = -6 (d/dx u_{-1}) u_{-1} + d^3/dx^3 u_{-1} + 3 d^2/dx^2 u_{-2},

    and its eliminated form (the second equation of check_t23).  The two
    residuals differ by 3 d/dx of the first-equation defect, so the value
    vanishes exactly when  d u_{-1}/d t_2 = d^2/dx^2 u_{-1} + 2 d/dx u_{-2}
    holds, whatever the jets are otherwise.
    """
    raw = (
        ddt(u2, 2).scale(3.0)
        + jet_dx(ddt(u1, 2)).scale(3.0)
        - ddt(u1, 3).scale(2.0)
        - (tmul(jet_dx(u1), u1).scale(-6.0) + jet_dx(u1, 3) + jet_dx(u2, 2).scale(3.0))
    )
    return (raw - _t23_eliminated(u1, u2)).capped(u1.params.V - 3).norm()


def _flow_rhs(L: Symbol, n: int) -> Symbol:
    return -commutator(power(L, n).s_part(), L)


def flow_delinearized(L0: Symbol, n: int, t_end: float, dt: float) -> FlowState:
    """Classical 4th-order explicit stepping of dL/dt_n = -[(L^n)_S, L].

    The stepping runs in double precision: a wide-mode operator raises
    ValueError (narrow it first with `Symbol.narrow`), as does a step size
    or end time that is negative, infinite or NaN.  After each step the
    state is mode-filtered at FILTER_FRAC * M: near-cutoff rounding junk
    would otherwise be amplified explosively by the high-derivative
    couplings that feed the guard band (the true content there is
    exponentially small for smooth data).
    Raises FlowBlowup if a reported-band coefficient sup-norm exceeds
    BLOWUP or is not finite; guard-band orders legitimately carry large
    values.
    """
    if not 0 < dt < float("inf"):  # a NaN fails these tests too
        raise ValueError(f"step size must be positive and finite, got {dt}")
    if not 0 <= t_end < float("inf"):
        raise ValueError(f"end time must be finite and >= 0, got {t_end}")
    if L0.order != 1:
        raise ValueError("flow expects an order-1 operator")
    if L0.params.wide:
        raise ValueError("flow steps in double precision; narrow the operator first")
    mf = int(FILTER_FRAC * L0.params.M)
    steps = int(round(t_end / dt))
    L = L0.mode_filter(mf)
    t = 0.0
    for _ in range(steps):
        k1 = _flow_rhs(L, n)
        k2 = _flow_rhs(L + k1.scale(dt / 2), n)
        k3 = _flow_rhs(L + k2.scale(dt / 2), n)
        k4 = _flow_rhs(L + k3.scale(dt), n)
        L = (L + (k1 + k2.scale(2.0) + k3.scale(2.0) + k4).scale(dt / 6)).mode_filter(mf)
        t += dt
        if not L.sup_norm(floor=L.params.F) <= BLOWUP:  # a NaN fails this test too
            raise FlowBlowup(f"coefficient sup-norm exceeded {BLOWUP:.1e} at t={t:.4g}")
    return FlowState(L=L, t=t)


def flows_commute(L0: Symbol, n: int, m: int, t: float, dt: float) -> float:
    """Norm of the difference between flowing (n then m) and (m then n)."""
    a = flow_delinearized(flow_delinearized(L0, n, t, dt).L, m, t, dt).L
    b = flow_delinearized(flow_delinearized(L0, m, t, dt).L, n, t, dt).L
    return (a - b).norm()


def taylor_jet(L0: Symbol, n: int, degree: int) -> list:
    """Taylor coefficients [L_0, ..., L_degree] of the single flow direction n,
    from the recursion (j+1) L_{j+1} = coefficient_j of -[(L^n)_S, L].

    This is the formal (series) solution of the flow in that one direction,
    and on overlapping valuations it agrees with the hierarchy jet.  The
    coefficients of L(s)^2, ..., L(s)^n grow by one degree per step:
    (L^k)_j = sum_a (L^{k-1})_a o L_{j-a}.
    """
    if n < 1:
        raise ValueError(f"flow direction must be >= 1, got {n}")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    zero = Symbol.zero(L0.params)
    coeffs = [L0]
    powers = [coeffs] + [[] for _ in range(n - 1)]  # coefficients of L(s)^1..L(s)^n
    for j in range(degree):
        for prev, pw in zip(powers, powers[1:]):
            pw.append(sum((compose(prev[a], coeffs[j - a]) for a in range(j + 1)), zero))
        rhs = zero
        for a in range(j + 1):
            rhs = rhs - commutator(powers[-1][a].s_part(), coeffs[j - a])
        coeffs.append(rhs.scale(1.0 / (j + 1)))
    return coeffs


def eval_taylor(coeffs: list, t: float) -> Symbol:
    out = Symbol.zero(coeffs[0].params)
    tp = 1.0
    for c in coeffs:
        out = out + c.scale(tp)
        tp *= t
    return out
