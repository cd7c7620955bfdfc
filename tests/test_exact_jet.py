"""The desk jet against its exact solution.

For S0 = 1 + cos(x) xi^-1 = 1 - (log f0)_x xi^-1 with f0 = e^{-sin x}, the
dressing stays first order along the flows: S(t) = 1 - (log f)_x xi^-1 with

    f(x, t) = sum_m c_m e^{imx} e^{sum_n (im)^n t_n},   c_m = i^m I_m(1),

so L = S xi S^-1 has u_{-1} = d_x^2 log f and u_{-2} = w w_x, w = -(log f)_x.
The reference is built in mode space in clongdouble: the coefficient of t^a
in f is f_a = sum_m c_m e^{imx} prod_n (im)^{n a_n} / a_n!, and

    log f = log f0 + sum_k (-1)^{k+1} G^k / k,   G = (f - f0) e^{sin x},

truncated by valuation.  I_m(1) comes from its power series in exact
fractions, so the reference's floor lies below the wide jet's.
"""

from fractions import Fraction
from itertools import product
from math import factorial

import numpy as np

from kpsym import LoopFn, Symbol, TMono, TruncParams, kp_solve

P = 80  # reference modes |m| <= P


def _longdouble(q: Fraction) -> np.longdouble:
    hi = float(q)
    return np.longdouble(hi) + np.longdouble(float(q - Fraction(hi)))


def _bessel_i(m: int) -> np.longdouble:
    """I_m(1) = sum_k 1 / (k! (k+m)! 2^(2k+m))."""
    return _longdouble(sum(Fraction(1, factorial(k) * factorial(k + m) * 2 ** (2 * k + m)) for k in range(30)))


MODES = np.arange(-P, P + 1)
IM = 1j * MODES.astype(np.longdouble)  # symbol of d/dx, clongdouble
I_POW = np.array([1, 1j, -1, -1j], dtype=np.clongdouble)
BESSEL = np.array([_bessel_i(abs(m)) for m in range(-P, P + 1)])
F0 = I_POW[MODES % 4] * BESSEL  # e^{-sin x}
INV_F0 = I_POW[-MODES % 4] * BESSEL  # e^{sin x}


def _mul(a, b):
    return np.convolve(a, b)[P : 3 * P + 1]


def _series_mul(X: dict, Y: dict, V: int) -> dict:
    out = {}
    for (a, x), (b, y) in product(X.items(), Y.items()):
        if a.val + b.val <= V:
            out[a + b] = out.get(a + b, 0) + _mul(x, y)
    return out


def exact_u(K: int, V: int) -> dict:
    """{monomial: (u_{-1}, u_{-2})} in modes |m| <= P, over valuations <= V."""
    monos = [TMono(a) for a in product(range(V + 1), repeat=K) if TMono(a).val <= V]
    one = np.longdouble(1)
    G = {}
    for a in monos:
        if a.val:
            weight = np.prod([one / factorial(e) for e in a])
            G[a] = _mul(F0 * IM**a.val * weight, INV_F0)
    log_f = {TMono.zero(K): np.where(np.abs(MODES) == 1, 0.5j * MODES, 0).astype(np.clongdouble)}  # -sin x
    power = dict(G)
    for k in range(1, V + 1):
        for a, x in power.items():
            log_f[a] = log_f.get(a, 0) + x * ((-one) ** (k + 1) / k)
        power = _series_mul(power, G, V)
    w = {a: -IM * x for a, x in log_f.items()}
    u2 = _series_mul(w, {a: IM * x for a, x in w.items()}, V)
    return {a: (IM**2 * log_f[a], u2[a]) for a in monos}


def jet_errors(jet) -> tuple:
    """The largest l2 mode errors of u_{-1} and of u_{-2} over the monomials
    of valuation <= V, and the number of monomials."""
    p = jet.params
    band = slice(P - p.M, P + p.M + 1)
    ref = exact_u(p.K, p.V)
    err1, err2 = (
        max(float(np.linalg.norm(jet.L.term(a).coeff(order).c[:, 0, 0] - u[i][band])) for a, u in ref.items())
        for i, order in enumerate((-1, -2))
    )
    return err1, err2, len(ref)


def test_reference_starts_from_the_dressing():
    # f0 e^{sin x} = 1, and at t = 0: u_{-1} = sin x, u_{-2} = -sin x cos x
    assert np.max(np.abs(_mul(F0, INV_F0) - (MODES == 0))) < 1e-19
    u1, u2 = exact_u(3, 1)[TMono.zero(3)]
    assert (LoopFn(1, P, u1[:, None, None]) - LoopFn.sin(P)).norm() < 1e-15
    assert (LoopFn(1, P, u2[:, None, None]) + LoopFn.sin(P) * LoopFn.cos(P)).norm() < 1e-15


def test_wide_desk_jet_matches_the_exact_solution(desk_jet):
    # measured: 3.4e-17 and 2.9e-17, on mode values up to 70.9 and 78.0
    err1, err2, count = jet_errors(desk_jet)
    assert count == 23
    assert err1 < 3e-16 and err2 < 3e-16


def test_narrow_desk_jet_matches_the_exact_solution():
    # measured: 2.5e-15 and 1.9e-15, above the wide jet's tolerance
    p = TruncParams()
    jet = kp_solve(Symbol.from_terms(p, {0: LoopFn.const(1, p.M, 1.0), -1: LoopFn.cos(p.M)}), p)
    err1, err2, _ = jet_errors(jet)
    assert err1 < 2e-14 and err2 < 2e-14
