"""The guard band's promise: widening g leaves every order >= F bit-identical.

Orders below the working floor F - g are dropped everywhere, and the guard
band g is there so that the reported orders >= F come out exact.  Raising
g by 6 must therefore not move a single bit of the reported band of the
inverse, the base operator, the solved jet and the low-degree Taylor jets.
"""

from dataclasses import replace

import numpy as np
import pytest

from kpsym import LoopFn, Symbol, TruncParams, conj_from, invert, kp_solve, taylor_jet

BASE = TruncParams(M=16, F=-6, g=6, V=4)


def dressing(params):
    M = params.M
    return Symbol.from_terms(params, {0: LoopFn.const(1, M, 1.0), -1: LoopFn.cos(M), -2: LoopFn.sin(M, 2, 0.3)})


def assert_reported_band_equal(a, b):
    """Orders >= F of two symbols under different guard bands: the same
    orders and the same values, signs of zeros included."""
    x, y = a.band(lo=a.params.F), b.band(lo=b.params.F)
    assert x.lo == y.lo and x.c.shape == y.c.shape
    for u, v in ((x.c.real, y.c.real), (x.c.imag, y.c.imag)):
        assert np.array_equal(u, v) and np.array_equal(np.signbit(u), np.signbit(v))


@pytest.mark.parametrize("wide", [False, True], ids=["narrow", "wide"])
def test_wider_guard_band_keeps_the_reported_orders(wide):
    p = BASE.with_wide(wide)
    q = replace(p, g=p.g + 6)
    S0p, S0q = dressing(p), dressing(q)
    assert_reported_band_equal(invert(S0p), invert(S0q))
    L0p, L0q = conj_from(S0p, p), conj_from(S0q, q)
    assert_reported_band_equal(L0p, L0q)
    jp, jq = kp_solve(S0p, p), kp_solve(S0q, q)
    for X, Y in ((jp.L, jq.L), (jp.S, jq.S)):
        for mono in set(X.terms) | set(Y.terms):
            assert_reported_band_equal(X.term(mono), Y.term(mono))
    # n = 3 is left out: at g = 6 its coefficients of degree 4-6 differ on
    # orders >= F, a reach of n - 1 orders per Taylor step (ROADMAP item 14)
    for n in (1, 2):
        for a, b in zip(taylor_jet(L0p, n, 6), taylor_jet(L0q, n, 6), strict=True):
            assert_reported_band_equal(a, b)
