"""Valuation-graded series: products, exponentials, derivations, scaling,
evaluation, and the ordered-product path exponential."""

from dataclasses import replace
from itertools import product
from math import factorial

import numpy as np
import pytest

from kpsym import (
    LoopFn,
    Symbol,
    TMono,
    TSeries,
    TruncParams,
    commutator,
    compose,
    conj_t,
    ddt,
    eval_t,
    power,
    product_integral,
    scale_h,
    tcommutator,
    texp,
    tinvert,
    tmul,
    tpowers,
)

from test_symbol import FLOORED, random_symbol, same_band, same_bits

P = TruncParams(M=16, F=-6, g=6, V=4, K=3)
M = P.M


def const_series(value=1.0):
    return TSeries.constant(P, Symbol.from_terms(P, {0: LoopFn.const(1, M, value)}))


def test_tmono_valuation():
    assert TMono((1, 0, 0)).val == 1
    assert TMono((2, 1, 0)).val == 4
    assert TMono((0, 0, 2)).val == 6
    with pytest.raises(ValueError):
        TMono((-1, 0, 0))


def test_series_hold_only_nonzero_terms():
    X = TSeries.monomial(P, (1, 0, 0), Symbol.xi(P))
    assert TSeries.monomial(P, (1, 0, 0), Symbol.zero(P)).terms == {}
    assert (X - X).terms == {}
    assert ddt(X, 2).terms == {}
    # a unit whose constant term is exactly 1: the inverse's Neumann terms
    # and the exponential's powers keep no zero coefficient either
    for series in (tinvert(TSeries.one(P) + X), texp(X), tmul(X, X - X)):
        assert all(not s.is_zero() for s in series.terms.values())
    # the constructor drops a zero coefficient and a monomial above the cap,
    # and refuses one with the wrong number of exponents
    assert TSeries(P, {(1, 0, 0): Symbol.zero(P), (0, 1, 0): Symbol.xi(P)}).monomials() == [(0, 1, 0)]
    assert TSeries(P, {(P.V + 1, 0, 0): Symbol.xi(P)}).terms == {}
    with pytest.raises(ValueError, match="2 exponents"):
        TSeries(P, {(1, 0): Symbol.xi(P)})


def test_sum_rejects_mismatched_params():
    other = TruncParams(M=16, F=-6, g=6, V=3, K=3)
    with pytest.raises(ValueError, match="different truncation parameters"):
        TSeries.one(P) + TSeries.one(other)


def full_series(params, rng):
    """A random coefficient on every monomial of valuation <= V."""
    monos = [TMono(a) for a in product(range(params.V + 1), repeat=params.K)]
    return TSeries(
        params,
        {
            mono: Symbol.from_terms(params, {1: LoopFn.random_trig(rng, M, 3), -1: LoopFn.random_trig(rng, M, 3)})
            for mono in monos
            if mono.val <= params.V
        },
    )


def test_capped_keeps_exactly_the_valuations_up_to_the_cap():
    X = full_series(P, np.random.default_rng(6))
    for v in range(P.V + 1):
        C = X.capped(v)
        assert C.params == replace(P, V=v)
        assert C.monomials() == [m for m in X.monomials() if m.val <= v]
        assert all(C.terms[m] is X.terms[m] for m in C.terms)
    assert X.capped(0).monomials() == [TMono.zero(P.K)]
    with pytest.raises(ValueError, match="V >= 0"):
        X.capped(-1)
    with pytest.raises(ValueError, match="different truncation parameters"):
        tmul(X, X.capped(P.V - 1))


@pytest.mark.parametrize("wide", [False, True], ids=["narrow", "wide"])
def test_capped_products_equal_the_full_products_up_to_the_cap(wide):
    params = P.with_wide(wide)
    rng = np.random.default_rng(7)
    X, Y = full_series(params, rng), full_series(params, rng)
    for prod in (tmul, tcommutator):
        full = prod(X, Y)
        for v in range(params.V + 1):
            got = prod(X.capped(v), Y.capped(v))
            assert got.monomials() == [m for m in full.monomials() if m.val <= v]
            assert all(same_bits(got.terms[m], full.terms[m]) for m in got.terms)


@pytest.mark.parametrize("kind", FLOORED)
def test_series_products_on_an_output_floor_equal_the_full_products_there(kind):
    p = FLOORED[kind]
    rng = np.random.default_rng(2)
    monos = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (2, 0, 0)]
    X, Y = (TSeries(p, {m: random_symbol(p, rng, int(rng.integers(-2, 3))) for m in monos}) for _ in range(2))
    for prod in (tmul, tcommutator):
        full = prod(X, Y)
        for lo in (p.floor - 1, p.floor, p.F - p.K, p.F, p.F + 2):
            got = prod(X, Y, lo=lo)
            assert got.terms.keys() <= full.terms.keys()
            assert all(same_band(got.term(m), full.terms[m], lo) for m in full.terms)


def test_tmul_unit():
    X = TSeries.monomial(P, (1, 1, 0), Symbol.xi(P, 2))
    assert (tmul(TSeries.one(P), X) - X).norm() == 0.0
    assert (tmul(X, TSeries.one(P)) - X).norm() == 0.0


def test_tmul_single_monomials():
    X = TSeries.monomial(P, (1, 0, 0), Symbol.xi(P))
    Y = TSeries.monomial(P, (0, 1, 0), Symbol.xi(P, 2))
    Z = tmul(X, Y)
    assert Z.monomials() == [TMono((1, 1, 0))]
    assert (Z.term((1, 1, 0)) - Symbol.xi(P, 3)).is_zero()


def test_tmul_valuation_cap():
    X = TSeries.monomial(P, (3, 0, 0), Symbol.identity(P))
    Y = TSeries.monomial(P, (2, 0, 0), Symbol.identity(P))
    assert tmul(X, Y).is_zero()  # val 5 > V = 4


def test_texp_zero():
    assert (texp(TSeries.zero(P)) - TSeries.one(P)).norm() == 0.0


def test_texp_scalar_series():
    c = 0.7
    X = TSeries.monomial(P, (1, 0, 0), Symbol.from_terms(P, {0: LoopFn.const(1, M, c)}))
    E = texp(X)
    from math import factorial

    for k in range(P.V + 1):
        got = E.term((k, 0, 0)).coeff(0).c[M, 0, 0]
        assert abs(got - c**k / factorial(k)) < 1e-14


def test_texp_scalar_series_wide():
    # 1/k! in extended precision: against a longdouble oracle c^k/k!, not
    # just the double one
    from math import factorial

    pw = P.with_wide(True)
    c = np.longdouble(0.7)
    X = TSeries.monomial(pw, (1, 0, 0), Symbol.from_terms(pw, {0: LoopFn.const(1, M, 0.7)}))
    E = texp(X)
    eps = np.finfo(np.longdouble).eps
    for k in range(pw.V + 1):
        want = c**k / factorial(k)
        got = E.term((k, 0, 0)).coeff(0).c[M, 0, 0]
        assert abs(got - want) <= 8 * eps * want


def test_texp_t1t2_coefficient_oracle():
    # oracle: direct expansion of the double series; commuting generators give
    # coefficient L0^3 at t1 t2
    L0 = Symbol.from_terms(P, {1: LoopFn.const(1, M, 1.0), -1: LoopFn.sin(M)})
    gen = TSeries(P, {TMono.unit(3, 1): L0, TMono.unit(3, 2): power(L0, 2)})
    E = texp(gen)
    oracle = compose(L0, power(L0, 2))
    assert (E.term((1, 1, 0)) - oracle).norm(floor=P.F) < 1e-10


def test_texp_rejects_val0():
    with pytest.raises(ValueError):
        texp(const_series())


def test_texp_inverse_pair():
    X = TSeries(P, {(1, 0, 0): Symbol.from_terms(P, {-1: LoopFn.cos(M)}),
                    (0, 1, 0): Symbol.from_terms(P, {-2: LoopFn.sin(M, 2)})})
    prod = tmul(texp(X), texp(-X))
    assert (prod - TSeries.one(P)).norm() < 1e-10


def test_tinvert():
    X = TSeries.one(P) + TSeries.monomial(P, (1, 0, 0), Symbol.from_terms(P, {-1: LoopFn.cos(M)}))
    assert (tmul(X, tinvert(X)) - TSeries.one(P)).norm() < 1e-12


def test_tpowers_of_exponent_zero_is_empty():
    X = TSeries.monomial(P, (1, 0, 0), Symbol.xi(P))
    assert list(tpowers(X, 0)) == []
    with pytest.raises(ValueError, match="nonnegative"):
        list(tpowers(X, -1))


def test_texp_and_tinvert_at_cap_zero_are_one():
    p0 = replace(P, V=0)
    X = TSeries.monomial(p0, (1, 0, 0), Symbol.xi(p0))  # val 1 > V: empty
    for got in (texp(X), tinvert(TSeries.one(p0) + X)):
        assert got.monomials() == [TMono.zero(P.K)]
        assert same_bits(got.term(TMono.zero(P.K)), Symbol.identity(p0))


def _texp_loop(X):
    """texp as one loop of its own: X^k = X^(k-1) X, starting from 1 X."""
    params = X.params
    out = pw = TSeries.one(params)
    for k in range(1, params.V + 1):
        pw = tmul(pw, X)
        if not pw.terms:
            break
        out = out + pw.scale(params.dtype(1).real / factorial(k))
    return out


def _tinvert_loop(X):
    """tinvert as one loop of its own: (-N)^k = (-N)^(k-1) (-N), starting from 1 (-N)."""
    minus_N = -(X - TSeries.one(X.params))
    total = term = TSeries.one(X.params)
    for _ in range(X.params.V):
        term = tmul(term, minus_N)
        if term.is_zero():
            break
        total = total + term
    return total


def _conj_t_coefficientwise(S, A):
    """conj_t with the bracket [S, A] formed coefficient by coefficient."""
    lie = S.map_coeffs(lambda s: commutator(s, A))
    return TSeries.constant(S.params, A) + tmul(lie, _tinvert_loop(S))


def test_series_polynomials_match_their_loops_bit_for_bit(small_jet):
    """texp, tinvert and conj_t, built on tpowers, give the values of the
    loops written out, at every monomial and sign bit."""
    params, L0 = small_jet.params, small_jet.L0
    gen = TSeries(params, {TMono.unit(params.K, n): power(L0, n) for n in range(1, params.K + 1)})
    for got, want in ((texp(gen), _texp_loop(gen)), (tinvert(small_jet.S), _tinvert_loop(small_jet.S)),
                      (conj_t(small_jet.S, L0), _conj_t_coefficientwise(small_jet.S, L0))):
        assert got.monomials() == want.monomials()
        assert all(same_bits(got.terms[m], want.terms[m]) for m in got.terms)


def test_norm_keeps_nan():
    nan = Symbol.from_terms(P, {-1: LoopFn.from_modes(1, M, {1: np.nan})})
    assert np.isnan(TSeries.monomial(P, (1, 0, 0), nan).norm())
    # a NaN coefficient after a finite one still reads NaN
    finite = TSeries.monomial(P, (0, 0, 0), Symbol.from_terms(P, {-1: LoopFn.cos(M)}))
    assert np.isnan((finite + TSeries.monomial(P, (1, 0, 0), nan)).norm())
    assert TSeries.zero(P).norm() == 0.0


def test_ddt_basics():
    X0 = Symbol.xi(P)
    X = TSeries.monomial(P, (1, 0, 0), X0)
    assert (ddt(X, 1).term((0, 0, 0)) - X0).is_zero()
    assert ddt(TSeries.monomial(P, (0, 1, 0), X0), 1).is_zero()
    sq = TSeries.monomial(P, (2, 0, 0), X0)
    got = ddt(sq, 1)
    assert (got.term((1, 0, 0)) - X0.scale(2.0)).is_zero()
    with pytest.raises(ValueError):
        ddt(X, 4)


def test_mixed_partials_commute():
    rng = np.random.default_rng(3)
    monos = [(1, 0, 0), (2, 1, 0), (0, 2, 0), (1, 0, 1)]
    X = TSeries(P, {mono: Symbol.from_terms(P, {-1: LoopFn.random_trig(rng, M, 3)}) for mono in monos})
    for n, m in [(1, 2), (1, 3), (2, 3)]:
        a = ddt(ddt(X, n), m)
        b = ddt(ddt(X, m), n)
        assert (a - b).norm() == 0.0


def test_eval_t():
    X0 = Symbol.from_terms(P, {-1: LoopFn.sin(M)})
    X = TSeries.monomial(P, (1, 0, 0), X0)
    assert eval_t(X, (0.0, 0.0, 0.0)).is_zero()
    assert (eval_t(X, (2.0, 0.0, 0.0)) - X0.scale(2.0)).is_zero()
    # partial sums of the scalar exponential
    c = 0.9
    E = texp(TSeries.monomial(P, (1, 0, 0), Symbol.from_terms(P, {0: LoopFn.const(1, M, c)})))
    got = eval_t(E, (1.0, 0.0, 0.0)).coeff(0).c[M, 0, 0]
    from math import factorial

    want = sum(c**k / factorial(k) for k in range(P.V + 1))
    assert abs(got - want) < 1e-13


def test_eval_homomorphism_up_to_cap():
    rng = np.random.default_rng(4)
    one = Symbol.from_terms(P, {0: LoopFn.const(1, M, 1.0)})
    x_terms, y_terms = {(0, 0, 0): one}, {(0, 0, 0): one}
    for mono in [(1, 0, 0), (0, 1, 0)]:
        x_terms[mono] = Symbol.from_terms(P, {-1: LoopFn.random_trig(rng, M, 2)})
        y_terms[mono] = Symbol.from_terms(P, {-1: LoopFn.random_trig(rng, M, 2)})
    X, Y = TSeries(P, x_terms), TSeries(P, y_terms)
    t = (0.05, 0.05, 0.0)
    lhs = eval_t(tmul(X, Y), t)
    rhs = compose(eval_t(X, t), eval_t(Y, t))
    tnorm = max(abs(v) for v in t)
    assert (lhs - rhs).norm(floor=P.F) < 10 * tnorm ** (P.V + 1)


def test_scale_h_identity_and_inverse():
    rng = np.random.default_rng(5)
    X = TSeries(P, {mono: Symbol.from_terms(P, {-1: LoopFn.random_trig(rng, M, 2), 1: LoopFn.random_trig(rng, M, 2)})
                    for mono in [(0, 0, 0), (1, 0, 0), (0, 1, 0)]})
    assert (scale_h(X, 1.0) - X).norm() == 0.0
    back = scale_h(scale_h(X, 2.0), 0.5)
    assert (back - X).norm() < 1e-12
    with pytest.raises(ValueError):
        scale_h(X, 0.0)


def test_scale_h_wide_in_extended_precision():
    # h^n and h^val are formed in extended precision for a wide series
    pw = P.with_wide(True)
    X = TSeries.monomial(pw, (0, 1, 0), Symbol.from_terms(pw, {n: LoopFn.const(1, M, 1.0) for n in range(-9, 1)}))
    h = np.longdouble(0.1)
    got = scale_h(X, 0.1).term((0, 1, 0))
    ref = h ** np.arange(-9, 1) * h**2
    rel = np.abs(got.c[:, M, 0, 0] / ref - 1)
    assert got.c.dtype == np.clongdouble and np.max(rel) <= 4 * np.finfo(np.longdouble).eps


def test_scale_h_bookkeeping():
    # t1 . xi -> h t1 . (h xi) = h^2 t1 xi
    X = TSeries.monomial(P, (1, 0, 0), Symbol.xi(P))
    got = scale_h(X, 3.0)
    assert (got.term((1, 0, 0)) - Symbol.xi(P, 1, 9.0)).is_zero()


def test_growth_check_of_a_product():
    X = TSeries.monomial(P, (1, 0, 0), Symbol.from_terms(P, {-1: LoopFn.cos(M)}))
    tmul(X, X).assert_growth(P.N)  # growth-compliant; must not raise
    bad = TSeries.monomial(P, (1, 0, 0), Symbol.xi(P, P.N + 2))
    with pytest.raises(AssertionError):
        tmul(bad, TSeries.one(P)).assert_growth(P.N)


@pytest.mark.parametrize("value", [1.0, np.nan])
def test_growth_check_refuses_nan_above_the_cap(value):
    # NaN > 1e-9 is False: a NaN above the cap must fail like any large value
    p = TruncParams(M=8, F=-4, g=4, V=3)
    X = TSeries.monomial(p, (1, 0, 0), Symbol.xi(p, 3, value) + Symbol.xi(p, -1, 0.5))
    with pytest.raises(AssertionError, match=r"orders \[3\] exceed 1"):
        X.assert_growth(0)


@pytest.mark.parametrize("h", [np.nan, np.inf])
def test_scale_h_refuses_non_finite(h):
    X = TSeries.monomial(P, (1, 0, 0), Symbol.from_terms(P, {-1: LoopFn.cos(M)}))
    with pytest.raises(ValueError, match="scaling factor"):
        scale_h(X, h)


def test_is_zero_is_exact():
    X = TSeries.monomial(P, (0, 1, 0), Symbol.xi(P, -2, 1e-300))
    assert TSeries.zero(P).is_zero() and (X - X).is_zero()
    assert not X.is_zero()
    assert not TSeries.monomial(P, (0, 1, 0), Symbol.xi(P, -2, np.nan)).is_zero()


def test_product_integral_zero_path():
    for n in (1, 7):
        assert (product_integral(lambda s: TSeries.zero(P), n) - TSeries.one(P)).norm() == 0.0


def test_product_integral_rejects_val0():
    with pytest.raises(ValueError):
        product_integral(lambda s: const_series(), 4)


def test_product_integral_constant_rate():
    # oracle: texp; the ordered product converges at rate O(1/n)
    X = TSeries.monomial(P, (1, 0, 0), Symbol.from_terms(P, {-1: LoopFn.cos(M), 0: LoopFn.const(1, M, 0.3)}))
    target = texp(X)
    errs = [(product_integral(lambda s: X, n) - target).norm() for n in (16, 32, 64)]
    assert errs[0] / errs[1] > 1.8
    assert errs[1] / errs[2] > 1.8


def test_product_integral_val1_riemann_oracle():
    # the val-1 layer equals the left-rule quadrature of the path's val-1 part
    base = Symbol.from_terms(P, {-1: LoopFn.sin(M)})

    def path(s):
        return TSeries.monomial(P, (1, 0, 0), base.scale(1.0 + s))

    n = 24
    got = product_integral(path, n).term((1, 0, 0))
    riemann = sum(1.0 + ell / n for ell in range(n)) / n
    assert (got - base.scale(riemann)).norm(floor=P.F) < 1e-12
