"""Series in the times t_1, ..., t_K with Symbol coefficients, graded by the
valuation val(t_n) = n and truncated at the cap V.

Monomials are exponent tuples; everything below iterates in graded
lexicographic order so results are reproducible.  Because every retained
monomial has valuation <= V, the exponential of a (val >= 1) series is a
finite sum of the powers `tpowers` yields, exact in the truncated algebra,
and `conj_t` conjugates by a unit 1 + (val >= 1) in one triangular sweep
over the monomials, with no inverse.

A `TSeries` holds only its nonzero coefficients, so, as for `Symbol`, the
values are the only record of which monomials are present.  Its
constructor is the one place that writes them and no method edits a built
series: every operation fills a plain dict and builds its result once, so
series (and what a `KPJet` caches from them) are shared, not copied.
The cap `params.V` is the only truncation in the valuation (the
constructor drops, and a product skips, whatever lands above it);
`capped(v)` re-truncates at v.  Products are spelled out: `tmul` composes
coefficients, `tcommutator` brackets them and `scale` multiplies by a
number.  Products take an output floor `lo`, as `compose` does: `tmul`,
`tcommutator`, `tpowers` and `conj_t` form only the coefficient orders
>= lo (`conj_t` a little lower inside its sweep), with the full product's
values there.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from functools import partial
from math import factorial

from .symbol import Symbol, TruncParams, commutator, compose, largest

__all__ = [
    "TMono",
    "TSeries",
    "tmul",
    "texp",
    "ddt",
    "eval_t",
    "scale_h",
    "product_integral",
    "tpowers",
    "tcommutator",
    "conj_t",
]


class TMono(tuple):
    """Exponent tuple (a_1, ..., a_K); valuation sum(n * a_n)."""

    def __new__(cls, exps):
        t = tuple(int(e) for e in exps)
        if any(e < 0 for e in t):
            raise ValueError(f"negative exponent in monomial {t}")
        return super().__new__(cls, t)

    @property
    def val(self) -> int:
        return sum((i + 1) * e for i, e in enumerate(self))

    def key(self):
        return (self.val, tuple(self))

    @classmethod
    def unit(cls, K: int, n: int) -> "TMono":
        return cls(int(i == n) for i in range(1, K + 1))

    @classmethod
    def zero(cls, K: int) -> "TMono":
        return cls((0,) * K)

    def __add__(self, other):
        return TMono(tuple(a + b for a, b in zip(self, other)))

    def quotient(self, other):
        """The monomial self / other, or None if other does not divide self."""
        if all(b <= a for a, b in zip(self, other)):
            return TMono(a - b for a, b in zip(self, other))
        return None

    def t_value(self, t) -> complex:
        v = 1.0
        for e, ti in zip(self, t):
            if e:
                v *= ti**e
        return v


class TSeries:
    """Map TMono -> nonzero Symbol, keeping monomials with valuation <= params.V."""

    __slots__ = ("params", "terms")

    def __init__(self, params: TruncParams, terms: dict | None = None):
        """Keep the nonzero coefficients of `terms` at valuations <= params.V."""
        self.params = params
        self.terms = {}
        for mono, sym in (terms or {}).items():
            mono = TMono(mono)
            if len(mono) != params.K:
                raise ValueError(f"monomial has {len(mono)} exponents, params.K = {params.K}")
            if mono.val <= params.V and not sym.is_zero():
                self.terms[mono] = sym

    @classmethod
    def zero(cls, params: TruncParams) -> "TSeries":
        return cls(params)

    @classmethod
    def one(cls, params: TruncParams) -> "TSeries":
        return cls(params, {TMono.zero(params.K): Symbol.identity(params)})

    @classmethod
    def constant(cls, params: TruncParams, sym: Symbol) -> "TSeries":
        return cls(params, {TMono.zero(params.K): sym})

    @classmethod
    def monomial(cls, params: TruncParams, mono, sym: Symbol) -> "TSeries":
        return cls(params, {TMono(mono): sym})

    def capped(self, v: int) -> "TSeries":
        """The same series truncated at valuation v (a cap of its own)."""
        return TSeries(replace(self.params, V=v), self.terms)

    def copy(self) -> "TSeries":
        """A series of its own, for a caller that edits `terms` in place
        (perfbench's perturbation tests)."""
        return TSeries(self.params, self.terms)

    def monomials(self) -> list:
        return sorted(self.terms, key=TMono.key)

    def term(self, mono) -> Symbol:
        mono = TMono(mono)
        sym = self.terms.get(mono)
        return sym if sym is not None else Symbol.zero(self.params)

    def is_zero(self) -> bool:
        """No monomial is kept: every coefficient is exactly 0 (a NaN is not)."""
        return not self.terms

    def norm(self, floor: int | None = None) -> float:
        """Max over monomials of coefficient norms on orders >= floor; NaN if any is."""
        return largest(s.norm(floor) for s in self.terms.values())

    def __add__(self, other: "TSeries") -> "TSeries":
        terms = dict(self.terms)
        for mono, sym in other.terms.items():
            terms[mono] = terms[mono] + sym if mono in terms else sym
        return TSeries(_common_params(self, other), terms)

    def __sub__(self, other: "TSeries") -> "TSeries":
        return self + (-other)

    def __neg__(self) -> "TSeries":
        return TSeries(self.params, {m: -s for m, s in self.terms.items()})

    def scale(self, c) -> "TSeries":
        return TSeries(self.params, {m: s.scale(c) for m, s in self.terms.items()})

    def map_coeffs(self, fn) -> "TSeries":
        """Apply a Symbol -> Symbol map to every coefficient."""
        return TSeries(self.params, {m: fn(s) for m, s in self.terms.items()})

    def d_part(self) -> "TSeries":
        return self.map_coeffs(lambda s: s.d_part())

    def s_part(self) -> "TSeries":
        return self.map_coeffs(lambda s: s.s_part())

    def assert_growth(self, base_order: int = 0) -> None:
        """Coefficient of a valuation-v monomial must have order <= max(v, base_order):
        an order above the cap whose norm exceeds 1e-9, or is NaN, raises."""
        for mono, sym in self.terms.items():
            cap = max(mono.val, base_order)
            bad = [n for n, v in sym.order_norms().items() if n > cap and not v <= 1e-9]  # a NaN is bad too
            if bad:
                raise AssertionError(
                    f"growth violation at monomial {tuple(mono)} (val {mono.val}): orders {sorted(bad)} exceed {cap}"
                )

    def __repr__(self) -> str:
        return f"TSeries({len(self.terms)} monomials, V={self.params.V}, K={self.params.K})"


def _common_params(X: TSeries, Y: TSeries) -> TruncParams:
    if X.params is not Y.params and X.params != Y.params:
        raise ValueError("series have different truncation parameters")
    return X.params


def _cauchy(X: TSeries, Y: TSeries, product) -> TSeries:
    """Cauchy product over monomials with coefficient product `product`;
    val > V is dropped."""
    params = _common_params(X, Y)
    out = {}
    ymonos = Y.monomials()
    for mx in X.monomials():
        vx = mx.val
        sx = X.terms[mx]
        for my in ymonos:
            if vx + my.val > params.V:
                continue
            prod = product(sx, Y.terms[my])
            key = mx + my
            out[key] = out[key] + prod if key in out else prod
    return TSeries(params, out)


def tmul(X: TSeries, Y: TSeries, lo: int | None = None) -> TSeries:
    """Cauchy product over monomials; coefficients compose on the output
    orders >= lo (see `compose`); val > V is dropped."""
    return _cauchy(X, Y, partial(compose, lo=lo))


def texp(X: TSeries) -> TSeries:
    """exp(X) = 1 + sum_{k <= V} X^k / k! over `tpowers`; requires every term
    of X to have val >= 1."""
    params = X.params
    if TMono.zero(params.K) in X.terms:
        raise ValueError("texp requires valuation >= 1 (nonzero constant term found)")
    out = TSeries.one(params)
    for k, pw in enumerate(tpowers(X, params.V), 1):
        out = out + pw.scale(params.real(1) / factorial(k))
    return out


def ddt(X: TSeries, n: int) -> TSeries:
    """Partial derivative with respect to t_n (1-based)."""
    params = X.params
    if not 1 <= n <= params.K:
        raise ValueError(f"time index {n} outside [1, {params.K}]")
    terms = {}
    for mono, sym in X.terms.items():
        e = mono[n - 1]
        if e:
            lowered = list(mono)
            lowered[n - 1] = e - 1
            terms[TMono(lowered)] = sym.scale(float(e))
    return TSeries(params, terms)


def eval_t(X: TSeries, t) -> Symbol:
    """Evaluate the jet at a concrete time vector."""
    t = tuple(t)
    if len(t) != X.params.K:
        raise ValueError(f"time vector has {len(t)} entries, params.K = {X.params.K}")
    out = Symbol.zero(X.params)
    for mono in X.monomials():
        out = out + X.terms[mono].scale(mono.t_value(t))
    return out


def scale_h(X: TSeries, h: float) -> TSeries:
    """t_n -> h^n t_n together with xi -> h.xi: the monomial picks up h^val and
    the order-n symbol coefficient picks up h^n, both formed in the series'
    precision."""
    if not 0 < abs(h) < float("inf"):  # a NaN fails this test too
        raise ValueError(f"scaling factor must be finite and nonzero, got {h}")
    hr = X.params.real(h)
    return TSeries(X.params, {m: s.scale_orders(h).scale(hr**m.val) for m, s in X.terms.items()})


def tpowers(X: TSeries, n: int, lo: int | None = None):
    """Yield X, X^2, ..., X^n (nothing for n = 0), each the product of the
    one before with X on the output orders >= lo: the one loop that forms
    powers of a series.  X itself is yielded whole.  Each product reads the
    power before it below lo (one order lower for an X of order <= 1), so
    X^k keeps the full power's values on the orders >= lo + k - 2 only."""
    if n < 0:
        raise ValueError(f"tpowers expects a nonnegative exponent, got {n}")
    for k in range(n):
        out = X if k == 0 else tmul(out, X, lo)
        yield out


def tcommutator(X: TSeries, Y: TSeries, lo: int | None = None) -> TSeries:
    """[X, Y] on the output orders >= lo, with the coefficient commutators
    computed term-fused (the exact scalar k = 0 cancellation happens per
    monomial pair, not after two full Cauchy products)."""
    return _cauchy(X, Y, partial(commutator, lo=lo))


def conj_t(S: TSeries, A: Symbol, lo: int | None = None) -> TSeries:
    """S o A o S^{-1} for a unit S = 1 + N (val(N) >= 1) and an operator A
    constant in t, on the output orders >= lo (A itself is added whole).

    L o S = S o A fixes Delta = L - A one valuation at a time, so the sweep
    never forms S^{-1}: over the monomials v in graded order,

        Delta_v = [N_v, A] - sum_{w <= v, val w >= 1} Delta_{v-w} o N_w,

    the products summed over w in descending graded order and the sum
    subtracted once.  The bracket is term-fused, as in `conj`.  Delta_v is
    read by the products of valuation up to V, each of which reads it at
    most rho.val(w) orders below its own floor, where rho is the largest
    order of N per unit valuation (0 for a dressing, 1 for a differential
    series by its growth condition).  So Delta_v is formed on the orders
    >= lo - rho.(V - val v), no lower than the working floor, and the
    orders >= lo hold the full sweep's values bit for bit.
    """
    params = S.params
    zero = TMono.zero(params.K)
    if not (S.term(zero) - Symbol.identity(params)).is_zero():
        raise ValueError("conj_t expects a unit with constant term 1")
    N = {w: S.terms[w] for w in S.monomials() if w != zero}  # graded order
    rho = max([0] + [-(-N[w].order // w.val) for w in N])  # rounded up
    lo = params.floor if lo is None else max(lo, params.floor)
    delta = {}
    for v in _graded_monomials(params):
        floor = max(lo - rho * (params.V - v.val), params.floor)
        prods = [compose(delta[u], N[w], lo=floor) for w in reversed(N) if (u := v.quotient(w)) in delta]
        dv = commutator(N[v], A, lo=floor) if v in N else Symbol.zero(params)
        if prods:
            dv = dv - sum(prods[1:], prods[0])
        if not dv.is_zero():
            delta[v] = dv
    return TSeries.constant(params, A) + TSeries(params, {v: d.band(lo=lo) for v, d in delta.items()})


def _graded_monomials(params: TruncParams) -> list:
    """Every monomial of valuation 1..V, in graded order."""
    ranges = (range(params.V // n + 1) for n in range(1, params.K + 1))
    return sorted((m for m in map(TMono, itertools.product(*ranges)) if 0 < m.val <= params.V), key=TMono.key)


def product_integral(v, n: int) -> TSeries:
    """Left-endpoint ordered product approximating the path exponential of
    v, a map s in [0, 1] -> TSeries with valuation >= 1 (checked at each
    sample).

    Returns u_n(1) = prod_{i=1}^{n} (1 + (1/n) v((n-i)/n)) with later times on
    the left; for a constant path this is (1 + v/n)^n truncated, converging to
    texp(v) at rate O(1/n).  Each factor is applied as out + (v/n) out, so
    the identity is never composed with a term.  Where v has one monomial
    this is the Cauchy product (1 + v/n) out bit for bit; with several, each
    coefficient's sum runs in another order.
    """
    if n <= 0:
        raise ValueError("need at least one subdivision step")
    out = None
    for ell in range(n):
        X = v(ell / n)
        if TMono.zero(X.params.K) in X.terms:
            raise ValueError(f"path has valuation-0 content at s={ell / n}")
        step = X.scale(1.0 / n)
        out = TSeries.one(X.params) + step if out is None else out + tmul(step, out)
    return out
