"""Series in the times t_1, ..., t_K with Symbol coefficients, graded by the
valuation val(t_n) = n and truncated at the cap V.

Monomials are exponent tuples; everything below iterates in graded
lexicographic order so results are reproducible.  Because every retained
monomial has valuation <= V, exponentials and inverses of 1 + (val >= 1)
series are finite sums of the powers `tpowers` yields, exact in the
truncated algebra.

A `TSeries` holds only its nonzero coefficients, so, as for `Symbol`, the
values are the only record of which monomials are present.  Its
constructor is the one place that writes them and no method edits a built
series: every operation fills a plain dict and builds its result once, so
series (and what a `KPJet` caches from them) are shared, not copied.
The cap `params.V` is the only truncation (the constructor drops, and a
product skips, whatever lands above it); `capped(v)` re-truncates at v.
Products are spelled out: `tmul` composes coefficients, `tcommutator`
brackets them and `scale` multiplies by a number.
"""

from __future__ import annotations

from dataclasses import replace
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
    "tinvert",
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

    def is_zero(self, tol: float = 0.0) -> bool:
        return all(s.is_zero(tol) for s in self.terms.values())

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
        """Coefficient of a valuation-v monomial must have order <= max(v, base_order)."""
        for mono, sym in self.terms.items():
            cap = max(mono.val, base_order)
            bad = [n for n, v in sym.order_norms().items() if n > cap and v > 1e-9]
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


def tmul(X: TSeries, Y: TSeries) -> TSeries:
    """Cauchy product over monomials; coefficients compose; val > V is dropped."""
    return _cauchy(X, Y, compose)


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
    if h == 0:
        raise ValueError("scaling factor must be nonzero")
    hr = X.params.real(h)
    return TSeries(X.params, {m: s.scale_orders(h).scale(hr**m.val) for m, s in X.terms.items()})


def tpowers(X: TSeries, n: int):
    """Yield X, X^2, ..., X^n (nothing for n = 0), each the product of the
    one before with X: the one loop that forms powers of a series."""
    if n < 0:
        raise ValueError(f"tpowers expects a nonnegative exponent, got {n}")
    for k in range(n):
        out = X if k == 0 else tmul(out, X)
        yield out


def tinvert(X: TSeries) -> TSeries:
    """Inverse of 1 + N with val(N) >= 1: the finite Neumann sum
    1 + sum_{k <= V} (-N)^k over `tpowers`."""
    params = X.params
    N = X - TSeries.one(params)
    if TMono.zero(params.K) in N.terms:
        raise ValueError("tinvert expects a unit with constant term 1")
    out = TSeries.one(params)
    for pw in tpowers(-N, params.V):
        out = out + pw
    return out


def tcommutator(X: TSeries, Y: TSeries) -> TSeries:
    """[X, Y] with the coefficient commutators computed term-fused (the exact
    scalar k = 0 cancellation happens per monomial pair, not after two full
    Cauchy products)."""
    return _cauchy(X, Y, commutator)


def conj_t(S: TSeries, A: Symbol) -> TSeries:
    """S o A o S^{-1} for a constant coefficient operator A.

    Evaluated as A + [S, A] o S^{-1}, as `symbol.conj` does: never forming
    the large S.A products, whose exact cancellation against A.S would
    otherwise dominate the rounding error.
    """
    A_t = TSeries.constant(S.params, A)
    return A_t + tmul(tcommutator(S, A_t), tinvert(S))


def product_integral(v, n: int) -> TSeries:
    """Left-endpoint ordered product approximating the path exponential of
    v, a map s in [0, 1] -> TSeries with valuation >= 1 (checked at each
    sample).

    Returns u_n(1) = prod_{i=1}^{n} (1 + (1/n) v((n-i)/n)) with later times on
    the left; for a constant path this is (1 + v/n)^n truncated, converging to
    texp(v) at rate O(1/n).
    """
    if n <= 0:
        raise ValueError("need at least one subdivision step")
    out = None
    for ell in range(n):
        X = v(ell / n)
        if TMono.zero(X.params.K) in X.terms:
            raise ValueError(f"path has valuation-0 content at s={ell / n}")
        one = TSeries.one(X.params)
        out = tmul(one + X.scale(1.0 / n), one if out is None else out)
    return out
