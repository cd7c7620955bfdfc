"""Graded truncated symbol calculus for operators A = sum_n a_n(x) D^n on S^1.

Conventions
-----------
xi is the symbol of D = d/dx, so xi acts on the Fourier mode e^{imx} as
multiplication by (im).  Composition follows the Leibniz expansion

    (A o B)(x, xi) = sum_{k >= 0} (eps^k / k!) d_xi^k A(x, xi) . d_x^k B(x, xi),

with eps = params.deform (1.0 for the plain product; other values give the
rescaled calculus reached by xi -> h.xi, t_n -> h^n t_n with eps = 1/h).
One coefficient function per integer order keeps the parity relation
sigma_n(x, -xi) = (-1)^n sigma_n(x, xi) automatic.

A product forms the output orders >= its output floor lo only, which is
the working floor F - g unless the caller asks for a higher one; algebraic
identities are only claimed on orders >= F.  The guard band g is there to
keep those orders exact: tests/test_guard_band.py finds them bit-identical
at g and g + 6 for `invert` and `conj_from` of a dressing, the L and S of
`kp_solve`, and `taylor_jet(L0, n, 6)` for n = 1, 2.  It is no bound for
every composition: `taylor_jet(L0, n, degree)` reaches (n - 1) * degree
orders below its input, so at g = 8 the t3 jet's degrees 5 and 6 differ
from their g = 14 values by 3.7e15 and 5.8e18 (ROADMAP item 14).  The
working floor also ends the Neumann sum with which `invert` inverts a
dressing.

Storage
-------
A `Symbol` is one read-only array `c` of shape (orders, 2M+1, d, d) in the
precision of params.wide (complex or clongdouble): `c[i]` holds the modes
of the coefficient of order lo + i, and `c` is trimmed to its first and
last nonzero order.  The values are the only record of which orders and
modes are nonzero: `orders()` and `a` list the nonzero orders.
Operations return new symbols and never write into an operand, so symbols
are shared, not copied.  `LoopFn` is the type of one coefficient function:
`Symbol(params, {n: LoopFn})` packs once; `coeff(n)` and the read-only
mapping `a` hand out fresh copies.

Every composition, for any matrix size d and in both precisions, runs
through one kernel: a direct block-Toeplitz convolution of Fourier modes
(`_compose`).

The kernel's index work is cached as a plan (`_Plan`) per signature: d, M,
the working floor, the output floor, deform factor, precision, lowest
Leibniz order, the left operand's lowest order and pattern of nonzero
orders, and the right operand's lowest order and number of orders.  Narrow
and wide mode build and use plans the same way; only the inner convolution
differs: one BLAS product per left order in double precision, one
`np.convolve` per left order over the measured mode supports in wide mode,
where clongdouble has no BLAS.  Plans add their blocks of rows in the order
of the Leibniz sum, which keeps every result bit-identical to a row-by-row
scatter.  Each signature's plan is built once and kept until `clear_plans`;
`plan_stats` reports the cache's use.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import cache
from math import factorial
from types import MappingProxyType

import numpy as np

from .loopfn import LoopFn, support

# Machine epsilon of np.longdouble.  Wide mode needs a genuinely extended
# type (x86's 80-bit format gives 1.08e-19); where longdouble is plain
# double it would silently run at the narrow floor, so it is refused.
_LONGDOUBLE_EPS = float(np.finfo(np.longdouble).eps)
_WIDE_EPS_MAX = 1e-18

__all__ = [
    "TruncParams",
    "Symbol",
    "compose",
    "commutator",
    "power",
    "invert",
    "conj",
    "realize_matrix",
    "hs_inner",
    "plan_stats",
    "clear_plans",
]


@dataclass(frozen=True)
class TruncParams:
    """Shared truncation data: matrix size d, mode cutoff M, reported floor F,
    declared max base order N, valuation cap V, active times K, guard g,
    and the composition scale factor eps = deform."""

    d: int = 1
    M: int = 32
    F: int = -10
    N: int = 8
    V: int = 6
    K: int = 3
    g: int = 8
    deform: float = 1.0
    wide: bool = False

    def __post_init__(self):
        if self.d < 1 or self.M < 1:
            raise ValueError("need d >= 1 and M >= 1")
        if self.F > -1:
            raise ValueError("floor F must be <= -1")
        if self.N < 1:
            raise ValueError("ceiling N must be >= 1")
        if self.V < 0 or self.K < 1 or self.g < 0:
            raise ValueError("need V >= 0, K >= 1, g >= 0")
        if not 0 < abs(self.deform) < np.inf:  # a NaN fails this test too
            raise ValueError(f"deform factor must be finite and nonzero, got {self.deform}")
        if self.wide and self.d != 1:
            raise ValueError("extended-precision mode is implemented for d = 1 only")
        if self.wide and _LONGDOUBLE_EPS > _WIDE_EPS_MAX:
            raise ValueError(
                f"extended-precision mode needs np.longdouble with eps <= {_WIDE_EPS_MAX:g}; "
                f"this platform's has eps = {_LONGDOUBLE_EPS:.3g}"
            )

    @property
    def floor(self) -> int:
        """Working floor: orders below F - g are discarded."""
        return self.F - self.g

    @property
    def dtype(self):
        """Coefficient type: clongdouble in wide mode, complex otherwise."""
        return np.clongdouble if self.wide else np.complex128

    def real(self, x: float):
        """x as a real number in the coefficients' precision: longdouble in
        wide mode, float otherwise."""
        return np.longdouble(x) if self.wide else float(x)

    @property
    def h(self) -> float:
        """h = 1/deform: d/dx has the symbol h.xi, since [xi, b] = deform . b'."""
        return 1.0 / self.deform

    def with_deform(self, eps: float) -> "TruncParams":
        return replace(self, deform=eps)

    def with_wide(self, wide: bool) -> "TruncParams":
        return replace(self, wide=wide)


class Symbol:
    """Finite sum a = sum_{floor <= n} a_n(x) xi^n, packed as described in
    the module docstring: orders lo .. lo + len(c) - 1, the first and last
    of them nonzero."""

    __slots__ = ("params", "lo", "c")

    def __init__(self, params: TruncParams, a: dict | None = None):
        a = {int(n): f for n, f in (a or {}).items()}
        lo = min(a, default=0)
        c = np.zeros((max(a, default=lo - 1) - lo + 1, 2 * params.M + 1, params.d, params.d), dtype=params.dtype)
        for n, f in a.items():
            if n < params.floor:
                raise ValueError(f"order {n} below working floor {params.floor}")
            if f.d != params.d or f.M != params.M:
                raise ValueError("coefficient does not match params (d, M)")
            c[n - lo] = f.c
        self._set(params, lo, c)

    def _set(self, params: TruncParams, lo: int, c: np.ndarray) -> None:
        live = np.flatnonzero(c.any(axis=(1, 2, 3)))
        i, j = (live[0], live[-1] + 1) if live.size else (0, 0)
        self.params, self.lo, self.c = params, int(lo) + int(i), c[i:j]
        self.c.flags.writeable = False

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, params: TruncParams) -> "Symbol":
        return cls(params)

    @classmethod
    def identity(cls, params: TruncParams) -> "Symbol":
        return cls.xi(params, 0)

    @classmethod
    def xi(cls, params: TruncParams, n: int = 1, coeff=1.0) -> "Symbol":
        """coeff * xi^n with a constant coefficient: a scalar (times the
        identity) or a d x d matrix, kept in the symbol's precision."""
        if n < params.floor:
            raise ValueError(f"order {n} below working floor {params.floor}")
        d, M = params.d, params.M
        c = np.zeros((1, 2 * M + 1, d, d), dtype=params.dtype)
        c[0, M] = np.asarray(coeff) * np.eye(d) if np.ndim(coeff) == 0 else np.reshape(coeff, (d, d))
        return _packed(params, n, c)

    @classmethod
    def from_terms(cls, params: TruncParams, terms: dict) -> "Symbol":
        return cls(params, terms)

    # -- structure ---------------------------------------------------------

    def coeff(self, n: int) -> LoopFn:
        i = n - self.lo
        if 0 <= i < len(self.c):
            return LoopFn(self.params.d, self.params.M, self.c[i])
        return LoopFn.zero(self.params.d, self.params.M)

    @property
    def a(self) -> MappingProxyType:
        """Read-only map order -> coefficient, each a fresh LoopFn."""
        return MappingProxyType({n: self.coeff(n) for n in self.orders()})

    def orders(self) -> list:
        """Orders with a nonzero coefficient, ascending."""
        return (self.lo + np.flatnonzero(self._live())).tolist()

    def _live(self) -> np.ndarray:
        """Per stored order: the coefficient is nonzero."""
        return self.c.any(axis=(1, 2, 3))

    @property
    def order(self):
        """Highest order carrying a nonzero coefficient (None for the zero symbol)."""
        return self.lo + len(self.c) - 1 if len(self.c) else None

    def is_zero(self) -> bool:
        """No order is stored: every coefficient is exactly 0 (a NaN is not)."""
        return not len(self.c)

    def order_norms(self) -> dict:
        """l2 norm of the coefficient of every nonzero order, ascending."""
        return {n: float(np.linalg.norm(self.c[n - self.lo])) for n in self.orders()}

    def norm(self, floor: int | None = None) -> float:
        """l2 norm of coefficients over orders >= floor (default: reported floor F)."""
        if floor is None:
            floor = self.params.F
        return float(np.sqrt(sum(v**2 for n, v in self.order_norms().items() if n >= floor)))

    def sup_norm(self, floor: int | None = None) -> float:
        """Largest coefficient modulus over orders >= floor (default: all)."""
        c = self.band(lo=floor).c
        return float(np.max(np.abs(c))) if c.size else 0.0

    def eval_sym(self, x: float, xi: complex) -> np.ndarray:
        """Total symbol value sum_n a_n(x) xi^n at a point of the cotangent fiber."""
        out = np.zeros((self.params.d, self.params.d), dtype=complex)
        for n in self.orders():
            out += self.coeff(n).eval_at(x) * xi**n
        return out

    def _compatible(self, other: "Symbol") -> None:
        p, q = self.params, other.params
        if (p.d, p.M, p.F, p.g, p.deform, p.wide) != (q.d, q.M, q.F, q.g, q.deform, q.wide):
            raise ValueError("incompatible truncation parameters")

    def recast(self, params: TruncParams) -> "Symbol":
        """The same coefficients under `params` (same d, M and working floor),
        in its precision."""
        if (params.d, params.M, params.floor) != (self.params.d, self.params.M, self.params.floor):
            raise ValueError("recast needs the same d, M and working floor")
        return _packed(params, self.lo, self.c.astype(params.dtype, copy=False))

    def narrow(self) -> "Symbol":
        """Double-precision coefficients, wide mode off."""
        return self.recast(self.params.with_wide(False))

    # -- linear operations ---------------------------------------------------

    def __add__(self, other: "Symbol") -> "Symbol":
        self._compatible(other)
        lo = min(self.lo, other.lo)
        n = max(self.lo + len(self.c), other.lo + len(other.c)) - lo
        c = np.zeros((n,) + self.c.shape[1:], dtype=self.c.dtype)
        for X in (self, other):
            c[X.lo - lo : X.lo - lo + len(X.c)] += X.c
        return _packed(self.params, lo, c)

    def __sub__(self, other: "Symbol") -> "Symbol":
        return self + (-other)

    def __neg__(self) -> "Symbol":
        return _packed(self.params, self.lo, -self.c)

    def scale(self, c) -> "Symbol":
        return _packed(self.params, self.lo, (self.c * c).astype(self.c.dtype, copy=False))

    def map_coeffs(self, fn) -> "Symbol":
        """Apply fn to every coefficient (e.g. LoopFn.dx)."""
        return Symbol(self.params, {n: fn(self.coeff(n)) for n in self.orders()})

    def mode_filter(self, mmax: int) -> "Symbol":
        """Drop coefficient modes beyond |m| = mmax (spectral cutoff)."""
        keep = np.abs(np.arange(-self.params.M, self.params.M + 1)) <= mmax
        return _packed(self.params, self.lo, np.where(keep[:, None, None], self.c, 0))

    def scale_orders(self, h: float) -> "Symbol":
        """xi -> h.xi: order-n coefficient picks up h^n, formed in the
        symbol's precision."""
        h = self.params.real(h)
        fac = np.array([h**n for n in range(self.lo, self.lo + len(self.c))])
        return _packed(self.params, self.lo, self.c * fac[:, None, None, None])

    def __repr__(self) -> str:
        return f"Symbol(orders={self.orders()})"

    # -- projections ---------------------------------------------------------

    def band(self, lo: int | None = None, hi: int | None = None) -> "Symbol":
        """The orders lo .. hi only (either end open when None)."""
        n = len(self.c)
        i = 0 if lo is None else min(max(lo - self.lo, 0), n)
        j = n if hi is None else min(max(hi + 1 - self.lo, i), n)
        return _packed(self.params, self.lo + i, self.c[i:j])

    def d_part(self) -> "Symbol":
        return self.band(lo=0)

    def s_part(self) -> "Symbol":
        return self.band(hi=-1)


def _packed(params: TruncParams, lo: int, c: np.ndarray) -> Symbol:
    """A symbol holding `c` itself, trimmed to its nonzero end orders (`c`
    must not be written to afterwards)."""
    out = Symbol.__new__(Symbol)
    out._set(params, lo, c)
    return out


def _is_plain_identity(A: Symbol) -> bool:
    return A.lo == 0 and len(A.c) == 1 and bool(np.array_equal(A.c, Symbol.identity(A.params).c))


def compose(A: Symbol, B: Symbol, lo: int | None = None) -> Symbol:
    """Leibniz composition on the output orders >= lo (None, or any order
    below the working floor, means the working floor).

    The k-th term scales coefficients by eps^k/k! times the falling factorial
    n(n-1)...(n-k+1) of the left order, and differentiates the right
    coefficient k times.  The k sum stops once the output order n + m - k
    falls below lo, so it is finite even for negative left orders.
    `compose(A, B, lo=lo)` equals `compose(A, B).band(lo=lo)` bit for bit,
    without forming the lower orders.  Every matrix size d runs through the
    same direct block-Toeplitz mode convolution (see `_compose`).
    """
    global _compose_calls
    A._compatible(B)
    _compose_calls += 1
    if _is_plain_identity(A):
        return B.band(lo=lo)
    if _is_plain_identity(B):
        return A.band(lo=lo)
    return _compose(A, B, lo=lo)


def _compose(A: Symbol, B: Symbol, kmin: int = 0, lo: int | None = None) -> Symbol:
    """Leibniz terms k >= kmin of A o B on the output orders >= lo (at least
    the working floor) by direct (block-Toeplitz) mode convolution.

    Each right coefficient b_m is stored as d rows, one per column j, of
    length (2M+1)d laid out as (mode p, row k).  Right-multiplying that stack
    by T_n[(p, k), (q, i)] = a_n[q - p][i, k] gives the modes of the
    pointwise product a_n b_m, truncated to |q| <= M, with the matrix order
    kept.  Convolving directly keeps rounding noise local per output mode; a
    round trip through point values would smear each row's largest
    coefficient across the whole band, and the (im)^k derivative factors of
    later compositions amplify exactly that high-mode junk.  In wide mode
    (d = 1 only) each left order makes one extended-precision np.convolve of
    its rows laid end to end, each trimmed to the measured mode supports
    and padded so that rows do not mix; supports are measured once per operand.

    The index work comes from a cached `_Plan`; per call this fills the
    derivative stack, runs one gather and one product per left order and
    adds each (n, k) block of rows into its output orders, in the array the
    result keeps.  Modes and orders no term reaches come out exactly zero;
    a plan with no steps gives the zero symbol.
    """
    params = A.params
    d, M, wide = params.d, params.M, params.wide
    if A.is_zero() or B.is_zero():
        return Symbol.zero(params)
    lo = params.floor if lo is None else max(lo, params.floor)
    a_live = tuple(A._live().tolist())
    plan = _plan(d, M, params.floor, lo, params.deform, wide, kmin, A.lo, a_live, B.lo, len(B.c))

    L = 2 * M + 1
    dt = params.dtype
    # (order, column j, mode p, row k)
    b_modes = np.ascontiguousarray(B.c.transpose(0, 3, 1, 2))
    modes = np.arange(-M, M + 1).astype(dt)
    dpow = (1j * modes) ** np.arange(plan.kmax + 1)[:, None]  # (k, mode)
    bk = (b_modes[None] * dpow[:, None, None, :, None]).reshape(-1, L * d)

    out = np.zeros((plan.nq, d * L * d), dtype=dt)
    if wide:
        nB = len(B.c)
        a_sup, b_sup = support(A.c), support(B.c)
    else:
        t_idx = _toeplitz_index(d, M)
        apad = np.zeros((4 * M + 1) * d * d, dtype=dt)
    for n, rows, weights, blocks in plan.steps:
        an = A.c[n - A.lo]
        if wide:
            # no BLAS in extended precision: one np.convolve per left order.
            # Each row keeps its middle 2t+1 modes and is followed by 2s
            # zeros, so segments do not mix; the extra terms of each output
            # sum are exact zeros, and a segment is never shorter than the
            # kernel, so the sums run as in a row-by-row np.convolve
            s = int(a_sup[n - A.lo])
            t = max(int(b_sup[rows % nB].max()), s)
            u = min(M, t + s)  # output modes |q| <= u
            seg = np.zeros((len(rows), 2 * t + 1 + 2 * s), dtype=dt)
            seg[:, : 2 * t + 1] = bk[rows, M - t : M + t + 1]
            full = np.convolve(seg.ravel(), an[M - s : M + s + 1, 0, 0])
            conv = full[: seg.size].reshape(seg.shape)[:, t + s - u : t + s + u + 1]
            conv.real *= weights[:, None]
            conv.imag *= weights[:, None]
            dst = out[:, M - u : M + u + 1]
        else:
            apad[M * d * d : (3 * M + 1) * d * d] = an.ravel()
            conv = bk[rows] @ apad[t_idx]
            conv *= weights[:, None]
            conv = conv.reshape(-1, d * L * d)
            dst = out
        for t0, t1, r0, r1 in blocks.tolist():
            dst[t0:t1] += conv[r0:r1]

    c = np.ascontiguousarray(out.reshape(plan.nq, d, L, d).transpose(0, 2, 3, 1))
    return _packed(params, lo, c)


class _Plan:
    """What `_compose` needs beyond the coefficient values, for one signature:
    d, M, the working floor, the output floor lo, deform, wide, kmin, the left
    operand's lowest order and which of its orders are nonzero, and the right
    operand's lowest order and number of orders.  Mode supports are not part
    of it: they are measured from the values on every call.

    - kmax: the highest Leibniz order k of any left order (-1 when none);
      nq: the number of output orders lo .. lo + nq - 1.
    - steps: one (n, rows, weights, blocks) per nonzero left order n with a
      term in range: k <= n + nb - lo, and k <= n for n >= 0, where the
      falling factorial vanishes beyond.  `rows` indexes the flattened
      derivative stack (k, right order m, column j) in (k, m) order;
      `weights` holds the factor eps^k/k! n(n-1)...(n-k+1) of each row, in
      real arithmetic of the coefficients' precision; `blocks` holds one
      row (t0, t1, r0, r1) per k: row groups r0:r1 add into output orders
      lo + t0 .. lo + t1 - 1, a row group being the d rows of one m.

    Blocks are added in the (n, k) order of the Leibniz sum.  Within a block
    the output orders are distinct, so each output coefficient receives its
    terms in the same order as a one-row-at-a-time scatter would give it,
    whatever lo drops below it.  numpy runs a product of one row as GEMV,
    whose last bits differ from GEMM's, and GEMM's rows do not depend on
    their number; so a narrow step that lo cuts to one row repeats it, to
    run as the GEMM of the working floor's step.  Index arrays are int32 and
    weights real: the 138 plans of a wide desk-scale solve and check hold
    1.1 MB of arrays, the 132 of the d = 2 jets at M = 16 hold 0.6 MB.
    """

    __slots__ = ("kmax", "nq", "steps")

    def __init__(self, d, M, floor, lo, eps, wide, kmin, a_lo, a_live, fb, nB):
        a_orders = [a_lo + i for i, live in enumerate(a_live) if live]
        nb = fb + nB - 1
        real = np.longdouble if wide else float
        self.nq = max(a_orders[-1] + nb - lo + 1, 0)
        self.kmax, self.steps = -1, []
        for n in a_orders:
            kcap = _kcap(n, nb, lo)
            self.kmax = max(self.kmax, kcap)
            rows, weights, blocks = [], [], []
            r0, fall = 0, 1
            for k in range(kcap + 1):
                if k > 0:
                    fall *= n - (k - 1)
                if k < kmin:
                    continue
                m_lo = max(fb, lo - n + k)
                w = real(fall) * real(eps) ** k / real(factorial(k))
                count = nb - m_lo + 1
                rows.append(np.arange((k * nB + m_lo - fb) * d, (k + 1) * nB * d, dtype=np.int32))
                weights.append(np.full(count * d, w, dtype=real))
                t0 = n - k + m_lo - lo
                blocks.append((t0, t0 + count, r0, r0 + count))
                r0 += count
            if not blocks:
                continue
            rows, weights = np.concatenate(rows), np.concatenate(weights)
            # one row at lo, where the working floor's step is more than the
            # one row (k, m) = (kmin, nb)
            if not wide and len(rows) == 1 and (_kcap(n, nb, floor), max(fb, floor - n + kmin)) != (kmin, nb):
                rows, weights = np.repeat(rows, 2), np.repeat(weights, 2)
            self.steps.append((n, rows, weights, np.array(blocks, dtype=np.int32)))


def _kcap(n: int, nb: int, lo: int) -> int:
    """The highest Leibniz order k of left order n with a term on the output
    orders >= lo, the right operand's highest order being nb."""
    return n + nb - lo if n < 0 else min(n, n + nb - lo)


_plan = cache(_Plan)
_compose_calls = 0  # calls of `compose` since the last `clear_plans`


def plan_stats() -> dict:
    """Calls of `compose`, compose-plan cache hits and misses since the last
    `clear_plans`, and the number of plans held."""
    info = _plan.cache_info()
    return {
        "compose_calls": _compose_calls,
        "plan_hits": info.hits,
        "plan_misses": info.misses,
        "plans": info.currsize,
    }


def clear_plans() -> None:
    """Drop every cached compose plan and zero the counters of `plan_stats`."""
    global _compose_calls
    _plan.cache_clear()
    _compose_calls = 0


@cache
def _toeplitz_index(d: int, M: int) -> np.ndarray:
    """Index of T[(p, k), (q, i)] = a[q - p][i, k] into apad, the flattened
    modes of a d x d coefficient a padded by 2M zero modes on each side."""
    L = 2 * M + 1
    shift = (np.arange(L)[None, :] - np.arange(L)[:, None]) + 2 * M  # [p, q]
    ij = np.arange(d)
    t_idx = ((shift[:, None, :, None] * d + ij) * d + ij[:, None, None]).reshape(L * d, L * d)
    t_idx.flags.writeable = False
    return t_idx


def commutator(A: Symbol, B: Symbol, lo: int | None = None) -> Symbol:
    """A o B - B o A on the output orders >= lo, as for `compose`.  For
    scalar coefficients the k = 0 terms of the two products are identical
    pointwise products, so they are skipped rather than computed and
    cancelled; this keeps the commutator's rounding noise at the scale of
    the k >= 1 terms.  Matrix coefficients do not commute, so for d > 1
    every term is kept."""
    A._compatible(B)
    kmin = 1 if A.params.d == 1 else 0
    return _compose(A, B, kmin, lo) - _compose(B, A, kmin, lo)


def power(A: Symbol, n: int) -> Symbol:
    if n <= 0:
        raise ValueError(f"power expects a positive exponent, got {n}")
    out = A
    for _ in range(n - 1):
        out = compose(out, A)
    return out


def _constant_inverse(a0: Symbol) -> Symbol:
    """Inverse of a constant, invertible order-0 coefficient, in its precision.
    Constancy is read from the values, so a constant stored with a wider
    support still inverts."""
    params, c, M = a0.params, a0.c[0], a0.params.M
    if c[:M].any() or c[M + 1 :].any():
        raise ValueError("invert needs a constant order-0 coefficient")
    val = c[M]
    if not abs(val[0, 0] if params.d == 1 else np.linalg.det(val)) >= 1e-12:  # a NaN fails this test too
        raise ValueError("order-0 coefficient is not invertible")
    return Symbol.xi(params, 0, 1.0 / val if params.d == 1 else np.linalg.inv(val))


def invert(A: Symbol) -> Symbol:
    """Inverse of an order-0 symbol whose order-0 coefficient a_0 is an
    invertible constant (the dressings S = 1 + orders <= -1 have a_0 = 1);
    a non-constant a_0, or one whose determinant is below 1e-12 in modulus
    or NaN, raises ValueError.

    Writes A = a_0 (1 + R), R = a_0^{-1} A_- of orders <= -1, and sums the
    Neumann series of (-R)^k, each term -R times the one before, up to the
    first term that falls wholly below the floor (at most -floor terms).
    """
    params = A.params
    pos = A.band(lo=1).orders()
    if pos:
        raise ValueError(f"invert expects an order-0 symbol, found positive orders {pos}")
    a0 = A.band(0, 0)
    if a0.is_zero():
        raise ValueError("invert expects a nonzero order-0 coefficient")
    B0 = _constant_inverse(a0)
    A_neg = A.s_part()
    if A_neg.is_zero():
        return B0
    minus_R = -compose(B0, A_neg)
    inv = term = Symbol.identity(params)
    for _ in range(-params.floor):
        term = compose(minus_R, term)
        if term.is_zero():
            break
        inv = inv + term
    return compose(inv, B0)


def conj(S: Symbol, A: Symbol) -> Symbol:
    """Conjugation S o A o S^{-1}, evaluated as A + [S, A] o S^{-1}.

    The two expressions agree on the retained orders; the commutator form
    keeps the result's structure sharp (conjugating d/dx by an order-0
    dressing leaves the orders >= 0 untouched exactly, because the bracket
    has order <= -1)."""
    return A + compose(commutator(S, A), invert(S))


def largest(values) -> float:
    """The largest of nonnegative `values` (0.0 for none), NaN if any is NaN:
    Python's max drops a NaN that does not come first."""
    return float(np.max(list(values), initial=0.0))


def realize_matrix(A: Symbol, Mr: int) -> np.ndarray:
    """Matrix of A on the Fourier modes m in [-Mr, Mr] \\ {0}, d x d blocks.

    The action is e^{imx} |-> sum_n a_n(x) (im)^n e^{imx}, expanded on the
    mode basis and truncated to the block.  The zero mode is projected out
    so negative powers of xi are well defined; both sides of any comparison
    must use the same realization cutoff.
    """
    params = A.params
    if not 1 <= Mr <= params.M:
        raise ValueError(f"realization cutoff Mr={Mr} outside [1, M={params.M}]")
    d, M = params.d, params.M
    modes = np.concatenate([np.arange(-Mr, 0), np.arange(1, Mr + 1)])
    nmodes = modes.size
    # output mode minus input mode: |diff| <= 2Mr <= 2M indexes cpad's padding
    diffs = modes[:, None] - modes[None, :]
    blocks = np.zeros((nmodes, nmodes, d, d), dtype=complex)
    for n in A.orders():
        xi_pow = (1j * modes.astype(complex)) ** n  # per input mode
        cpad = np.zeros((4 * M + 1, d, d), dtype=complex)
        cpad[M : 3 * M + 1] = A.c[n - A.lo].astype(complex)
        conv = cpad[diffs + 2 * M]
        blocks += conv * xi_pow[None, :, None, None]
    return blocks.transpose(0, 2, 1, 3).reshape(nmodes * d, nmodes * d)


def hs_inner(A: Symbol, B: Symbol, Mr: int) -> complex:
    """Frobenius inner product trace(realize(A) realize(B)^H).

    Meaningful as a Hilbert-Schmidt pairing for symbols of order <= -1;
    warns otherwise, because non-smoothing orders make the value dominated
    by the realization cutoff.
    """
    for name, X in (("left", A), ("right", B)):
        top = X.order
        if top is not None and top > -1:
            warnings.warn(f"hs_inner: {name} symbol has order {top} > -1; the pairing is cutoff-dominated")
    Ra = realize_matrix(A, Mr)
    Rb = realize_matrix(B, Mr)
    return complex(np.trace(Ra @ Rb.conj().T))
