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

Orders below the working floor F - g are dropped everywhere; algebraic
identities are only claimed on orders >= F.  The guard band g keeps the
reported band exact through the compositions used by the solvers.

Every composition, for any matrix size d and in both precisions, runs
through one kernel: a direct block-Toeplitz convolution of Fourier modes
(`_compose`).  The collocation grid is used only to invert order-0
coefficients pointwise.

The kernel's index work is cached as a plan (`_Plan`) per signature: d, M,
floor, deform factor, precision, lowest Leibniz order, and the orders and
mode supports of both operands.  Narrow and wide mode build and use plans
the same way; only the inner convolution differs.  Plans add their blocks
of rows in the order of the Leibniz sum, which keeps every result
bit-identical to a row-by-row scatter.  The 32 most recently used plans are
kept; `plan_stats` reports the cache's use.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import lru_cache
from math import factorial

import numpy as np

from .loopfn import LoopFn, from_grid, grid_size, to_grid

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
    "split_DS",
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
        if self.V < 1 or self.K < 1 or self.g < 0:
            raise ValueError("need V >= 1, K >= 1, g >= 0")
        if self.deform == 0.0:
            raise ValueError("deform factor must be nonzero")
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

    def with_deform(self, eps: float) -> "TruncParams":
        return replace(self, deform=eps)

    def with_wide(self, wide: bool) -> "TruncParams":
        return replace(self, wide=wide)


class Symbol:
    """Finite sum a = sum_{floor <= n} a_n(x) xi^n with LoopFn coefficients."""

    __slots__ = ("params", "a")

    def __init__(self, params: TruncParams, a: dict | None = None):
        self.params = params
        self.a = {}
        if a:
            for n, f in a.items():
                self._check_coeff(n, f)
                self.a[int(n)] = f.copy()

    def _check_coeff(self, n: int, f: LoopFn) -> None:
        if n < self.params.floor:
            raise ValueError(f"order {n} below working floor {self.params.floor}")
        if f.d != self.params.d or f.M != self.params.M:
            raise ValueError("coefficient does not match params (d, M)")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, params: TruncParams) -> "Symbol":
        return cls(params)

    @classmethod
    def identity(cls, params: TruncParams) -> "Symbol":
        return cls(params, {0: LoopFn.const(params.d, params.M, 1.0)})

    @classmethod
    def xi(cls, params: TruncParams, n: int = 1, coeff=1.0) -> "Symbol":
        """coeff * xi^n with a constant coefficient."""
        return cls(params, {n: LoopFn.const(params.d, params.M, coeff)})

    @classmethod
    def from_terms(cls, params: TruncParams, terms: dict) -> "Symbol":
        return cls(params, terms)

    def copy(self) -> "Symbol":
        return Symbol(self.params, self.a)

    # -- structure ---------------------------------------------------------

    def coeff(self, n: int) -> LoopFn:
        f = self.a.get(n)
        return f.copy() if f is not None else LoopFn.zero(self.params.d, self.params.M)

    def orders(self) -> list:
        return sorted(self.a)

    @property
    def order(self):
        """Highest order carrying a nonzero coefficient (None for the zero symbol)."""
        live = [n for n in self.a if not self.a[n].is_zero()]
        return max(live) if live else None

    def is_zero(self, tol: float = 0.0) -> bool:
        return all(f.norm() <= tol for f in self.a.values())

    def prune(self) -> "Symbol":
        """Drop exactly-zero coefficients in place."""
        for n in [n for n, f in self.a.items() if f.is_zero()]:
            del self.a[n]
        return self

    def norm(self, floor: int | None = None) -> float:
        """l2 norm of coefficients over orders >= floor (default: reported floor F)."""
        if floor is None:
            floor = self.params.F
        return float(np.sqrt(sum(f.norm() ** 2 for n, f in self.a.items() if n >= floor)))

    def sup_norm(self) -> float:
        return max((f.sup_norm() for f in self.a.values()), default=0.0)

    def eval_sym(self, x: float, xi: complex) -> np.ndarray:
        """Total symbol value sum_n a_n(x) xi^n at a point of the cotangent fiber."""
        out = np.zeros((self.params.d, self.params.d), dtype=complex)
        for n, f in self.a.items():
            out += f.eval_at(x) * xi**n
        return out

    def _compatible(self, other: "Symbol") -> None:
        p, q = self.params, other.params
        if (p.d, p.M, p.F, p.g, p.deform, p.wide) != (q.d, q.M, q.F, q.g, q.deform, q.wide):
            raise ValueError("incompatible truncation parameters")

    def narrow(self) -> "Symbol":
        """Copy with double-precision coefficients and wide mode off."""
        params = self.params.with_wide(False)
        return Symbol(
            params,
            {n: LoopFn(f.d, f.M, f.c.astype(complex), mmax=f.mmax) for n, f in self.a.items()},
        )

    def widen(self) -> "Symbol":
        """Copy with extended-precision coefficients and wide mode on."""
        params = self.params.with_wide(True)
        return Symbol(
            params,
            {n: LoopFn(f.d, f.M, f.c.astype(np.clongdouble), mmax=f.mmax) for n, f in self.a.items()},
        )

    # -- linear operations ---------------------------------------------------

    def __add__(self, other: "Symbol") -> "Symbol":
        self._compatible(other)
        out = self.copy()
        for n, f in other.a.items():
            out.a[n] = out.a[n] + f if n in out.a else f.copy()
        return out

    def __sub__(self, other: "Symbol") -> "Symbol":
        return self + (-other)

    def __neg__(self) -> "Symbol":
        return Symbol(self.params, {n: -f for n, f in self.a.items()})

    def scale(self, c) -> "Symbol":
        return Symbol(self.params, {n: f * c for n, f in self.a.items()})

    def map_coeffs(self, fn) -> "Symbol":
        """Apply fn to every coefficient (e.g. LoopFn.dx)."""
        return Symbol(self.params, {n: fn(f) for n, f in self.a.items()})

    def mode_filter(self, mmax: int) -> "Symbol":
        """Drop coefficient modes beyond |m| = mmax (spectral cutoff)."""
        out = {}
        for n, f in self.a.items():
            out[n] = LoopFn(f.d, f.M, f.c, mmax=min(f.mmax, mmax))
        return Symbol(self.params, out)

    def scale_orders(self, h: float) -> "Symbol":
        """xi -> h.xi: order-n coefficient picks up h^n."""
        return Symbol(self.params, {n: f * (h**float(n)) for n, f in self.a.items()})

    def __mul__(self, other):
        if isinstance(other, Symbol):
            return compose(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __repr__(self) -> str:
        return f"Symbol(orders={self.orders()})"

    # -- projections ---------------------------------------------------------

    def d_part(self) -> "Symbol":
        return Symbol(self.params, {n: f for n, f in self.a.items() if n >= 0})

    def s_part(self) -> "Symbol":
        return Symbol(self.params, {n: f for n, f in self.a.items() if n <= -1})


def _is_plain_identity(A: Symbol) -> bool:
    if set(A.a) != {0}:
        return False
    c = A.a[0].c
    d, M = A.params.d, A.params.M
    ident = np.zeros_like(c)
    ident[M] = np.eye(d)
    return bool(np.array_equal(c, ident))


def _live_orders(A: Symbol) -> list:
    return [n for n in sorted(A.a) if not A.a[n].is_zero()]


def compose(A: Symbol, B: Symbol) -> Symbol:
    """Leibniz composition, truncated below the working floor.

    The k-th term scales coefficients by eps^k/k! times the falling factorial
    n(n-1)...(n-k+1) of the left order, and differentiates the right
    coefficient k times.  The k sum stops once the output order n + m - k
    falls below the floor, so it is finite even for negative left orders.
    Every matrix size d runs through the same direct block-Toeplitz mode
    convolution (see `_compose`).
    """
    A._compatible(B)
    _PLANS.compose_calls += 1
    params = A.params
    if _is_plain_identity(A):
        return B.copy()
    if _is_plain_identity(B):
        return A.copy()

    a_orders, b_orders = _live_orders(A), _live_orders(B)
    if not a_orders or not b_orders:
        return Symbol.zero(params)
    return _compose(A, B, a_orders, b_orders)


def _compose(A: Symbol, B: Symbol, a_orders, b_orders, kmin: int = 0) -> Symbol:
    """Leibniz terms k >= kmin of A o B by direct (block-Toeplitz) mode convolution.

    Each right coefficient b_m is stored as d rows, one per column j, of
    length (2M+1)d laid out as (mode p, row k).  Right-multiplying that stack
    by T_n[(p, k), (q, i)] = a_n[q - p][i, k] gives the modes of the
    pointwise product a_n b_m, truncated to |q| <= M, with the matrix order
    kept.  Convolving directly keeps rounding noise local per output mode; an
    FFT round-trip would smear each row's largest coefficient across the
    whole band, and the (im)^k derivative factors of later compositions
    amplify exactly that high-mode junk.  In wide mode (d = 1 only) the
    convolution runs row by row in extended precision with exact integer
    falling factorials.

    Everything that depends only on the orders and supports of A and B comes
    from a cached `_Plan`; per call this fills the derivative stack, runs one
    gather and one product per left order, and adds each (n, k) block of
    rows into its output orders as a slice.
    """
    params = A.params
    d, M, wide = params.d, params.M, params.wide
    key = (
        d, M, params.floor, params.deform, wide, kmin, tuple(a_orders), tuple(b_orders),
        tuple(A.a[n].mmax for n in a_orders), tuple(B.a[m].mmax for m in b_orders),
    )
    plan = _PLANS.get(key)
    if plan is None:
        return Symbol.zero(params)

    L = 2 * M + 1
    dt = np.clongdouble if wide else complex
    fb = b_orders[0]
    b_modes = np.zeros((b_orders[-1] - fb + 1, d, L, d), dtype=dt)  # (order, column j, mode p, row k)
    for m in b_orders:
        b_modes[m - fb] = B.a[m].c.transpose(2, 0, 1)
    modes = np.arange(-M, M + 1).astype(dt)
    dpow = (1j * modes) ** np.arange(plan.kmax + 1)[:, None]  # (k, mode)
    bk = (b_modes[None] * dpow[:, None, None, :, None]).reshape(-1, L * d)

    out = np.zeros((plan.nq, d * L * d), dtype=dt)
    if not wide:
        t_idx = _toeplitz_index(d, M)
        apad = np.zeros((4 * M + 1) * d * d, dtype=dt)
    for n, s, rows, weights, blocks in plan.steps:
        stack = bk[rows]
        fn = A.a[n]
        if wide:
            # no BLAS in extended precision: a row loop of np.convolve over
            # the support of a_n beats a longdouble matmul
            ker = fn.c[M - s : M + s + 1, 0, 0].astype(dt)
            conv = np.empty((stack.shape[0], L), dtype=dt)
            for r in range(stack.shape[0]):
                conv[r] = np.convolve(stack[r], ker)[s : s + L]
        else:
            apad[M * d * d : (3 * M + 1) * d * d] = fn.c.ravel()
            conv = stack @ apad[t_idx]
        conv *= weights[:, None]
        conv = conv.reshape(-1, d * L * d)
        for t0, t1, r0, r1 in blocks.tolist():
            out[t0:t1] += conv[r0:r1]

    terms = {}
    for q, support in plan.terms.tolist():
        coeffs = out[q - plan.q_lo].reshape(d, L, d).transpose(1, 2, 0)
        terms[q] = LoopFn(d, M, coeffs, mmax=support)
    return Symbol(params, terms)


class _Plan:
    """What `_compose` needs beyond the coefficient values, for one signature
    (d, M, floor, deform, wide, kmin, left and right orders and supports).

    - kmax: the highest Leibniz order k taken; q_lo, nq: the output order
      range floor .. q_lo + nq - 1.
    - steps: one (n, mmax of a_n, rows, weights, blocks) per left order n
      with a term in range.  `rows` indexes the flattened derivative stack
      (k, right order m, column j) in (k, m) order; `weights` holds the real
      factor eps^k/k! n(n-1)...(n-k+1) of each row; `blocks` holds one
      row (t0, t1, r0, r1) per k: row groups r0:r1 add into output orders
      q_lo + t0 .. q_lo + t1 - 1, a row group being the d rows of one m.
    - terms: rows (output order, mode support) of every output order reached.

    Blocks are added in the (n, k) order of the Leibniz sum.  Within a block
    the output orders are distinct, so each output coefficient receives its
    terms in the same order as a one-row-at-a-time scatter would give it.
    Index arrays are int32 and weights real: the 32 cached plans of a
    desk-scale flow take about 0.8 MB.
    """

    __slots__ = ("kmax", "q_lo", "nq", "steps", "terms")

    def __init__(self, d, M, floor, eps, wide, kmin, a_orders, b_orders, a_sup, b_sup):
        fb, nb = b_orders[0], b_orders[-1]
        nB = nb - fb + 1
        self.kmax = max((n + nb - floor if n < 0 else min(n, n + nb - floor)) for n in a_orders)
        self.q_lo = floor
        self.nq = max(a_orders[-1] + nb - floor + 1, 0)
        sb = np.zeros(nB, dtype=int)
        sb[np.subtract(b_orders, fb)] = b_sup
        support = np.full(self.nq, -1, dtype=int)
        self.steps = []
        for n, s in zip(a_orders, a_sup):
            kcap = n + nb - floor
            if n >= 0:
                kcap = min(kcap, n)
            rows, weights, blocks = [], [], []
            r0, fall = 0, 1
            for k in range(kcap + 1):
                if k > 0:
                    fall *= n - (k - 1)
                if fall == 0:
                    break
                if k < kmin:
                    continue
                m_lo = max(fb, floor - n + k)
                if m_lo > nb:
                    continue
                if wide:
                    w = (np.clongdouble(fall) * np.clongdouble(eps) ** k / np.clongdouble(factorial(k))).real
                else:
                    w = fall * eps**k / factorial(k)
                count = nb - m_lo + 1
                rows.append(np.arange((k * nB + m_lo - fb) * d, (k + 1) * nB * d, dtype=np.int32))
                weights.append(np.full(count * d, w, dtype=np.longdouble if wide else float))
                t0 = n - k + m_lo - floor
                blocks.append((t0, t0 + count, r0, r0 + count))
                r0 += count
                support[t0 : t0 + count] = np.maximum(support[t0 : t0 + count], s + sb[m_lo - fb :])
            if blocks:
                self.steps.append((n, s, np.concatenate(rows), np.concatenate(weights), np.array(blocks, dtype=np.int32)))
        live = np.flatnonzero(support >= 0)
        self.terms = np.stack([live + floor, support[live]], axis=1).astype(np.int32)


# Plans kept at once.  A flow right-hand side reuses a handful of signatures
# thousands of times; the verify phase of a Taylor jet alone makes 63.
_PLAN_CAPACITY = 32


class _PlanCache:
    """Compose plans by signature, at most _PLAN_CAPACITY of them (the least
    recently used goes first), with counters for `plan_stats`."""

    def __init__(self):
        self.clear()

    def clear(self) -> None:
        self.plans = {}
        self.compose_calls = self.hits = self.misses = 0

    def get(self, key) -> _Plan | None:
        """The plan of a `_compose` key; None when no Leibniz term is in range."""
        try:
            plan = self.plans.pop(key)
            self.hits += 1
        except KeyError:
            self.misses += 1
            plan = _Plan(*key)
            if len(self.plans) >= _PLAN_CAPACITY:
                del self.plans[next(iter(self.plans))]
        self.plans[key] = plan
        return plan if plan.kmax >= 0 else None


_PLANS = _PlanCache()


def plan_stats() -> dict:
    """Calls of `compose`, compose-plan cache hits and misses since the last
    `clear_plans`, and the number of plans held."""
    return {
        "compose_calls": _PLANS.compose_calls,
        "plan_hits": _PLANS.hits,
        "plan_misses": _PLANS.misses,
        "plans": len(_PLANS.plans),
    }


def clear_plans() -> None:
    """Drop every cached compose plan and zero the counters of `plan_stats`."""
    _PLANS.clear()


@lru_cache(maxsize=8)
def _toeplitz_index(d: int, M: int) -> np.ndarray:
    """Index of T[(p, k), (q, i)] = a[q - p][i, k] into apad, the flattened
    modes of a d x d coefficient a padded by 2M zero modes on each side."""
    L = 2 * M + 1
    shift = (np.arange(L)[None, :] - np.arange(L)[:, None]) + 2 * M  # [p, q]
    ij = np.arange(d)
    t_idx = ((shift[:, None, :, None] * d + ij) * d + ij[:, None, None]).reshape(L * d, L * d)
    t_idx.flags.writeable = False
    return t_idx


def commutator(A: Symbol, B: Symbol) -> Symbol:
    """A o B - B o A.  For scalar coefficients the k = 0 terms of the two
    products are identical pointwise products, so they are skipped rather
    than computed and cancelled; this keeps the commutator's rounding noise
    at the scale of the k >= 1 terms.  Matrix coefficients do not commute,
    so for d > 1 every term is kept."""
    A._compatible(B)
    a_orders, b_orders = _live_orders(A), _live_orders(B)
    if not a_orders or not b_orders:
        return Symbol.zero(A.params)
    kmin = 1 if A.params.d == 1 else 0
    return _compose(A, B, a_orders, b_orders, kmin) - _compose(B, A, b_orders, a_orders, kmin)


def split_DS(A: Symbol) -> tuple:
    """(differential part: orders >= 0, smoothing-direction part: orders <= -1)."""
    return A.d_part(), A.s_part()


def power(A: Symbol, n: int) -> Symbol:
    if n <= 0:
        raise ValueError(f"power expects a positive exponent, got {n}")
    out = A.copy()
    for _ in range(n - 1):
        out = compose(out, A)
    return out


def _pointwise_inverse(f: LoopFn) -> LoopFn:
    """Multiplicative inverse of an invertible function, truncated to |m| <= M."""
    if f.mmax == 0:
        v = f.c[f.M]
        if f.d == 1:
            if abs(v[0, 0]) < 1e-12:
                raise ValueError("order-0 coefficient vanishes")
            return LoopFn.const(f.d, f.M, 1.0 / v[0, 0])
        if abs(np.linalg.det(v)) < 1e-12:
            raise ValueError("order-0 coefficient is singular")
        return LoopFn.const(f.d, f.M, np.linalg.inv(v))
    P = grid_size(f.M)
    vals = to_grid(f.c, f.M, P)
    if f.d == 1:
        mags = np.abs(vals[:, 0, 0])
        if np.min(mags) < 1e-12:
            raise ValueError("order-0 coefficient vanishes at a collocation point")
        inv = 1.0 / vals
    else:
        dets = np.abs(np.linalg.det(vals))
        if np.min(dets) < 1e-12:
            raise ValueError("order-0 coefficient is singular at a collocation point")
        inv = np.linalg.inv(vals)
    return LoopFn(f.d, f.M, from_grid(inv, f.M, P))


def invert(A: Symbol) -> Symbol:
    """Inverse of an order-0 symbol with pointwise-invertible leading coefficient.

    Writes A = a_0 (1 + a_0^{-1} A_-) and sums the Neumann series of the
    strictly-negative-order part, which is nilpotent below the floor.
    """
    params = A.params
    pos = [n for n in A.a if n > 0 and not A.a[n].is_zero()]
    if pos:
        raise ValueError(f"invert expects an order-0 symbol, found positive orders {sorted(pos)}")
    a0 = A.a.get(0)
    if a0 is None or a0.is_zero():
        raise ValueError("invert expects a nonzero order-0 coefficient")
    B0 = Symbol(params, {0: _pointwise_inverse(a0)})
    A_neg = A.s_part()
    if A_neg.is_zero():
        return B0
    R = compose(B0, A_neg)
    inv = Symbol.identity(params)
    term = Symbol.identity(params)
    for _ in range(-params.floor):
        term = compose(-R, term)
        term.prune()
        if not term.a:
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


def realize_matrix(A: Symbol, Mr: int) -> np.ndarray:
    """Matrix of A on the Fourier modes m in [-Mr, Mr] \\ {0}, d x d blocks.

    The action is e^{imx} |-> sum_n a_n(x) (im)^n e^{imx}, expanded on the
    mode basis and truncated to the block.  The zero mode is projected out
    so negative powers of xi are well defined; both sides of any comparison
    must use the same realization cutoff.
    """
    params = A.params
    if Mr > params.M:
        raise ValueError(f"realization cutoff Mr={Mr} exceeds mode cutoff M={params.M}")
    d, M = params.d, params.M
    modes = np.concatenate([np.arange(-Mr, 0), np.arange(1, Mr + 1)])
    nmodes = modes.size
    diffs = modes[:, None] - modes[None, :]  # output mode minus input mode
    in_band = np.abs(diffs) <= M
    blocks = np.zeros((nmodes, nmodes, d, d), dtype=complex)
    for n, f in A.a.items():
        xi_pow = (1j * modes.astype(complex)) ** n  # per input mode
        cpad = np.zeros((4 * M + 1, d, d), dtype=complex)
        cpad[M : 3 * M + 1] = f.c.astype(complex)
        conv = cpad[np.where(in_band, diffs + 2 * M, 0)]
        conv[~in_band] = 0.0
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
