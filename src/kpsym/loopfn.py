"""Matrix-valued smooth functions on the circle, stored as truncated Fourier series.

A LoopFn holds the coefficients c_m of f(x) = sum_{|m| <= M} c_m e^{imx},
each c_m a complex d x d matrix (clongdouble when built from extended
coefficients).  A product is a direct convolution of the modes in the
coefficients' precision, with no collocation grid: the retained band
|m| <= M is exact and modes beyond M are silently dropped.  Callers that
need exact identities must budget modes accordingly.
"""

from __future__ import annotations

import numpy as np

__all__ = ["LoopFn"]


def support(c: np.ndarray) -> np.ndarray:
    """Mode supports of coefficients c of shape (..., 2M+1, d, d), one per
    leading index: the smallest s with every nonzero mode in |m| <= s, 0
    when all are zero."""
    M = c.shape[-3] // 2
    return np.where(c.any(axis=(-2, -1)), np.abs(np.arange(-M, M + 1)), 0).max(-1)


class LoopFn:
    """Truncated Fourier series of a d x d matrix-valued function on S^1.
    The values are the only record of which modes are nonzero: `mmax` is
    measured from them, and a product leaves the modes beyond the sum of its
    operands' supports exactly zero."""

    __slots__ = ("d", "M", "c")

    def __init__(self, d: int, M: int, c: np.ndarray | None = None, real: bool = False):
        if d < 1 or M < 1:
            raise ValueError(f"need d >= 1 and M >= 1, got d={d}, M={M}")
        self.d = d
        self.M = M
        if c is None:
            c = np.zeros((2 * M + 1, d, d), dtype=complex)
        else:
            c = np.asarray(c)
            # keep extended-precision coefficients; promote everything else
            c = c.copy() if c.dtype == np.clongdouble else c.astype(complex)
            if c.shape != (2 * M + 1, d, d):
                raise ValueError(f"coefficient array must have shape {(2*M+1, d, d)}, got {c.shape}")
        self.c = c
        # real-valued f satisfies c_{-m} = conj(c_m)
        err = np.max(np.abs(c - np.conj(c[::-1]))) if real else 0.0
        if err > 1e-12:
            raise ValueError(f"coefficients violate the real-function symmetry by {err:.3e}")

    @property
    def mmax(self) -> int:
        """Mode support of the coefficients (see `support`)."""
        return int(support(self.c))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, d: int, M: int) -> "LoopFn":
        return cls(d, M)

    @classmethod
    def const(cls, d: int, M: int, value) -> "LoopFn":
        """Constant function; `value` is a scalar (times identity) or a d x d matrix."""
        return cls.from_modes(d, M, {0: value})

    @classmethod
    def from_modes(cls, d: int, M: int, table: dict, real: bool = False) -> "LoopFn":
        """Build from a mode -> coefficient map (scalar entries mean multiples of Id)."""
        c = np.zeros((2 * M + 1, d, d), dtype=complex)
        for m, v in table.items():
            if abs(m) > M:
                raise ValueError(f"mode {m} outside cutoff M={M}")
            v = np.asarray(v, dtype=complex)
            c[m + M] = v * np.eye(d) if v.ndim == 0 else v.reshape(d, d)
        return cls(d, M, c, real=real)

    @classmethod
    def cos(cls, M: int, k: int = 1, amp: float = 1.0, d: int = 1) -> "LoopFn":
        return cls.from_modes(d, M, {k: amp / 2, -k: amp / 2}, real=True)

    @classmethod
    def sin(cls, M: int, k: int = 1, amp: float = 1.0, d: int = 1) -> "LoopFn":
        return cls.from_modes(d, M, {k: amp / 2j, -k: -amp / 2j}, real=True)

    @classmethod
    def random_trig(cls, rng, M: int, max_mode: int, amp: float = 1.0, d: int = 1) -> "LoopFn":
        """Random real trigonometric polynomial with modes up to max_mode."""
        mm = min(max_mode, M)
        c = np.zeros((2 * M + 1, d, d), dtype=complex)
        for m in range(1, mm + 1):
            a = amp * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
            c[m + M] = a
            c[-m + M] = np.conj(a)
        c[M] = amp * rng.standard_normal((d, d)) * np.eye(d)
        return cls(d, M, c)

    # -- arithmetic --------------------------------------------------------

    def _compatible(self, other: "LoopFn") -> None:
        if self.d != other.d or self.M != other.M:
            raise ValueError(
                f"incompatible loop functions: (d={self.d}, M={self.M}) vs (d={other.d}, M={other.M})"
            )

    def __add__(self, other: "LoopFn") -> "LoopFn":
        self._compatible(other)
        return LoopFn(self.d, self.M, self.c + other.c)

    def __sub__(self, other: "LoopFn") -> "LoopFn":
        return self + (-other)

    def __neg__(self) -> "LoopFn":
        return LoopFn(self.d, self.M, -self.c)

    def __mul__(self, other):
        if not isinstance(other, LoopFn):
            return LoopFn(self.d, self.M, self.c * other)
        # direct mode convolution: for each mode p of self, one batched matmul
        # against the modes of other that land in |q| <= M
        self._compatible(other)
        M, d = self.M, self.d
        out = np.zeros((2 * M + 1, d, d), dtype=np.result_type(self.c, other.c))
        sa, sb = self.mmax, other.mmax
        for p in range(-sa, sa + 1):
            lo, hi = max(-M, -sb + p) - p, min(M, sb + p) - p
            out[lo + p + M : hi + p + M + 1] += np.matmul(
                np.broadcast_to(self.c[p + M], (hi - lo + 1, d, d)), other.c[lo + M : hi + M + 1]
            )
        return LoopFn(d, M, out)

    __rmul__ = __mul__  # number * f; f * g always runs f.__mul__

    def dx(self, k: int = 1) -> "LoopFn":
        """k-th derivative: mode m picks up (im)^k."""
        modes = np.arange(-self.M, self.M + 1)
        fac = (1j * modes) ** k
        return LoopFn(self.d, self.M, self.c * fac[:, None, None])

    def shift_x(self, tau: float) -> "LoopFn":
        """Pull back by the rotation x -> x + tau."""
        modes = np.arange(-self.M, self.M + 1)
        return LoopFn(self.d, self.M, self.c * np.exp(1j * modes * tau)[:, None, None])

    # -- evaluation and size -----------------------------------------------

    def eval_at(self, x: float) -> np.ndarray:
        modes = np.arange(-self.M, self.M + 1)
        return np.tensordot(np.exp(1j * modes * x), self.c, axes=(0, 0))

    def norm(self) -> float:
        """l2 norm of the coefficients (Frobenius per matrix)."""
        return float(np.linalg.norm(self.c))

    def is_zero(self, tol: float = 0.0) -> bool:
        return self.norm() <= tol

    def __repr__(self) -> str:
        nz = [int(m) for m in range(-self.M, self.M + 1) if np.any(np.abs(self.c[m + self.M]) > 1e-14)]
        return f"LoopFn(d={self.d}, M={self.M}, modes={nz[:8]}{'...' if len(nz) > 8 else ''})"
