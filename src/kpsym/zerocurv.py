"""Zero-curvature residuals and the Yang-Mills functional on connection
one-forms with series coefficients.

A solved jet yields the one-form with components L^k split into a
differential part Z_D and a smoothing-direction part Z_S (sign folded in so
that Z_D - Z_S reconstructs L^k).  Both parts satisfy F = d theta - [theta,
theta] = 0, where the bracket convention absorbs the usual 1/2: F_{i,j} =
d_i theta_j - d_j theta_i - [theta_i, theta_j].  The Yang-Mills value
integrates the squared Frobenius norm of a realized curvature entry over a
cube of times, so it vanishes exactly on flat connections and is strictly
positive otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .factorization import KPJet
from .symbol import realize_matrix
from .tseries import TSeries, ddt, eval_t, tcommutator

__all__ = ["ConnForm", "build_Z", "zs_residual", "curvature_entry", "ym_value"]


@dataclass
class ConnForm:
    """One-form sum_k W_k dt_k; components share truncation parameters."""

    components: dict  # k (1-based) -> TSeries

    def __post_init__(self):
        if not self.components:
            raise ValueError("connection form needs at least one component")
        params = next(iter(self.components.values())).params
        for k, W in self.components.items():
            if W.params != params:
                raise ValueError(f"component {k} has mismatched parameters")
        self.params = params

    @property
    def K(self) -> int:
        return self.params.K

    def component(self, k: int) -> TSeries:
        return self.components.get(k) or TSeries.zero(self.params)

    def __neg__(self) -> "ConnForm":
        return ConnForm({k: -W for k, W in self.components.items()})

    def add_term(self, k: int, X: TSeries) -> "ConnForm":
        out = dict(self.components)
        out[k] = self.component(k) + X
        return ConnForm(out)


def build_Z(jet: KPJet) -> tuple:
    """(Z_D, Z_S) with components pi_D(L^k) and -pi_S(L^k), k = 1..K, so that
    Z_D,k - Z_S,k = L^k, read from the jet's powers."""
    zd, zs = {}, {}
    for k, pw in enumerate(jet.powers, 1):
        zd[k], zs[k] = pw.d_part(), -pw.s_part()
    return ConnForm(zd), ConnForm(zs)


def zs_residual(W: ConnForm, m: int, n: int, sign: int) -> float:
    """Norm of d W_n / d t_m - d W_m / d t_n - sign [W_m, W_n] over
    valuations <= V - max(m, n): the curvature entry (m, n) of sign . W.

    The differential components satisfy this with sign +1; the raw
    smoothing-direction components pi_S(L^k) satisfy it with sign -1.
    """
    K = W.K
    if not (1 <= m <= K and 1 <= n <= K) or m == n:
        raise ValueError(f"need distinct flow indices in [1, {K}], got ({m}, {n})")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    theta = W if sign == 1 else ConnForm({k: -W.component(k) for k in (m, n)})
    return curvature_entry(theta, m, n).norm()


def curvature_entry(theta: ConnForm, i: int, j: int) -> TSeries:
    """F_{i,j} = d_i theta_j - d_j theta_i - [theta_i, theta_j] (1/2 absorbed)
    over valuations <= V - max(i, j), the ones the truncated form determines."""
    cap = theta.params.V - max(i, j)
    ti, tj = theta.component(i), theta.component(j)
    return ddt(tj, i).capped(cap) - ddt(ti, j).capped(cap) - tcommutator(ti.capped(cap), tj.capped(cap))


def ym_value(theta: ConnForm, k: float, n: int, i: int, j: int, Mr: int, Q: int = 8) -> float:
    """Integral over the cube [-k, k]^n (times t_1..t_n, the rest zero) of
    trace(F_{i,j} F_{i,j}^H), by tensor-product Gauss-Legendre quadrature.

    Q nodes per axis integrate the polynomial time dependence exactly once
    Q exceeds the retained degree; the realization cutoff Mr fixes the
    Hilbert-Schmidt discretization, so values are comparable only at equal Mr.
    """
    params = theta.params
    K = params.K
    if not (1 <= i < j <= K):
        raise ValueError(f"need 1 <= i < j <= {K}, got ({i}, {j})")
    if not 1 <= n <= K:
        raise ValueError(f"cube dimension must lie in [1, {K}], got {n}")
    if not 1 <= Mr <= params.M:
        raise ValueError(f"realization cutoff {Mr} outside [1, M={params.M}]")
    if k <= 0 or Q < 1:
        raise ValueError("need cube half-width k > 0 and at least one node")
    F = curvature_entry(theta, i, j).map_coeffs(lambda s: s.band(lo=params.F))
    nodes, weights = np.polynomial.legendre.leggauss(Q)
    nodes = nodes * k
    weights = weights * k
    total = 0.0
    for combo in product(range(Q), repeat=n):
        t = [0.0] * K
        w = 1.0
        for axis, q in enumerate(combo):
            t[axis] = nodes[q]
            w *= weights[q]
        Ft = eval_t(F, t)
        R = realize_matrix(Ft, Mr)
        total += w * float(np.sum(np.abs(R) ** 2))
    return total

