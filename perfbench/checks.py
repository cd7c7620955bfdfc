"""Correctness checks of the benchmark, each a property the method must have
or a comparison with an independent computation.

A check is a named value compared with an acceptance tolerance.  Its
`ratio` is value/tol for an upper bound and tol/value for a lower bound, so
a check passes exactly when its ratio is at most 1 and the largest ratio of
a run is the benchmark's `resid_over_tol_max`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

import numpy as np

# Acceptance tolerances of the kpsym acceptance suite (tests/test_acceptance.py).
LAX_TOL = 1e-9  # Lax residuals, conjugation routes, zero curvature, KP-II
YM_RATIO_TOL = 1e-4  # flat Yang-Mills value over a perturbed one
FLOW_RATIO_FACTOR = 0.7  # flow/jet error ratio >= 0.7 * 2^(V+1)


@dataclass(frozen=True)
class Check:
    name: str
    value: float
    tol: float
    upper: bool = True  # value <= tol when True, value >= tol otherwise

    @property
    def passed(self) -> bool:
        return self.value <= self.tol if self.upper else self.value >= self.tol

    @property
    def ratio(self) -> float:
        if self.upper:
            return self.value / self.tol
        return self.tol / self.value if self.value > 0 else inf


def lax_checks(kpsym, jet, label: str) -> list:
    """Lax residuals t1..tK (both right-hand-side forms) and agreement of the
    two conjugation routes S L0 S^-1 and Y L0 Y^-1."""
    out = [
        Check(f"{label}/kp-residual-t{n}", kpsym.kp_residual(jet, n), LAX_TOL)
        for n in range(1, jet.params.K + 1)
    ]
    out.append(Check(f"{label}/conj-consistency", kpsym.conj_consistency(jet), LAX_TOL))
    return out


def zero_curvature_checks(kpsym, Z_D, Z_S) -> list:
    """Zakharov-Shabat residuals of every time pair in both forms."""
    K = Z_D.K
    raw_S = -Z_S
    out = []
    for m in range(1, K + 1):
        for n in range(m + 1, K + 1):
            out.append(Check(f"zs/d-form-{m}{n}", kpsym.zs_residual(Z_D, m, n, +1), LAX_TOL))
            out.append(Check(f"zs/s-form-{m}{n}", kpsym.zs_residual(raw_S, m, n, -1), LAX_TOL))
    return out


def kp2_checks(kpsym, jet) -> list:
    """Degree-1 KP-II equations for the time pairs (1,2), (1,3), (2,3)."""
    return [
        Check("kp2/t12", kpsym.check_t12(jet), LAX_TOL),
        Check("kp2/t13", kpsym.check_t13(jet), LAX_TOL),
        Check("kp2/t23", kpsym.check_t23(jet), LAX_TOL),
    ]


def yang_mills_checks(flat: float, perturbed: float) -> list:
    """The flat connection's Yang-Mills value, a quadrature of squared
    norms and so never negative, is below 1e-4 of a perturbed value."""
    ratio = flat / perturbed if flat >= 0 and perturbed > 0 else inf
    return [Check("ym/flat-over-perturbed", ratio, YM_RATIO_TOL)]


def flow_checks(flow_2t, flow_t, jet_2t, jet_t, V: int) -> list:
    """Numeric flow states at 2t and t against the Taylor jet of the same
    flow evaluated there.  The deviation falls by at least 0.7 * 2^(V+1)
    when t halves, and at t the KP-II coefficients u_-1, u_-2 (orders -1 and
    -2) of flow and jet agree within the Lax tolerance.  The full deviation
    is dominated by the floor order and is far larger than that."""
    gap = flow_t - jet_t
    err_2t, err_t = (flow_2t - jet_2t).norm(), gap.norm()
    ratio = err_2t / err_t if err_t > 0 else inf
    u_dev = max(gap.coeff(-1).norm(), gap.coeff(-2).norm())
    return [
        Check("flow/jet-ratio", ratio, FLOW_RATIO_FACTOR * 2 ** (V + 1), upper=False),
        Check("flow/u-deviation-t", u_dev, LAX_TOL),
    ]


def block_checks(embedded, scalar) -> list:
    """L of the identity-embedded d=2 jet against L of the d=1 jet: on every
    monomial and reported order, both diagonal blocks equal the scalar
    coefficient and the off-diagonal blocks vanish."""
    params = embedded.params
    a_all, b_all = _coeffs(embedded), _coeffs(scalar)
    zero = np.zeros((2 * params.M + 1, 2, 2))
    diag = offdiag = 0.0
    for key in a_all.keys() | b_all.keys():
        a = a_all.get(key, zero)
        b = b_all[key][:, 0, 0] if key in b_all else zero[:, 0, 0]
        diag = max(diag, _l2(a[:, 0, 0] - b), _l2(a[:, 1, 1] - b))
        offdiag = max(offdiag, _l2(a[:, 0, 1]), _l2(a[:, 1, 0]))
    return [
        Check("block/diagonal-equals-d1", diag, LAX_TOL),
        Check("block/offdiagonal-zero", offdiag, LAX_TOL),
    ]


def _coeffs(X) -> dict:
    """(monomial, order) -> coefficient array, over the reported orders >= F."""
    F = X.params.F
    return {(mono, n): f.c for mono, sym in X.terms.items() for n, f in sym.a.items() if n >= F}


def _l2(x) -> float:
    return float(np.linalg.norm(x))
