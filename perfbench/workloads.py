"""The benchmark's workloads.  Each has a set-up that builds its inputs from
the seed, a solve phase and a verify phase; the verify phase returns the
correctness checks of the solve phase's result.

Every kpsym call goes through the attributes of the `kpsym` package object
passed in, so that a traced run sees the wrappers installed on it.

The seed picks a quarter-turn rotation x -> x + k*pi/2 (k in 0..3) of a
workload's dressing, built from exact phases i^(m k) of its Fourier modes,
and, on jet-wide, the random perturbation of the Yang-Mills check.  A
rotated dressing is the same problem after a change of variable: the cost
of every operation is the same on every seed, and in the scalar paths the
checked residuals are bit for bit the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from checks import (
    block_checks,
    flow_checks,
    kp2_checks,
    lax_checks,
    yang_mills_checks,
    zero_curvature_checks,
)

# Yang-Mills cube of the acceptance suite: half-width 0.05 in (t1, t2),
# curvature entry (2, 3), realization cutoff Mr=24, 8 Gauss nodes per axis.
YM_ARGS = (0.05, 2, 2, 3, 24, 8)
FLOW_T = 0.01  # flows run to FLOW_T and 2*FLOW_T at dt = t/256
FLOW_DIRECTION = 2

_PHASE = (1, 1j, -1, -1j)

# Non-commuting matrix dressing of jet-matrix: order -> mode -> 2x2 matrix.
MATRIX_DRESSING = {
    -1: {
        0: [[0.0, 0.2], [0.0, 0.0]],
        1: [[0.5, 0.3j], [0.1, -0.5]],
        -1: [[0.5, -0.3j], [0.2, -0.5]],
    },
    -2: {
        2: [[0.1, 0.0], [0.2j, 0.1]],
        -2: [[0.1, 0.05], [0.0, 0.1]],
    },
}


@dataclass(frozen=True)
class Workload:
    setup: Callable  # (kpsym, seed) -> inputs
    solve: Callable  # (kpsym, inputs) -> result
    verify: Callable  # (kpsym, inputs, result) -> list of Check
    # A sub-second phase timed once varies by +-25% on a shared machine; such
    # a verify phase runs this many times per operation and its median counts.
    verify_reps: int = 1


def rotation(seed: int) -> int:
    return int(np.random.default_rng(seed).integers(4))


def rotated(kpsym, d: int, M: int, modes: dict, k: int):
    """LoopFn with the given mode table, rotated by x -> x + k*pi/2."""
    table = {m: np.asarray(v, dtype=complex) * _PHASE[(m * k) % 4] for m, v in modes.items()}
    return kpsym.LoopFn.from_modes(d, M, table)


def cos_dressing(kpsym, params, k: int = 0):
    """1 + cos(x + k*pi/2) xi^-1, times the identity when d > 1."""
    cos = rotated(kpsym, params.d, params.M, {1: 0.5, -1: 0.5}, k)
    return kpsym.Symbol.from_terms(params, {0: kpsym.LoopFn.const(params.d, params.M, 1.0), -1: cos})


# -- jet-wide: the desk-scale scalar jet in extended precision ----------------


def jet_wide_setup(kpsym, seed: int) -> dict:
    params = kpsym.TruncParams(wide=True)
    rng = np.random.default_rng(seed)
    k = int(rng.integers(4))
    bump = kpsym.LoopFn.random_trig(rng, params.M, 2, amp=1e-2)
    pert = kpsym.TSeries.monomial(params, (0, 1, 0), kpsym.Symbol(params, {-1: bump}))
    return {"params": params, "S0": cos_dressing(kpsym, params, k), "pert": pert}


def jet_wide_solve(kpsym, inp: dict):
    return kpsym.kp_solve(inp["S0"], inp["params"])


def jet_wide_verify(kpsym, inp: dict, jet) -> list:
    checks = lax_checks(kpsym, jet, "jet")
    Z_D, Z_S = kpsym.build_Z(jet)
    checks += zero_curvature_checks(kpsym, Z_D, Z_S)
    checks += kp2_checks(kpsym, jet)
    flat = kpsym.ym_value(Z_S, *YM_ARGS)
    perturbed = kpsym.ym_value(Z_S.add_term(3, inp["pert"]), *YM_ARGS)
    return checks + yang_mills_checks(flat, perturbed)


# -- flow-narrow: the double-precision t2 flow against its Taylor jet --------


def flow_narrow_setup(kpsym, seed: int) -> dict:
    params = kpsym.TruncParams()
    S0 = cos_dressing(kpsym, params, rotation(seed))
    return {"params": params, "L0": kpsym.conj_from(S0, params)}


def flow_narrow_solve(kpsym, inp: dict) -> list:
    return [
        kpsym.flow_delinearized(inp["L0"], FLOW_DIRECTION, t, t / 256).L
        for t in (2 * FLOW_T, FLOW_T)
    ]


def flow_narrow_verify(kpsym, inp: dict, states: list) -> list:
    coeffs = kpsym.taylor_jet(inp["L0"], FLOW_DIRECTION, inp["params"].V)
    jets = [kpsym.eval_taylor(coeffs, t) for t in (2 * FLOW_T, FLOW_T)]
    return flow_checks(*states, *jets, inp["params"].V)


# -- jet-matrix: d=2 jets in double precision at a reduced scale --------------


def jet_matrix_setup(kpsym, seed: int) -> dict:
    scale = dict(M=16, F=-8, g=6, V=4, K=3)
    p2 = kpsym.TruncParams(d=2, **scale)
    p1 = kpsym.TruncParams(d=1, **scale)
    k = rotation(seed)
    terms = {0: kpsym.LoopFn.const(2, p2.M, 1.0)}
    for order, modes in MATRIX_DRESSING.items():
        terms[order] = rotated(kpsym, 2, p2.M, modes, k)
    return {
        "p1": p1,
        "p2": p2,
        "S0_matrix": kpsym.Symbol.from_terms(p2, terms),
        "S0_embedded": cos_dressing(kpsym, p2),
        "S0_scalar": cos_dressing(kpsym, p1),
    }


def jet_matrix_solve(kpsym, inp: dict) -> tuple:
    return (
        kpsym.kp_solve(inp["S0_matrix"], inp["p2"]),
        kpsym.kp_solve(inp["S0_embedded"], inp["p2"]),
    )


def jet_matrix_verify(kpsym, inp: dict, jets: tuple) -> list:
    matrix, embedded = jets
    scalar = kpsym.kp_solve(inp["S0_scalar"], inp["p1"])
    return (
        lax_checks(kpsym, matrix, "matrix")
        + lax_checks(kpsym, embedded, "embedded")
        + block_checks(embedded.L, scalar.L)
    )


WORKLOADS = {
    "jet-wide": Workload(jet_wide_setup, jet_wide_solve, jet_wide_verify),
    "flow-narrow": Workload(flow_narrow_setup, flow_narrow_solve, flow_narrow_verify, verify_reps=8),
    "jet-matrix": Workload(jet_matrix_setup, jet_matrix_solve, jet_matrix_verify),
}
