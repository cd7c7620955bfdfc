"""Each correctness check of the benchmark passes on a correct result and
rejects a deliberately perturbed one.  The results come from reduced-scale
problems of the same kinds as the workloads, so the tests run in seconds."""

from dataclasses import replace

import numpy as np
import pytest

import checks
import kpsym
import workloads
from kpsym import LoopFn, Symbol, TMono, TruncParams

SMALL = dict(M=16, F=-8, g=6, V=4, K=3)


def failing(found: list) -> list:
    return [c.name for c in found if not c.passed]


def nudge(X, mono, order: int, size: float = 1e-6, entry=(0, 0)):
    """Copy of the series X with modes 1 and -1 of one coefficient moved by
    `size`, on one matrix entry when d > 1."""
    p = X.params
    bump = np.zeros((p.d, p.d))
    bump[entry] = size
    out = X.copy()
    out.terms[TMono(mono)] = out.term(mono) + Symbol(p, {order: LoopFn.from_modes(p.d, p.M, {1: bump, -1: bump})})
    return out


@pytest.fixture(scope="module")
def params():
    return TruncParams(**SMALL)


@pytest.fixture(scope="module")
def jet(params):
    return kpsym.kp_solve(workloads.cos_dressing(kpsym, params), params)


@pytest.fixture(scope="module")
def bad_jet(jet):
    return replace(jet, L=nudge(jet.L, (1, 0, 0), -1))


def test_check_ratio_and_direction():
    assert checks.Check("a", 2e-10, 1e-9).ratio == pytest.approx(0.2)
    assert checks.Check("a", 2e-9, 1e-9).passed is False
    low = checks.Check("b", 200.0, 100.0, upper=False)
    assert low.passed and low.ratio == pytest.approx(0.5)
    assert not checks.Check("b", 50.0, 100.0, upper=False).passed


def test_lax_checks_reject_a_nudged_monomial_of_L(jet, bad_jet):
    assert failing(checks.lax_checks(kpsym, jet, "jet")) == []
    bad = failing(checks.lax_checks(kpsym, bad_jet, "jet"))
    assert "jet/kp-residual-t1" in bad and "jet/conj-consistency" in bad


def test_zero_curvature_checks_reject_a_nudged_monomial_of_L(jet, bad_jet):
    assert failing(checks.zero_curvature_checks(kpsym, *kpsym.build_Z(jet))) == []
    assert failing(checks.zero_curvature_checks(kpsym, *kpsym.build_Z(bad_jet)))


def test_kp2_checks_reject_a_nudged_u1(jet, bad_jet):
    assert failing(checks.kp2_checks(kpsym, jet)) == []
    assert "kp2/t12" in failing(checks.kp2_checks(kpsym, bad_jet))


def test_yang_mills_check_rejects_a_curved_connection(jet, params):
    ym = (0.05, 2, 2, 3, 8, 4)
    _, Z_S = kpsym.build_Z(jet)

    def bumped(amp):
        bump = Symbol(params, {-1: LoopFn.cos(params.M, 2, amp)})
        return Z_S.add_term(3, kpsym.TSeries.monomial(params, (0, 1, 0), bump))

    perturbed = kpsym.ym_value(bumped(1e-2), *ym)
    assert failing(checks.yang_mills_checks(kpsym.ym_value(Z_S, *ym), perturbed)) == []
    # a connection curved by a tenth of the perturbation is not flat
    assert failing(checks.yang_mills_checks(kpsym.ym_value(bumped(1e-3), *ym), perturbed))
    assert failing(checks.yang_mills_checks(-1e-30, perturbed))


@pytest.fixture(scope="module")
def flow():
    # the desk floor and V at M=16, stepped at t/32 rather than t/256
    p = TruncParams(M=16, F=-10, g=8, V=6, K=3)
    L0 = kpsym.conj_from(workloads.cos_dressing(kpsym, p), p)
    t = workloads.FLOW_T
    states = [kpsym.flow_delinearized(L0, 2, s, s / 32).L for s in (2 * t, t)]
    coeffs = kpsym.taylor_jet(L0, 2, p.V)
    return p, states + [kpsym.eval_taylor(coeffs, s) for s in (2 * t, t)]


def test_flow_checks_reject_a_nudged_state(flow):
    p, (flow_2t, flow_t, jet_2t, jet_t) = flow
    assert failing(checks.flow_checks(flow_2t, flow_t, jet_2t, jet_t, p.V)) == []
    bump = Symbol(p, {-1: LoopFn.cos(p.M, 1, 2e-6)})
    assert failing(checks.flow_checks(flow_2t, flow_t + bump, jet_2t, jet_t, p.V)) == ["flow/u-deviation-t"]
    # the state at t replaced by the state at 2t: no convergence
    assert "flow/jet-ratio" in failing(checks.flow_checks(flow_2t, flow_2t, jet_2t, jet_t, p.V))


@pytest.fixture(scope="module")
def block_pair():
    p2, p1 = TruncParams(d=2, **SMALL), TruncParams(**SMALL)
    return (
        kpsym.kp_solve(workloads.cos_dressing(kpsym, p2), p2).L,
        kpsym.kp_solve(workloads.cos_dressing(kpsym, p1), p1).L,
    )


def test_block_checks_reject_nudged_blocks(block_pair):
    embedded, scalar = block_pair
    assert failing(checks.block_checks(embedded, scalar)) == []
    assert failing(checks.block_checks(nudge(embedded, (0, 1, 0), -2), scalar)) == ["block/diagonal-equals-d1"]
    off = nudge(embedded, (0, 0, 0), -3, entry=(0, 1))
    assert failing(checks.block_checks(off, scalar)) == ["block/offdiagonal-zero"]


def test_seed_gives_the_same_inputs_and_rotations_keep_scalar_residuals():
    a = workloads.jet_wide_setup(kpsym, 7)
    b = workloads.jet_wide_setup(kpsym, 7)
    assert (a["S0"] - b["S0"]).norm() == 0.0 and (a["pert"] - b["pert"]).norm() == 0.0
    ks = {workloads.rotation(seed) for seed in range(1, 11)}
    assert len(ks) > 1
    p = TruncParams(**SMALL)
    res = [kpsym.kp_residual(kpsym.kp_solve(workloads.cos_dressing(kpsym, p, k), p), 2) for k in range(2)]
    assert res[0] == res[1]
