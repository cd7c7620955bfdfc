"""Coefficient-ring arithmetic: truncated Fourier series on the circle."""

import ast
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import kpsym
from kpsym import LoopFn
from kpsym.loopfn import support

M = 16


def test_add_inverse():
    s = LoopFn.sin(M)
    assert (s + (-s)).norm() == 0.0


def test_add_linearity():
    c = LoopFn.cos(M)
    assert ((c + c) - 2.0 * c).norm() == 0.0


def test_add_disjoint_modes():
    f = LoopFn.from_modes(1, M, {1: 1.0}) + LoopFn.from_modes(1, M, {2: 1.0})
    assert f.c[1 + M, 0, 0] == 1.0 and f.c[2 + M, 0, 0] == 1.0


def test_add_rejects_mismatch():
    with pytest.raises(ValueError):
        LoopFn.sin(M) + LoopFn.sin(M + 1)


def test_mul_product_to_sum():
    c = LoopFn.cos(M)
    want = LoopFn.from_modes(1, M, {0: 0.5, 2: 0.25, -2: 0.25})
    assert ((c * c) - want).norm() < 1e-15


def test_mul_unit():
    f = LoopFn.random_trig(np.random.default_rng(0), M, 5)
    one = LoopFn.const(1, M, 1.0)
    assert ((f * one) - f).norm() < 1e-14


def test_mul_truncation_against_untruncated_oracle():
    # oracle: embed at cutoff 2M, multiply there, observe the 2M mode
    top = LoopFn.from_modes(1, M, {M: 1.0})
    wide = LoopFn.from_modes(1, 2 * M, {M: 1.0})
    oracle = wide * wide
    assert abs(oracle.c[2 * M + oracle.M, 0, 0] - 1.0) < 1e-14
    assert (top * top).norm() < 1e-14  # the 2M mode is beyond the cutoff


def test_mul_matrix_noncommutative():
    a = LoopFn.from_modes(2, M, {0: np.array([[0, 1], [0, 0]])})
    b = LoopFn.from_modes(2, M, {0: np.array([[0, 0], [1, 0]])})
    assert ((a * b) - (b * a)).norm() > 0.5


def test_dx_sin():
    assert (LoopFn.sin(M).dx() - LoopFn.cos(M)).norm() == 0.0


def test_dx_constant():
    assert LoopFn.const(1, M, 3.0).dx().norm() == 0.0


def test_dx_cos2():
    want = -2.0 * LoopFn.sin(M, 2)
    assert (LoopFn.cos(M, 2).dx() - want).norm() < 1e-15


def test_eval_at():
    assert abs(LoopFn.sin(M).eval_at(np.pi / 2)[0, 0] - 1.0) < 1e-12
    assert abs(LoopFn.zero(1, M).eval_at(0.3)[0, 0]) == 0.0
    assert abs(LoopFn.from_modes(1, M, {1: 1.0}).eval_at(0.0)[0, 0] - 1.0) < 1e-14


def test_norm():
    assert LoopFn.zero(1, M).norm() == 0.0
    assert abs(LoopFn.from_modes(1, M, {1: 1.0}).norm() - 1.0) < 1e-14
    assert abs(LoopFn.from_modes(1, M, {2: 3.0}).norm() - 3.0) < 1e-14


def test_leibniz_rule():
    rng = np.random.default_rng(11)
    for _ in range(5):
        f = LoopFn.random_trig(rng, M, 4)
        g = LoopFn.random_trig(rng, M, 4)
        lhs = (f * g).dx()
        rhs = f.dx() * g + f * g.dx()
        assert (lhs - rhs).norm() < 1e-12


def test_mul_associative_within_budget():
    rng = np.random.default_rng(13)
    f = LoopFn.random_trig(rng, M, 3)
    g = LoopFn.random_trig(rng, M, 3)
    h = LoopFn.random_trig(rng, M, 3)
    assert (((f * g) * h) - (f * (g * h))).norm() < 1e-12


def test_real_flag_checks_symmetry():
    # the real constructors build c_{-m} = conj(c_m) exactly, so no flag has to check it
    rng = np.random.default_rng(21)
    for d in (1, 2):
        for f in (LoopFn.cos(M, 2, 0.3, d=d), LoopFn.sin(M, 3, 1.7, d=d), LoopFn.random_trig(rng, M, 5, d=d)):
            assert np.array_equal(f.c[::-1], np.conj(f.c))


def test_is_zero_is_exact():
    assert LoopFn.zero(1, M).is_zero()
    assert not LoopFn.from_modes(1, M, {3: 1e-300}).is_zero()
    assert not LoopFn.from_modes(2, M, {0: np.diag([0.0, np.nan])}).is_zero()


def test_shift_x():
    f = LoopFn.sin(M)
    tau = 0.37
    shifted = f.shift_x(tau)
    x = 1.1
    assert abs(shifted.eval_at(x)[0, 0] - f.eval_at(x + tau)[0, 0]) < 1e-12


@pytest.mark.parametrize("d", [1, 2])
def test_support_per_leading_index(d):
    # one pass over a stack gives, per coefficient, the largest |m| with a
    # nonzero mode; an all-zero coefficient reads 0
    modes = [{}, {0: 1.0}, {-3: 1.0}, {2: 1.0, -1: 1.0}, {M: 1.0}, {-M: 1.0, 5: 1.0}]
    fs = [LoopFn.from_modes(d, M, table) for table in modes]
    stack = np.stack([f.c for f in fs])
    expected = [max(map(abs, table), default=0) for table in modes]
    assert support(stack).tolist() == expected == [f.mmax for f in fs]
    assert support(stack.astype(np.clongdouble)[None]).tolist() == [expected]


def _exact(z):
    """(re, im) of a complex number as exact fractions."""
    return Fraction(*z.real.as_integer_ratio()), Fraction(*z.imag.as_integer_ratio())


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("dtype", [np.complex128, np.clongdouble])
def test_mul_matches_exact_convolution(d, dtype):
    # oracle: sum_p a_p b_{q-p} for |q| <= Mc in exact rational arithmetic;
    # supports 5 + 6 > Mc, so the product's top modes are cut
    Mc = 8
    rng = np.random.default_rng(17 + d)
    a, b = (LoopFn.random_trig(rng, Mc, s, d=d) for s in (5, 6))
    if dtype == np.clongdouble:  # values that double cannot hold
        a, b = (LoopFn(d, Mc, f.c.astype(dtype) / 3) for f in (a, b))
    got = a * b
    assert got.c.dtype == dtype and got.mmax == Mc
    err = top = Fraction(0)
    for q in range(-Mc, Mc + 1):
        for i in range(d):
            for j in range(d):
                re = im = Fraction(0)
                for p in range(max(-Mc, q - Mc), min(Mc, q + Mc) + 1):
                    for k in range(d):
                        ar, ai = _exact(a.c[p + Mc, i, k])
                        br, bi = _exact(b.c[q - p + Mc, k, j])
                        re += ar * br - ai * bi
                        im += ar * bi + ai * br
                gr, gi = _exact(got.c[q + Mc, i, j])
                err = max(err, abs(gr - re), abs(gi - im))
                top = max(top, abs(re), abs(im))
    assert err <= 4 * np.finfo(dtype).eps * top


@pytest.mark.parametrize("module", ["tseries", "factorization", "zerocurv", "kp2"])
def test_layers_above_symbol_do_not_import_loopfn(module):
    # a LoopFn is one coefficient of a Symbol: the series and the solvers
    # compare Symbol bands (with Symbol.xi or Symbol.identity) instead
    tree = ast.parse((Path(kpsym.__file__).parent / f"{module}.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names |= {node.module or ""} | {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            names |= {a.name for a in node.names}
    assert not [n for n in names if n == "LoopFn" or "loopfn" in n.split(".")]
