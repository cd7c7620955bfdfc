"""Symbol calculus: composition, splitting, inversion, conjugation, and the
finite matrix realization.

The composition checks are anchored on hand-expanded Leibniz sums and the
closed forms for powers of L = xi + u1 xi^-1 + u2 xi^-2:

    sigma2(L^2) = 1            sigma1(L^2) = 0     sigma0(L^2) = 2 u1
    sigma3(L^3) = 1            sigma2(L^3) = 0
    sigma1(L^3) = 3 u1         sigma0(L^3) = 3 u2 + 3 u1'
    [L^2_D, L^3_D] = (3 u1'' + 6 u2') xi + (3 u2'' + u1''' - 6 u1' u1)
"""

from dataclasses import replace
from fractions import Fraction
from math import factorial, prod

import numpy as np
import pytest

from kpsym import (
    LoopFn,
    Symbol,
    TruncParams,
    commutator,
    compose,
    conj,
    hs_inner,
    invert,
    kp_solve,
    power,
    realize_matrix,
)
from kpsym import symbol
from kpsym.symbol import clear_plans, plan_stats

P = TruncParams(M=16, F=-6, g=6, V=4, K=3)
M = P.M


def mk(terms):
    return Symbol.from_terms(P, terms)


def make_L(u1, u2):
    return mk({1: LoopFn.const(1, M, 1.0), -1: u1, -2: u2})


def bracket_closed_form(u1, u2):
    """Independent expansion of [L^2_D, L^3_D] (finitely many Leibniz terms)."""
    sig1 = 3.0 * u1.dx(2) + 6.0 * u2.dx()
    sig0 = 3.0 * u2.dx(2) + u1.dx(3) - 6.0 * (u1.dx() * u1)
    return sig1, sig0


def test_compose_xi2_bracket_oracle():
    # [xi^2, u xi] = 2u' xi^2 + u'' xi, by hand expansion
    u = LoopFn.sin(M)
    got = commutator(Symbol.xi(P, 2), mk({1: u}))
    assert (got.coeff(2) - 2.0 * u.dx()).norm() < 1e-12
    assert (got.coeff(1) - u.dx(2)).norm() < 1e-12
    assert got.coeff(0).norm() < 1e-12


def test_compose_identity():
    A = mk({1: LoopFn.const(1, M, 1.0), -1: LoopFn.sin(M, 2)})
    assert (compose(A, Symbol.identity(P)) - A).norm(floor=P.floor) == 0.0
    assert (compose(Symbol.identity(P), A) - A).norm(floor=P.floor) == 0.0
    # identity products run the kernel like any other: its single Leibniz
    # term k = 0 has weight 1, so A o 1 and 1 o A are A on each output floor,
    # bit for bit, in double, in extended precision and for d = 2
    for p in (P, P.with_wide(True), PM):
        rng = np.random.default_rng(11)
        A = Symbol.from_terms(p, {n: LoopFn.random_trig(rng, p.M, p.M, d=p.d) for n in (2, 0, -1, p.F, p.floor)})
        one = Symbol.identity(p)
        for lo in (None, p.F, 0):
            want = A.band(lo=lo)
            for got in (compose(A, one, lo), compose(one, A, lo)):
                assert got.lo == want.lo and np.array_equal(got.c, want.c)


def test_symbol_table_canonical():
    L = make_L(LoopFn.sin(M), LoopFn.cos(M, 2))
    L3 = power(L, 3)
    assert (L3.coeff(1) - 3.0 * LoopFn.sin(M)).norm() < 1e-12
    want0 = 3.0 * LoopFn.cos(M, 2) + 3.0 * LoopFn.sin(M).dx()
    assert (L3.coeff(0) - want0).norm() < 1e-12


def test_symbol_table_random():
    rng = np.random.default_rng(5)
    for _ in range(5):
        u1 = LoopFn.random_trig(rng, M, M // 4)
        u2 = LoopFn.random_trig(rng, M, M // 4)
        L = make_L(u1, u2)
        L2, L3 = power(L, 2), power(L, 3)
        one = LoopFn.const(1, M, 1.0)
        assert (L2.coeff(2) - one).norm() < 1e-10
        assert L2.coeff(1).norm() < 1e-10
        assert (L2.coeff(0) - 2.0 * u1).norm() < 1e-10
        assert (L3.coeff(3) - one).norm() < 1e-10
        assert L3.coeff(2).norm() < 1e-10
        assert (L3.coeff(1) - 3.0 * u1).norm() < 1e-10
        assert (L3.coeff(0) - (3.0 * u2 + 3.0 * u1.dx())).norm() < 1e-10


def test_bracket_closed_form_random():
    rng = np.random.default_rng(6)
    for _ in range(5):
        u1 = LoopFn.random_trig(rng, M, M // 4)
        u2 = LoopFn.random_trig(rng, M, M // 4)
        L = make_L(u1, u2)
        got = commutator(power(L, 2).d_part(), power(L, 3).d_part())
        sig1, sig0 = bracket_closed_form(u1, u2)
        assert (got.coeff(1) - sig1).norm() < 1e-10
        assert (got.coeff(0) - sig0).norm() < 1e-10
        assert got.coeff(2).norm() < 1e-10
        assert got.coeff(3).norm() < 1e-10


def test_bracket_sin_example():
    # u1 = sin x, u2 = 0: bracket = (-3 sin x) xi + (-3 sin 2x - cos x)
    L = make_L(LoopFn.sin(M), LoopFn.zero(1, M))
    got = commutator(power(L, 2).d_part(), power(L, 3).d_part())
    want1 = -3.0 * LoopFn.sin(M)
    want0 = -3.0 * LoopFn.sin(M, 2) - LoopFn.cos(M)
    assert (got.coeff(1) - want1).norm() < 1e-12
    assert (got.coeff(0) - want0).norm() < 1e-12


def test_commutator_constant_coefficients():
    assert commutator(Symbol.xi(P, 3), Symbol.xi(P, 2)).is_zero()


def test_commutator_self():
    A = mk({1: LoopFn.sin(M), -2: LoopFn.cos(M, 3)})
    assert commutator(A, A).norm(floor=P.floor) < 1e-12


def test_commutator_order_drop_scalar():
    # leading symbols commute for d = 1
    rng = np.random.default_rng(8)
    A = mk({2: LoopFn.random_trig(rng, M, 2), 0: LoopFn.random_trig(rng, M, 2)})
    B = mk({1: LoopFn.random_trig(rng, M, 2), -1: LoopFn.random_trig(rng, M, 2)})
    got = commutator(A, B)
    assert got.coeff(3).norm() <= 1e-10


def test_split_projectors():
    A = mk({1: LoopFn.const(1, M, 1.0), -1: LoopFn.sin(M)})
    D, S = A.d_part(), A.s_part()
    assert sorted(D.a) == [1] and sorted(S.a) == [-1]
    assert ((D + S) - A).norm(floor=P.floor) == 0.0
    assert D.s_part().is_zero() and (D.d_part() - D).is_zero()
    assert Symbol.zero(P).d_part().is_zero() and Symbol.zero(P).s_part().is_zero()


def test_power_basics():
    L = make_L(LoopFn.sin(M), LoopFn.zero(1, M))
    assert (power(L, 1) - L).is_zero()
    assert (power(Symbol.xi(P), 3) - Symbol.xi(P, 3)).is_zero()
    with pytest.raises(ValueError):
        power(L, 0)


def test_invert_identity():
    assert (invert(Symbol.identity(P)) - Symbol.identity(P)).is_zero()


def test_invert_neumann_oracle():
    # oracle: finite Neumann series, nilpotent below the floor
    c = LoopFn.cos(M)
    S0 = mk({0: LoopFn.const(1, M, 1.0), -1: c})
    N = mk({-1: c})
    oracle = Symbol.identity(P)
    term = Symbol.identity(P)
    for _ in range(-P.floor):
        term = compose(-N, term)
        oracle = oracle + term
    got = invert(S0)
    assert (got - oracle).norm(floor=P.F) < 1e-11
    assert (compose(S0, got) - Symbol.identity(P)).norm(floor=P.F) < 1e-11
    assert (compose(got, S0) - Symbol.identity(P)).norm(floor=P.F) < 1e-11


def test_invert_involution():
    S0 = mk({0: LoopFn.const(1, M, 1.0), -1: LoopFn.sin(M), -2: LoopFn.cos(M, 2)})
    assert (invert(invert(S0)) - S0).norm(floor=P.F) < 1e-10


def test_invert_rejects_positive_order():
    with pytest.raises(ValueError):
        invert(Symbol.xi(P))


def test_conj_identity_and_group_action():
    A = mk({1: LoopFn.const(1, M, 1.0), -1: LoopFn.sin(M)})
    assert (conj(Symbol.identity(P), A) - A).norm(floor=P.F) < 1e-12
    S0 = mk({0: LoopFn.const(1, M, 1.0), -1: LoopFn.cos(M)})
    back = conj(invert(S0), conj(S0, A))
    assert (back - A).norm(floor=P.F) < 1e-10


def test_conj_dressing_example():
    # S0 = 1 + cos x xi^-1 conjugates d/dx into xi + sin x xi^-1 + ...
    S0 = mk({0: LoopFn.const(1, M, 1.0), -1: LoopFn.cos(M)})
    L0 = conj(S0, Symbol.xi(P))
    assert (L0.coeff(-1) - LoopFn.sin(M)).norm() < 1e-12
    assert L0.coeff(0).norm() < 1e-12
    assert (L0.coeff(1) - LoopFn.const(1, M, 1.0)).norm() == 0.0


def test_compose_associativity():
    rng = np.random.default_rng(9)
    A = mk({1: LoopFn.random_trig(rng, M, 2), -1: LoopFn.random_trig(rng, M, 2)})
    B = mk({2: LoopFn.random_trig(rng, M, 2), 0: LoopFn.random_trig(rng, M, 2)})
    C = mk({1: LoopFn.random_trig(rng, M, 2), -2: LoopFn.random_trig(rng, M, 2)})
    lhs = compose(compose(A, B), C)
    rhs = compose(A, compose(B, C))
    nmax = 2
    assert (lhs - rhs).norm(floor=P.F + 2 * nmax) < 1e-9


def test_compose_matrix_coefficients():
    # d = 2: compose must respect matrix order
    pm = TruncParams(d=2, M=8, F=-4, g=4, V=2, K=3)
    a = LoopFn.from_modes(2, 8, {0: np.array([[0, 1], [0, 0]])})
    b = LoopFn.from_modes(2, 8, {0: np.array([[0, 0], [1, 0]])})
    A = Symbol.from_terms(pm, {0: a})
    B = Symbol.from_terms(pm, {0: b})
    ab = compose(A, B).coeff(0).c[pm.M]
    ba = compose(B, A).coeff(0).c[pm.M]
    assert abs(ab[0, 0] - 1.0) < 1e-12 and abs(ab[1, 1]) < 1e-12
    assert abs(ba[1, 1] - 1.0) < 1e-12 and abs(ba[0, 0]) < 1e-12


PM = TruncParams(d=2, M=12, F=-6, g=4, V=2, K=3)
P1 = TruncParams(d=1, M=12, F=-6, g=4, V=2, K=3)
# relative to the largest reference coefficient; a transposed (swapped
# matrix order) block layout is wrong at O(1)
MATRIX_TOL = 100 * np.finfo(float).eps


def entry(S, i, j):
    """(i, j) entry of a d = 2 symbol as a d = 1 symbol."""
    return Symbol.from_terms(P1, {n: LoopFn(1, P1.M, f.c[:, i : i + 1, j : j + 1]) for n, f in S.a.items()})


def entrywise_compose(A, B, i, j):
    """(A o B)_ij = sum_k A_ik o B_kj, from d = 1 compositions."""
    return compose(entry(A, i, 0), entry(B, 0, j)) + compose(entry(A, i, 1), entry(B, 1, j))


def max_gap(got, i, j, ref):
    gap = max(np.max(np.abs(got.coeff(n).c[:, i, j] - ref.coeff(n).c[:, 0, 0])) for n in set(got.a) | set(ref.a))
    scale = ref.sup_norm()
    return gap, scale


def test_compose_matrix_entrywise_reference():
    # non-commuting d = 2 coefficients at positive and negative orders, so the
    # k >= 1 Leibniz terms run with matrix order
    rng = np.random.default_rng(3)
    A = Symbol.from_terms(PM, {n: LoopFn.random_trig(rng, PM.M, 3, d=2) for n in (2, 1, -1, -2)})
    B = Symbol.from_terms(PM, {n: LoopFn.random_trig(rng, PM.M, 3, d=2) for n in (1, 0, -1, -3)})
    AB, bracket = compose(A, B), commutator(A, B)
    for i in range(2):
        for j in range(2):
            ref_ab = entrywise_compose(A, B, i, j)
            gap, scale = max_gap(AB, i, j, ref_ab)
            assert gap <= MATRIX_TOL * scale
            gap, scale = max_gap(bracket, i, j, ref_ab - entrywise_compose(B, A, i, j))
            assert gap <= MATRIX_TOL * scale


def test_compose_matrix_identity_embedding():
    # c(x) Id in d = 2 reproduces the d = 1 result on each diagonal entry
    rng = np.random.default_rng(4)
    a = {n: LoopFn.random_trig(rng, P1.M, 3) for n in (1, 0, -2)}
    b = {n: LoopFn.random_trig(rng, P1.M, 3) for n in (2, -1, -3)}

    def embed(terms):
        return Symbol.from_terms(PM, {n: LoopFn(2, PM.M, f.c * np.eye(2)) for n, f in terms.items()})

    A1, B1 = Symbol.from_terms(P1, a), Symbol.from_terms(P1, b)
    A2, B2 = embed(a), embed(b)
    for got, ref in ((compose(A2, B2), compose(A1, B1)), (commutator(A2, B2), commutator(A1, B1))):
        for i in range(2):
            gap, scale = max_gap(got, i, i, ref)
            assert gap <= MATRIX_TOL * scale
        assert all(np.all(f.c[:, 0, 1] == 0) and np.all(f.c[:, 1, 0] == 0) for f in got.a.values())


def test_realize_xi_diagonal():
    R = realize_matrix(Symbol.xi(P), 8)
    modes = np.concatenate([np.arange(-8, 0), np.arange(1, 9)])
    assert np.allclose(R, np.diag(1j * modes))


def test_realize_identity():
    R = realize_matrix(Symbol.identity(P), 8)
    assert np.allclose(R, np.eye(16))


def test_realize_cos_xi_inverse_oracle():
    # oracle: direct action on basis vectors e^{imx}
    A = mk({-1: LoopFn.cos(M)})
    Mr = 6
    R = realize_matrix(A, Mr)
    modes = np.concatenate([np.arange(-Mr, 0), np.arange(1, Mr + 1)])
    want = np.zeros_like(R)
    for j, m in enumerate(modes):
        for i, mp in enumerate(modes):
            if abs(mp - m) == 1:
                want[i, j] = 0.5 / (1j * m)
    assert np.allclose(R, want)


def test_realize_rejects_large_cutoff():
    with pytest.raises(ValueError):
        realize_matrix(Symbol.xi(P), M + 1)
    # an empty block would read as a zero (flat) Hilbert-Schmidt value
    for Mr in (0, -1):
        with pytest.raises(ValueError):
            realize_matrix(Symbol.xi(P), Mr)


def test_realize_morphism_on_central_block():
    rng = np.random.default_rng(21)
    budget = 2
    deep = TruncParams(M=16, F=-6, g=10, V=4, K=3)
    A = Symbol.from_terms(deep, {-1: LoopFn.random_trig(rng, M, budget)})
    B = Symbol.from_terms(deep, {-1: LoopFn.random_trig(rng, M, budget)})
    Mr = 12
    R_ab = realize_matrix(compose(A, B), Mr)
    R_prod = realize_matrix(A, Mr) @ realize_matrix(B, Mr)
    modes = np.concatenate([np.arange(-Mr, 0), np.arange(1, Mr + 1)])
    # the band edge spoils the product beyond Mr - budget; near the zero-mode
    # hole the floor-truncated Leibniz tail decays like (budget/|m|)^depth, so
    # the block starts where that tail is below tolerance
    inner = 7
    keep = (np.abs(modes) >= inner) & (np.abs(modes) <= Mr - budget)
    diff = np.abs(R_ab - R_prod)[np.ix_(keep, keep)]
    assert np.max(diff) < 1e-8


def test_hs_inner_examples():
    B = mk({-1: LoopFn.sin(M)})
    assert abs(hs_inner(Symbol.zero(P), B, 8)) == 0.0
    v = hs_inner(B, B, 8)
    assert abs(v.imag) < 1e-12 and v.real >= 0.0
    got = hs_inner(mk({-1: LoopFn.const(1, M, 1.0)}), mk({-1: LoopFn.const(1, M, 1.0)}), 8)
    want = sum(1.0 / m**2 for m in range(1, 9)) * 2
    assert abs(got - want) < 1e-12


def test_odd_class_parity():
    # one coefficient per order makes sigma_n(x, -xi) = (-1)^n sigma_n(x, xi)
    rng = np.random.default_rng(23)
    A = mk({n: LoopFn.random_trig(rng, M, 3) for n in (-2, -1, 0, 1)})
    x, xi = 0.7, 1.3
    lhs = A.eval_sym(x, -xi)
    rhs = sum((-1.0) ** n * A.coeff(n).eval_at(x) * xi**n for n in A.orders())
    assert np.allclose(lhs, rhs)


def test_wide_refused_without_extended_longdouble(monkeypatch):
    # where longdouble is plain double, wide mode would silently run at the
    # narrow floor; it must refuse instead
    monkeypatch.setattr(symbol, "_LONGDOUBLE_EPS", float(np.finfo(np.float64).eps))
    with pytest.raises(ValueError, match="longdouble"):
        TruncParams(wide=True)
    with pytest.raises(ValueError, match="longdouble"):
        P.with_wide(True)
    TruncParams(wide=False)


def same_symbol(S, T):
    return S.a.keys() == T.a.keys() and all(
        S.a[n].mmax == T.a[n].mmax and S.a[n].c.dtype == T.a[n].c.dtype and np.array_equal(S.a[n].c, T.a[n].c)
        for n in S.a
    )


def random_pair(rng, p, d=1):
    A = Symbol.from_terms(p, {n: LoopFn.random_trig(rng, p.M, 3, d=d) for n in (2, 0, -1, -3)})
    B = Symbol.from_terms(p, {n: LoopFn.random_trig(rng, p.M, 2, d=d) for n in (1, -1, -2)})
    return A, B  # built in p's precision


@pytest.mark.parametrize("kind", ["narrow", "wide", "d2"])
def test_plan_cache_warm_equals_cold(kind):
    p = {"narrow": P, "wide": P.with_wide(True), "d2": PM}[kind]
    A, B = random_pair(np.random.default_rng(31), p, p.d)
    calls = (lambda: compose(A, B), lambda: compose(B, A), lambda: commutator(A, B))
    clear_plans()
    cold = [f() for f in calls]
    misses = plan_stats()["plan_misses"]
    warm = [f() for f in calls]
    stats = plan_stats()
    assert stats["plan_misses"] == misses and stats["plan_hits"] >= 4
    assert all(same_symbol(w, c) for w, c in zip(warm, cold))


FLOORED = {"narrow": P, "wide": P.with_wide(True), "d2": TruncParams(d=2, M=8, F=-6, g=6, V=4, K=3)}


def random_symbol(p, rng, top):
    """Coefficients of random widths 1..7 on about 80% of the orders floor .. top."""
    return Symbol.from_terms(
        p, {n: LoopFn.random_trig(rng, p.M, int(rng.integers(1, 8)), d=p.d) for n in range(p.floor, top + 1)
            if rng.random() < 0.8})


def same_bits(a, b):
    """Equal orders and coefficient values, signs of zeros included."""
    return a.lo == b.lo and all(
        np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y))
        for x, y in ((a.c.real, b.c.real), (a.c.imag, b.c.imag))
    )


def same_band(got, full, lo):
    """`got` holds the bits of `full` on the orders >= lo (a zero symbol's
    lowest order means nothing)."""
    want = full.band(lo=lo)
    return (got.is_zero() and want.is_zero()) or same_bits(got, want)


@pytest.mark.parametrize("kind", FLOORED)
def test_products_on_an_output_floor_equal_the_full_products_there(kind):
    # lo drops the rows of every output below it and cuts some narrow
    # steps to one row; the orders >= lo keep their bits
    p = FLOORED[kind]
    rng = np.random.default_rng(1)
    one = Symbol.identity(p)
    for _ in range(12):
        A, B = (random_symbol(p, rng, int(rng.integers(-2, 3))) for _ in range(2))
        for product, X, Y in ((compose, A, B), (commutator, A, B), (compose, one, B), (compose, A, one)):
            full = product(X, Y)
            for lo in (p.floor - 1, p.floor, p.F - p.K, p.F, p.F + 2):
                assert same_band(product(X, Y, lo=lo), full, lo)


def test_plan_cache_key_is_complete():
    # pairs sharing every other part of the signature: each result must not
    # depend on which one ran first
    rng = np.random.default_rng(32)
    A, B = random_pair(rng, P)
    deformed = [Symbol.from_terms(P.with_deform(0.5), X.a) for X in (A, B)]
    # same lowest and highest order as A, one interior order zero
    A_holed = Symbol.from_terms(P, {**A.a, 0: LoopFn.zero(1, M)})
    # same lowest order as B, one order more
    B_higher = Symbol.from_terms(P, {**B.a, 2: LoopFn.cos(M)})
    assert A_holed.lo == A.lo and A_holed.order == A.order and B_higher.lo == B.lo
    # on output orders >= -6, left order -6 makes one row (k = 0, m = 0).
    # P's working floor is -12, where that step has more rows, so the row
    # runs as GEMM; P0's is -6, where it runs as GEMV: the working floor
    # belongs in the key
    P0 = replace(P, g=0)
    low = [{-6: LoopFn.random_trig(rng, M, M), 0: LoopFn.cos(M)},
           {0: LoopFn.random_trig(rng, M, M), -1: LoopFn.cos(M)}]
    low_g, low_0 = ([Symbol.from_terms(q, terms) for terms in low] for q in (P, P0))
    pairs = [
        (lambda: compose(A, B), lambda: compose(*deformed)),
        (lambda: compose(A, B), lambda: compose(A_holed, B)),
        (lambda: compose(A, B), lambda: compose(A, B_higher)),
        (lambda: compose(A, B), lambda: commutator(A, B)),
        (lambda: compose(A, B), lambda: compose(A, B, lo=P.F)),
        (lambda: compose(*low_g, lo=P0.floor), lambda: compose(*low_0)),
    ]
    for first, second in pairs:
        for f, g in ((first, second), (second, first)):
            clear_plans()
            alone = g()
            clear_plans()
            f()
            assert same_symbol(g(), alone)


def snapshot(S):
    return S.lo, S.c.copy()


def same_snapshot(S, snap):
    lo, c = snap
    return S.lo == lo and S.c.dtype == c.dtype and np.array_equal(S.c, c)


@pytest.mark.parametrize("wide", [False, True])
def test_operations_leave_operands_unchanged(wide):
    p = P.with_wide(wide)
    A, B = random_pair(np.random.default_rng(33), p)
    S = Symbol.from_terms(p, {0: LoopFn.const(1, M, 1.0), -1: LoopFn.cos(M), -2: LoopFn.zero(1, M)})
    before = [snapshot(X) for X in (A, B, S)]
    ops = (
        lambda: A + B, lambda: A - B, lambda: -A, lambda: A.scale(0.3), lambda: compose(A, B),
        lambda: commutator(A, B), lambda: conj(S, A), lambda: invert(S), lambda: power(A, 3),
        lambda: A.d_part(), lambda: A.s_part(), lambda: A.mode_filter(1),
    )
    for op in ops:
        op()
    assert all(same_snapshot(X, snap) for X, snap in zip((A, B, S), before))
    assert S.orders() == [-1, 0]
    # the arrays are shared, so writing into them must fail
    with pytest.raises(ValueError):
        A.c[0, M, 0, 0] = 1.0


@pytest.mark.parametrize("wide", [False, True])
def test_pack_unpack_roundtrip(wide):
    # orders, supports, dtype and values survive Symbol(p, S.a); zero
    # coefficients (interior and at an end) are not orders
    p = P.with_wide(wide)
    rng = np.random.default_rng(34)
    S = Symbol.from_terms(p, {
        2: LoopFn.random_trig(rng, M, 3), 0: LoopFn.zero(1, M), -1: LoopFn(1, M, np.zeros((2 * M + 1, 1, 1))),
        -4: LoopFn.cos(M, 2), -5: LoopFn.zero(1, M),
    })
    if wide:
        S = S.scale(1 / 3)  # extended-precision values
    T = Symbol(p, S.a)
    assert T.orders() == S.orders() == [-4, 2]
    assert [f.mmax for f in T.a.values()] == [f.mmax for f in S.a.values()] == [2, 3]
    assert T.c.dtype == S.c.dtype == p.dtype
    assert all(np.array_equal(T.coeff(n).c, S.coeff(n).c) for n in range(-5, 4))
    assert same_snapshot(T, snapshot(S))


def test_wide_symbol_holds_extended_coefficients():
    # double coefficients packed into a wide symbol are held, and summed, in
    # extended precision
    pw = P.with_wide(True)
    S = Symbol.from_terms(pw, {0: LoopFn.const(1, M, 1.0), -1: LoopFn.cos(M)})
    assert all(f.c.dtype == np.clongdouble for f in S.a.values())
    tiny = 2.0**-60  # below eps(float64), above eps(longdouble)
    got = (S + S.scale(tiny)).coeff(0).c[M, 0, 0]
    assert got == 1 + np.longdouble(tiny)


@pytest.mark.parametrize("wide, tol", [(True, 1e-18), (False, 1e-11)], ids=["wide", "narrow"])
def test_invert_non_unit_constant_wide(wide, tol):
    # 1/a0 of a constant a0 = 3 is formed in the symbol's precision, extended
    # in wide mode
    p = TruncParams(M=16, F=-6, g=4, wide=wide)
    A = Symbol.from_terms(p, {0: LoopFn.const(1, 16, 3.0), -1: LoopFn.cos(16)})
    assert (compose(A, invert(A)) - Symbol.identity(p)).norm() <= tol


@pytest.mark.parametrize("p, a0, inverse", [
    (P, 4.0, 0.25),
    (P.with_wide(True), -0.5, -2.0),
    (PM, [[2.0, 1.0], [1.0, 1.0]], [[1.0, -1.0], [-1.0, 2.0]]),
], ids=["narrow", "wide", "d2"])
def test_invert_constant_is_exact(p, a0, inverse):
    # a constant, the identity too, has no Neumann terms: the sum is 1, and
    # 1 o a_0^-1 through the kernel leaves the inverse exact
    for A, want in ((Symbol.xi(p, 0, a0), Symbol.xi(p, 0, inverse)), (Symbol.identity(p), Symbol.identity(p))):
        got = invert(A)
        assert got.lo == want.lo and np.array_equal(got.c, want.c)


@pytest.mark.parametrize("p", [P, P.with_wide(True), PM], ids=["narrow", "wide", "d2"])
def test_invert_refuses_non_constant_order_zero(p):
    a0 = LoopFn.const(p.d, p.M, 1.0) + LoopFn.cos(p.M, amp=0.04, d=p.d)
    A = Symbol.from_terms(p, {0: a0, -1: LoopFn.sin(p.M, d=p.d)})
    with pytest.raises(ValueError, match="constant order-0"):
        invert(A)


@pytest.mark.filterwarnings("ignore:invalid value encountered in det:RuntimeWarning")
@pytest.mark.parametrize("p", [P, P.with_wide(True), PM], ids=["narrow", "wide", "d2"])
def test_invert_refuses_nan_order_zero(p):
    # abs(NaN) < 1e-12 is False: a NaN a_0 must not pass as invertible
    nan = np.diag([np.nan] + [1.0] * (p.d - 1))
    with pytest.raises(ValueError, match="not invertible"):
        invert(Symbol.xi(p, 0, nan) + Symbol.xi(p, -1, 0.5))


@pytest.mark.parametrize("deform", [np.nan, np.inf, -np.inf, 0.0])
def test_params_refuse_zero_and_non_finite_deform(deform):
    # deform = inf would give h = 0.0, deform = nan h = nan
    with pytest.raises(ValueError, match="deform factor"):
        TruncParams(deform=deform)


def test_is_zero_is_exact():
    assert Symbol.zero(P).is_zero() and (mk({-1: LoopFn.cos(M)}) - mk({-1: LoopFn.cos(M)})).is_zero()
    assert not Symbol.xi(P, -3, 1e-300).is_zero()
    assert not Symbol.xi(P, 2, np.nan).is_zero()


def _exact(z):
    return Fraction(*z.real.as_integer_ratio()), Fraction(*z.imag.as_integer_ratio())


def _leibniz_exact(A, B, kmin, sign=1, out=None):
    """Terms k >= kmin of A o B in exact rational arithmetic, times sign and
    added into out: order -> {mode q: (re, im)} with |q| <= M and orders
    >= floor."""
    p = A.params
    Mx, eps = p.M, Fraction(p.deform)
    out = {} if out is None else out
    for n in A.orders():
        a = [_exact(z) for z in A.coeff(n).c[:, 0, 0]]
        for m in B.orders():
            b = [_exact(z) for z in B.coeff(m).c[:, 0, 0]]
            fall = 1
            for k in range(n + m - p.floor + 1):
                if k > 0:
                    fall *= n - (k - 1)
                if fall == 0:
                    break
                if k < kmin:
                    continue
                w = sign * fall * eps**k / factorial(k)
                modes = out.setdefault(n + m - k, {})
                for q in range(-Mx, Mx + 1):
                    re, im = modes.get(q, (Fraction(0), Fraction(0)))
                    for r in range(max(-Mx, q - Mx), min(Mx, q + Mx) + 1):
                        # a_n[q - r] (i r)^k b_m[r]
                        br, bi = b[r + Mx]
                        pk = w * Fraction(r) ** k
                        br, bi = [(br, bi), (-bi, br), (-br, -bi), (bi, -br)][k % 4]
                        ar, ai = a[q - r + Mx]
                        re += pk * (ar * br - ai * bi)
                        im += pk * (ar * bi + ai * br)
                    modes[q] = re, im
    return out


def _exact_error(got, ref):
    """(largest deviation of got from ref, largest |ref| entry) over the
    orders of either."""
    Mx = got.params.M
    err = top = Fraction(0)
    zero = (Fraction(0), Fraction(0))
    for n in set(ref) | set(got.orders()):
        for q in range(-Mx, Mx + 1):
            gr, gi = _exact(got.coeff(n).c[q + Mx, 0, 0])
            rr, ri = ref.get(n, {}).get(q, zero)
            err = max(err, abs(gr - rr), abs(gi - ri))
            top = max(top, abs(rr), abs(ri))
    return err, top


@pytest.mark.parametrize("deform", [1.0, 1 / 3], ids=["plain", "deform1/3"])
@pytest.mark.parametrize("op", ["compose", "commutator"])
def test_wide_kernel_matches_exact_leibniz(op, deform):
    # right supports 1 and 7 around left supports 3 and 4; right order -1 is
    # a zero interior order; 7 + 4 > M, so the |q| <= M cut bites
    p = TruncParams(M=8, F=-3, g=2, wide=True, deform=deform)
    rng = np.random.default_rng(41)
    A = Symbol.from_terms(p, {1: LoopFn.random_trig(rng, p.M, 3), 0: LoopFn.random_trig(rng, p.M, 4),
                              -1: LoopFn.random_trig(rng, p.M, 3)}).scale(1 / 3)
    B = Symbol.from_terms(p, {0: LoopFn.random_trig(rng, p.M, 1), -1: LoopFn.zero(1, p.M),
                              -2: LoopFn.random_trig(rng, p.M, 7)}).scale(1 / 7)
    assert B.lo == -2 and B.orders() == [-2, 0]
    if op == "compose":
        got, ref = compose(A, B), _leibniz_exact(A, B, 0)
    else:
        got, ref = commutator(A, B), _leibniz_exact(B, A, 1, -1, _leibniz_exact(A, B, 1))
    assert got.c.dtype == np.clongdouble
    err, top = _exact_error(got, ref)
    assert top > 0 and err <= 4 * np.finfo(np.longdouble).eps * top


def test_wide_desk_solve_weights_are_exact(monkeypatch):
    # every Leibniz weight eps^k/k! n(n-1)...(n-k+1) in the plans of a wide
    # desk-scale solve is an integer that extended precision holds exactly
    plans = {}

    def record(*key):
        if key not in plans:
            plans[key] = symbol._Plan(*key)
        return plans[key]

    monkeypatch.setattr(symbol, "_plan", record)
    p = TruncParams(wide=True)
    kp_solve(Symbol.from_terms(p, {0: LoopFn.const(1, p.M, 1.0), -1: LoopFn.cos(p.M)}), p)
    weights = {}
    for (d, _, _, _, eps, _, _, _, _, _, nB), plan in plans.items():
        for n, rows, w, blocks in plan.steps:
            for r0 in blocks[:, 2] * d:
                k = int(rows[r0]) // (nB * d)
                weights[n, k, eps] = Fraction(*w[r0].as_integer_ratio())
    assert (-9, 5, 1.0) in weights and len(weights) > 100
    for (n, k, eps), w in weights.items():
        assert w == Fraction(eps) ** k / factorial(k) * prod(range(n, n - k, -1)), (n, k)


def test_wide_scale_orders_in_extended_precision():
    # h^n for negative n is inexact in double; wide symbols form it in
    # extended precision
    pw = P.with_wide(True)
    S = Symbol.from_terms(pw, {n: LoopFn.const(1, M, 1.0) for n in range(-12, 1)})
    got = S.scale_orders(3.0)
    ref = np.longdouble(3) ** np.arange(-12, 1)
    rel = np.abs(got.c[:, M, 0, 0] / ref - 1)
    assert got.c.dtype == np.clongdouble and np.max(rel) <= 4 * np.finfo(np.longdouble).eps
