import os

# Pin BLAS and OpenMP to one thread before numpy is imported, as
# perfbench/run.py does: np.linalg.solve (criterion 2's dense oracle) gives
# other last bits on more threads, so printed values would depend on the host.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import pytest  # noqa: E402

from kpsym import LoopFn, Symbol, TruncParams, kp_solve  # noqa: E402


@pytest.fixture(scope="session")
def small_params():
    return TruncParams(M=16, F=-6, g=6, V=4, K=3)


@pytest.fixture(scope="session")
def small_jet(small_params):
    S0 = Symbol.from_terms(
        small_params,
        {0: LoopFn.const(1, 16, 1.0), -1: LoopFn.cos(16)},
    )
    return kp_solve(S0, small_params)


@pytest.fixture(scope="session")
def desk_params():
    # acceptance desk scale; extended precision so the 1e-9 tolerances are
    # meaningful (see notes on rounding floors in the README)
    return TruncParams(wide=True)


@pytest.fixture(scope="session")
def desk_jet(desk_params):
    S0 = Symbol.from_terms(
        desk_params,
        {0: LoopFn.const(1, desk_params.M, 1.0), -1: LoopFn.cos(desk_params.M)},
    )
    return kp_solve(S0, desk_params)


def loop_close(a: LoopFn, b: LoopFn, tol: float) -> bool:
    return (a - b).norm() <= tol


def sym_close(a: Symbol, b: Symbol, tol: float, floor=None) -> bool:
    return (a - b).norm(floor=floor) <= tol
