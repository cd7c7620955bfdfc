"""Reference timings of single kpsym stages, for the figures in README.md.

    python3 perfbench/reference.py

Times, with BLAS pinned to one thread: the desk-scale wide kp_solve, one
wide kp_residual per direction, one flow right-hand side per direction on
the narrow desk L0 (median of 20), and the reduced-scale d=2 kp_solve of
jet-matrix (median of 3).
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import kpsym  # noqa: E402
import workloads  # noqa: E402
from kpsym import kp2  # noqa: E402


def timed(fn, *args, reps: int = 1) -> float:
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        fn(*args)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def main() -> int:
    wide = kpsym.TruncParams(wide=True)
    S0 = workloads.cos_dressing(kpsym, wide)
    start = time.perf_counter()
    jet = kpsym.kp_solve(S0, wide)
    print(f"wide desk kp_solve: {time.perf_counter() - start:.2f} s")
    for n in (1, 2, 3):
        print(f"wide desk kp_residual t{n}: {timed(kpsym.kp_residual, jet, n):.2f} s")

    narrow = kpsym.TruncParams()
    L0 = kpsym.conj_from(workloads.cos_dressing(kpsym, narrow), narrow).mode_filter(int(0.75 * narrow.M))
    for n in (1, 2, 3):
        print(f"flow right-hand side t{n}: {1e3 * timed(kp2._flow_rhs, L0, n, reps=20):.1f} ms")

    inp = workloads.jet_matrix_setup(kpsym, 0)
    print(f"d=2 reduced kp_solve: {timed(kpsym.kp_solve, inp['S0_matrix'], inp['p2'], reps=3):.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
