"""kpsym benchmark: one workload per process.

    python3 perfbench/run.py --workload jet-wide --seed 1 --seconds 10 --trace 0

Runs whole operations (solve phase, then verify phase) until --seconds have
passed, at least one, checks every result, and prints one JSON object as
the last line of standard output: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  See perfbench/README.md.
"""

import os

# Pin BLAS and OpenMP to one thread before numpy is imported: these products
# are tiny, and OpenBLAS threading makes them slower, more so under load.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("jet-wide", "flow-narrow", "jet-matrix")
SETUP_PROBES = 6  # extra set-ups in child processes; setup_s is the median of 7

LAYER_METRICS = (
    [f"symbol.{f}.{k}" for f in ("compose", "commutator", "invert", "realize_matrix", "power") for k in ("calls", "self_s")]
    + [f"loopfn.{f}.{k}" for f in ("to_grid", "from_grid", "mul") for k in ("calls", "self_s")]
    + [
        f"tseries.{f}.{k}"
        for f in ("tmul", "tcommutator", "conj_t", "tinvert", "texp", "tpow")
        for k in ("calls", "self_s")
    ]
    + [f"factorization.{f}.s" for f in ("build_U", "mulase_factorize", "kp_solve")]
    + [f"factorization.{f}.{k}" for f in ("kp_residual", "conj_consistency") for k in ("calls", "s")]
    + [f"zerocurv.{f}.s" for f in ("build_Z", "zs_residual", "ym_value")]
    + ["kp2.flow_delinearized.s", "kp2.rk4_steps", "kp2.taylor_jet.s", "trace.overhead_s"]
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def timed_setup(workload: str, seed: int):
    """Import kpsym and build the workload's inputs; returns the kpsym
    package, the workload, its inputs and the seconds this took."""
    start = time.perf_counter()
    import kpsym
    import workloads

    wl = workloads.WORKLOADS[workload]
    inputs = wl.setup(kpsym, seed)
    return kpsym, wl, inputs, time.perf_counter() - start


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh process, as a user pays it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed), "--seconds", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def run_op(kpsym, wl, inputs, tracer=None) -> dict:
    """One operation: solve, then verify (wl.verify_reps times); wall
    seconds of the solve, median wall seconds of a verify, total wall
    seconds, and the checks."""
    gc.collect()
    spans = tracer.span if tracer else nullcontext
    t0 = time.perf_counter()
    with spans("bench.solve"):
        result = wl.solve(kpsym, inputs)
    t1 = time.perf_counter()
    verify_s = []
    with spans("bench.verify"):
        for _ in range(wl.verify_reps):
            start = time.perf_counter()
            checks = wl.verify(kpsym, inputs, result)
            verify_s.append(time.perf_counter() - start)
    t2 = time.perf_counter()
    return {"solve_s": t1 - t0, "verify_s": statistics.median(verify_s), "wall_s": t2 - t0, "checks": checks}


def run_ops(kpsym, wl, inputs, seconds: float, tracer=None):
    """Whole operations until `seconds` have passed, at least one; returns
    the completed operations (with their spans when traced) and the number
    that raised."""
    ops, failed = [], 0
    start = time.perf_counter()
    while True:
        try:
            op = run_op(kpsym, wl, inputs, tracer)
        except Exception:  # an operation that raises counts as failed; keep going
            traceback.print_exc()
            failed += 1
            if tracer:
                tracer.take()
        else:
            if tracer:
                op["spans"] = tracer.take()
            ops.append(op)
            worst = max(op["checks"], key=lambda c: c.ratio)
            print(f"op {len(ops) + failed}: solve {op['solve_s']:.4f} s, verify {op['verify_s']:.4f} s, "
                  f"worst check {worst.name} = {worst.value:.3e} (tol {worst.tol:.1e})", flush=True)
        if time.perf_counter() - start >= seconds:
            return ops, failed


def environment() -> dict:
    import numpy as np

    return {
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "numpy": np.__version__,
        "longdouble_eps": float(np.finfo(np.longdouble).eps),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
    }


def end_to_end(ops, setup_samples) -> dict:
    checks = [c for op in ops for c in op["checks"]]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "solve_s": (statistics.median(op["solve_s"] for op in ops), "s"),
        "verify_s": (statistics.median(op["verify_s"] for op in ops), "s"),
        "peak_rss_mb": (rss_mb, "MiB"),
        "resid_over_tol_max": (max(c.ratio for c in checks), "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def per_layer(traced, names):
    """Per-operation layer metrics: call counts (the same in every traced
    operation) and median seconds over the traced operations.  Also returns
    the per-operation summaries and whether the self times of each operation
    add up to its wall time."""
    import spans

    overhead = len(traced[0]["spans"]) * spans.span_cost()
    summaries = [spans.summarize(op["spans"], names) for op in traced]
    walls = [op["wall_s"] for op in traced]
    counts = [{k: r["calls"] for k, r in s.items()} for s in summaries]
    ok = all(c == counts[0] for c in counts)
    for s, wall in zip(summaries, walls):
        accounted = sum(r["self_s"] for r in s.values())
        print(f"trace: self times sum to {accounted:.6f} s of {wall:.6f} s operation wall time", flush=True)
        ok = ok and abs(accounted - wall) <= 1e-3 * wall
    values = {}
    for metric in LAYER_METRICS:
        if metric == "trace.overhead_s":
            values[metric] = (overhead, "s")
        elif metric == "kp2.rk4_steps":
            values[metric] = (counts[0].get("kp2.flow_rhs", 0) // 4, "count")
        else:
            fn, field = metric.rsplit(".", 1)
            if field == "calls":
                values[metric] = (counts[0].get(fn, 0), "count")
            else:
                values[metric] = (statistics.median(s.get(fn, {}).get(field, 0.0) for s in summaries), "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, summaries, ok


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kpsym" / "__init__.py").is_file():
        print(f"kpsym sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    kpsym, wl, inputs, setup_main = timed_setup(args.workload, args.seed)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_main}))
        return 0
    print("env: " + json.dumps(environment()), flush=True)

    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install(kpsym)
        try:
            ops, failed = run_ops(kpsym, wl, inputs, args.seconds, tracer)
        finally:
            tracer.uninstall()
        metrics, consistent = {}, False
        if ops:
            metrics, summaries, consistent = per_layer(ops, tracer.names)
            write_trace(args, tracer.names, ops, summaries)
    else:
        setups = [setup_main] + [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        print("setup samples (s): " + ", ".join(f"{s:.4f}" for s in setups), flush=True)
        ops, failed = run_ops(kpsym, wl, inputs, args.seconds)
        metrics = end_to_end(ops, setups) if ops else {}
        consistent = True

    correct = bool(ops) and consistent and all(c.passed for op in ops for c in op["checks"])
    print(json.dumps({"correct": correct, "attempted": len(ops) + failed, "failed": failed, "metrics": metrics}))
    return 0


def write_trace(args, names, traced, summaries) -> None:
    """Write every span of the traced operations, times relative to the
    operation's start, with each operation's summary."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    ops = []
    for op, summary in zip(traced, summaries):
        t0 = min(s[1] for s in op["spans"])
        ops.append({"spans": [[n, a - t0, b - t0, p] for n, a, b, p in op["spans"]], "summary": summary})
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "names": names, "ops": ops}, fh)
    print(f"trace: wrote {path.relative_to(ROOT)}", flush=True)


if __name__ == "__main__":
    sys.exit(main())
