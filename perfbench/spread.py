"""Run the benchmark once per seed and report each end-to-end metric's
median and its spread: the distance between the first and third quartiles
(statistics.quantiles, n=4) as a share of the median.

    python3 perfbench/spread.py --workload jet-wide --seeds 1-10 --seconds 10

Prints one line per run and a table per workload.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def table(results: list) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=10)
    args = ap.parse_args()
    for workload in args.workload:
        results = []
        for seed in seeds(args.seeds):
            res = run_once(workload, seed, args.seconds)
            results.append(res)
            vals = ", ".join(f"{k} {v['value']:.6g}" for k, v in res["metrics"].items())
            print(f"{workload} seed {seed}: correct {res['correct']}, attempted {res['attempted']}, "
                  f"failed {res['failed']}, {vals}", flush=True)
        stats = table(results)
        for name, s in stats.items():
            print(f"{workload} {name}: median {s['median']:.6g}, quartiles {s['q1']:.6g}..{s['q3']:.6g}, "
                  f"spread {s['spread']:.4f}", flush=True)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"{workload} failed shares: {shares}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
