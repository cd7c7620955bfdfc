import json
from pathlib import Path

import pytest

import checks
import kpsym
import run
import spans
import workloads
from kpsym import LoopFn, TruncParams


def test_summarize_self_times_and_nested_calls():
    # a(0..10) calls b(1..5), which calls b(2..3) again
    recorded = [[0, 0.0, 10.0, -1], [1, 1.0, 5.0, 0], [1, 2.0, 3.0, 1]]
    summary = spans.summarize(recorded, ["a", "b"])
    assert summary["a"] == {"calls": 1, "s": 10.0, "self_s": 6.0}
    assert summary["b"] == {"calls": 2, "s": 4.0, "self_s": 4.0}


def test_tracer_sees_calls_between_modules_and_restores_them():
    original = (kpsym.kp_solve, kpsym.tseries.compose, LoopFn.__mul__)
    p = TruncParams(M=8, F=-4, g=4, V=3, K=3)
    tracer = spans.Tracer()
    tracer.install(kpsym)
    try:
        with tracer.span("root"):
            kpsym.kp_solve(workloads.cos_dressing(kpsym, p), p)
            LoopFn.cos(8) * 2.0
            LoopFn.cos(8) * LoopFn.cos(8)
    finally:
        tracer.uninstall()
    assert (kpsym.kp_solve, kpsym.tseries.compose, LoopFn.__mul__) == original

    recorded = tracer.take()
    summary = spans.summarize(recorded, tracer.names)
    assert summary["factorization.kp_solve"]["calls"] == 1
    assert summary["factorization.build_U"]["calls"] == 1
    assert summary["tseries.texp"]["calls"] == 1
    assert summary["tseries.tmul"]["calls"] > 0
    # compose is reached through symbol, tseries and factorization bindings
    parents = {tracer.names[recorded[par][0]] for nid, _, _, par in recorded
               if tracer.names[nid] == "symbol.compose"}
    assert {"tseries.tmul", "factorization.build_U", "symbol.invert"} <= parents
    assert summary["loopfn.mul"]["calls"] == 1  # scaling by a number is not a product
    root = recorded[0]
    assert sum(r["self_s"] for r in summary.values()) == pytest.approx(root[2] - root[1], rel=1e-9)


def test_metric_names_match_benchmark_json():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    op = {"solve_s": 1.0, "verify_s": 2.0, "wall_s": 3.0, "checks": [checks.Check("x", 1e-10, 1e-9)]}
    e2e = run.end_to_end([op], [0.1])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: v["unit"] for k, v in e2e.items()}
    assert [m["name"] for m in spec["per_layer"]] == run.LAYER_METRICS
    for m in spec["per_layer"]:
        assert m["unit"] == ("count" if m["name"].endswith(("calls", "steps")) else "s")


def test_refuses_without_kpsym_sources(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", Path(run.ROOT) / "no-such-src")
    assert run.main(["--workload", "jet-wide", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
