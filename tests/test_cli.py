"""Configuration loading, report determinism, and the pipeline commands."""

import json
import os
import re
import subprocess
import sys
from dataclasses import FrozenInstanceError
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import kpsym
from kpsym import LoopFn, Symbol, TSeries, build_Z, kp_solve, ym_value
from kpsym.criteria import Record
from kpsym.symbol import plan_stats
from kpsym.cli import (
    ANCHORS,
    COMMANDS,
    ConfigError,
    Report,
    RunConfig,
    cmd_check,
    cmd_factorize,
    cmd_flow,
    cmd_paper_table,
    main,
    select,
)

TINY = {
    "M": 12,
    "F": -5,
    "g": 7,
    "V": 6,
    "K": 3,
    "Mr": 8,
    "Q": 6,
    "cube_k": 0.05,
    "cube_n": 2,
    "flow_t_end": 0.01,
    "wide": True,
    "s0": [[-1, {"1": [0.5, 0.0], "-1": [0.5, 0.0]}]],
    "seed": 3,
}


def tiny_config(**over):
    raw = dict(TINY)
    raw.update(over)
    return RunConfig.from_dict(raw)


def full_report(command: str, cfg: RunConfig) -> Report:
    """The report `kpsym <command>` writes for `cfg`, all records kept."""
    return Report(command, cfg, select(COMMANDS[command](cfg)))


def strict_json(text: str):
    """json.loads refusing the NaN and Infinity tokens, which JSON lacks."""

    def refuse(token):
        raise ValueError(f"not JSON: {token}")

    return json.loads(text, parse_constant=refuse)


def test_config_defaults_valid():
    RunConfig().validate()


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"unknown_field": 1})


def test_config_is_frozen():
    cfg = tiny_config()
    with pytest.raises(FrozenInstanceError):
        cfg.seed = 4


def test_config_rejects_order_zero_dressing():
    with pytest.raises(ConfigError):
        tiny_config(s0=[[0, {"1": [0.1, 0.0]}]])


def test_config_rejects_bad_shapes():
    with pytest.raises(ConfigError):
        tiny_config(K=2)
    with pytest.raises(ConfigError):
        tiny_config(Mr=99)
    with pytest.raises(ConfigError):
        tiny_config(F=0)
    with pytest.raises(ConfigError):
        tiny_config(s0=[[-1, {"55": [0.1, 0.0]}]])


@pytest.mark.parametrize(
    "raw",
    [
        {"d": 2},  # extended precision is refused for d > 1
        {"g": -1},
        {"u_table": [{"99": [1, 0]}, {}]},
        {"u_table": [{}]},
        {"s0": [5]},
        {"flow_dt": 0.01 / 256},  # no longer a key: dt is t/256 for each flow time
        {"Q": 0},
        {"Mr": 0},
        {"cube_k": -0.05},
        {"cube_k": 0},
        {"cube_k": "0.05"},
        {"cube_n": 0},
        {"cube_n": 5},  # beyond K = 3
        {"K": 3.0},
        {"M": True},
        {"seed": 1.5},
        {"seed": False},
        {"wide": "no"},
        {"wide": 1},
        {"flow_t_end": "0.01"},
        {"flow_t_end": float("inf")},
        {"out_dir": 5},
        {"seed": -1},
        {"V": 2},  # below K = 3: the t_3 checks would read no valuation
        {"V": 0},
        [],  # not a JSON object
        # a mode is [re, im]: exactly two finite numbers, neither a bool
        {"u_table": [{"1": [float("nan"), 0.0]}, {}]},
        {"u_table": [{}, {"-1": [0.5, float("-inf")]}]},
        {"s0": [[-1, {"1": [float("inf"), 0.0]}]]},
        {"s0": [[-1, {"1": [True, 0.0]}]]},
        {"s0": [[-1, {"1": [0.5, 0.0, 7]}]]},
        {"s0": [[-1, {"1": [0.5]}]]},
        {"u_table": [{"1": ["0.5", 0.0]}, {}]},
        {"cube_k": 10**400},  # an integer beyond every float
        {"s0": [[-1, {"1": [10**400, 0.0]}]]},
        {"flow_t_end": 1e308},  # flow also runs to 2 * flow_t_end, which is inf
        # two keys that name one mode
        {"s0": [[-1, {"1": [0.5, 0], "01": [0.3, 0], "-1": [0.5, 0]}]]},
        {"u_table": [{"2": [1.0, 0.0], "+2": [1.0, 0.0]}, {}]},
        # a key given twice, which json.dumps cannot write: the file's text
        pytest.param('{"M": 16, "Mr": 8, "M": 8}', id="duplicate-key"),
        pytest.param('{"s0": [[-1, {"1": [0.5, 0.0], "1": [0.3, 0.0]}]]}', id="duplicate-mode-key"),
    ],
)
def test_config_rejected_before_running(tmp_path, raw):
    if not isinstance(raw, str):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(raw)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(raw if isinstance(raw, str) else json.dumps(raw))
    with pytest.raises(ConfigError):
        RunConfig.from_file(str(cfg_path))
    assert main(["paper-table", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2


def test_negative_seed_option_exits_2(tmp_path):
    assert main(["paper-table", "--seed", "-1", "--out", str(tmp_path)]) == 2
    assert not list(tmp_path.iterdir())


def test_config_file_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigError):
        RunConfig.from_file(str(missing))
    bad = tmp_path / "bad.json"
    bad.write_text("{\n  broken\n}")
    with pytest.raises(ConfigError) as err:
        RunConfig.from_file(str(bad))
    assert ":2:" in str(err.value)  # line-precise parse location


def test_report_anchor_whitelist():
    with pytest.raises(ValueError, match="unknown anchor tag 'not-an-anchor'"):
        Report("check", RunConfig(), [Record("x", "not-an-anchor", 0.0, 1.0, True)])


def test_paper_table_given_inputs():
    # u1 = sin x, u2 = cos 2x must reproduce the closed forms
    cfg = tiny_config(
        u_table=[
            {"1": [0.0, -0.5], "-1": [0.0, 0.5]},
            {"2": [0.5, 0.0], "-2": [0.5, 0.0]},
        ]
    )
    records = select(cmd_paper_table(cfg))
    assert all(r.passed and r.value <= 1e-10 for r in records)


# The report of `paper-table` at `tiny_config(u_table=[{}, {}])`, byte for byte.
ZERO_TABLE_REPORT = """{
 "command": "paper-table",
 "config": {
  "F": -5,
  "K": 3,
  "M": 12,
  "Mr": 8,
  "N": 8,
  "Q": 6,
  "V": 6,
  "cube_k": 0.05,
  "cube_n": 2,
  "d": 1,
  "flow_t_end": 0.01,
  "g": 7,
  "out_dir": ".",
  "s0": [
   [
    -1,
    {
     "-1": [
      0.5,
      0.0
     ],
     "1": [
      0.5,
      0.0
     ]
    }
   ]
  ],
  "seed": 3,
  "u_table": [
   {},
   {}
  ],
  "wide": true
 },
 "config_hash": "76f6e3925393e27e",
 "engine_version": "0.1.0",
 "pass": true,
 "records": [
  {
   "anchor": "symbol-table",
   "config_hash": "76f6e3925393e27e",
   "name": "table/L2/sigma3",
   "pass": true,
   "tol": 1e-10,
   "value": 0.0
  },
  {
   "anchor": "symbol-table",
   "config_hash": "76f6e3925393e27e",
   "name": "table/L2/sigma2",
   "pass": true,
   "tol": 1e-10,
   "value": 0.0
  },
  {
   "anchor": "symbol-table",
   "config_hash": "76f6e3925393e27e",
   "name": "table/L2/sigma1",
   "pass": true,
   "tol": 1e-10,
   "value": 0.0
  },
  {
   "anchor": "symbol-table",
   "config_hash": "76f6e3925393e27e",
   "name": "table/L2/sigma0",
   "pass": true,
   "tol": 1e-10,
   "value": 0.0
  },
  {
   "anchor": "symbol-table",
   "config_hash": "76f6e3925393e27e",
   "name": "table/L3/sigma3",
   "pass": true,
   "tol": 1e-10,
   "value": 0.0
  },
  {
   "anchor": "symbol-table",
   "config_hash": "76f6e3925393e27e",
   "name": "table/L3/sigma2",
   "pass": true,
   "tol": 1e-10,
   "value": 0.0
  },
  {
   "anchor": "symbol-table",
   "config_hash": "76f6e3925393e27e",
   "name": "table/L3/sigma1",
   "pass": true,
   "tol": 1e-10,
   "value": 0.0
  },
  {
   "anchor": "symbol-table",
   "config_hash": "76f6e3925393e27e",
   "name": "table/L3/sigma0",
   "pass": true,
   "tol": 1e-10,
   "value": 0.0
  },
  {
   "anchor": "symbol-table",
   "config_hash": "76f6e3925393e27e",
   "name": "table/bracket-sigma1",
   "pass": true,
   "tol": 1e-10,
   "value": 0.0
  },
  {
   "anchor": "symbol-table",
   "config_hash": "76f6e3925393e27e",
   "name": "table/bracket-sigma0",
   "pass": true,
   "tol": 1e-10,
   "value": 0.0
  }
 ],
 "seed": 3
}
"""


def test_paper_table_zero_inputs():
    cfg = tiny_config(u_table=[{}, {}])
    rep = full_report("paper-table", cfg)
    assert rep.ok
    assert all(r.value == 0.0 for r in rep.records)
    assert rep.to_json() == ZERO_TABLE_REPORT


@pytest.mark.parametrize("command", ["factorize", "paper-table"])
def test_report_bytes_stable(command):
    cfg = tiny_config()
    a = full_report(command, cfg).to_json()
    b = full_report(command, cfg).to_json()
    assert a == b
    other = full_report(command, tiny_config(seed=4)).to_json()
    assert other != a


def test_factorize_command():
    rep = full_report("factorize", tiny_config())
    assert rep.ok, rep.summary()
    names = {r.name for r in rep.records}
    assert "factorize/su-equals-y" in names
    assert all(r.anchor in ANCHORS for r in rep.records)


def test_check_command():
    rep = full_report("check", tiny_config())
    assert all(r.anchor in ANCHORS for r in rep.records)
    failing = [r.name for r in rep.records if not r.passed]
    assert not failing, f"failing records: {failing}\n{rep.summary()}"


def test_only_filter():
    assert len(select(cmd_factorize(tiny_config()), ["factorize/su"])) == 1


def test_main_exit_codes(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(TINY, out_dir=str(tmp_path))))
    rc = main(["paper-table", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "paper_table_report.json").exists()
    bad = tmp_path / "bad.json"
    bad.write_text('{"K": 1}')
    assert main(["check", "--config", str(bad)]) == 2


@pytest.mark.parametrize("command", ["factorize", "check", "flow", "paper-table"])
def test_only_matching_nothing_exits_2(tmp_path, capsys, command):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(TINY))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg_path), "--out", str(out), "--only", "nosuch"]) == 2
    assert "matches no record" in capsys.readouterr().err
    assert not out.exists()


def test_only_drops_empty_prefixes(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(TINY))
    args = ["paper-table", "--config", str(cfg_path), "--out", str(tmp_path)]
    assert main(args + ["--only", "table/L2/,"]) == 0
    records = json.loads((tmp_path / "paper_table_report.json").read_text())["records"]
    assert [r["name"] for r in records] == [f"table/L2/sigma{s}" for s in (3, 2, 1, 0)]
    capsys.readouterr()
    assert main(args + ["--only", ","]) == 2
    assert "config error" in capsys.readouterr().err


def test_unusable_out_dir_exits_2_before_running(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    before = plan_stats()["compose_calls"]
    args = ["paper-table", "--out", str(blocker / "out")]
    assert main(args) == 2
    assert "config error: cannot create output directory" in capsys.readouterr().err
    # --only is matched against the declared names before --out is created
    assert main(args + ["--only", "nosuch"]) == 2
    assert "config error: --only 'nosuch' matches no record" in capsys.readouterr().err
    assert plan_stats()["compose_calls"] == before


def src_env():
    """The environment of a child process that imports this kpsym."""
    src = str(Path(kpsym.__file__).parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def test_import_loads_no_cli_criteria_or_scipy():
    # `import kpsym` is the set-up cost of every process that uses the library
    mods = "{'kpsym.__main__', 'kpsym.cli', 'kpsym.criteria', 'scipy'}"
    code = f"import sys, kpsym; print(sorted({mods} & set(sys.modules)))"
    run = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"


def test_python_m_kpsym_runs_the_command_line(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(TINY))
    args = ["paper-table", "--config", str(cfg_path), "--out", str(tmp_path)]
    report = tmp_path / "paper_table_report.json"
    run = subprocess.run([sys.executable, "-m", "kpsym", *args], env=src_env(), capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    written = report.read_bytes()
    report.unlink()
    assert main(args) == 0
    assert report.read_bytes() == written


def test_verbose_reports_kernel_use(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(TINY))
    args = ["paper-table", "--config", str(cfg_path), "--out", str(tmp_path)]
    report = tmp_path / "paper_table_report.json"
    assert main(args) == 0
    quiet, quiet_bytes = capsys.readouterr(), report.read_bytes()
    assert main(args + ["--verbose"]) == 0
    loud = capsys.readouterr()
    assert loud.out == quiet.out and report.read_bytes() == quiet_bytes
    assert quiet.err == ""
    # L^2 and L^3 = L^2 L take 2 compose calls; the bracket runs the kernel twice more
    m = re.fullmatch(r"compose: 2 calls, 4 kernel runs; plan cache: (\d+) hits, (\d+) misses, (\d+) plans held\n",
                     loud.err)
    assert m, loud.err
    hits, misses, held = map(int, m.groups())
    # the first run left every plan of the second in the cache
    assert (hits, misses) == (4, 0) and held >= 4


@pytest.mark.slow
def test_flow_command_writes_tables(tmp_path):
    cfg = tiny_config(out_dir=str(tmp_path), flow_t_end=0.005)
    records = select(cmd_flow(cfg))
    assert (tmp_path / "flow_convergence_t2.dat").exists()
    names = {r.name: r for r in records}
    assert names["flow/commute-12"].passed


def test_flow_blowup_reason_reported(tmp_path, capsys):
    # at TINY the t3 flow blows up; the record and the summary line carry why
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY))
    assert main(["flow", "--config", str(path), "--out", str(tmp_path), "--only", "flow/jet-ratio-t3"]) == 1
    line = capsys.readouterr().out.splitlines()[0]
    (record,) = json.loads((tmp_path / "flow_report.json").read_text())["records"]
    assert record["message"].startswith("coefficient sup-norm exceeded 1.0e+06 at t=")
    assert line == f"[FAIL] flow/jet-ratio-t3: 0.000e+00 (tol 9.0e+01) - {record['message']}"
    # a record without a message keeps its keys and its summary line
    rep = Report("flow", tiny_config(), [Record("flow/commute-12", "flow", 3.388e-15, 1e-6, True)])
    assert set(json.loads(rep.to_json())["records"][0]) == {"name", "anchor", "value", "tol", "pass", "config_hash"}
    assert rep.summary().splitlines()[0] == "[pass] flow/commute-12: 3.388e-15 (tol 1.0e-06)"


def test_flow_commute_blowup_reported(tmp_path, capsys):
    # at TINY with flow_t_end = 1 the t2 flow blows up: the record reads inf
    # and fails, and its message and the summary line say why
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(dict(TINY, flow_t_end=1.0)))
    assert main(["flow", "--config", str(path), "--out", str(tmp_path), "--only", "flow/commute"]) == 1
    line = capsys.readouterr().out.splitlines()[0]
    (record,) = strict_json((tmp_path / "flow_report.json").read_text())["records"]
    why = "coefficient sup-norm exceeded 1.0e+06 at t=0.5312"
    assert (record["value"], record["pass"], record["message"]) == ("Infinity", False, why)
    assert line == f"[FAIL] flow/commute-12: inf (tol 1.0e-06) - {why}"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_report_is_json_with_non_finite_values(tmp_path):
    # at cube_k = 1e300 the Yang-Mills values overflow to NaN and inf, which
    # the report writes as strings
    path = tmp_path / "huge_cube.json"
    path.write_text(json.dumps(dict(TINY, cube_k=1e300)))
    assert main(["check", "--config", str(path), "--out", str(tmp_path), "--only", "ym"]) == 1
    report = strict_json((tmp_path / "check_report.json").read_text())
    assert [r["value"] for r in report["records"]] == ["NaN", "Infinity"]
    records = [Record("x", "flow", -np.inf, np.nan, False), Record("y", "flow", 0.5, 1.0, True)]
    rep = Report("flow", tiny_config(), records)
    assert [(r["value"], r["tol"]) for r in strict_json(rep.to_json())["records"]] == [("-Infinity", "NaN"), (0.5, 1.0)]


def test_check_yang_mills_record_is_worst_perturbation():
    cfg = tiny_config()
    (record,) = select(cmd_check(cfg), ["ym/flat-vs-perturbed"])
    params = cfg.params()
    _, Z_S = build_Z(kp_solve(cfg.build_s0(params), params))
    ym = partial(ym_value, k=cfg.cube_k, n=cfg.cube_n, i=2, j=3, Mr=cfg.Mr, Q=cfg.Q)
    base = ym(Z_S)
    rng = np.random.default_rng(cfg.seed)
    ratios = []
    for _ in range(3):
        bump = LoopFn.random_trig(rng, params.M, 2, amp=1e-2)
        ratios.append(base / ym(Z_S.add_term(3, TSeries.monomial(params, (0, 1, 0), Symbol(params, {-1: bump})))))
    assert min(ratios) < max(ratios)
    assert record.value == max(ratios)


# A reduced scale keeps the repeated runs of each command cheap.
ONLY_SCALE = {"M": 8, "F": -4, "g": 4, "V": 4, "Mr": 6, "Q": 4}


@pytest.mark.parametrize(
    "command, selections",
    [
        # paper-table has one group: selecting part of it runs all of it
        (cmd_paper_table, [(["table/L3/"], False)]),
        (cmd_factorize, [(["factorize/su"], True), (["factorize/y", "factorize/lip"], False)]),
        (cmd_check, [(["product-integral"], True), (["kp/res", "zs/s-form-23", "scaling"], True)]),
        pytest.param(cmd_flow, [(["flow/jet-ratio-t2"], True), (["flow/jet", "flow/commute-99"], True)],
                     marks=pytest.mark.slow),
    ],
)
def test_only_runs_selected_groups(tmp_path, command, selections):
    cfg = tiny_config(out_dir=str(tmp_path), **ONLY_SCALE)

    def run(only):
        before = plan_stats()["compose_calls"]
        records = select(command(cfg), only)
        return records, plan_stats()["compose_calls"] - before

    full, full_calls = run(None)
    for only, skips_a_group in selections:
        records, calls = run(only)
        assert records == [r for r in full if any(r.name.startswith(p) for p in only)]
        assert records and (calls < full_calls) == skips_a_group
    assert run(["none/such"]) == ([], 0)
