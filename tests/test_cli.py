"""Configuration loading, report determinism, and the pipeline commands."""

import json
import re

import pytest

from kpsym.cli import (
    ANCHORS,
    ConfigError,
    Report,
    RunConfig,
    cmd_check,
    cmd_factorize,
    cmd_flow,
    cmd_paper_table,
    main,
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
    "flow_dt": 0.01 / 256,
    "wide": True,
    "s0": [[-1, {"1": [0.5, 0.0], "-1": [0.5, 0.0]}]],
    "seed": 3,
}


def tiny_config(**over):
    raw = dict(TINY)
    raw.update(over)
    return RunConfig.from_dict(raw)


def test_config_defaults_valid():
    RunConfig().validate()


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"unknown_field": 1})


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
    rep = Report("check", RunConfig(), 0)
    with pytest.raises(ValueError):
        rep.add("x", "not-an-anchor", 0.0, 1.0)


def test_paper_table_given_inputs():
    # u1 = sin x, u2 = cos 2x must reproduce the closed forms
    cfg = tiny_config(
        u_table=[
            {"1": [0.0, -0.5], "-1": [0.0, 0.5]},
            {"2": [0.5, 0.0], "-2": [0.5, 0.0]},
        ]
    )
    rep = cmd_paper_table(cfg)
    assert rep.ok
    assert all(r["value"] <= 1e-10 for r in rep.records)


def test_paper_table_zero_inputs():
    cfg = tiny_config(u_table=[{}, {}])
    rep = cmd_paper_table(cfg)
    assert rep.ok
    assert all(r["value"] == 0.0 for r in rep.records)


def test_report_bytes_stable(tmp_path):
    cfg = tiny_config()
    a = cmd_paper_table(cfg).to_json()
    b = cmd_paper_table(cfg).to_json()
    assert a == b
    other = cmd_paper_table(tiny_config(seed=4)).to_json()
    assert other != a


def test_factorize_command():
    rep = cmd_factorize(tiny_config())
    assert rep.ok, rep.summary()
    names = {r["name"] for r in rep.records}
    assert "factorize/su-equals-y" in names
    assert all(r["anchor"] in ANCHORS for r in rep.records)


@pytest.mark.slow
def test_check_command():
    rep = cmd_check(tiny_config())
    assert all(r["anchor"] in ANCHORS for r in rep.records)
    failing = [r["name"] for r in rep.records if not r["pass"]]
    assert not failing, f"failing records: {failing}\n{rep.summary()}"


def test_only_filter():
    rep = cmd_factorize(tiny_config(), only=["factorize/su"])
    assert len(rep.records) == 1


def test_main_exit_codes(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(TINY, out_dir=str(tmp_path))))
    rc = main(["paper-table", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "paper_table_report.json").exists()
    bad = tmp_path / "bad.json"
    bad.write_text('{"K": 1}')
    assert main(["check", "--config", str(bad)]) == 2


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
    # L^2 and L^3 take 3 compose calls; the bracket's two products are not compose calls
    m = re.fullmatch(r"compose: 3 calls; plan cache: (\d+) hits, (\d+) misses, (\d+) plans held\n", loud.err)
    assert m, loud.err
    hits, misses, held = map(int, m.groups())
    # the first run left every plan of the second in the cache
    assert (hits, misses) == (5, 0) and held >= 4


def test_flow_command_writes_tables(tmp_path):
    cfg = tiny_config(out_dir=str(tmp_path), flow_t_end=0.005)
    rep = cmd_flow(cfg)
    assert (tmp_path / "flow_convergence_t2.dat").exists()
    names = {r["name"]: r for r in rep.records}
    assert names["flow/commute-12"]["pass"]
