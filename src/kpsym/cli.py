"""Configuration loading, pipeline orchestration, and report emission.

Subcommands: factorize, check, flow, paper-table.  Configuration is a JSON
file; reports are canonical JSON (sorted keys, stable separators) so that
identical config + seed produce byte-identical output.  Exit codes: 0 all
checks pass, 1 at least one failed, 2 configuration error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .loopfn import LoopFn
from .symbol import Symbol, TruncParams, commutator, plan_stats, power
from .tseries import TSeries, Path as TPath, product_integral, scale_h, texp, tmul
from .factorization import (
    conj_consistency,
    conj_from,
    ds_rhs_gap,
    kp_residual,
    kp_solve,
)
from .zerocurv import build_Z, ym_value, zs_residual
from .kp2 import FlowBlowup, check_t12, check_t13, check_t23, equiv_t23, eval_taylor
from .kp2 import extract_u, flow_delinearized, flows_commute, taylor_jet

ANCHORS = {
    "symbol-table",
    "factorization",
    "kp-residual",
    "zero-curvature",
    "yang-mills",
    "flow",
    "scaling",
    "product-integral",
    "plumbing",
}


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    d: int = 1
    M: int = 32
    F: int = -10
    N: int = 8
    V: int = 6
    K: int = 3
    g: int = 8
    Mr: int = 24
    Q: int = 8
    cube_k: float = 0.05
    cube_n: int = 2
    flow_t_end: float = 0.01
    flow_dt: float = 0.01 / 256
    wide: bool = True
    s0: list = field(default_factory=lambda: [[-1, {"1": [0.5, 0.0], "-1": [0.5, 0.0]}]])
    u_table: list | None = None  # optional [u1, u2] mode tables for paper-table
    seed: int = 0
    out_dir: str = "."

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}:{e.lineno}:{e.colno}: invalid JSON: {e.msg}")
        return cls.from_dict(raw, origin=path)

    @classmethod
    def from_dict(cls, raw: dict, origin: str = "<config>") -> "RunConfig":
        cfg = cls()
        known = set(cfg.__dataclass_fields__)
        for key, value in raw.items():
            if key not in known:
                raise ConfigError(f"{origin}: unknown key '{key}'")
            setattr(cfg, key, value)
        cfg.validate(origin)
        return cfg

    def validate(self, origin: str = "<config>") -> None:
        if self.d < 1:
            raise ConfigError(f"{origin}: d must be >= 1")
        if self.F > -1 or self.N < 1:
            raise ConfigError(f"{origin}: need F <= -1 <= 1 <= N")
        if self.V < 1:
            raise ConfigError(f"{origin}: V must be >= 1")
        if self.K < 3:
            raise ConfigError(f"{origin}: K must be >= 3 for the KP-II pipelines")
        if self.Mr > self.M:
            raise ConfigError(f"{origin}: Mr must not exceed M")
        if self.flow_dt <= 0 or self.flow_t_end <= 0:
            raise ConfigError(f"{origin}: flow times must be positive")
        for entry in self.s0:
            if len(entry) != 2:
                raise ConfigError(f"{origin}: s0 entries are [order, coefficient-table] pairs")
            order = entry[0]
            if not isinstance(order, int) or order > -1:
                raise ConfigError(f"{origin}: s0 orders must be integers <= -1, got {order!r}")
            for mode in entry[1]:
                if abs(int(mode)) > self.M:
                    raise ConfigError(f"{origin}: s0 mode {mode} outside cutoff M={self.M}")

    def params(self, wide: bool | None = None) -> TruncParams:
        return TruncParams(
            d=self.d, M=self.M, F=self.F, N=self.N, V=self.V, K=self.K, g=self.g,
            wide=self.wide if wide is None else wide,
        )

    def build_s0(self, params: TruncParams) -> Symbol:
        terms = {0: LoopFn.const(params.d, params.M, 1.0)}
        for order, table in self.s0:
            entries = {}
            for mode, val in table.items():
                entries[int(mode)] = complex(val[0], val[1])
            terms[order] = terms.get(order, LoopFn.zero(params.d, params.M)) + LoopFn.from_modes(
                params.d, params.M, entries
            )
        return Symbol(params, terms)

    def canonical_dict(self) -> dict:
        return {k: getattr(self, k) for k in sorted(self.__dataclass_fields__)}


def config_hash(cfg: RunConfig) -> str:
    text = json.dumps(cfg.canonical_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Report:
    command: str
    config: RunConfig
    seed: int
    records: list = field(default_factory=list)

    def add(self, name: str, anchor: str, value: float, tol: float, passed: bool | None = None) -> bool:
        if anchor not in ANCHORS:
            raise ValueError(f"unknown anchor tag '{anchor}'")
        if passed is None:
            passed = bool(value <= tol)
        self.records.append(
            {
                "name": name,
                "anchor": anchor,
                "value": float(value),
                "tol": float(tol),
                "pass": bool(passed),
                "config_hash": config_hash(self.config),
            }
        )
        return passed

    @property
    def ok(self) -> bool:
        return all(r["pass"] for r in self.records)

    def to_json(self) -> str:
        body = {
            "command": self.command,
            "engine_version": _version(),
            "config": self.config.canonical_dict(),
            "config_hash": config_hash(self.config),
            "seed": self.seed,
            "records": self.records,
            "pass": self.ok,
        }
        return json.dumps(body, sort_keys=True, separators=(",", ": "), indent=1) + "\n"

    def write(self, out_dir: str) -> Path:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        path = out / f"{self.command.replace('-', '_')}_report.json"
        path.write_text(self.to_json())
        return path

    def summary(self) -> str:
        lines = []
        for r in self.records:
            status = "pass" if r["pass"] else "FAIL"
            lines.append(f"[{status}] {r['name']}: {r['value']:.3e} (tol {r['tol']:.1e})")
        lines.append(f"=> {'all passed' if self.ok else 'FAILURES present'}")
        return "\n".join(lines)


def _version() -> str:
    from . import __version__

    return __version__


def _filtered(report: Report, only: list | None):
    if not only:
        return report
    report.records = [r for r in report.records if any(r["name"].startswith(p) for p in only)]
    return report


def cmd_factorize(cfg: RunConfig, only=None) -> Report:
    params = cfg.params()
    report = Report("factorize", cfg, cfg.seed)
    S0 = cfg.build_s0(params)
    jet = kp_solve(S0, params)
    su_y = (tmul(jet.S, jet.U) - jet.Y).norm()
    report.add("factorize/su-equals-y", "factorization", su_y, 1e-10)
    neg = max(
        (f.norm() for sym in jet.Y.terms.values() for n, f in sym.a.items() if n < 0),
        default=0.0,
    )
    report.add("factorize/y-strictly-differential", "factorization", neg, 0.0, passed=neg == 0.0)
    try:
        jet.S.assert_growth(0)
        jet.Y.assert_growth(0)
        jet.L.assert_growth(1)
        report.add("factorize/growth-condition", "factorization", 0.0, 0.0, passed=True)
    except AssertionError:
        report.add("factorize/growth-condition", "factorization", 1.0, 0.0, passed=False)

    # smoothness probe: response to dressing perturbations of two sizes
    ratios = []
    for eps_size in (1e-3, 1e-4):
        bump = Symbol(params, {-1: LoopFn.cos(params.M, 1, eps_size, d=params.d)})
        jet_p = kp_solve(S0 + bump, params)
        delta = max(
            (jet_p.S - jet.S).norm(), (jet_p.Y - jet.Y).norm()
        )
        ratios.append(delta / eps_size)
    stable = max(ratios) / min(ratios)
    report.add("factorize/lipschitz-ratio-stable", "factorization", stable, 2.0)
    return _filtered(report, only)


def cmd_check(cfg: RunConfig, only=None) -> Report:
    params = cfg.params()
    report = Report("check", cfg, cfg.seed)
    S0 = cfg.build_s0(params)
    jet = kp_solve(S0, params)
    for n in range(1, params.K + 1):
        report.add(f"kp/residual-t{n}", "kp-residual", kp_residual(jet, n), 1e-9)
        report.add(f"kp/ds-gap-t{n}", "kp-residual", ds_rhs_gap(jet, n), 1e-9)
    report.add("kp/conj-consistency", "kp-residual", conj_consistency(jet), 1e-9)

    Z_D, Z_S = build_Z(jet)
    raw_S = -Z_S
    for m in range(1, params.K + 1):
        for n in range(m + 1, params.K + 1):
            report.add(f"zs/d-form-{m}{n}", "zero-curvature", zs_residual(Z_D, m, n, +1), 1e-9)
            report.add(f"zs/s-form-{m}{n}", "zero-curvature", zs_residual(raw_S, m, n, -1), 1e-9)
    flipped = zs_residual(Z_D, 1, 2, -1)
    report.add("zs/sign-flip-control", "zero-curvature", flipped, 1e-2, passed=flipped >= 1e-2)

    ym_base = ym_value(Z_S, cfg.cube_k, cfg.cube_n, 2, 3, cfg.Mr, cfg.Q)
    report.add("ym/flat-value", "yang-mills", ym_base, 1e-4, passed=ym_base >= 0)
    rng = np.random.default_rng(cfg.seed)
    worst = np.inf
    for _ in range(3):
        pert = TSeries.monomial(
            params,
            (0, 1, 0),
            Symbol(params, {-1: LoopFn.random_trig(rng, params.M, 2, 1e-2, d=params.d)}),
        )
        ym_pert = ym_value(Z_S.add_term(3, pert), cfg.cube_k, cfg.cube_n, 2, 3, cfg.Mr, cfg.Q)
        worst = min(worst, ym_base / ym_pert if ym_pert > 0 else np.inf)
    report.add("ym/flat-vs-perturbed", "yang-mills", worst, 1e-4)

    report.add("kp2/t12", "zero-curvature", check_t12(jet), 1e-9)
    report.add("kp2/t13", "zero-curvature", check_t13(jet), 1e-9)
    report.add("kp2/t23", "zero-curvature", check_t23(jet), 1e-9)
    report.add("kp2/equiv-t23", "zero-curvature", equiv_t23(extract_u(jet.L)), 1e-10)

    h = 2.0
    scaled = scale_h(jet.L, h)
    params_h = params.with_deform(1.0 / h)
    S0h = Symbol(params_h, {n: f * (h ** float(n)) for n, f in S0.a.items()})
    jet_h = kp_solve(
        S0h, params_h, xi_scale=h, time_weights=[h**n for n in range(1, params.K + 1)]
    )
    diff = 0.0
    for mono in set(scaled.terms) | set(jet_h.L.terms):
        a = scaled.terms.get(mono, Symbol.zero(params))
        b = jet_h.L.terms.get(mono, Symbol.zero(params_h))
        for n in set(a.a) | set(b.a):
            if n >= params.F:
                diff = max(diff, float(np.linalg.norm((a.coeff(n).c - b.coeff(n).c).astype(complex))))
    report.add("scaling/covariance-h2", "scaling", diff, 1e-9)

    gen = TSeries.monomial(params, (1, 0, 0), Symbol(params, {-1: LoopFn.cos(params.M, d=params.d)}))
    target = texp(gen)
    errs = [(product_integral(TPath.constant(gen), n) - target).norm() for n in (64, 128, 256)]
    for i, n in enumerate((64, 128)):
        ratio = errs[i] / errs[i + 1]
        report.add(
            f"product-integral/rate-n{n}", "product-integral", ratio, 2.2,
            passed=1.8 <= ratio <= 2.2,
        )
    return _filtered(report, only)


def cmd_flow(cfg: RunConfig, only=None) -> Report:
    params = cfg.params(wide=False)
    report = Report("flow", cfg, cfg.seed)
    S0 = cfg.build_s0(params)
    L0 = conj_from(S0, params)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for direction in (2, 3):
        coeffs = taylor_jet(L0, direction, params.V)
        rows = []
        errs = []
        try:
            for t_end in (cfg.flow_t_end * 2, cfg.flow_t_end):
                state = flow_delinearized(L0, direction, t_end, t_end / 256)
                err = (state.L - eval_taylor(coeffs, t_end)).norm()
                rows.append((t_end, err))
                errs.append(err)
            ratio = errs[0] / errs[1] if errs[1] > 0 else np.inf
        except FlowBlowup:
            ratio = 0.0
        bound = 0.7 * 2 ** (params.V + 1)
        report.add(f"flow/jet-ratio-t{direction}", "flow", ratio, bound, passed=ratio >= bound)
        if rows:
            table = "\n".join(f"{t:.6e} {e:.17e}" for t, e in rows)
            (out / f"flow_convergence_t{direction}.dat").write_text(table + "\n")
    disc = flows_commute(L0, 1, 2, cfg.flow_t_end, cfg.flow_t_end / 256)
    report.add("flow/commute-12", "flow", disc, 1e-6)
    return _filtered(report, only)


def cmd_paper_table(cfg: RunConfig, only=None) -> Report:
    params = cfg.params(wide=False)
    report = Report("paper-table", cfg, cfg.seed)
    rng = np.random.default_rng(cfg.seed)
    M, d = params.M, params.d
    if cfg.u_table is not None:
        tables = [
            {int(m): complex(v[0], v[1]) for m, v in tab.items()} for tab in cfg.u_table
        ]
        u1 = LoopFn.from_modes(d, M, tables[0])
        u2 = LoopFn.from_modes(d, M, tables[1])
    else:
        u1 = LoopFn.random_trig(rng, M, max_mode=min(8, M // 4), d=d)
        u2 = LoopFn.random_trig(rng, M, max_mode=min(8, M // 4), d=d)
    L = Symbol(params, {1: LoopFn.const(d, M, 1.0), -1: u1, -2: u2})
    L2, L3 = power(L, 2), power(L, 3)
    one = LoopFn.const(d, M, 1.0)
    zero = LoopFn.zero(d, M)
    expected = {
        "L2/sigma3": (L2.coeff(3), zero),
        "L2/sigma2": (L2.coeff(2), one),
        "L2/sigma1": (L2.coeff(1), zero),
        "L2/sigma0": (L2.coeff(0), 2.0 * u1),
        "L3/sigma3": (L3.coeff(3), one),
        "L3/sigma2": (L3.coeff(2), zero),
        "L3/sigma1": (L3.coeff(1), 3.0 * u1),
        "L3/sigma0": (L3.coeff(0), 3.0 * u2 + 3.0 * u1.dx()),
    }
    for name, (got, want) in expected.items():
        report.add(f"table/{name}", "symbol-table", (got - want).norm(), 1e-10)
    bracket = commutator(L2.d_part(), L3.d_part())
    want1 = 3.0 * u1.dx(2) + 6.0 * u2.dx()
    want0 = 3.0 * u2.dx(2) + u1.dx(3) - 6.0 * (u1.dx() * u1)
    report.add("table/bracket-sigma1", "symbol-table", (bracket.coeff(1) - want1).norm(), 1e-10)
    report.add("table/bracket-sigma0", "symbol-table", (bracket.coeff(0) - want0).norm(), 1e-10)
    return _filtered(report, only)


def _kernel_summary(before: dict, after: dict) -> str:
    """Composition work of one command: `compose` calls, compose-plan
    cache hits and misses, and the plans held at the end."""
    calls, hits, misses = (after[k] - before[k] for k in ("compose_calls", "plan_hits", "plan_misses"))
    return f"compose: {calls} calls; plan cache: {hits} hits, {misses} misses, {after['plans']} plans held"


COMMANDS = {
    "factorize": cmd_factorize,
    "check": cmd_check,
    "flow": cmd_flow,
    "paper-table": cmd_paper_table,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="kpsym", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config path (defaults used if omitted)")
        p.add_argument("--out", default=None, help="output directory for reports and plot data")
        p.add_argument("--seed", type=int, default=None, help="seed for randomized checks")
        p.add_argument("--only", default=None, help="comma-separated record-name prefixes to keep")
        p.add_argument("--verbose", action="store_true",
                       help="print composition counts and plan-cache use to stderr")
    args = parser.parse_args(argv)

    try:
        cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
        if args.seed is not None:
            cfg.seed = args.seed
        if args.out is not None:
            cfg.out_dir = args.out
        only = args.only.split(",") if args.only else None
        before = plan_stats()
        report = COMMANDS[args.command](cfg, only=only)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    if args.verbose:
        print(_kernel_summary(before, plan_stats()), file=sys.stderr)
    path = report.write(cfg.out_dir)
    print(report.summary())
    print(f"report: {path}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
