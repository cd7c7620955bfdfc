"""Configuration loading, pipeline orchestration, and report emission.

Subcommands: factorize, check, flow, paper-table.  Configuration is a JSON
file; reports are canonical JSON (sorted keys, stable separators) so that
identical config + seed produce byte-identical output.  Each `cmd_*`
returns its record groups, (declared names, run) pairs over the functions
of `criteria`.  `main` checks the config in full, matches `--only` against
the declared names, creates `--out`, and only then lets `select` run the
groups asked for into one `Report`.  A `RunConfig` and a `Report` are built
once and then only read; a report holds the `criteria.Record`s and forms
their JSON only in `to_json`.  Exit codes: 0 all checks pass, 1 at least
one failed, 2 configuration error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass, field, replace
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import criteria
from .factorization import conj_from, kp_solve
from .loopfn import LoopFn
from .symbol import Symbol, TruncParams, plan_stats
from .tseries import TSeries

ANCHORS = {
    "symbol-table", "factorization", "kp-residual", "zero-curvature", "yang-mills", "flow", "scaling",
    "product-integral",
}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
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
    wide: bool = True
    s0: list = field(default_factory=lambda: [[-1, {"1": [0.5, 0.0], "-1": [0.5, 0.0]}]])
    u_table: list | None = None  # optional [u1, u2] mode tables for paper-table
    seed: int = 0
    out_dir: str = "."

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        try:
            raw = json.loads(Path(path).read_text(), object_pairs_hook=partial(_unique_keys, path))
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}:{e.lineno}:{e.colno}: invalid JSON: {e.msg}")
        return cls.from_dict(raw, origin=path)

    @classmethod
    def from_dict(cls, raw: dict, origin: str = "<config>") -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"{origin}: a config is a JSON object, got {type(raw).__name__}")
        for key in raw:
            if key not in cls.__dataclass_fields__:
                raise ConfigError(f"{origin}: unknown key '{key}'")
        cfg = cls(**raw)
        cfg.validate(origin)
        return cfg

    def validate(self, origin: str = "<config>") -> None:
        """Reject what the commands could not run, building its parts as they do."""
        # JSON's true and false arrive as bool, a subclass of int
        for key in ("d", "M", "F", "N", "V", "K", "g", "Mr", "Q", "cube_n", "seed"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{origin}: {key} must be an integer, got {value!r}")
        for key in ("cube_k", "flow_t_end"):
            value = getattr(self, key)
            if not _finite_real(value):
                raise ConfigError(f"{origin}: {key} must be a finite real number, got {value!r}")
        if not isinstance(self.wide, bool):
            raise ConfigError(f"{origin}: wide must be true or false, got {self.wide!r}")
        if not isinstance(self.out_dir, str):
            raise ConfigError(f"{origin}: out_dir must be a path string, got {self.out_dir!r}")
        try:
            params = self.params()
            for order, _ in self.s0:
                if not isinstance(order, int) or order > -1:
                    raise ValueError(f"s0 orders must be integers <= -1, got {order!r}")
            self.build_s0(params)
            if self.u_table is not None:
                if len(self.u_table) != 2:
                    raise ValueError("u_table holds two mode tables, for u1 and u2")
                for table in self.u_table:
                    _from_table(params, table)
        except (AttributeError, IndexError, TypeError, ValueError) as e:
            raise ConfigError(f"{origin}: {e}")
        if self.K < 3:
            raise ConfigError(f"{origin}: K must be >= 3 for the KP-II pipelines")
        if self.V < self.K:
            raise ConfigError(f"{origin}: V must be >= K: a t_n check reads valuations <= V - n")
        if not 1 <= self.Mr <= self.M:
            raise ConfigError(f"{origin}: Mr must lie in [1, M]")
        if self.Q < 1:
            raise ConfigError(f"{origin}: Q must be >= 1")
        if self.cube_k <= 0:
            raise ConfigError(f"{origin}: cube_k must be positive")
        if not 1 <= self.cube_n <= self.K:
            raise ConfigError(f"{origin}: cube_n must lie in [1, K]")
        if self.flow_t_end <= 0:
            raise ConfigError(f"{origin}: flow_t_end must be positive")
        if not 2 * self.flow_t_end <= sys.float_info.max:
            raise ConfigError(f"{origin}: flow_t_end must be finite when doubled: flow also runs to 2 * flow_t_end")
        if self.seed < 0:
            raise ConfigError(f"{origin}: seed must be >= 0")

    def params(self, wide: bool | None = None) -> TruncParams:
        return TruncParams(
            d=self.d, M=self.M, F=self.F, N=self.N, V=self.V, K=self.K, g=self.g,
            wide=self.wide if wide is None else wide,
        )

    def build_s0(self, params: TruncParams) -> Symbol:
        terms = {0: LoopFn.const(params.d, params.M, 1.0)}
        for order, table in self.s0:
            terms[order] = terms.get(order, LoopFn.zero(params.d, params.M)) + _from_table(params, table)
        return Symbol(params, terms)

    def canonical_dict(self) -> dict:
        return {k: getattr(self, k) for k in sorted(self.__dataclass_fields__)}


def _finite_real(value) -> bool:
    """Whether a JSON value is a number a float holds finitely: true and false
    arrive as bool, a subclass of int, NaN and Infinity as float, and an
    integer may exceed every float (a NaN fails the comparison too)."""
    return not isinstance(value, bool) and isinstance(value, (int, float)) and abs(value) <= sys.float_info.max


def _unique_keys(origin: str, pairs: list) -> dict:
    """A JSON object's (key, value) pairs as a dict; json.loads would keep the
    last of a repeated key without a word."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ConfigError(f"{origin}: duplicate key '{key}'")
        out[key] = value
    return out


def _from_table(params: TruncParams, table: dict) -> LoopFn:
    """The function of a {mode: [re, im]} table, each part a finite number
    and each mode named by one key only ("1" and "01" name the same mode)."""
    keys = {}
    for m, v in table.items():
        if len(v) != 2 or not all(map(_finite_real, v)):
            raise ValueError(f"mode {m} must be [re, im], two finite numbers, got {v!r}")
        if keys.setdefault(int(m), m) != m:
            raise ValueError(f"keys '{keys[int(m)]}' and '{m}' name the same mode {int(m)}")
    return LoopFn.from_modes(params.d, params.M, {int(m): complex(v[0], v[1]) for m, v in table.items()})


def config_hash(cfg: RunConfig) -> str:
    text = json.dumps(cfg.canonical_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class Report:
    """The `criteria.Record`s of one command, as `select` returns them."""

    command: str
    config: RunConfig
    records: list

    def __post_init__(self):
        for r in self.records:
            if r.anchor not in ANCHORS:
                raise ValueError(f"unknown anchor tag '{r.anchor}'")

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.records)

    def to_json(self) -> str:
        digest = config_hash(self.config)
        records = []
        for r in self.records:
            record = {"name": r.name, "anchor": r.anchor, "value": _json_number(r.value), "tol": _json_number(r.tol),
                      "pass": bool(r.passed), "config_hash": digest}
            records.append(record if r.message is None else {**record, "message": r.message})
        body = {
            "command": self.command,
            "engine_version": _version(),
            "config": self.config.canonical_dict(),
            "config_hash": digest,
            "seed": self.config.seed,
            "records": records,
            "pass": self.ok,
        }
        return json.dumps(body, sort_keys=True, separators=(",", ": "), indent=1, allow_nan=False) + "\n"

    def write(self, out_dir: str) -> Path:
        """Write the report into the existing directory `out_dir`."""
        path = Path(out_dir) / f"{self.command.replace('-', '_')}_report.json"
        path.write_text(self.to_json())
        return path

    def summary(self) -> str:
        lines = []
        for r in self.records:
            status = "pass" if r.passed else "FAIL"
            why = "" if r.message is None else f" - {r.message}"
            lines.append(f"[{status}] {r.name}: {float(r.value):.3e} (tol {float(r.tol):.1e}){why}")
        lines.append(f"=> {'all passed' if self.ok else 'FAILURES present'}")
        return "\n".join(lines)


def _json_number(x) -> float | str:
    """float(x), or for a non-finite x the string "NaN", "Infinity" or
    "-Infinity": JSON has no number for these."""
    x = float(x)
    return x if np.isfinite(x) else json.dumps(x)


def _version() -> str:
    from . import __version__

    return __version__


def select(groups: list, only=None) -> list:
    """The records of `groups`, a list of (names, run) pairs, whose names start
    with a prefix in `only` (all when it is empty).  A group runs only when
    one of the names it declares matches."""
    prefixes = tuple(only or [""])
    out = []
    for names, run in groups:
        if any(name.startswith(prefixes) for name in names):
            records = run()
            if [r.name for r in records] != names:
                raise RuntimeError(f"group declared {names}, computed {[r.name for r in records]}")
            out += [r for r in records if r.name.startswith(prefixes)]
    return out


def cmd_factorize(cfg: RunConfig) -> list:
    params = cfg.params()
    jet = cache(lambda: kp_solve(cfg.build_s0(params), params))
    names = ["factorize/su-equals-y", "factorize/y-strictly-differential", "factorize/growth-condition"]
    return [(names, lambda: criteria.factorization(jet())),
            (["factorize/lipschitz-ratio-stable"], lambda: criteria.lipschitz(jet()))]


def cmd_check(cfg: RunConfig) -> list:
    params = cfg.params()
    K = params.K
    jet = cache(lambda: kp_solve(cfg.build_s0(params), params))
    rng = np.random.default_rng(cfg.seed)
    gen = TSeries.monomial(params, (1, 0, 0), Symbol(params, {-1: LoopFn.cos(params.M, d=params.d)}))
    return [
        ([f"kp/{kind}-t{n}" for n in range(1, K + 1) for kind in ("residual", "ds-gap")] + ["kp/conj-consistency"],
         lambda: criteria.lax(jet())),
        ([f"zs/{f}-form-{m}{n}" for m in range(1, K + 1) for n in range(m + 1, K + 1) for f in "ds"]
         + ["zs/sign-flip-control"],
         lambda: criteria.zero_curvature(jet())),
        (["ym/flat-value", "ym/flat-vs-perturbed"],
         lambda: criteria.yang_mills(jet(), rng, 3, cfg.cube_k, cfg.cube_n, cfg.Mr, cfg.Q)),
        (["kp2/t12", "kp2/t13", "kp2/t23", "kp2/equiv-t23"], lambda: criteria.kp2(jet())),
        (["scaling/covariance-h2"], lambda: criteria.scaling(jet())),
        (["product-integral/rate-n64", "product-integral/rate-n128"], lambda: criteria.product_integral_rates(gen)),
    ]


def cmd_flow(cfg: RunConfig) -> list:
    params = cfg.params(wide=False)
    L0 = cache(lambda: conj_from(cfg.build_s0(params), params))

    def jet_ratio(direction: int) -> list:
        record, rows = criteria.flow_jet_ratio(L0(), direction, cfg.flow_t_end, params.V)
        if rows:
            table = "\n".join(f"{t:.6e} {e:.17e}" for t, e in rows)
            (Path(cfg.out_dir) / f"flow_convergence_t{direction}.dat").write_text(table + "\n")
        return [record]

    groups = [([f"flow/jet-ratio-t{n}"], partial(jet_ratio, n)) for n in (2, 3)]
    return groups + [(["flow/commute-12"], lambda: [criteria.flow_commute(L0(), cfg.flow_t_end)])]


def cmd_paper_table(cfg: RunConfig) -> list:
    params = cfg.params(wide=False)

    def table() -> list:
        if cfg.u_table is not None:
            u1, u2 = (_from_table(params, t) for t in cfg.u_table)
        else:
            rng = np.random.default_rng(cfg.seed)
            u1, u2 = (LoopFn.random_trig(rng, params.M, min(8, params.M // 4), d=params.d) for _ in range(2))
        return criteria.symbol_table(params, u1, u2)

    names = [f"table/L{p}/sigma{s}" for p in (2, 3) for s in (3, 2, 1, 0)]
    return [(names + ["table/bracket-sigma1", "table/bracket-sigma0"], table)]


def _kernel_summary(before: dict, after: dict) -> str:
    """Composition work of one command: `compose` calls, kernel runs (from
    `compose` or `commutator`, one plan lookup each: the hits plus misses),
    compose-plan cache hits and misses, and the plans held at the end."""
    calls, hits, misses = (after[k] - before[k] for k in ("compose_calls", "plan_hits", "plan_misses"))
    return (f"compose: {calls} calls, {hits + misses} kernel runs; "
            f"plan cache: {hits} hits, {misses} misses, {after['plans']} plans held")


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
                       help="print compose calls, kernel runs and plan-cache use to stderr")
    args = parser.parse_args(argv)

    try:
        cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
        overrides = {"seed": args.seed, "out_dir": args.out}
        cfg = replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
        cfg.validate("<command line>")  # the file passed; only the overrides can fail
        only = None if args.only is None else [p for p in args.only.split(",") if p]
        if only == []:
            raise ConfigError(f"--only {args.only!r} names no record prefix")
        groups = COMMANDS[args.command](cfg)
        if only and not any(name.startswith(tuple(only)) for names, _ in groups for name in names):
            raise ConfigError(f"--only {args.only!r} matches no record of {args.command}")
        try:
            Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
        except OSError as e:
            raise ConfigError(f"cannot create output directory {cfg.out_dir!r}: {e}")
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    before = plan_stats()
    report = Report(args.command, cfg, select(groups, only))
    if args.verbose:
        print(_kernel_summary(before, plan_stats()), file=sys.stderr)
    path = report.write(cfg.out_dir)
    print(report.summary())
    print(f"report: {path}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
