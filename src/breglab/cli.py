"""Command-line front end.

Exit codes: 0 on success, 1 when a checked assertion fails (oracle FAIL, an
unexpected verdict pattern in reproduce, or a report flagged invalid), 2 on
usage, configuration, or domain errors.

Every subcommand accepts --config <json file> mirroring its flags; explicit
flags override file values.  The resolved configuration is echoed on stdout
and embedded in any file written with --out.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import reporting
from .discrete_oracle import (
    DiscreteModel,
    resolve_discrete_estimator,
    verify_decompositions_grid,
    verify_rb_inequality,
)
from .divergence import bregman_div, dual_transport
from .errors import (
    BudgetError,
    ConfigError,
    DomainError,
    NumericError,
    RangeError,
    UnsupportedError,
)
from .estimators import build_type1_umvue, first_k_estimator, resolve_estimator
from .generators import resolve_generator
from .models import ExponentialModel, LogNormalModel, resolve_model
from .risk_lab import (
    _unbiasedness_checks,
    check_type1_unbiased,
    check_type2_unbiased,
    compare_estimators,
    estimate_risk,
    lehmann_grid_check,
)

_USAGE_ERRORS = (ConfigError, UnsupportedError, DomainError, RangeError, BudgetError)


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in str(text).split(",") if tok != ""]
    except ValueError:
        raise ConfigError(f"expected comma-separated floats, got {text!r}") from None


def _resolve(args, spec: dict) -> dict:
    """Merge CLI values over config-file values over defaults."""
    file_cfg = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config!r}: {exc}") from None
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must contain a JSON object")
    cfg = {}
    for key, (default, required, parse) in spec.items():
        val = getattr(args, key, None)
        if val is None:
            val = file_cfg.get(key, default)
        if val is None:
            if required:
                raise ConfigError(f"missing required option --{key.replace('_', '-')}")
            cfg[key] = None
            continue
        cfg[key] = parse(val) if parse else val
    return cfg


def _workers(value) -> int:
    workers = int(value)
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    return workers


_COMMON = {
    "seed": (0, False, int),
    "workers": (1, False, _workers),
    "format": ("json", False, str),
    "out": (None, False, str),
}


def _echo_config(cfg: dict) -> None:
    print("config:", json.dumps(cfg, sort_keys=True))


def _emit(reports, cfg: dict) -> None:
    fmt = cfg.get("format") or "json"
    if fmt not in ("json", "csv"):
        raise ConfigError(f"format must be json or csv, got {fmt!r}")
    if cfg.get("out"):
        with open(cfg["out"], "w") as fh:
            fh.write(reporting.render(reports, fmt, cfg))


def _add_common(sub):
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--workers", type=int, default=None)
    sub.add_argument("--format", choices=("json", "csv"), default=None)
    sub.add_argument("--out", default=None)
    sub.add_argument("--config", default=None)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="breglab",
        description="Bregman-loss risk decompositions and unbiasedness experiments",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("divergence", help="evaluate a divergence and its dual transport")
    p.add_argument("--gen", default=None)
    p.add_argument("--x", default=None)
    p.add_argument("--y", default=None)
    _add_common(p)

    p = subs.add_parser("risk", help="Monte Carlo risk with bias/variance split")
    p.add_argument("--model", default=None)
    p.add_argument("--gen", default=None)
    p.add_argument("--estimator", default=None)
    p.add_argument("--theta", default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--replicates", "-M", type=int, default=None)
    p.add_argument("--orientation", choices=("left", "right"), default=None)
    _add_common(p)

    p = subs.add_parser("check", help="unbiasedness or loss-grid checks")
    p.add_argument("--kind", choices=("type1", "type2", "lehmann"), default=None)
    p.add_argument("--model", default=None)
    p.add_argument("--gen", default=None)
    p.add_argument("--estimator", default=None)
    p.add_argument("--theta", default=None, help="grid for type1/type2, single value for lehmann")
    p.add_argument("--grid", default=None, help="lehmann comparison grid")
    p.add_argument("--orientation", choices=("left", "right"), default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--replicates", "-M", type=int, default=None)
    _add_common(p)

    p = subs.add_parser("compare", help="paired risk comparison on shared samples")
    p.add_argument("--model", default=None)
    p.add_argument("--gen", default=None)
    p.add_argument("--e1", default=None)
    p.add_argument("--e2", default=None)
    p.add_argument("--theta", default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--replicates", "-M", type=int, default=None)
    p.add_argument("--orientation", choices=("left", "right"), default=None)
    _add_common(p)

    p = subs.add_parser("oracle", help="exact enumeration checks on a finite support")
    p.add_argument("--m", type=int, default=None, help="support size; support is 1..m")
    p.add_argument("--support", default=None, help="explicit support values, overrides --m")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--gen", default=None)
    p.add_argument("--estimator", default=None)
    p.add_argument("--theta", default=None, help="comma-separated theta grid")
    _add_common(p)

    p = subs.add_parser("reproduce", help="run a packaged worked example end to end")
    p.add_argument("--example", choices=("exp", "lognormal"), default=None)
    p.add_argument("--replicates", "-M", type=int, default=None)
    _add_common(p)

    return parser


def cmd_divergence(args) -> int:
    cfg = _resolve(
        args,
        {"gen": (None, True, str), "x": (None, True, str), "y": (None, True, str), **_COMMON},
    )
    xs = _float_list(cfg["x"])
    ys = _float_list(cfg["y"])
    if len(xs) != len(ys):
        raise ConfigError(f"x has {len(xs)} coordinates but y has {len(ys)}")
    g = resolve_generator(cfg["gen"], dim=len(xs))
    if g.dimension != len(xs):
        raise ConfigError(f"generator dimension {g.dimension} does not match point length {len(xs)}")
    x = xs[0] if g.dimension == 1 else np.asarray(xs)
    y = ys[0] if g.dimension == 1 else np.asarray(ys)
    div = float(bregman_div(g, x, y))
    transport = float(dual_transport(g, x, y))
    _echo_config(cfg)
    print(f"bregman_divergence = {div!r}")
    print(f"dual_transport = {transport!r}")
    _emit([{"generator_id": g.id, "x": xs, "y": ys, "bregman_divergence": div, "dual_transport": transport}], cfg)
    return 0


def _validity_exit(reports) -> int:
    """1, with a note on stderr, when any report is flagged invalid; else 0."""
    if all(r.valid for r in reports):
        return 0
    print("report INVALID: dropped replicates exceed the 0.1 percent budget", file=sys.stderr)
    return 1


def cmd_risk(args) -> int:
    cfg = _resolve(
        args,
        {
            "model": (None, True, str),
            "gen": (None, True, str),
            "estimator": (None, True, str),
            "theta": (None, True, float),
            "n": (None, True, int),
            "replicates": (None, True, int),
            "orientation": ("left", False, str),
            **_COMMON,
        },
    )
    model = resolve_model(cfg["model"])
    g = resolve_generator(cfg["gen"], dim=1)
    e = resolve_estimator(cfg["estimator"], model, g)
    report = estimate_risk(
        model, cfg["theta"], cfg["n"], e, g, cfg["orientation"],
        cfg["replicates"], cfg["seed"], cfg["workers"],
    )
    _echo_config(cfg)
    print(
        f"risk = {report.risk!r}  bias = {report.bias_term!r}  "
        f"variance = {report.variance_term!r}  se = {report.se_risk!r}  "
        f"dropped = {report.dropped}"
    )
    _emit([report], cfg)
    return _validity_exit([report])


def _verdict_word(v: bool) -> str:
    return "PASS" if v else "FAIL"


def cmd_check(args) -> int:
    cfg = _resolve(
        args,
        {
            "kind": (None, True, str),
            "model": (None, True, str),
            "gen": (None, False, str),
            "estimator": (None, True, str),
            "theta": (None, True, str),
            "grid": (None, False, str),
            "orientation": ("left", False, str),
            "n": (None, True, int),
            "replicates": (None, True, int),
            **_COMMON,
        },
    )
    model = resolve_model(cfg["model"])
    g = resolve_generator(cfg["gen"], dim=1) if cfg["gen"] else None
    e = resolve_estimator(cfg["estimator"], model, g)
    kind = cfg["kind"]
    if kind == "type1":
        if g is None:
            raise ConfigError("check --kind type1 needs --gen")
        reports = check_type1_unbiased(
            model, _float_list(cfg["theta"]), e, g, cfg["n"],
            cfg["replicates"], cfg["seed"], cfg["workers"],
        )
    elif kind == "type2":
        reports = check_type2_unbiased(
            model, _float_list(cfg["theta"]), e, cfg["n"],
            cfg["replicates"], cfg["seed"], cfg["workers"],
        )
    elif kind == "lehmann":
        if g is None:
            raise ConfigError("check --kind lehmann needs --gen")
        if not cfg["grid"]:
            raise ConfigError("check --kind lehmann needs --grid")
        theta_vals = _float_list(cfg["theta"])
        if len(theta_vals) != 1:
            raise ConfigError("check --kind lehmann takes a single --theta")
        reports = [
            lehmann_grid_check(
                model, theta_vals[0], _float_list(cfg["grid"]), e, g,
                cfg["orientation"], cfg["n"], cfg["replicates"], cfg["seed"], cfg["workers"],
            )
        ]
    else:
        raise ConfigError(f"unknown check kind {kind!r}")
    _echo_config(cfg)
    for r in reports:
        # an invalid report dropped too many replicates to carry a verdict
        if kind == "lehmann":
            best = r.grid[r.argmin_index]
            hit = "argmin at theta" if r.argmin_index == r.theta_index else "argmin off theta"
            hit = hit if r.valid else "INVALID"
            print(f"lehmann: argmin {best!r} ({hit}), means = {list(r.means)!r}")
        else:
            word = _verdict_word(r.verdict) if r.valid else "INVALID"
            print(
                f"{r.kind} theta = {r.theta!r}: mean = {r.mean!r} target = {r.target!r} "
                f"z = {r.z:.3f} -> {word}"
            )
    _emit(reports, cfg)
    return _validity_exit(reports)


def cmd_compare(args) -> int:
    cfg = _resolve(
        args,
        {
            "model": (None, True, str),
            "gen": (None, True, str),
            "e1": (None, True, str),
            "e2": (None, True, str),
            "theta": (None, True, float),
            "n": (None, True, int),
            "replicates": (None, True, int),
            "orientation": ("left", False, str),
            **_COMMON,
        },
    )
    model = resolve_model(cfg["model"])
    g = resolve_generator(cfg["gen"], dim=1)
    e1 = resolve_estimator(cfg["e1"], model, g)
    # one spec in both arms is one estimator: resolving it twice would give
    # two distinct objects under one id
    e2 = e1 if cfg["e2"] == cfg["e1"] else resolve_estimator(cfg["e2"], model, g)
    report = compare_estimators(
        model, cfg["theta"], cfg["n"], (e1, e2), g, cfg["orientation"],
        cfg["replicates"], cfg["seed"], cfg["workers"],
    )
    _echo_config(cfg)
    print(
        f"risk({report.estimator_id_1}) = {report.risk_1!r}  "
        f"risk({report.estimator_id_2}) = {report.risk_2!r}  "
        f"diff = {report.risk_diff!r}  paired se = {report.se_diff!r}"
    )
    _emit([report], cfg)
    return _validity_exit([report])


def cmd_oracle(args) -> int:
    cfg = _resolve(
        args,
        {
            "m": (None, False, int),
            "support": (None, False, str),
            "n": (None, True, int),
            "gen": (None, True, str),
            "estimator": (None, True, str),
            "theta": (None, True, str),
            **_COMMON,
        },
    )
    if cfg["support"]:
        support = _float_list(cfg["support"])
    elif cfg["m"]:
        support = [float(v) for v in range(1, cfg["m"] + 1)]
    else:
        raise ConfigError("oracle needs --m or --support")
    dm = DiscreteModel(tuple(support), cfg["n"])
    g = resolve_generator(cfg["gen"], dim=1)
    e = resolve_discrete_estimator(cfg["estimator"])
    grid = _float_list(cfg["theta"])
    rb = verify_rb_inequality(dm, g, e, grid)
    checks = verify_decompositions_grid(dm, g, e, grid)
    rows = []
    for row, chk in zip(rb.rows, checks):
        rows.append(
            {
                "support": list(dm.support),
                "n": dm.n,
                "generator_id": g.id,
                "estimator_id": e.id,
                "theta": row.theta,
                "risk_estimator": row.risk_estimator,
                "risk_rb": row.risk_rb,
                "gap": row.gap,
                "residual_left": chk.residual_left,
                "residual_right": chk.residual_right,
                "permutation_invariant": rb.permutation_invariant,
            }
        )
    max_residual = max(
        max(c.residual_left, c.residual_right) for c in checks
    )
    passed = rb.passed and all(c.passed for c in checks)
    _echo_config(cfg)
    for row in rows:
        print(
            f"theta = {row['theta']!r}: risk = {row['risk_estimator']!r} "
            f"rb = {row['risk_rb']!r} gap = {row['gap']!r}"
        )
    print(
        f"{_verdict_word(passed)} max_residual = {max(max_residual, rb.max_violation)!r}"
    )
    _emit(rows, cfg)
    return 0 if passed else 1


def cmd_reproduce(args) -> int:
    cfg = _resolve(
        args,
        {"example": (None, True, str), "replicates": (None, False, int), **_COMMON},
    )
    if cfg["example"] not in ("exp", "lognormal"):
        raise ConfigError(f"unknown example {cfg['example']!r}, expected exp or lognormal")
    if cfg["example"] == "exp":
        model, g = ExponentialModel(), resolve_generator("neglog", 1)
        theta, n, k = 2.0, 5, 3
        default_replicates = 1_000_000
    else:
        model, g = LogNormalModel(0.25), resolve_generator("negentropy", 1)
        theta, n, k = float(math.e), 10, 5
        default_replicates = 100_000
    if cfg["replicates"] is None:
        cfg["replicates"] = default_replicates
    replicates = cfg["replicates"]
    seed, workers = cfg["seed"], cfg["workers"]

    e_type1 = build_type1_umvue(model, g)
    e_classical = model.classical_umvue
    e_cmp = first_k_estimator(model, g, k)

    # the four verdicts share one pass over the derive_key(seed, 0) stream,
    # exactly the stream check_type1/type2_unbiased would each draw
    checks = [(e, gen, None) for e in (e_type1, e_classical) for gen in (g, None)]
    verdicts = _unbiasedness_checks(model, [theta], checks, n, replicates, seed, workers)
    names = ("type1", "type1", "classical", "classical")
    rows = list(zip(names, verdicts, (True, False, False, True)))
    cmp_report = compare_estimators(
        model, theta, n, (e_type1, e_cmp), g, "left", replicates, seed, workers
    )

    _echo_config(cfg)
    ok = True
    print(f"{'estimator':<10} {'check':<6} {'mean':>12} {'target':>12} {'z':>10} verdict expected")
    for name, r, expected in rows:
        match = r.verdict == expected
        ok &= match
        print(
            f"{name:<10} {r.kind:<6} {r.mean:>12.6f} {r.target:>12.6f} {r.z:>10.2f} "
            f"{_verdict_word(r.verdict):<7} {_verdict_word(expected)}"
            + ("" if match else "   <-- UNEXPECTED")
        )
    improved = cmp_report.risk_diff < 0 and cmp_report.risk_diff + 5 * cmp_report.se_diff < 0
    ok &= improved
    print(
        f"paired risk: {cmp_report.estimator_id_1} vs {cmp_report.estimator_id_2} "
        f"diff = {cmp_report.risk_diff:.6f} (paired se {cmp_report.se_diff:.2e}) -> "
        + ("improves by > 5 se" if improved else "NO improvement   <-- UNEXPECTED")
    )
    _emit([r for _, r, _ in rows] + [cmp_report], cfg)
    return 0 if ok else 1


_RUNNERS = {
    "divergence": cmd_divergence,
    "risk": cmd_risk,
    "check": cmd_check,
    "compare": cmd_compare,
    "oracle": cmd_oracle,
    "reproduce": cmd_reproduce,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _RUNNERS[args.command](args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
