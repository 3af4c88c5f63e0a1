"""Command-line front end.

Exit codes: 0 on success, 1 when a checked assertion fails (oracle FAIL, an
unexpected verdict pattern in reproduce, or a report flagged invalid), 2 on
usage, configuration, or domain errors.

Every subcommand accepts --config <json file> mirroring its flags; explicit
flags override file values.  Each option is declared once, in _COMMANDS or
_COMMON, and a config value is parsed exactly like the flag; a malformed
value, or a key no subcommand declares, exits 2 before anything runs.  The
resolved configuration is echoed on stdout and embedded in any file written
with --out.

At module level this file imports only the standard library and `errors`.
Each command imports the modules it runs when it runs, and `main` imports
`reporting` only to write --out, so --help and every usage error load no
numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings

from .errors import (
    BudgetError,
    ConfigError,
    DomainError,
    NumericError,
    RangeError,
    UnsupportedError,
)

_USAGE_ERRORS = (ConfigError, UnsupportedError, DomainError, RangeError, BudgetError)


def _risk_lab(name: str):
    """A module global that calls risk_lab.<name>, importing risk_lab on the first call.

    bench/spans.py times these runners by replacing them in this module's
    globals, so the commands must call them through these names.  Once the
    package traces itself (ROADMAP item 2) this coupling can go.
    """

    def run(*args, **kwargs):
        from . import risk_lab

        return getattr(risk_lab, name)(*args, **kwargs)

    run.__name__ = run.__qualname__ = name
    return run


estimate_risk = _risk_lab("estimate_risk")
check_type1_unbiased = _risk_lab("check_type1_unbiased")
check_type2_unbiased = _risk_lab("check_type2_unbiased")
compare_estimators = _risk_lab("compare_estimators")


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok != ""]


def _floats(value) -> str:
    """At least one comma-separated float, checked here and kept as text for the echoed config."""
    text = str(value)
    if not _float_list(text):
        raise ValueError(text)
    return text


def _int(value) -> int:
    """int(value), refusing a bool and a float it would have to truncate."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(value)
    return int(value)


def _workers(value) -> int:
    workers = _int(value)
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    return workers


# Options are declared as name -> (parse, default[, help]).  A tuple of
# strings as parse lists the choices; REQUIRED marks an option without a
# default.  _COMMON holds the options every subcommand takes.
REQUIRED = object()
_ORIENTATION = (("left", "right"), "left")
_COMMON = {
    "seed": (_int, 0),
    "workers": (_workers, 1),
    "format": (("json", "csv"), "json"),
    "out": (str, None),
}
_CONFIG = {"config": (str, None, "JSON object of option values; explicit flags win")}


def _parse(key: str, parse, value):
    """One option value, from a flag or a config file, parsed; a malformed one is a ConfigError."""
    if isinstance(parse, tuple):
        if value in parse:
            return value
        raise ConfigError(f"--{key} must be one of {', '.join(parse)}, got {value!r}")
    try:
        return parse(value)
    except (ValueError, TypeError):
        raise ConfigError(f"--{key} got the malformed value {value!r}") from None


def _resolve(args) -> dict:
    """Merge flag values over config-file values over defaults."""
    file_cfg = {}
    if args.config:
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config!r}: {exc}") from None
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must contain a JSON object")
        unknown = sorted(set(file_cfg) - _KNOWN_KEYS)
        if unknown:
            raise ConfigError(f"config file has unknown option(s) {', '.join(unknown)}")
    cfg = {}
    for key, (parse, default, *_) in {**_COMMANDS[args.command][2], **_COMMON}.items():
        val = getattr(args, key)
        if val is None:
            val = file_cfg.get(key)
        if val is None:
            val = default
        if val is REQUIRED:
            raise ConfigError(f"missing required option --{key}")
        cfg[key] = None if val is None else _parse(key, parse, val)
    return cfg


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="breglab",
        description="Bregman-loss risk decompositions and unbiasedness experiments",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, options) in _COMMANDS.items():
        p = subs.add_parser(command, help=help_text)
        for key, (parse, _, *help_) in {**options, **_COMMON, **_CONFIG}.items():
            p.add_argument(
                f"--{key}", *(("-M",) if key == "replicates" else ()),
                choices=parse if isinstance(parse, tuple) else None,
                help=help_[0] if help_ else None,
            )
    return parser


def cmd_divergence(cfg: dict):
    import numpy as np

    from .divergence import bregman_div, dual_transport
    from .generators import require_dimension, resolve_generator

    xs = _float_list(cfg["x"])
    ys = _float_list(cfg["y"])
    if len(xs) != len(ys):
        raise ConfigError(f"x has {len(xs)} coordinates but y has {len(ys)}")
    g = resolve_generator(cfg["gen"], dim=len(xs))
    require_dimension(g, len(xs))
    x = xs[0] if g.dimension == 1 else np.asarray(xs)
    y = ys[0] if g.dimension == 1 else np.asarray(ys)
    div = float(bregman_div(g, x, y))
    transport = float(dual_transport(g, x, y))
    report = dict(generator_id=g.id, x=xs, y=ys, bregman_divergence=div, dual_transport=transport)
    return [report], [f"bregman_divergence = {div!r}", f"dual_transport = {transport!r}"], 0


def cmd_risk(cfg: dict):
    from .estimators import resolve_estimator
    from .generators import resolve_generator
    from .models import resolve_model

    model = resolve_model(cfg["model"])
    g = resolve_generator(cfg["gen"], dim=1)
    e = resolve_estimator(cfg["estimator"], model, g)
    report = estimate_risk(
        model, cfg["theta"], cfg["n"], e, g, cfg["orientation"],
        cfg["replicates"], cfg["seed"], cfg["workers"],
    )
    return [report], [
        f"risk = {report.risk!r}  bias = {report.bias_term!r}  "
        f"variance = {report.variance_term!r}  se = {report.se_risk!r}  "
        f"dropped = {report.dropped}"
    ], 0


def _verdict_word(v: bool) -> str:
    return "PASS" if v else "FAIL"


def cmd_check(cfg: dict):
    from .estimators import resolve_estimator
    from .generators import resolve_generator
    from .models import resolve_model
    from .risk_lab import lehmann_grid_check

    model = resolve_model(cfg["model"])
    g = resolve_generator(cfg["gen"], dim=1) if cfg["gen"] else None
    e = resolve_estimator(cfg["estimator"], model, g)
    kind, thetas = cfg["kind"], _float_list(cfg["theta"])
    run = (cfg["n"], cfg["replicates"], cfg["seed"], cfg["workers"])
    if g is None and kind != "type2":
        raise ConfigError(f"check --kind {kind} needs --gen")
    if kind == "type1":
        reports = check_type1_unbiased(model, thetas, e, g, *run)
    elif kind == "type2":
        reports = check_type2_unbiased(model, thetas, e, *run)
    else:
        if not cfg["grid"]:
            raise ConfigError("check --kind lehmann needs --grid")
        if len(thetas) != 1:
            raise ConfigError("check --kind lehmann takes a single --theta")
        reports = [
            lehmann_grid_check(
                model, thetas[0], _float_list(cfg["grid"]), e, g, cfg["orientation"], *run
            )
        ]
    lines = []
    for r in reports:
        # an invalid report dropped too many replicates to carry a verdict
        if kind == "lehmann":
            best = r.grid[r.argmin_index]
            hit = "argmin at theta" if r.argmin_index == r.theta_index else "argmin off theta"
            hit = hit if r.valid else "INVALID"
            lines.append(f"lehmann: argmin {best!r} ({hit}), means = {list(r.means)!r}")
        else:
            word = _verdict_word(r.verdict) if r.valid else "INVALID"
            lines.append(
                f"{r.kind} theta = {r.theta!r}: mean = {r.mean!r} target = {r.target!r} "
                f"z = {r.z:.3f} -> {word}"
            )
    return reports, lines, 0


def cmd_compare(cfg: dict):
    from .estimators import resolve_estimator
    from .generators import resolve_generator
    from .models import resolve_model

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
    return [report], [
        f"risk({report.estimator_id_1}) = {report.risk_1!r}  "
        f"risk({report.estimator_id_2}) = {report.risk_2!r}  "
        f"diff = {report.risk_diff!r}  paired se = {report.se_diff!r}"
    ], 0


def cmd_oracle(cfg: dict):
    from .discrete_oracle import DiscreteModel, verify_decompositions_grid, verify_rb_inequality
    from .estimators import resolve_estimator
    from .generators import resolve_generator

    if cfg["support"] is not None:
        support = _float_list(cfg["support"])
    elif cfg["m"] is not None:
        support = [float(v) for v in range(1, cfg["m"] + 1)]
    else:
        raise ConfigError("oracle needs --m or --support")
    dm = DiscreteModel(tuple(support), cfg["n"])
    g = resolve_generator(cfg["gen"], dim=1)
    e = resolve_estimator(cfg["estimator"], dm, g)
    grid = _float_list(cfg["theta"])
    rb = verify_rb_inequality(dm, g, e, grid)
    checks = verify_decompositions_grid(dm, g, e, grid)
    rows = [
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
        for row, chk in zip(rb.rows, checks)
    ]
    max_residual = max(max(c.max_residual for c in checks), rb.max_violation)
    passed = rb.passed and all(c.passed for c in checks)
    lines = [
        f"theta = {row.theta!r}: risk = {row.risk_estimator!r} "
        f"rb = {row.risk_rb!r} gap = {row.gap!r}"
        for row in rb.rows
    ]
    lines.append(f"{_verdict_word(passed)} max_residual = {max_residual!r}")
    return rows, lines, 0 if passed else 1


def cmd_reproduce(cfg: dict):
    from .estimators import build_type1_umvue, first_k_estimator
    from .generators import resolve_generator
    from .models import ExponentialModel, LogNormalModel
    from .risk_lab import _unbiasedness_checks

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
    replicates, seed, workers = cfg["replicates"], cfg["seed"], cfg["workers"]

    e_type1 = build_type1_umvue(model, g)
    e_classical = model.classical_umvue
    e_cmp = first_k_estimator(model, g, k)

    # the four verdicts share one pass over the derive_key(seed, 0) stream,
    # exactly the stream check_type1/type2_unbiased would each draw
    checks = [(e, gen) for e in (e_type1, e_classical) for gen in (g, None)]
    verdicts = _unbiasedness_checks(model, [theta], checks, n, replicates, seed, workers)
    names = ("type1", "type1", "classical", "classical")
    rows = list(zip(names, verdicts, (True, False, False, True)))
    cmp_report = compare_estimators(
        model, theta, n, (e_type1, e_cmp), g, "left", replicates, seed, workers
    )

    ok = True
    lines = [
        f"{'estimator':<10} {'check':<6} {'mean':>12} {'target':>12} {'z':>10} verdict expected"
    ]
    for name, r, expected in rows:
        match = r.verdict == expected
        ok &= match
        lines.append(
            f"{name:<10} {r.kind:<6} {r.mean:>12.6f} {r.target:>12.6f} {r.z:>10.2f} "
            f"{_verdict_word(r.verdict):<7} {_verdict_word(expected)}"
            + ("" if match else "   <-- UNEXPECTED")
        )
    improved = cmp_report.risk_diff < 0 and cmp_report.risk_diff + 5 * cmp_report.se_diff < 0
    ok &= improved
    lines.append(
        f"paired risk: {cmp_report.estimator_id_1} vs {cmp_report.estimator_id_2} "
        f"diff = {cmp_report.risk_diff:.6f} (paired se {cmp_report.se_diff:.2e}) -> "
        + ("improves by > 5 se" if improved else "NO improvement   <-- UNEXPECTED")
    )
    return [r for _, r, _ in rows] + [cmp_report], lines, 0 if ok else 1


# Each subcommand, declared once: name -> (runner, help, options).  argparse
# and the config-file merge both read this table.  A runner takes the resolved
# configuration and returns (reports, stdout lines, exit code); main prints,
# writes --out and applies the invalid-report rule for all of them.
_COMMANDS = {
    "divergence": (cmd_divergence, "evaluate a divergence and its dual transport", {
        "gen": (str, REQUIRED),
        "x": (_floats, REQUIRED),
        "y": (_floats, REQUIRED),
    }),
    "risk": (cmd_risk, "Monte Carlo risk with bias/variance split", {
        "model": (str, REQUIRED),
        "gen": (str, REQUIRED),
        "estimator": (str, REQUIRED),
        "theta": (float, REQUIRED),
        "n": (_int, REQUIRED),
        "replicates": (_int, REQUIRED),
        "orientation": _ORIENTATION,
    }),
    "check": (cmd_check, "unbiasedness or loss-grid checks", {
        "kind": (("type1", "type2", "lehmann"), REQUIRED),
        "model": (str, REQUIRED),
        "gen": (str, None),
        "estimator": (str, REQUIRED),
        "theta": (_floats, REQUIRED, "grid for type1/type2, single value for lehmann"),
        "grid": (_floats, None, "lehmann comparison grid"),
        "orientation": _ORIENTATION,
        "n": (_int, REQUIRED),
        "replicates": (_int, REQUIRED),
    }),
    "compare": (cmd_compare, "paired risk comparison on shared samples", {
        "model": (str, REQUIRED),
        "gen": (str, REQUIRED),
        "e1": (str, REQUIRED),
        "e2": (str, REQUIRED),
        "theta": (float, REQUIRED),
        "n": (_int, REQUIRED),
        "replicates": (_int, REQUIRED),
        "orientation": _ORIENTATION,
    }),
    "oracle": (cmd_oracle, "exact enumeration checks on a finite support", {
        "m": (_int, None, "support size; support is 1..m"),
        "support": (_floats, None, "explicit support values, overrides --m"),
        "n": (_int, REQUIRED),
        "gen": (str, REQUIRED),
        "estimator": (str, REQUIRED),
        "theta": (_floats, REQUIRED, "comma-separated theta grid"),
    }),
    "reproduce": (cmd_reproduce, "run a packaged worked example end to end", {
        "example": (("exp", "lognormal"), REQUIRED),
        "replicates": (_int, None),
    }),
}
# config-file keys: a key of another subcommand is allowed, one of none is a typo
_KNOWN_KEYS = {*_COMMON, *_CONFIG}.union(*(opts for _, _, opts in _COMMANDS.values()))
_FLOAT_FLAGS = {
    f"--{key}" for _, _, opts in _COMMANDS.values()
    for key, (parse, *_) in opts.items() if parse in (float, _floats)
}


def _join_negative_values(argv: list[str]) -> list[str]:
    """argv with each float flag and a following negative value joined, as in --theta=-0.5,-1.

    argparse takes a token that starts with "-" for an option unless it is a
    plain negative decimal, so --theta -1e-3 and --theta -0.5,-1 would exit 2
    with "expected one argument".  A token that does not parse as floats is
    left alone, so an unknown option still fails in argparse.
    """
    out = []
    for tok in argv:
        if out and out[-1] in _FLOAT_FLAGS and tok.startswith("-"):
            try:
                _floats(tok)
            except ValueError:
                pass
            else:
                out[-1] = f"{out[-1]}={tok}"
                continue
        out.append(tok)
    return out


# numpy's floating-point warnings ("overflow encountered in multiply", ...)
_FP_WARNING = r"(overflow|underflow|invalid value|divide by zero) encountered"


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    # A non-finite result ends in a NumericError, so numpy's warning about
    # the same overflow only adds its source line to stderr.  The warnings
    # filters are process-wide, so this also reaches the --workers pool
    # threads, which do not inherit numpy's errstate.
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", _FP_WARNING, RuntimeWarning)
        return _run(args)


def _run(args) -> int:
    """Resolve, run and report the parsed command; its exit code."""
    try:
        cfg = _resolve(args)
        reports, lines, code = _COMMANDS[args.command][0](cfg)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1
    print("config:", json.dumps(cfg, sort_keys=True))
    for line in lines:
        print(line)
    if cfg["out"]:
        from . import reporting

        with open(cfg["out"], "w") as fh:
            fh.write(reporting.render(reports, cfg["format"], cfg))
    # plain dict rows (divergence, oracle) carry no validity flag
    if not all(getattr(r, "valid", True) for r in reports):
        print("report INVALID: dropped replicates exceed the 0.1 percent budget", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
