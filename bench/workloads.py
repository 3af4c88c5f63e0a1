"""The three benchmark workloads, their operations and correctness gates.

Each workload is a cycle of operation kinds.  The benchmark runs kinds in
order, cycling until time is up; one operation is one kind run once with a
seed derived from the workload seed.  ``body_ops`` operations make up one
workload body, the unit ``wall_s`` is reported in.  NOTES.md says why each
workload exists.  breglab must be importable before this module is imported.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

import breglab.cli
from breglab import (
    DiscreteModel,
    Estimator,
    discrete_oracle,
    mahalanobis,
    negative_entropy,
    negative_log,
    squared_euclidean,
)

# reproduce --example exp verdicts, in report order: type1 estimator type-I
# and type-II, classical estimator type-I and type-II
EXPECTED_VERDICTS = (True, False, False, True)


def _digamma_int(n: int) -> float:
    return -0.5772156649015329 + sum(1.0 / k for k in range(1, n))


def exp_neglog_risk(n: int) -> dict:
    """Closed-form risk of T/(n-1) for the exponential mean under neglog loss."""
    left = _digamma_int(n) - math.log(n - 1)
    return {"left": left, "right": 1.0 / (n - 1) - left}


# Estimators of the oracle battery, looked up by name at every operation so
# the traced run can wrap them (the oracle calls e.fn directly).
BATTERY_ESTIMATORS = {
    "first": (lambda x: x[..., 0], 1),
    "head2": (lambda x: np.mean(x[..., :2], axis=-1), 2),
    "mean": (lambda x: np.mean(x, axis=-1), 1),
}
BATTERY_SUPPORTS = (
    ((1.0, 2.0, 3.0), 5),
    ((0.5, 1.5, 2.5, 4.0), 4),
    (tuple(0.5 * i for i in range(1, 11)), 5),
)
BATTERY_GENERATORS = {
    "sqeuclid": lambda: squared_euclidean(1),
    "mahalanobis": lambda: mahalanobis([[1.5]]),
    "negentropy": lambda: negative_entropy(1),
    "neglog": lambda: negative_log(1),
    "negentropy-newton": lambda: negative_entropy(1).without_closed_forms(),
    "neglog-newton": lambda: negative_log(1).without_closed_forms(),
}
BATTERY_THETAS = (0.5, 1.0, 2.0)
# Generators whose decomposition identities the battery checks.  The
# closed-form-free ones run the Rao-Blackwell check only: their decomposition
# residuals are exact only to the Newton inverse's absolute stopping tolerance
# and exceed 1e-12 in 3 of their 54 checks (NOTES.md, "Correctness gates").
DECOMPOSED_GENERATORS = ("sqeuclid", "mahalanobis", "negentropy", "neglog")
BATTERY = tuple(
    (support, n, gen, est)
    for (support, n), gen, est in itertools.product(
        BATTERY_SUPPORTS, BATTERY_GENERATORS, BATTERY_ESTIMATORS
    )
)


@dataclass(frozen=True)
class Workload:
    name: str
    kinds: tuple  # one label per operation kind, run in this order
    groups: tuple  # a coarser label per kind, for the traced summary
    body_ops: int
    run: object  # (kind index, op seed) -> output
    check: object  # (kind index, output) -> bool
    digest: object  # output -> bytes, equal for equal outputs


def _cli(argv, out_path):
    """breglab.cli.main looked up at call time, stdout captured, --out read back."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        rc = breglab.cli.main(argv + ["--out", out_path])
    with open(out_path, "rb") as fh:
        data = fh.read()
    os.remove(out_path)
    return rc, buf.getvalue(), data


def _cli_digest(out) -> bytes:
    return out[2]


def mc_reproduce_exp(out_dir, replicates=1_000_000, expected=EXPECTED_VERDICTS) -> Workload:
    out_path = os.path.join(out_dir, "reproduce.json")

    def run(kind, seed):
        argv = ["reproduce", "--example", "exp", "-M", str(replicates),
                "--workers", "1", "--seed", str(seed)]
        return _cli(argv, out_path)

    def check(kind, out):
        rc, text, data = out
        reports = json.loads(data)["reports"]
        printed = [ln.split()[5] == "PASS" for ln in text.splitlines()
                   if ln.split()[:1] in (["type1"], ["classical"])]
        return (
            rc == 0
            and "UNEXPECTED" not in text
            and tuple(printed) == tuple(expected)
            and tuple(r["verdict"] for r in reports[:4]) == tuple(expected)
            and reports[4]["risk_diff"] < 0.0
        )

    return Workload("mc_reproduce_exp", ("exp",), ("exp",), 1, run, check, _cli_digest)


def mc_risk_10m(out_dir, replicates=10_000_000, reference=None) -> Workload:
    n = 5
    reference = exp_neglog_risk(n) if reference is None else reference
    kinds = ("left", "right")
    out_path = os.path.join(out_dir, "risk.json")

    def run(kind, seed):
        argv = ["risk", "--model", "exp", "--gen", "neglog", "--estimator", "type1",
                "--theta", "2", "--n", str(n), "-M", str(replicates), "--workers", "2",
                "--orientation", kinds[kind], "--seed", str(seed)]
        return _cli(argv, out_path)

    def check(kind, out):
        rc, _, data = out
        r = json.loads(data)["reports"][0]
        return (
            rc == 0
            and r["valid"]
            and r["orientation"] == kinds[kind]
            and abs(r["risk"] - reference[kinds[kind]]) <= 4.0 * r["se_risk"]
        )

    return Workload("mc_risk_10m", kinds, kinds, 1, run, check, _cli_digest)


def oracle_battery(cases=BATTERY, invariant="mean") -> Workload:
    """Exact oracle checks; operations are deterministic, so seeds are unused."""

    def run(kind, seed):
        support, n, gen, est = cases[kind]
        fn, min_n = BATTERY_ESTIMATORS[est]
        e = Estimator(est, fn, requires_min_n=min_n)
        dm = DiscreteModel(support, n)
        g = BATTERY_GENERATORS[gen]()
        rb = discrete_oracle.verify_rb_inequality(dm, g, e, BATTERY_THETAS)
        thetas = BATTERY_THETAS if gen in DECOMPOSED_GENERATORS else ()
        checks = [discrete_oracle.verify_decompositions(dm, g, e, t) for t in thetas]
        return rb, checks

    def check(kind, out):
        rb, checks = out
        return (
            rb.passed
            and rb.max_violation <= 1e-12
            and all(c.passed and c.max_residual <= 1e-12 for c in checks)
            and rb.permutation_invariant == (cases[kind][3] == invariant)
        )

    def digest(out):
        return hashlib.sha256(repr(out).encode()).digest()

    kinds = tuple(f"m{len(s)}n{n}/{gen}/{est}" for s, n, gen, est in cases)
    groups = tuple("newton" if gen.endswith("-newton") else "closed" for _, _, gen, _ in cases)
    return Workload("oracle_battery", kinds, groups, len(cases), run, check, digest)


def build(name: str, out_dir: str) -> Workload:
    if name == "mc_reproduce_exp":
        return mc_reproduce_exp(out_dir)
    if name == "mc_risk_10m":
        return mc_risk_10m(out_dir)
    if name == "oracle_battery":
        return oracle_battery()
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("mc_reproduce_exp", "mc_risk_10m", "oracle_battery")
