"""Span recorder and the instrumentation that times breglab layer by layer.

Spans are recorded from the benchmark's own files.  `instrument` replaces
breglab functions where their callers look them up (a module global, a class
attribute, or an estimator's ``fn``) and puts the originals back on exit, so
an untraced operation runs the program exactly as shipped.

A span's self time is its duration minus the part of that interval covered
by its child spans.  Spans opened on a worker thread with nothing open on
that thread are children of the innermost span open on the main thread (the
chunked draw fans out to threads under ``models.draw``); overlapping children
are merged before subtracting, so a parent's self time never goes negative.
Counters are exact functions of array shapes and repeat exactly for the same
inputs.

Span names (also the names a tracer inside the package should reuse):

    cli.main                      breglab.cli.main
    reporting.render              breglab.reporting.render
    risk_lab.<function>           estimate_risk, check_type1_unbiased,
                                  check_type2_unbiased, compare_estimators
    models.draw                   Model.draw
    prng.open_uniforms            models.open_uniforms (one per chunk)
    estimators.estimate           Estimator.__call__ and the oracle's base fn
    estimators.symmetrize         fn of the estimator exact_rao_blackwell returns
    generators.gradient           gradient of either generator class
    generators.invert             invert_gradient of either generator class
    generators.newton.<gen id>    generators._newton_invert
    divergence.bregman_div        bregman_div as looked up in risk_lab and
                                  discrete_oracle
    discrete_oracle.weights       DiscreteModel.outcome_weights
    discrete_oracle.<function>    verify_rb_inequality, verify_decompositions
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import math
import threading
import time
from collections import defaultdict

import numpy as np

NEWTON_VARIANTS = ("negentropy", "neglog")

# Every per-layer metric the traced run reports, with its unit.  Times are
# self times; counts are work items.  A layer a workload never enters reads 0.
LAYER_METRICS = {
    "cli.self_s": "s",
    "reporting.render_s": "s",
    "reporting.bytes": "B",
    "risk_lab.self_s": "s",
    "risk_lab.dropped": "count",
    "models.draw_s": "s",
    "models.draw_rows": "count",
    "models.draw_bytes": "B",
    "prng.uniforms_s": "s",
    "estimators.estimate_s": "s",
    "estimators.estimate_rows": "count",
    "estimators.symmetrize_s": "s",
    "estimators.symmetrize_perm_rows": "count",
    "generators.gradient_s": "s",
    "generators.gradient_points": "count",
    "generators.invert_s": "s",
    "generators.invert_points": "count",
    **{f"generators.newton_s.{v}": "s" for v in NEWTON_VARIANTS},
    **{f"generators.newton_points.{v}": "count" for v in NEWTON_VARIANTS},
    "divergence.bregman_div_s": "s",
    "divergence.bregman_div_points": "count",
    "discrete_oracle.weights_s": "s",
    "discrete_oracle.self_s": "s",
    "discrete_oracle.outcomes": "count",
    "discrete_oracle.expectations": "count",
    "bench.trace_overhead_s": "s",
}

COUNTERS = tuple(k for k, unit in LAYER_METRICS.items() if unit != "s")


def _covered(intervals) -> float:
    """Length of the union of (start, stop) intervals."""
    total, end = 0.0, -math.inf
    for start, stop in sorted(intervals):
        if stop <= end:
            continue
        total += stop - max(start, end)
        end = stop
    return total


class Recorder:
    """Per-operation totals: self and inclusive seconds per span, counters."""

    def __init__(self):
        self._main = threading.main_thread()
        self._main_stack = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self.reset()

    def reset(self):
        self.self_s = defaultdict(float)  # keyed by time metric
        self.incl_s = defaultdict(float)  # keyed by span name
        self.counts = defaultdict(int)

    def _stack(self):
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, metric: str):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack and stack is not self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        span = (name, metric, parent, [], time.perf_counter())
        stack.append(span)
        return span

    def end(self, span):
        stop = time.perf_counter()
        name, metric, parent, children, start = span
        self._stack().pop()
        with self._lock:
            self.incl_s[name] += stop - start
            self.self_s[metric] += stop - start - _covered(children)
            if parent is not None:
                parent[3].append((start, stop))

    def add(self, counter: str, value) -> None:
        with self._lock:
            self.counts[counter] += int(value)

    def snapshot(self) -> dict:
        out = {k: 0.0 for k, unit in LAYER_METRICS.items() if unit == "s"}
        out.update(self.self_s)
        out.update({k: 0 for k in COUNTERS})
        out.update(self.counts)
        return out


def _wrap(rec: Recorder, fn, names, count=None):
    """fn inside a span; names is (span, metric), a callable giving it, or None."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if names is None:
            out = fn(*args, **kwargs)
        else:
            span = rec.begin(*(names(args) if callable(names) else names))
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.end(span)
        if count is not None:
            count(args, out)
        return out

    return traced


@contextlib.contextmanager
def instrument(rec: Recorder, estimator_fns: dict):
    """Wrap breglab's layer boundaries for the duration of the block.

    estimator_fns maps names to (fn, min_n) for estimators the benchmark
    builds itself; the oracle calls ``e.fn`` directly, so those functions
    are wrapped in the dict the benchmark looks them up in.
    """
    from breglab import cli, discrete_oracle, estimators, generators, models, reporting, risk_lab

    originals = []

    def patch(owner, attr, replacement):
        if isinstance(owner, dict):
            originals.append((owner, attr, owner[attr]))
            owner[attr] = replacement
        else:
            originals.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, replacement)

    def wrap(owner, attr, names, count=None):
        fn = owner[attr] if isinstance(owner, dict) else vars(owner)[attr]
        patch(owner, attr, _wrap(rec, fn, names, count))

    def points(counter):
        return lambda args, out: rec.add(counter, np.size(out))

    wrap(cli, "main", ("cli.main", "cli.self_s"))
    wrap(reporting, "render", ("reporting.render", "reporting.render_s"),
         lambda args, out: rec.add("reporting.bytes", len(out.encode())))

    def dropped(args, out):
        reports = out if isinstance(out, list) else [out]
        rec.add("risk_lab.dropped", sum(r.dropped for r in reports))

    for name in ("estimate_risk", "check_type1_unbiased", "check_type2_unbiased", "compare_estimators"):
        wrap(cli, name, (f"risk_lab.{name}", "risk_lab.self_s"), dropped)

    def drawn(args, out):
        rec.add("models.draw_rows", out.shape[0])
        rec.add("models.draw_bytes", out.nbytes)

    wrap(models.Model, "draw", ("models.draw", "models.draw_s"), drawn)
    wrap(models, "open_uniforms", ("prng.open_uniforms", "prng.uniforms_s"))

    wrap(estimators.Estimator, "__call__", ("estimators.estimate", "estimators.estimate_s"),
         points("estimators.estimate_rows"))
    for key in list(estimator_fns):
        fn, min_n = estimator_fns[key]
        patch(estimator_fns, key, (
            _wrap(rec, fn, ("estimators.estimate", "estimators.estimate_s"),
                  points("estimators.estimate_rows")),
            min_n,
        ))

    def perm_rows(args, out):
        x = np.asarray(args[0])
        n = x.shape[-1]
        rec.add("estimators.symmetrize_perm_rows", (x.size // n) * math.factorial(n))

    rb_original = discrete_oracle.exact_rao_blackwell

    @functools.wraps(rb_original)
    def exact_rao_blackwell(dm, g, e):
        rb = rb_original(dm, g, e)
        fn = _wrap(rec, rb.fn, ("estimators.symmetrize", "estimators.symmetrize_s"), perm_rows)
        return dataclasses.replace(rb, fn=fn)

    patch(discrete_oracle, "exact_rao_blackwell", exact_rao_blackwell)

    rule_ids = {}

    def invert_names(args):
        gen = args[0]
        rule = getattr(gen, "_rule", None)
        if rule is not None:
            rule_ids[id(rule)] = gen.id
        return "generators.invert", "generators.invert_s"

    def newton_names(args):
        variant = rule_ids.get(id(args[0]), "unknown")
        return f"generators.newton.{variant}", f"generators.newton_s.{variant}"

    for cls in (generators.SeparableGenerator, generators.QuadraticGenerator):
        wrap(cls, "gradient", ("generators.gradient", "generators.gradient_s"),
             points("generators.gradient_points"))
        wrap(cls, "invert_gradient", invert_names, points("generators.invert_points"))
    wrap(generators, "_newton_invert", newton_names,
         lambda args, out: rec.add(
             f"generators.newton_points.{rule_ids.get(id(args[0]), 'unknown')}", np.size(args[2])))

    for module in (risk_lab, discrete_oracle):
        wrap(module, "bregman_div", ("divergence.bregman_div", "divergence.bregman_div_s"),
             points("divergence.bregman_div_points"))

    wrap(discrete_oracle.DiscreteModel, "outcome_weights",
         ("discrete_oracle.weights", "discrete_oracle.weights_s"))
    wrap(discrete_oracle, "_expect", None,
         lambda args, out: rec.add("discrete_oracle.expectations", 1))

    def outcomes(args, out):
        rec.add("discrete_oracle.outcomes", args[0].outcome_count)

    for name in ("verify_rb_inequality", "verify_decompositions"):
        wrap(discrete_oracle, name, (f"discrete_oracle.{name}", "discrete_oracle.self_s"), outcomes)

    try:
        yield rec
    finally:
        for owner, attr, orig in reversed(originals):
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)
