"""Estimators, the closed-form type-I registry, and symmetrization.

An estimator maps a sample (last axis of an array) to a scalar estimate.
Its dual image under a generator g is grad phi composed with the estimator.
Averaging the dual image over permutations of the sample and mapping back
through the inverse gradient never increases risk for losses of the form
D(theta, delta).  rao_blackwell_estimator names that improved estimator;
symmetrize() computes it by brute force over all n! orderings (n <= 8), as a
reference for discrete_oracle.exact_rao_blackwell, which computes it on a
finite support by conditioning on the multiset of observations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import BudgetError, ConfigError, UnsupportedError
from .generators import Generator

MAX_EXACT_N = 8  # 8! = 40320 permutations

_BLOCK_ELEMS = 1 << 22  # cap on rows * permutations held in memory at once


@dataclass(frozen=True)
class Estimator:
    """Named sample-to-estimate map.

    Whether an estimator is type-I or type-II unbiased is checked by the
    risk lab, never declared here.
    """

    id: str
    fn: object = field(repr=False)
    requires_min_n: int = field(default=1, kw_only=True)

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        if arr.ndim < 1:
            raise ConfigError("estimator input must have a sample axis")
        self.check_n(arr.shape[-1])
        return self.fn(arr)

    def check_n(self, n: int) -> None:
        """Refuse a sample size below requires_min_n."""
        if n < self.requires_min_n:
            raise ConfigError(f"estimator '{self.id}' needs n >= {self.requires_min_n}, got {n}")

    def per_row(self, values, rows: int) -> np.ndarray:
        """Output on rows samples as floats; a ConfigError unless it has shape (rows,)."""
        values = np.asarray(values, dtype=float)
        if values.shape != (rows,):
            raise ConfigError(
                f"estimator {self.id!r} must give one value per sample row, shape ({rows},),"
                f" got {values.shape}"
            )
        return values


@lru_cache(maxsize=None)
def _permutation_matrix(n: int) -> np.ndarray:
    return np.array(list(itertools.permutations(range(n))), dtype=np.intp)


def rao_blackwell_estimator(g: Generator, e: Estimator, fn) -> Estimator:
    """The estimator fn, which computes (grad phi)^-1(E[grad phi(e) | multiset of the sample]).

    Its id names g and e, and it keeps e's minimum n.
    """
    return Estimator(f"rb[{g.id},perms=all]({e.id})", fn, requires_min_n=e.requires_min_n)


def symmetrize(g: Generator, e: Estimator) -> Estimator:
    """(grad phi)^-1 of the mean of grad phi(e) over all n! permutations of each sample.

    The brute-force reference for discrete_oracle.exact_rao_blackwell: the
    returned estimator raises BudgetError on samples longer than n = 8.
    """

    def fn(x):
        arr = np.asarray(x, dtype=float)
        n = arr.shape[-1]
        if n > MAX_EXACT_N:
            raise BudgetError(
                f"exact symmetrization enumerates n! permutations; n = {n} exceeds"
                f" the n <= {MAX_EXACT_N} budget"
            )
        idx = _permutation_matrix(n)
        flat = arr.reshape(-1, n)
        block = max(1, _BLOCK_ELEMS // idx.shape[0])
        eta = np.empty(flat.shape[0])
        for start in range(0, flat.shape[0], block):
            sub = flat[start : start + block]
            eta[start : start + sub.shape[0]] = np.mean(g.gradient(e.fn(sub[:, idx])), axis=-1)
        return np.asarray(g.invert_gradient(eta.reshape(arr.shape[:-1])))

    return rao_blackwell_estimator(g, e, fn)


def _row_sum(x: np.ndarray) -> np.ndarray:
    """np.sum(x, axis=-1), bitwise, adding the columns left to right when n < 8.

    For a batch of rows with n < 8, numpy's sum adds the columns one by one
    onto a +0.0 start (so a row of -0.0 sums to +0.0); the same adds written
    out take about half the time.  From n = 8 numpy sums each row pairwise,
    and a single row always, also one shaped (1, ..., 1, n), whose NaN sign
    bits the column adds would not keep; so those cases call np.sum.  A row
    mean is this sum divided by n, as in np.mean.
    """
    n = x.shape[-1]
    if x.ndim < 2 or n >= 8 or x.size == n:
        return np.sum(x, axis=-1)
    out = x[..., 0] + 0.0
    for j in range(1, n):
        out += x[..., j]
    return out


def _sample_mean(x: np.ndarray) -> np.ndarray:
    """Mean over the last axis: _row_sum(x) / n, bitwise np.mean(x, axis=-1)."""
    return _row_sum(x) / x.shape[-1]


_TYPE1_REGISTRY = {
    ("exp", "neglog"): Estimator(
        "type1", lambda x: _row_sum(x) / (x.shape[-1] - 1), requires_min_n=2
    ),
    ("lognormal", "negentropy"): Estimator("type1", lambda x: np.exp(_sample_mean(np.log(x)))),
    ("normal", "sqeuclid"): Estimator("type1", _sample_mean),
}


def build_type1_umvue(model, g: Generator) -> Estimator:
    """Closed-form estimator whose dual mean equals grad phi(theta) exactly.

    Only registered (model family, generator) pairs are supported; anything
    else raises UnsupportedError rather than guessing a construction.
    """
    try:
        return _TYPE1_REGISTRY[model.family, g.id]
    except KeyError:
        raise UnsupportedError(
            f"no dual-unbiased construction registered for model '{model.family}'"
            f" with generator '{g.id}'"
        ) from None


def first_k_estimator(model, g: Generator | None, k: int) -> Estimator:
    """Estimator that ignores everything after the first k observations.

    Uses the registered dual-unbiased construction on the truncated sample
    when one exists and k meets its minimum; otherwise the mean of the first
    k observations.  Deliberately not permutation-invariant, which makes it
    the standard comparator for symmetrization experiments.
    """
    return _first_k(model, g, k)[0]


def _first_k(model, g: Generator | None, k: int) -> tuple[Estimator, bool]:
    """first_k_estimator(model, g, k), and whether g selected its registered construction."""
    if k < 1:
        raise ConfigError(f"first-k needs k >= 1, got {k}")
    base = _TYPE1_REGISTRY.get((getattr(model, "family", None), getattr(g, "id", None)))
    if base is not None and k >= base.requires_min_n:
        return Estimator(f"first-k:{k}", lambda x: base.fn(x[..., :k]), requires_min_n=k), True
    return Estimator(f"first-k:{k}", lambda x: _sample_mean(x[..., :k]), requires_min_n=k), False


def const_estimator(value: float) -> Estimator:
    """The constant value, named const:<v:g>, or const:<repr(v)> where :g would round v."""
    v = float(value)
    text = f"{v:g}"
    if float(text) != v:
        text = repr(v)
    return Estimator(f"const:{text}", lambda x: np.full(x.shape[:-1], v))


def resolve_estimator(spec: str, model, g: Generator | None = None) -> Estimator:
    """Build an estimator from a selection string.

    Accepted forms: "classical", "mean" (the sample mean), "type1",
    "first-k:<k>", "const:<v>".
    """
    return _resolve(spec, model, g)[0]


def _resolve(spec: str, model, g: Generator | None) -> tuple[Estimator, bool]:
    """resolve_estimator(spec, model, g), and whether g selected a registered construction.

    Only "type1" and a "first-k:<k>" whose k meets the registered
    construction's minimum read g; every other estimator is the same with or
    without it.
    """
    if spec == "classical":
        return model.classical_umvue, False
    if spec == "mean":
        return Estimator("mean", _sample_mean), False
    if spec == "type1":
        if g is None:
            raise ConfigError("the type1 estimator needs a generator")
        return build_type1_umvue(model, g), True
    kind, colon, arg = spec.partition(":")
    if colon and kind in ("first-k", "const"):
        try:
            value = int(arg) if kind == "first-k" else float(arg)
        except ValueError:
            raise ConfigError(f"bad {kind} spec {spec!r}") from None
        return _first_k(model, g, value) if kind == "first-k" else (const_estimator(value), False)
    raise ConfigError(f"unknown estimator {spec!r}")
