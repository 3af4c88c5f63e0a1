"""Exact risk computation on small finite-support models.

Expectations here are full enumerations of the outcome space, so they act as
an oracle for the Monte Carlo lab: decomposition identities must close to
1e-12 and symmetrization must never increase risk.  The outcome space is
enumerated once in lexicographic support order; expectations sum one block
per leading coordinate and combine blocks with the fixed-shape pairwise
tree, so threaded and serial results agree bitwise.

The exact Rao-Blackwell step conditions on the multiset of observations (the
order statistic, sufficient under i.i.d. sampling).  Every ordering of a
multiset is equally likely, so averaging the dual image over all n!
permutations of an outcome equals averaging it over the outcome's multiset
class; the oracle groups outcomes by class instead of permuting them, at
O(m^n * n) cost with no limit on n beyond the m^n outcome budget.  Classes
are numbered in lexicographic order of their sorted support indices and
labelled without sorting any outcome row: a transition table maps (class of
a length-k prefix, next symbol) to the class of the length-(k+1) prefix, and
gathering it k = 1..n times labels the outcomes in enumeration order.

Each check does its per-outcome work once per call: it evaluates e.fn on the
outcome array and checks the estimates' domain once, takes phi and grad phi
of each outcome array once and reuses them in every divergence against that
array, and verify_rb_inequality reads the Rao-Blackwell class table directly
instead of looking every outcome up through the returned estimator.  Nothing
is cached across calls.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .divergence import _div, bregman_div
from .errors import BudgetError, ConfigError, DomainError
from .estimators import Estimator
from .generators import Generator
from .prng import pairwise_sum

MAX_OUTCOMES = 2_000_000

RESIDUAL_TOL = 1e-12
RB_SLACK = 1e-12
_INVARIANCE_TOL = 1e-10


@dataclass(frozen=True)
class DiscreteModel:
    """n i.i.d. draws from a finite positive support, pmf proportional to exp(-theta * v)."""

    support: tuple
    n: int

    def __post_init__(self):
        vals = tuple(float(v) for v in self.support)
        if len(vals) < 1:
            raise ConfigError("support must be non-empty")
        if any(not np.isfinite(v) or v <= 0 for v in vals):
            raise ConfigError("support values must be positive and finite")
        ordered = tuple(sorted(vals))
        if any(a == b for a, b in zip(ordered, ordered[1:])):
            raise ConfigError("support values must be distinct")
        if not isinstance(self.n, int) or self.n < 1:
            raise ConfigError(f"n must be a positive int, got {self.n!r}")
        if len(ordered) ** self.n > MAX_OUTCOMES:
            raise BudgetError(
                f"outcome space {len(ordered)}^{self.n} exceeds the {MAX_OUTCOMES} budget"
            )
        object.__setattr__(self, "support", ordered)

    @property
    def m(self) -> int:
        return len(self.support)

    @property
    def outcome_count(self) -> int:
        return self.m**self.n

    @cached_property
    def outcome_index(self) -> np.ndarray:
        """(m^n, n) support indices, lexicographic with the first coordinate slowest."""
        return np.ascontiguousarray(np.indices((self.m,) * self.n).reshape(self.n, -1).T)

    @cached_property
    def outcome_values(self) -> np.ndarray:
        return np.asarray(self.support)[self.outcome_index]

    def _check_theta(self, theta) -> float:
        theta = float(theta)
        if not (np.isfinite(theta) and theta > 0):
            raise DomainError(f"theta = {theta} is outside open interval (0.0, inf)")
        return theta

    def pmf(self, theta) -> np.ndarray:
        theta = self._check_theta(theta)
        v = np.asarray(self.support)
        w = np.exp(-theta * (v - v.min()))
        return w / np.sum(w)

    def outcome_weights(self, theta) -> np.ndarray:
        """Probability of each outcome row, in outcome_index order.

        Built as an n-fold outer product of the pmf, multiplied left to right
        exactly as a row-wise product of gathered pmf values would be.
        """
        p = self.pmf(theta)
        w = p
        for _ in range(self.n - 1):
            w = np.multiply.outer(w, p)
        return w.ravel()


def _expect(dm: DiscreteModel, w: np.ndarray, per_outcome: np.ndarray, workers: int = 1):
    """Exact expectation of precomputed per-outcome values under weights w.

    w is dm.outcome_weights(theta).  One partial sum per leading-coordinate
    block, merged with the pairwise tree; optionally threaded with identical
    results.
    """
    if int(workers) < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    fv = np.asarray(per_outcome, dtype=float)
    if fv.shape[0] != dm.outcome_count:
        raise ConfigError(
            f"per-outcome values must have leading length {dm.outcome_count}, got {fv.shape[0]}"
        )
    weighted = w * fv if fv.ndim == 1 else w[:, None] * fv
    block = dm.outcome_count // dm.m
    spans = [(j * block, (j + 1) * block) for j in range(dm.m)]

    def part(span):
        return np.sum(weighted[span[0] : span[1]], axis=0)

    if int(workers) > 1:
        with ThreadPoolExecutor(max_workers=int(workers)) as pool:
            partials = list(pool.map(part, spans))
    else:
        partials = [part(s) for s in spans]
    out = pairwise_sum(partials)
    return float(out) if np.ndim(out) == 0 else out


def exact_expectation(dm: DiscreteModel, theta, fn, workers: int = 1):
    """Exact expectation of fn over the enumerated outcome space.

    fn receives the full (m^n, n) outcome array and must return one value
    (scalar or vector) per outcome row.
    """
    values = np.asarray(fn(dm.outcome_values), dtype=float)
    return _expect(dm, dm.outcome_weights(theta), values, workers)


def _multiset_classes(m: int, n: int):
    """Multiset class of every outcome row, in outcome_index order, and class sizes.

    Classes are numbered like np.unique of the rows' sorted support indices:
    by their sorted index tuples in lexicographic order.  reps holds the
    sorted representative of each class of length k; adding symbol s to it
    and re-sorting gives the class of length k + 1 that table[c, s] names.
    Outcome rows enumerate prefixes first-coordinate slowest, so the labels
    of the length-(k+1) prefixes are table[labels].ravel().
    """
    reps = np.zeros((1, 0), dtype=np.int64)
    labels = np.zeros(1, dtype=np.int64)
    symbols = np.arange(m, dtype=np.int64)
    for k in range(1, n + 1):
        grown = np.column_stack([np.repeat(reps, m, axis=0), np.tile(symbols, len(reps))])
        grown.sort(axis=1)
        keys = grown @ (m ** np.arange(k - 1, -1, -1, dtype=np.int64))
        _, first, table = np.unique(keys, return_index=True, return_inverse=True)
        reps = grown[first]
        labels = table.reshape(-1, m)[labels].ravel()
    return labels, np.bincount(labels)


def _rb_table(dm: DiscreteModel, g: Generator, duals: np.ndarray) -> np.ndarray:
    """Rao-Blackwell value of every outcome from its dual value grad phi(e(x)).

    Dual values are averaged per multiset class and mapped back through the
    inverse gradient once per class.
    """
    cls, counts = _multiset_classes(dm.m, dm.n)
    class_duals = np.bincount(cls, weights=duals) / counts
    return np.asarray(g.invert_gradient(class_duals), dtype=float)[cls]


def _rb_id(g: Generator, e: Estimator) -> str:
    return f"rb[{g.id},perms=all]({e.id})"


def exact_rao_blackwell(dm: DiscreteModel, g: Generator, e: Estimator) -> Estimator:
    """Condition on the multiset of observations: exact Rao-Blackwell on dm.

    Under i.i.d. sampling every ordering of a multiset is equally likely, so
    the mean of grad phi(e) over the n! permutations of an outcome equals its
    mean over the outcome's multiset class.  Dual values are computed once per
    outcome, averaged per class, and mapped back through the inverse gradient
    once per class.  The result equals symmetrize(g, e, EXACT) on the support
    up to summation order, without symmetrize's n <= 8 limit.

    The returned estimator reads a table and accepts only samples of length
    dm.n drawn from dm.support; any other value raises DomainError.
    """
    m, n = dm.m, dm.n
    table = _rb_table(dm, g, np.asarray(g.gradient(e.fn(dm.outcome_values)), dtype=float))
    place = m ** np.arange(n - 1, -1, -1, dtype=np.int64)
    support = np.asarray(dm.support)

    def fn(x):
        arr = np.asarray(x, dtype=float)
        if arr.ndim < 1 or arr.shape[-1] != n:
            raise ConfigError(f"exact Rao-Blackwell estimator needs samples of length {n}")
        idx = np.minimum(np.searchsorted(support, arr), m - 1)
        outside = support[idx] != arr
        if np.any(outside):
            val = float(arr[outside][0])
            raise DomainError(f"sample value {val} is not in the oracle support")
        return table[idx @ place]

    return Estimator(
        id=_rb_id(g, e),
        fn=fn,
        unbiasedness=frozenset(t for t in e.unbiasedness if t.startswith("type1")),
        requires_min_n=e.requires_min_n,
    )


@dataclass(frozen=True)
class RBRow:
    theta: float
    risk_estimator: float
    risk_rb: float
    gap: float


@dataclass(frozen=True)
class RBInequalityReport:
    generator_id: str
    estimator_id: str
    rb_estimator_id: str
    support: tuple
    n: int
    rows: tuple
    permutation_invariant: bool
    passed: bool
    max_violation: float
    min_gap: float


def verify_rb_inequality(dm: DiscreteModel, g: Generator, e: Estimator, theta_grid) -> RBInequalityReport:
    """Exact check that permutation averaging never increases left risk.

    passed requires risk(rb) <= risk(e) + 1e-12 at every theta.  The report
    also states whether e was already permutation-invariant, in which case
    the gap is zero rather than strictly positive.

    e.fn runs once; its dual image feeds the class table that
    exact_rao_blackwell's estimator reads, so rb is that estimator's value
    on every outcome.  phi and grad phi of both arrays serve every theta.
    """
    base = np.asarray(e.fn(dm.outcome_values), dtype=float)
    grad_base = np.asarray(g.gradient(base), dtype=float)
    rb = _rb_table(dm, g, grad_base)
    scale = 1.0 + float(np.max(np.abs(base)))
    invariant = bool(np.max(np.abs(rb - base)) <= _INVARIANCE_TOL * scale)
    phi_base, phi_rb, grad_rb = g.value(base), g.value(rb), g.gradient(rb)
    rows = []
    for theta in map(float, theta_grid):
        w = dm.outcome_weights(theta)
        phi_t = g.value(theta)
        risk_base = _expect(dm, w, _div(g, theta, base, phi_t - phi_base, grad_base))
        risk_rb = _expect(dm, w, _div(g, theta, rb, phi_t - phi_rb, grad_rb))
        rows.append(RBRow(theta, risk_base, risk_rb, risk_base - risk_rb))
    min_gap = min(r.gap for r in rows)
    return RBInequalityReport(
        generator_id=g.id,
        estimator_id=e.id,
        rb_estimator_id=_rb_id(g, e),
        support=dm.support,
        n=dm.n,
        rows=tuple(rows),
        permutation_invariant=invariant,
        passed=bool(min_gap >= -RB_SLACK),
        max_violation=float(max(0.0, -min_gap)),
        min_gap=float(min_gap),
    )


@dataclass(frozen=True)
class DecompositionCheck:
    generator_id: str
    estimator_id: str
    support: tuple
    n: int
    theta: float
    risk_left: float
    bias_left: float
    variance_left: float
    center_left: float
    residual_left: float
    risk_right: float
    bias_right: float
    variance_right: float
    center_right: float
    residual_right: float
    passed: bool

    @property
    def max_residual(self) -> float:
        return max(self.residual_left, self.residual_right)


def verify_decompositions_grid(
    dm: DiscreteModel, g: Generator, e: Estimator, theta_grid
) -> list[DecompositionCheck]:
    """Exact risk = bias + variance in both orientations at each theta, residuals to 1e-12.

    e.fn runs once per call, its estimates' domain is checked once, and phi
    and grad phi of them serve all four divergences against them at every
    theta.  Each check equals verify_decompositions at its theta bitwise.
    """
    delta = np.asarray(e.fn(dm.outcome_values), dtype=float)
    g.domain.check(delta, "estimate")
    grad_d = np.asarray(g.gradient(delta))
    phi_d = g.value(delta)
    checks = []
    for theta in map(float, theta_grid):
        w = dm.outcome_weights(theta)
        center_left = float(g.invert_gradient(_expect(dm, w, grad_d)))
        phi_t = g.value(theta)

        risk_left = _expect(dm, w, _div(g, theta, delta, phi_t - phi_d, grad_d))
        bias_left = float(bregman_div(g, theta, center_left))
        var_left = _expect(
            dm, w, _div(g, center_left, delta, g.value(center_left) - phi_d, grad_d)
        )
        residual_left = abs(risk_left - bias_left - var_left)

        center_right = _expect(dm, w, delta)
        risk_right = _expect(dm, w, _div(g, delta, theta, phi_d - phi_t, g.gradient(theta)))
        bias_right = float(bregman_div(g, center_right, theta))
        phi_c, grad_c = g.value(center_right), g.gradient(center_right)
        var_right = _expect(dm, w, _div(g, delta, center_right, phi_d - phi_c, grad_c))
        residual_right = abs(risk_right - bias_right - var_right)

        checks.append(
            DecompositionCheck(
                generator_id=g.id,
                estimator_id=e.id,
                support=dm.support,
                n=dm.n,
                theta=theta,
                risk_left=risk_left,
                bias_left=bias_left,
                variance_left=var_left,
                center_left=center_left,
                residual_left=residual_left,
                risk_right=risk_right,
                bias_right=bias_right,
                variance_right=var_right,
                center_right=float(center_right),
                residual_right=residual_right,
                passed=bool(max(residual_left, residual_right) <= RESIDUAL_TOL),
            )
        )
    return checks


def verify_decompositions(dm: DiscreteModel, g: Generator, e: Estimator, theta) -> DecompositionCheck:
    """verify_decompositions_grid at the single parameter theta."""
    return verify_decompositions_grid(dm, g, e, [theta])[0]


def calibrated_type1_estimator(
    dm: DiscreteModel, g: Generator, stat_fn, theta0, est_id="calibrated"
) -> Estimator:
    """Shift a statistic in dual space so its dual mean hits grad phi(theta0).

    The shift is computed by exact enumeration at theta0, so the resulting
    estimator is dual-unbiased at that single parameter value.  Raises at
    evaluation time if a shifted dual value leaves the gradient's range.
    """
    duals = np.asarray(g.gradient(stat_fn(dm.outcome_values)), dtype=float)
    shift = float(g.gradient(float(theta0))) - _expect(dm, dm.outcome_weights(theta0), duals)

    def fn(x):
        return np.asarray(g.invert_gradient(np.asarray(g.gradient(stat_fn(x))) + shift))

    return Estimator(est_id, fn, frozenset(), 1)


def resolve_discrete_estimator(spec: str) -> Estimator:
    """Estimator selection strings for the enumeration oracle.

    Accepted forms: "mean" (alias "classical"), "first-k:<k>" (mean of the
    first k observations), "const:<v>".
    """
    if spec in ("mean", "classical"):
        return Estimator("mean", lambda x: np.mean(x, axis=-1), frozenset(), 1)
    if spec.startswith("first-k:"):
        try:
            k = int(spec.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"bad first-k spec {spec!r}") from None
        if k < 1:
            raise ConfigError(f"first-k needs k >= 1, got {k}")
        return Estimator(
            f"first-k:{k}", lambda x: np.mean(x[..., :k], axis=-1), frozenset(), k
        )
    if spec.startswith("const:"):
        try:
            v = float(spec.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"bad const spec {spec!r}") from None
        return Estimator(f"const:{v:g}", lambda x: np.full(x.shape[:-1], v), frozenset(), 1)
    raise ConfigError(f"unknown oracle estimator {spec!r}")
