"""Exact risk computation on small finite-support models.

Expectations here are exact sums over the enumerated outcome space, so they
act as an oracle for the Monte Carlo lab: decomposition identities must close
to 1e-12 and symmetrization must never increase risk.  The outcome space is
enumerated in lexicographic support order, first coordinate slowest, once for
a few recent (support, n), shared read-only.  exact_expectation sums one
block per leading coordinate and combines blocks with the fixed-shape
pairwise tree.

The checks sum over laws instead of outcomes.  An estimate takes few distinct
values ("atoms") over the m^n outcomes, and _law pushes the outcomes onto
them with one stable argsort, by (value, outcome index).  At each theta an
atom's probability is the pairwise sum np.add.reduceat of its segment of
gathered weights; phi, grad phi and every divergence are evaluated once per
atom, and an expectation is np.sum(p * f(atoms)).  The decomposition checks
split through divergence._split, as decompose_left/right do.  The domain of
the estimate is still checked on the full outcome array, so error messages
name outcome indices.

Three kinds of reuse stay because the 54-case benchmark battery is slower
without each (2-core VM, medians of 15 runs in each of 5 processes, 0.25 s
with all of them):
- a model keeps the estimates of its last check and their law, so the
  Rao-Blackwell check, the decompositions at each theta and
  exact_rao_blackwell sort one estimator's values once (0.35 s without);
- a law keeps its atom probabilities per theta (0.28 s without), and the
  Rao-Blackwell check weighs the outcomes once per theta for both its laws;
- the Rao-Blackwell law is built from its class labels by _law_of_labels
  (0.34 s sorting its values with _law instead).

Conditioning is one step, _condition: given a partition of the outcomes into
equally likely cells, average the dual image grad phi(e) over each cell and
map the cell mean back through the inverse gradient once per cell.  That is
the type-I construction (grad phi)^-1(E[grad phi(e) | cell]).

The exact Rao-Blackwell step conditions on the multiset of observations (the
order statistic, sufficient under i.i.d. sampling).  Every ordering of a
multiset is equally likely, so averaging the dual image over all n!
permutations of an outcome equals averaging it over the outcome's multiset
class, at O(m^n * n) cost with no limit on n beyond the m^n outcome budget.
Classes are numbered in lexicographic order of their sorted support indices
and labelled without sorting any outcome row: a transition table maps (class
of a length-k prefix, next symbol) to the class of the length-(k+1) prefix,
and gathering it k = 1..n times labels the outcomes in enumeration order.
The labels and class sizes are cached read-only for a few recent (m, n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .divergence import _loss, _Points, _split
from .divergence import bregman_div  # noqa: F401  uncalled; bench/spans.py wraps this name
from .errors import BudgetError, ConfigError, DomainError
from .estimators import Estimator, rao_blackwell_estimator, resolve_estimator
from .generators import Generator, require_dimension
from .prng import pairwise_sum

MAX_OUTCOMES = 2_000_000

RESIDUAL_TOL = 1e-12
RB_SLACK = 1e-12
_INVARIANCE_TOL = 1e-10
# atom probabilities one law keeps across calls, over all its thetas
_CACHED_PROBABILITIES = 1 << 16


@dataclass(frozen=True)
class DiscreteModel:
    """n i.i.d. draws from a finite positive support, pmf proportional to exp(-theta * v).

    The oracle checks keep the law of the model's last estimates on it
    (_estimate_law).
    """

    support: tuple
    n: int

    family = "discrete"

    def __post_init__(self):
        vals = tuple(float(v) for v in self.support)
        if len(vals) < 1:
            raise ConfigError("support must be non-empty")
        if any(not math.isfinite(v) or v <= 0 for v in vals):
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
    def classical_umvue(self) -> Estimator:
        """The sample mean, which the "classical" estimator spec names on this model."""
        return resolve_estimator("mean", self)

    @property
    def m(self) -> int:
        return len(self.support)

    @property
    def outcome_count(self) -> int:
        return self.m**self.n

    @property
    def outcome_values(self) -> np.ndarray:
        """(m^n, n) support values, lexicographic with the first coordinate slowest.

        Stored column-major: each coordinate is contiguous, so an estimator
        that reduces over the n observations of every outcome (a mean, a sum,
        a leading coordinate) runs as n vectorised column passes instead of
        m^n short rows.  For n < 8 numpy sums such a reduction in the same
        order either way.  The array is shared by every model with the same
        (support, n) and is read-only.
        """
        return _outcome_values(self.support, self.n)

    def _check_theta(self, theta) -> float:
        theta = float(theta)
        if not (math.isfinite(theta) and theta > 0):
            raise DomainError(f"theta = {theta} is outside open interval (0.0, inf)")
        return theta

    def pmf(self, theta) -> np.ndarray:
        theta = self._check_theta(theta)
        v = np.asarray(self.support)
        w = np.exp(-theta * (v - v.min()))
        return w / np.sum(w)

    def outcome_weights(self, theta) -> np.ndarray:
        """Probability of each outcome row, in outcome_values order.

        Built as an n-fold outer product of the pmf, multiplied left to right
        exactly as a row-wise product of gathered pmf values would be.
        """
        p = self.pmf(theta)
        w = p
        for _ in range(self.n - 1):
            w = np.multiply.outer(w, p)
        return w.ravel()


def _fill_columns(cols: np.ndarray, symbols: np.ndarray) -> None:
    """Write outcome_values order into cols, shape (n, m^n), one coordinate per row.

    Coordinate j repeats each of the m symbols m^(n-1-j) times, m^j times over.
    """
    n, count = cols.shape
    m = len(symbols)
    for j in range(n):
        cols[j].reshape(m**j, m, count // m ** (j + 1))[...] = symbols[:, None]


@lru_cache(maxsize=4)
def _outcome_values(support: tuple, n: int) -> np.ndarray:
    """DiscreteModel.outcome_values, cached read-only per (support, n)."""
    cols = np.empty((n, len(support) ** n))
    _fill_columns(cols, np.asarray(support))
    cols.setflags(write=False)
    return cols.T


def _expect(dm: DiscreteModel, w: np.ndarray, per_outcome: np.ndarray):
    """Exact expectation of precomputed per-outcome values under weights w.

    w is dm.outcome_weights(theta).  One partial sum per leading-coordinate
    block, merged with the pairwise tree.
    """
    fv = np.asarray(per_outcome, dtype=float)
    if fv.shape[0] != dm.outcome_count:
        raise ConfigError(
            f"per-outcome values must have leading length {dm.outcome_count}, got {fv.shape[0]}"
        )
    weighted = w * fv if fv.ndim == 1 else w[:, None] * fv
    block = dm.outcome_count // dm.m
    out = pairwise_sum([np.sum(weighted[j * block : (j + 1) * block], axis=0) for j in range(dm.m)])
    return float(out) if np.ndim(out) == 0 else out


def exact_expectation(dm: DiscreteModel, theta, fn):
    """Exact expectation of fn over the enumerated outcome space.

    fn receives the full (m^n, n) outcome array and must return one value
    (scalar or vector) per outcome row.  That array is dm.outcome_values,
    shared by every model with the same (support, n) and read-only: an fn
    that writes into it raises ValueError instead of corrupting it.
    """
    values = np.asarray(fn(dm.outcome_values), dtype=float)
    return _expect(dm, dm.outcome_weights(theta), values)


@dataclass(frozen=True)
class _Law:
    """Distinct values ("atoms") of a per-outcome array and the outcomes taking each.

    atoms ascend; order lists the outcome indices by (value, outcome index),
    as a stable argsort of the array does, and starts marks where each atom's
    run of outcomes begins in order.  by_theta keeps the atom probabilities
    already computed at each theta, so checks on one model weigh once per theta.
    """

    atoms: np.ndarray
    order: np.ndarray
    starts: np.ndarray
    by_theta: dict = field(default_factory=dict, compare=False, repr=False)

    def spread(self, per_atom: np.ndarray) -> np.ndarray:
        """Per-atom values placed on every outcome, in outcome order."""
        out = np.empty(len(self.order))
        out[self.order] = np.repeat(per_atom, np.diff(self.starts, append=len(self.order)))
        return out

    def probabilities(self, w: np.ndarray) -> np.ndarray:
        """Atom probabilities under outcome weights w: one pairwise sum per atom."""
        return np.add.reduceat(w[self.order], self.starts)

    def probabilities_at(self, dm: DiscreteModel, theta: float, w=None) -> np.ndarray:
        """probabilities(dm.outcome_weights(theta)), computed once per theta.

        w, if given, is dm.outcome_weights(theta) already computed by the
        caller.  Results are kept, read-only, while their total length stays
        within _CACHED_PROBABILITIES.
        """
        p = self.by_theta.get(theta)
        if p is None:
            p = self.probabilities(dm.outcome_weights(theta) if w is None else w)
            if (len(self.by_theta) + 1) * len(self.atoms) <= _CACHED_PROBABILITIES:
                p.setflags(write=False)
                self.by_theta[theta] = p
        return p


def _law(values: np.ndarray) -> _Law:
    """Push the outcomes forward onto the distinct values of a 1-D per-outcome array.

    One stable argsort orders the outcomes by (value, outcome index); a tie
    of -0.0 and 0.0 keeps the sign of its first outcome.
    """
    order = np.argsort(values, kind="stable")
    ranked = values[order]
    starts = np.flatnonzero(np.concatenate(([True], ranked[1:] != ranked[:-1])))
    return _Law(ranked[starts], order, starts)


def _law_of_labels(atoms: np.ndarray, labels: np.ndarray) -> _Law:
    """_law(atoms[labels]) for ascending distinct atoms that all occur in it.

    Ordering by label is ordering by value, so a stable sort of the labels
    gives the same grouping; in an unsigned dtype of at most 16 bits numpy
    radix-sorts them, faster than _law sorts the values.
    """
    narrow = labels.astype(np.min_scalar_type(len(atoms) - 1), copy=False)
    sizes = np.bincount(narrow, minlength=len(atoms))
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    return _Law(atoms, np.argsort(narrow, kind="stable"), starts)


def _mean(p: np.ndarray, values) -> float:
    """Expectation of per-atom values under atom probabilities p."""
    return float(np.sum(p * values))


def _grid(theta_grid) -> list[float]:
    """The theta grid as floats; an empty grid is a ConfigError."""
    grid = [float(theta) for theta in theta_grid]
    if not grid:
        raise ConfigError("the theta grid must not be empty")
    return grid


def _estimates(dm: DiscreteModel, e: Estimator) -> np.ndarray:
    """e on every outcome row, one float per outcome, contiguous.

    An estimator may return a strided view; sorting and checking a
    contiguous copy is several times faster than the view.
    """
    e.check_n(dm.n)
    values = np.ascontiguousarray(e.fn(dm.outcome_values), dtype=float)
    if values.shape != (dm.outcome_count,):
        raise ConfigError(
            f"estimator {e.id!r} must give one value per outcome, shape "
            f"({dm.outcome_count},), got {values.shape}"
        )
    return values


def _estimate_law(dm: DiscreteModel, g: Generator, e: Estimator, label: str):
    """e on every outcome, domain-checked under label, and the law of those values.

    e.fn runs and the domain is checked on every call.  The model keeps a
    read-only copy of the values of its last call, and their law; values
    byte-identical to those (compared as int64, so -0.0 and 0.0 or two NaN
    payloads never match) reuse that law, and its atom probabilities,
    instead of sorting again, which saves the battery about a third of its
    time.  The kept copy is what is returned, so an
    estimator that later overwrites its own output cannot change it.
    """
    require_dimension(g, 1)
    values = _estimates(dm, e)
    g.domain.check(values, label)
    last = dm.__dict__.get("_last_law")
    if last is not None and np.array_equal(last[0].view(np.int64), values.view(np.int64)):
        return last
    law = _law(values)
    values = values.copy()
    values.setflags(write=False)
    dm.__dict__["_last_law"] = values, law
    return values, law


@lru_cache(maxsize=4)
def _multiset_classes(m: int, n: int):
    """Multiset class of every outcome row, in outcome_values order, and class sizes.

    Classes are numbered like np.unique of the rows' sorted support indices:
    by their sorted index tuples in lexicographic order.  reps holds the
    sorted representative of each class of length k; adding symbol s to it
    and re-sorting gives the class of length k + 1 that table[c, s] names.
    Outcome rows enumerate prefixes first-coordinate slowest, so the labels
    of the length-(k+1) prefixes are table[labels].ravel().  Both arrays are
    cached per (m, n) and read-only.
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
    counts = np.bincount(labels)
    labels.setflags(write=False)
    counts.setflags(write=False)
    return labels, counts


def _condition(g: Generator, duals: np.ndarray, labels: np.ndarray, counts: np.ndarray):
    """(grad phi)^-1 of the mean dual value in each cell of a partition of the outcomes.

    duals holds grad phi of the estimate on every outcome, labels the cell of
    every outcome and counts the size of every cell.  The outcomes of a cell
    must be equally likely, as the orderings of one multiset are, so the
    plain mean is the conditional expectation; each cell is inverted once.
    """
    return np.asarray(g.invert_gradient(np.bincount(labels, weights=duals) / counts), dtype=float)


def exact_rao_blackwell(dm: DiscreteModel, g: Generator, e: Estimator) -> Estimator:
    """Condition on the multiset of observations: exact Rao-Blackwell on dm.

    Under i.i.d. sampling every ordering of a multiset is equally likely, so
    the mean of grad phi(e) over the n! permutations of an outcome equals its
    mean over the outcome's multiset class.  Dual values are computed once per
    distinct estimate, averaged per class, and mapped back through the inverse
    gradient once per class.  The result equals symmetrize(g, e) on the
    support up to summation order, without symmetrize's n <= 8 limit.

    The returned estimator reads a table and accepts only samples of length
    dm.n drawn from dm.support; any other value raises DomainError.
    """
    m, n = dm.m, dm.n
    law = _estimate_law(dm, g, e, "x")[1]
    cls, counts = _multiset_classes(m, n)
    table = _condition(g, law.spread(g.gradient(law.atoms)), cls, counts)[cls]
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

    return rao_blackwell_estimator(g, e, fn)


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

    e.fn runs once.  grad phi of its distinct values feeds the class table
    that exact_rao_blackwell's estimator reads, so rb is that estimator's
    value on every outcome.  Each risk is summed over the law of its
    estimator's values, with phi and grad phi taken once per atom for every
    theta.
    """
    grid = _grid(theta_grid)
    values, law = _estimate_law(dm, g, e, "x")
    base = _Points(g, law.atoms)
    cls, counts = _multiset_classes(dm.m, dm.n)
    rb_classes = _condition(g, law.spread(base.grad), cls, counts)
    rb_atoms, rb_of_class = np.unique(rb_classes, return_inverse=True)
    rb_law = _law_of_labels(rb_atoms, rb_of_class[cls])
    scale = 1.0 + float(np.max(np.abs(law.atoms)))
    moved = rb_classes[cls]
    moved -= values
    invariant = bool(np.max(np.abs(moved, out=moved)) <= _INVARIANCE_TOL * scale)
    rb = _Points(g, rb_atoms)
    rows = []
    for theta in grid:
        w = dm.outcome_weights(theta)
        t = _Points(g, theta)
        risk_base = _mean(law.probabilities_at(dm, theta, w), _loss(g, "left", base, t))
        risk_rb = _mean(rb_law.probabilities(w), _loss(g, "left", rb, t))
        rows.append(RBRow(theta, risk_base, risk_rb, risk_base - risk_rb))
    min_gap = min(r.gap for r in rows)
    return RBInequalityReport(
        generator_id=g.id,
        estimator_id=e.id,
        rb_estimator_id=rao_blackwell_estimator(g, e, None).id,
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

    e.fn runs once per call and its estimates' domain is checked once on the
    full outcome array.  Every expectation is a sum over the law of the
    estimates, so phi and grad phi are evaluated once per distinct estimate.
    Each orientation is divergence._split of the atoms under their
    probabilities.  Each check equals verify_decompositions at its theta.
    """
    grid = _grid(theta_grid)
    law = _estimate_law(dm, g, e, "estimate")[1]
    est = _Points(g, law.atoms)
    checks = []
    for theta in grid:
        p = law.probabilities_at(dm, theta)
        t = _Points(g, theta)
        parts = []  # risk, bias, variance, center and residual, left then right
        for side in ("left", "right"):
            r = _split(g, side, est, p, t)
            parts += [r.total, r.bias_term, r.variance_term, r.center,
                      abs(r.total - r.bias_term - r.variance_term)]
        passed = bool(max(parts[4::5]) <= RESIDUAL_TOL)
        checks.append(DecompositionCheck(g.id, e.id, dm.support, dm.n, theta, *parts, passed))
    return checks


def verify_decompositions(dm: DiscreteModel, g: Generator, e: Estimator, theta) -> DecompositionCheck:
    """verify_decompositions_grid at the single parameter theta."""
    return verify_decompositions_grid(dm, g, e, [theta])[0]
