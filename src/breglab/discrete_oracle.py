"""Exact risk computation on small finite-support models.

Expectations here are exact sums over the enumerated outcome space, so they
act as an oracle for the Monte Carlo lab: decomposition identities must close
to 1e-12 of their largest term, and symmetrization must never increase risk
by more, with 1e-12 absolute as the least bound (a correct identity on a risk
of 1e12 carries rounding of about 1e-4).  The outcome space is enumerated in
lexicographic support order, first coordinate slowest, once for a few recent
(support, n), shared read-only.

Every expectation is a sum over a law, never over outcomes.  An estimate
takes few distinct values ("atoms") over the m^n outcomes, and _law pushes
the outcomes onto them with one stable argsort, by (value, outcome index).
The law keeps its cells, the (atom, multiset class) pairs that some outcome
takes, with the number of outcomes in each.  Every ordering of a multiset is
equally likely, so at each theta one vector q, the probability of one
ordering of each class, weighs every law: an atom's probability is the
pairwise sum np.add.reduceat of mult * q over its cells.  phi, grad phi and
every divergence are evaluated once per atom, and _expect is
np.sum(p * f(atoms)).  The decomposition checks split through
divergence._split, as decompose_left/right do.  The domain of the estimate
is still checked on the full outcome array, so error messages name outcome
indices.

A model keeps the estimates of its last check and their law, so the
Rao-Blackwell check, the decompositions at each theta and
exact_rao_blackwell sort one estimator's values once.  Timed in process on a
shared 2-core VM, with and without that reuse alternated body by body, the
54-case benchmark battery took 1.83-1.87 times as long without it (median of
15 bodies in each of 3 processes, 0.36-0.43 s with it).

The exact Rao-Blackwell step conditions on the multiset of observations (the
order statistic, sufficient under i.i.d. sampling); _rb_table builds its
table for exact_rao_blackwell and verify_rb_inequality alike.  Averaging the
dual image over all n! permutations of an outcome equals averaging it over
the outcome's multiset class, whose outcomes are equally likely, so the
class mean of grad phi(e) is summed over the class's cells and mapped back
through the inverse gradient once per class: the type-I construction
(grad phi)^-1(E[grad phi(e) | multiset]), with no limit on n beyond the m^n
outcome budget.  Classes are numbered in lexicographic order of their sorted
support indices and labelled without sorting any outcome row: a transition
table maps (class of a length-k prefix, next symbol) to the class of the
length-(k+1) prefix, and gathering it k = 1..n times labels the outcomes in
enumeration order.  Labels, class sizes and sorted representatives are
cached read-only for a few recent (m, n).  The Rao-Blackwell risk is summed
over the classes, each weighing its size n!/prod(c_j!) times q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .divergence import _loss, _Points, _split
from .divergence import bregman_div  # noqa: F401  uncalled; bench/spans.py wraps this name
from .errors import BudgetError, ConfigError, DomainError
from .estimators import Estimator, rao_blackwell_estimator, resolve_estimator
from .generators import Generator, require_dimension

MAX_OUTCOMES = 2_000_000

# relative to the largest risk term a check closes, and at least absolute
RESIDUAL_TOL = 1e-12
RB_SLACK = 1e-12
_INVARIANCE_TOL = 1e-10


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
        if isinstance(self.n, bool) or not isinstance(self.n, int) or self.n < 1:
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


@dataclass(frozen=True)
class _Law:
    """Distinct values ("atoms") of a per-outcome array and its cells.

    atoms ascend.  A cell is an (atom, multiset class) pair that some outcome
    takes: atom, cls and mult hold each cell's atom index, class and number
    of outcomes, sorted by (atom, class), and starts marks where each atom's
    cells begin.
    """

    atoms: np.ndarray
    atom: np.ndarray
    cls: np.ndarray
    mult: np.ndarray
    starts: np.ndarray

    def probabilities(self, q: np.ndarray) -> np.ndarray:
        """Atom probabilities, one pairwise sum per atom; q weighs one ordering of each class."""
        return np.add.reduceat(self.mult * q[self.cls], self.starts)


def _law(values: np.ndarray, labels: np.ndarray, classes: int) -> _Law:
    """Push the outcomes forward onto the distinct values of a 1-D per-outcome array.

    labels holds the multiset class of every outcome, one of classes.  One
    stable argsort orders the outcomes by (value, outcome index); a tie of
    -0.0 and 0.0 keeps the sign of its first outcome.  The cells are the
    distinct keys atom * classes + label, sorted in place.
    """
    order = np.argsort(values, kind="stable")
    ranked = values[order]
    new = np.concatenate(([True], ranked[1:] != ranked[:-1]))
    atoms = ranked[new]
    del ranked
    keys = np.cumsum(new, dtype=np.int64)
    keys -= 1
    keys *= classes
    keys += labels[order]
    del order
    keys.sort()
    first = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    mult = np.diff(first, append=len(keys))
    atom, cls = np.divmod(keys[first], classes)
    starts = np.flatnonzero(np.concatenate(([True], atom[1:] != atom[:-1])))
    return _Law(atoms, atom, cls, mult, starts)


def _expect(p: np.ndarray, values) -> float:
    """Expectation of per-atom values under atom probabilities p."""
    return float(np.sum(p * values))


def _grid(theta_grid) -> list[float]:
    """The theta grid as floats; an empty grid is a ConfigError."""
    grid = [float(theta) for theta in theta_grid]
    if not grid:
        raise ConfigError("the theta grid must not be empty")
    return grid


def _estimates(dm: DiscreteModel, e: Estimator) -> np.ndarray:
    """e on every outcome row, one float per outcome (Estimator.per_row), contiguous.

    An estimator may return a strided view; sorting and checking a
    contiguous copy is several times faster than the view.
    """
    e.check_n(dm.n)
    return np.ascontiguousarray(e.per_row(e.fn(dm.outcome_values), dm.outcome_count))


def _estimate_law(dm: DiscreteModel, g: Generator, e: Estimator, label: str):
    """e on every outcome, domain-checked under label, and the law of those values.

    e.fn runs and the domain is checked on every call.  The model keeps a
    read-only copy of the values of its last call, and their law; values
    byte-identical to those (compared as int64, so -0.0 and 0.0 or two NaN
    payloads never match) reuse that law instead of sorting again; the
    battery takes 1.83-1.87 times as long without (module docstring).  The
    kept copy is what is returned, so an estimator that later overwrites
    its own output cannot change it.
    """
    require_dimension(g, 1)
    values = _estimates(dm, e)
    g.domain.check(values, label)
    last = dm.__dict__.get("_last_law")
    if last is not None and np.array_equal(last[0].view(np.int64), values.view(np.int64)):
        return last
    labels, counts, _ = _multiset_classes(dm.m, dm.n)
    law = _law(values, labels, len(counts))
    values = values.copy()
    values.setflags(write=False)
    dm.__dict__["_last_law"] = values, law
    return values, law


@lru_cache(maxsize=4)
def _multiset_classes(m: int, n: int):
    """Multiset class of every outcome row, in outcome_values order, and the classes.

    Classes are numbered like np.unique of the rows' sorted support indices:
    by their sorted index tuples in lexicographic order.  reps holds the
    sorted representative of each class of length k; adding symbol s to it
    and re-sorting gives the class of length k + 1 that table[c, s] names.
    Outcome rows enumerate prefixes first-coordinate slowest, so the labels
    of the length-(k+1) prefixes are table[labels].ravel().  Returns labels,
    counts and the final reps, each cached per (m, n) and read-only.
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
    for arr in (labels, counts, reps):
        arr.setflags(write=False)
    return labels, counts, reps


def _rb_table(dm: DiscreteModel, g: Generator, e: Estimator):
    """The law of e's values, its atoms and the Rao-Blackwell value of every multiset class.

    Returns (law, base, rb): law as _estimate_law gives it, base its atoms as
    _Points and rb the conditioned value of every class, so rb[labels] is
    the Rao-Blackwell estimate on every outcome.  The orderings of a class
    are equally likely, so the plain mean of grad phi over the class's
    outcomes, summed over its cells, is the conditional expectation; grad
    phi is taken once per atom and each class is inverted once.
    """
    law = _estimate_law(dm, g, e, "x")[1]
    base = _Points(g, law.atoms)
    counts = _multiset_classes(dm.m, dm.n)[1]
    means = np.bincount(law.cls, weights=law.mult * base.grad[law.atom]) / counts
    return law, base, np.asarray(g.invert_gradient(means), dtype=float)


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
    rb = _rb_table(dm, g, e)[2]
    table = rb[_multiset_classes(m, n)[0]]
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

    passed requires risk(rb) <= risk(e) + RB_SLACK * max(1, risk(e), risk(rb))
    at every theta; max_violation is the absolute excess.  The report also
    states whether e was already permutation-invariant, in which case the gap
    is zero rather than strictly positive.

    e.fn runs once.  rb_classes is the class table that exact_rao_blackwell's
    estimator reads.  The risk of e is summed over the law of its values, that
    of rb over the multiset classes, both weighed by the probability q of one
    ordering of each class, with phi and grad phi taken once per atom or
    class for every theta.  e is invariant when every cell's class value
    matches its atom.
    """
    grid = _grid(theta_grid)
    law, base, rb_classes = _rb_table(dm, g, e)
    _, counts, reps = _multiset_classes(dm.m, dm.n)
    scale = 1.0 + float(np.max(np.abs(law.atoms)))
    moved = np.max(np.abs(rb_classes[law.cls] - law.atoms[law.atom]))
    invariant = bool(moved <= _INVARIANCE_TOL * scale)
    rb = _Points(g, rb_classes)
    rows = []
    for theta in grid:
        t = _Points(g, theta)
        q = np.prod(dm.pmf(theta)[reps], axis=1)
        risk_base = _expect(law.probabilities(q), _loss(g, "left", base, t))
        risk_rb = _expect(counts * q, _loss(g, "left", rb, t))
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
        passed=all(r.gap >= -RB_SLACK * max(1.0, r.risk_estimator, r.risk_rb) for r in rows),
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
    """Exact risk = bias + variance in both orientations at each theta.

    e.fn runs once per call and its estimates' domain is checked once on the
    full outcome array.  Every expectation is a sum over the law of the
    estimates, so phi and grad phi are evaluated once per distinct estimate.
    Each orientation is divergence._split of the atoms under their
    probabilities.  A check passes when each orientation's residual is within
    RESIDUAL_TOL * max(1, |risk|, |bias|, |variance|); the residuals it
    reports are absolute.  Each check equals verify_decompositions at its
    theta.
    """
    grid = _grid(theta_grid)
    law = _estimate_law(dm, g, e, "estimate")[1]
    reps = _multiset_classes(dm.m, dm.n)[2]
    est = _Points(g, law.atoms)
    checks = []
    for theta in grid:
        p = law.probabilities(np.prod(dm.pmf(theta)[reps], axis=1))
        t = _Points(g, theta)
        parts = []  # risk, bias, variance, center and residual, left then right
        passed = True
        for side in ("left", "right"):
            r = _split(g, side, est, p, t)
            terms = (r.total, r.bias_term, r.variance_term)
            residual = abs(r.total - r.bias_term - r.variance_term)
            parts += [*terms, r.center, residual]
            passed &= bool(residual <= RESIDUAL_TOL * max(1.0, *map(abs, terms)))
        checks.append(DecompositionCheck(g.id, e.id, dm.support, dm.n, theta, *parts, passed))
    return checks


def verify_decompositions(dm: DiscreteModel, g: Generator, e: Estimator, theta) -> DecompositionCheck:
    """verify_decompositions_grid at the single parameter theta."""
    return verify_decompositions_grid(dm, g, e, [theta])[0]
