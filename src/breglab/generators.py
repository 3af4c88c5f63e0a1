"""Strictly convex generators with Legendre structure.

A generator is a strictly convex, differentiable function phi on an open
domain.  Everything downstream (divergences, dual estimators, risk
decompositions) needs four operations from it: the value phi(x), the
gradient grad phi(x), the inverse gradient (grad phi)^{-1}(y), and the
convex conjugate phi*(y).  Builtins register closed forms for all four;
separable generators keep the inverse and conjugate available when closed
forms are disabled, by bisection over the float64 order (_newton_invert).

Shape conventions: a generator of dimension d > 1 treats the last axis of an
array as the coordinate axis.  A generator of dimension 1 is elementwise,
so arrays of any shape are batches of scalar points.

Generators use numpy alone.  The quadratic (Mahalanobis) generator factors
its matrix with ``np.linalg.cholesky`` and solves with the factor by
substitution, so building or inverting one loads no scipy module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, NumericError, RangeError, UnsupportedError

_FLOAT64 = np.dtype(np.float64)


def _float_scalar(x):
    """x as a Python float if it is a float64 scalar or 0-d float64 array, else None.

    DomainSpec.check, _ensure_finite and divergence._clamped pass a valid
    scalar with plain float comparisons, which keeps the oracle's per-theta
    scalar work cheap.  Anything else, and every scalar that fails, takes
    their numpy path, so what they raise is unchanged.
    """
    t = type(x)
    if t is float or t is np.float64 or (t is np.ndarray and x.ndim == 0 and x.dtype is _FLOAT64):
        return float(x)
    return None


@dataclass(frozen=True)
class DomainSpec:
    """Open box domain, one scalar constraint applied to every coordinate."""

    dimension: int
    kind: str = "reals"  # "reals" | "positive" | "interval"
    lo: float = -math.inf
    hi: float = math.inf

    def __post_init__(self):
        if not isinstance(self.dimension, int) or self.dimension < 1:
            raise ConfigError(f"dimension must be a positive int, got {self.dimension!r}")
        if self.kind == "reals":
            object.__setattr__(self, "lo", -math.inf)
            object.__setattr__(self, "hi", math.inf)
        elif self.kind == "positive":
            object.__setattr__(self, "lo", 0.0)
            object.__setattr__(self, "hi", math.inf)
        elif self.kind == "interval":
            if not self.lo < self.hi:
                raise ConfigError(f"interval needs lo < hi, got ({self.lo}, {self.hi})")
        else:
            raise ConfigError(f"unknown domain kind {self.kind!r}")

    def describe(self) -> str:
        if self.kind == "reals":
            return "all reals"
        return f"open interval ({self.lo}, {self.hi})"

    def mask(self, arr: np.ndarray) -> np.ndarray:
        """Elementwise membership, False for non-finite entries.

        lo and hi are never nan, so the strict comparisons reject nan, and
        -inf and +inf fail lo < x < hi for every kind.
        """
        return (arr > self.lo) & (arr < self.hi)

    def contains(self, x) -> bool:
        return bool(np.all(self.mask(np.asarray(x, dtype=float))))

    def check(self, arr: np.ndarray, label: str, error=DomainError) -> None:
        v = _float_scalar(arr)
        if v is not None and self.lo < v < self.hi:  # false for nan and for +-inf
            return
        ok = self.mask(arr)
        if np.all(ok):
            return
        flat = np.ravel(~ok)
        i = int(np.flatnonzero(flat)[0])
        val = float(np.ravel(arr)[i])
        raise error(f"{label}[{i}] = {val} is outside {self.describe()}")


class Generator:
    """Base class; concrete generators fill in the four operations."""

    def __init__(self, gen_id: str, domain: DomainSpec, dual_domain: DomainSpec):
        self.id = gen_id
        self.domain = domain
        self.dual_domain = dual_domain

    @property
    def dimension(self) -> int:
        return self.domain.dimension

    def _canon(self, x, spec: DomainSpec, label: str, error=DomainError) -> np.ndarray:
        arr = np.asarray(x, dtype=float)
        d = self.dimension
        if d > 1 and (arr.ndim == 0 or arr.shape[-1] != d):
            raise error(f"{label} must have last axis of length {d}, got shape {arr.shape}")
        spec.check(arr, label, error)
        return arr

    def _reduce(self, per_coord: np.ndarray) -> np.ndarray:
        """Sum the coordinate axis away; identity in the elementwise d = 1 case."""
        if self.dimension == 1:
            return per_coord
        return np.sum(per_coord, axis=-1)

    def value(self, x):
        raise NotImplementedError

    def gradient(self, x):
        raise NotImplementedError

    def invert_gradient(self, y):
        raise NotImplementedError

    def conjugate(self, y):
        raise NotImplementedError

    def without_closed_forms(self) -> "Generator":
        raise UnsupportedError(f"generator '{self.id}' has no numeric inversion path")

    def __repr__(self):
        return f"{type(self).__name__}(id={self.id!r}, dimension={self.dimension})"


def require_dimension(g: Generator, d: int) -> None:
    """Refuse g unless its points have d coordinates; scalar parameters and estimates need 1."""
    if g.dimension != d:
        raise ConfigError(f"generator '{g.id}' has dimension {g.dimension}; the points have {d}")


def _ensure_finite(arr: np.ndarray, what: str) -> np.ndarray:
    v = _float_scalar(arr)
    if v is not None and math.isfinite(v):
        return arr
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"{what} is not finite (overflow or invalid operand)")
    return arr


@dataclass(frozen=True)
class _ScalarRule:
    """Coordinatewise pieces of a separable generator, all numpy ufunc style."""

    value: object
    grad: object
    grad_inverse: object = None
    conjugate: object = None


class SeparableGenerator(Generator):
    """Generator of the form phi(x) = sum_i f(x_i) for a scalar convex f."""

    def __init__(self, gen_id, domain, dual_domain, rule: _ScalarRule, use_closed_forms=True):
        super().__init__(gen_id, domain, dual_domain)
        self._rule = rule
        self._use_closed = use_closed_forms

    def without_closed_forms(self) -> "SeparableGenerator":
        """Copy that inverts the gradient numerically and derives the conjugate."""
        return SeparableGenerator(
            self.id, self.domain, self.dual_domain, self._rule, use_closed_forms=False
        )

    def value(self, x):
        arr = self._canon(x, self.domain, "x")
        return _ensure_finite(self._reduce(self._rule.value(arr)), "value")

    def gradient(self, x):
        arr = self._canon(x, self.domain, "x")
        return _ensure_finite(self._rule.grad(arr), "gradient")

    def invert_gradient(self, y):
        arr = self._canon(y, self.dual_domain, "dual point", RangeError)
        if self._use_closed and self._rule.grad_inverse is not None:
            out = np.asarray(self._rule.grad_inverse(arr), dtype=float)
        else:
            out = _newton_invert(self._rule, self.domain, arr)
        _ensure_finite(out, "inverse gradient")
        self.domain.check(out, "inverse gradient", NumericError)
        return out if out.ndim else out[()]

    def conjugate(self, y):
        arr = self._canon(y, self.dual_domain, "dual point", RangeError)
        if self._use_closed and self._rule.conjugate is not None:
            return _ensure_finite(self._reduce(self._rule.conjugate(arr)), "conjugate")
        x = self.invert_gradient(arr)
        return _ensure_finite(self._reduce(arr * x) - self.value(x), "conjugate")


class QuadraticGenerator(Generator):
    """phi(x) = 0.5 x' A x for a symmetric positive definite matrix A.

    A is accepted when it is symmetric to 1e-12 of its largest entry, and is
    then stored with its lower triangle mirrored, so the value, the gradient
    and the Cholesky factor A = L L' all read one matrix.  The inverse
    gradient solves A x = y by forward substitution with L and back
    substitution with L'; see _solve.
    """

    def __init__(self, matrix):
        a = np.asarray(matrix, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ConfigError(f"matrix must be square, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ConfigError("matrix has non-finite entries")
        if np.any(np.abs(a - a.T) > 1e-12 * np.max(np.abs(a), initial=0.0)):
            raise ConfigError("matrix is not symmetric")
        d = a.shape[0]
        a = np.where(np.tri(d, dtype=bool), a, a.T)
        try:
            chol = np.linalg.cholesky(a)
        except np.linalg.LinAlgError as exc:
            raise ConfigError(f"matrix is not positive definite: {exc}") from None
        super().__init__("mahalanobis", DomainSpec(d), DomainSpec(d))
        self.matrix = a
        self._chol = chol
        self._rdiag = 1.0 / np.diag(chol)

    def _lift(self, arr):
        # elementwise d = 1 inputs gain a coordinate axis for the matrix algebra
        return (arr[..., None], True) if self.dimension == 1 else (arr, False)

    def value(self, x):
        arr = self._canon(x, self.domain, "x")
        v, _ = self._lift(arr)
        out = 0.5 * np.einsum("...i,...i->...", v, v @ self.matrix)
        return _ensure_finite(out, "value")

    def gradient(self, x):
        arr = self._canon(x, self.domain, "x")
        v, lifted = self._lift(arr)
        out = v @ self.matrix
        out = out[..., 0] if lifted else out
        return _ensure_finite(out, "gradient")

    def _solve(self, arr):
        """A^{-1} y for each point y: solve L z = y, then L' x = z.

        The loops run over the d coordinates, each step vectorised over the
        batch: subtract the solved coordinates in ascending order, then
        multiply by the reciprocal pivot, as BLAS trsm does.  For a diagonal
        A this is scipy's cho_solve bit for bit.
        """
        v, lifted = self._lift(arr)
        chol, rdiag = self._chol, self._rdiag
        d = chol.shape[0]
        z = np.empty(v.shape)
        for i in range(d):
            acc = v[..., i]
            for j in range(i):
                acc = acc - chol[i, j] * z[..., j]
            z[..., i] = acc * rdiag[i]
        x = np.empty(v.shape)
        for i in reversed(range(d)):
            acc = z[..., i]
            for j in range(i + 1, d):
                acc = acc - chol[j, i] * x[..., j]
            x[..., i] = acc * rdiag[i]
        return x[..., 0] if lifted else x

    def invert_gradient(self, y):
        arr = self._canon(y, self.dual_domain, "dual point", RangeError)
        return _ensure_finite(self._solve(arr), "inverse gradient")

    def conjugate(self, y):
        arr = self._canon(y, self.dual_domain, "dual point", RangeError)
        v, _ = self._lift(arr)
        s, _ = self._lift(np.asarray(self._solve(arr), dtype=float))
        out = 0.5 * np.einsum("...i,...i->...", v, s)
        return _ensure_finite(out, "conjugate")


def _key(x: np.ndarray) -> np.ndarray:
    """int64 keys in the order of the float64 values x; -0.0 and +0.0 share the key 0."""
    magnitude = np.abs(x).view(np.int64)
    return np.where(x < 0.0, -magnitude, magnitude)


def _unkey(k: np.ndarray) -> np.ndarray:
    """The float64 values of the keys k, with +0.0 for the key 0."""
    return np.copysign(np.abs(k).view(np.float64), k)


def _newton_invert(rule: _ScalarRule, domain: DomainSpec, y: np.ndarray) -> np.ndarray:
    """Solve grad(x) = y coordinatewise: the least float x in the domain with grad(x) >= y.

    The scalar gradient is increasing on the open interval (domain.lo,
    domain.hi), so grad(x) >= y is false below the root and true above it.
    Bisection runs on the int64 keys of _key, which follow the order of the
    float64 values, so each step halves the number of floats left between
    the bracket ends.  After at most 64 steps the ends are adjacent floats:
    there is no tolerance and no iteration cap.  A root beyond the last
    float before a domain bound has no float to stop on and raises
    NumericError.

    The name and the (rule, domain, y) signature are kept because
    bench/spans.py times this function by name and reads its rule and y.
    """
    yf = np.ravel(np.asarray(y, dtype=float))
    k_lo, k_hi = _key(np.array([domain.lo, domain.hi])).tolist()
    a = np.full(yf.shape, k_lo, dtype=np.int64)  # grad < y at a, or a is the lower bound
    b = np.full(yf.shape, k_hi, dtype=np.int64)  # grad >= y at b, or b is the upper bound
    with np.errstate(over="ignore", divide="ignore"):
        while np.any(a + 1 < b):
            # ceil((a + b) / 2) without overflow: strictly inside an open
            # bracket, and b itself once a and b are adjacent, where grad >= y
            # already holds, so a finished coordinate keeps its bracket
            mid = (a >> 1) + (b >> 1) + ((a | b) & 1)
            up = rule.grad(_unkey(mid)) >= yf
            a = np.where(up, a, mid)
            b = np.where(up, mid, b)
        x = _unkey(b)
        beyond = (b == k_hi) | ((a == k_lo) & (rule.grad(x) != yf))
    if np.any(beyond):
        i = int(np.flatnonzero(beyond)[0])
        side = "above the largest" if b[i] == k_hi else "below the least"
        raise NumericError(
            f"the inverse gradient of {float(yf[i])} lies {side} float in {domain.describe()}"
        )
    return x.reshape(np.shape(y))


def squared_euclidean(dim: int = 1) -> SeparableGenerator:
    rule = _ScalarRule(
        value=lambda s: 0.5 * s * s,
        grad=lambda s: s,
        grad_inverse=lambda t: t,
        conjugate=lambda t: 0.5 * t * t,
    )
    return SeparableGenerator("sqeuclid", DomainSpec(dim), DomainSpec(dim), rule)


def negative_entropy(dim: int = 1) -> SeparableGenerator:
    """phi(x) = sum x_i log x_i - x_i on the positive orthant (gradient log)."""
    rule = _ScalarRule(
        value=lambda s: s * np.log(s) - s,
        grad=np.log,
        grad_inverse=np.exp,
        conjugate=np.exp,
    )
    return SeparableGenerator(
        "negentropy", DomainSpec(dim, "positive"), DomainSpec(dim), rule
    )


def negative_log(dim: int = 1) -> SeparableGenerator:
    """phi(x) = -sum log x_i on the positive orthant; dual range is negative."""
    rule = _ScalarRule(
        value=lambda s: -np.log(s),
        grad=lambda s: -1.0 / s,
        grad_inverse=lambda t: -1.0 / t,
        conjugate=lambda t: -1.0 - np.log(-t),
    )
    dual = DomainSpec(dim, "interval", -math.inf, 0.0)
    return SeparableGenerator("neglog", DomainSpec(dim, "positive"), dual, rule)


def mahalanobis(matrix) -> QuadraticGenerator:
    return QuadraticGenerator(matrix)


BUILTIN_GENERATORS = {
    "sqeuclid": squared_euclidean,
    "negentropy": negative_entropy,
    "neglog": negative_log,
}


def load_matrix(path: str) -> np.ndarray:
    """Read a matrix file: first line the dimension d, then d rows of d floats."""
    try:
        with open(path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise ConfigError(f"cannot read matrix file {path!r}: {exc}") from None
    if not lines:
        raise ConfigError(f"matrix file {path!r} is empty")
    try:
        d = int(lines[0])
        rows = [[float(tok) for tok in ln.split()] for ln in lines[1 : d + 1]]
    except ValueError as exc:
        raise ConfigError(f"matrix file {path!r} is malformed: {exc}") from None
    if len(rows) != d or any(len(r) != d for r in rows):
        raise ConfigError(f"matrix file {path!r} must contain {d} rows of {d} entries")
    return np.asarray(rows, dtype=float)


def resolve_generator(spec: str, dim: int = 1) -> Generator:
    """Build a generator from a selection string.

    Accepted forms: "sqeuclid", "negentropy", "neglog" (dimension taken from
    the dim argument) and "mahalanobis:<path>" (dimension taken from the
    matrix file).
    """
    if spec in BUILTIN_GENERATORS:
        return BUILTIN_GENERATORS[spec](dim)
    if spec.startswith("mahalanobis:"):
        path = spec.split(":", 1)[1]
        if not path:
            raise ConfigError("mahalanobis generator needs a matrix file path")
        return mahalanobis(load_matrix(path))
    raise ConfigError(f"unknown generator {spec!r}")
