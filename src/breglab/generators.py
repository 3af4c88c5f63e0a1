"""Strictly convex generators with Legendre structure.

A generator is a strictly convex, differentiable function phi on an open
domain.  Everything downstream (divergences, dual estimators, risk
decompositions) needs four operations from it: the value phi(x), the
gradient grad phi(x), the inverse gradient (grad phi)^{-1}(y), and the
convex conjugate phi*(y).  Builtins register closed forms for all four;
separable generators additionally support a safeguarded Newton fallback so
the inverse and conjugate stay available when closed forms are disabled.

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

_NEWTON_TOL = 1e-12
_NEWTON_MAX_ITER = 200
_FLOAT64 = np.dtype(np.float64)


def _float_scalar(x):
    """x as a Python float if it is a float64 scalar or 0-d float64 array, else None.

    DomainSpec.check, _ensure_finite and divergence._clamped pass a valid
    scalar with plain float comparisons.  Anything else, and every scalar
    that fails, takes their numpy path, so what they raise is unchanged.
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
    grad2: object = None
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


def _newton_invert(rule: _ScalarRule, domain: DomainSpec, y: np.ndarray) -> np.ndarray:
    """Solve grad(x) = y coordinatewise, safeguarded Newton inside a bracket.

    The scalar gradient is strictly increasing on the open interval
    (domain.lo, domain.hi), so a sign-based bracket always exists.  Newton
    steps use the registered second derivative when available and fall back
    to bisection whenever a step would leave the bracket.
    """
    yf = np.ravel(np.asarray(y, dtype=float)).copy()
    lo, hi = domain.lo, domain.hi
    if math.isfinite(lo) and math.isfinite(hi):
        x0 = 0.5 * (lo + hi)
    elif math.isfinite(lo):
        x0 = lo + 1.0
    elif math.isfinite(hi):
        x0 = hi - 1.0
    else:
        x0 = 0.0

    a = np.full_like(yf, x0)
    b = np.full_like(yf, x0)

    step = 1.0
    for _ in range(_NEWTON_MAX_ITER):
        need = rule.grad(a) > yf
        if not np.any(need):
            break
        a = np.where(need, (a + lo) / 2.0 if math.isfinite(lo) else a - step, a)
        step *= 2.0
    else:
        raise NumericError("bracket expansion failed on the lower side")

    step = 1.0
    for _ in range(_NEWTON_MAX_ITER):
        need = rule.grad(b) < yf
        if not np.any(need):
            break
        b = np.where(need, (b + hi) / 2.0 if math.isfinite(hi) else b + step, b)
        step *= 2.0
    else:
        raise NumericError("bracket expansion failed on the upper side")

    x = 0.5 * (a + b)
    tol = _NEWTON_TOL * (1.0 + np.abs(yf))
    done = np.zeros(yf.shape, dtype=bool)
    for _ in range(_NEWTON_MAX_ITER):
        fx = rule.grad(x) - yf
        done |= np.abs(fx) <= tol
        done |= (b - a) <= 4.0 * np.finfo(float).eps * (1.0 + np.abs(x))
        if np.all(done):
            break
        high = fx > 0
        b = np.where(high & ~done, x, b)
        a = np.where(~high & ~done, x, a)
        if rule.grad2 is not None:
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                xn = x - fx / rule.grad2(x)
            usable = np.isfinite(xn) & (xn > a) & (xn < b)
        else:
            usable = np.zeros(yf.shape, dtype=bool)
        x = np.where(done, x, np.where(usable, xn, 0.5 * (a + b)))
    else:
        bad = int(np.count_nonzero(~done))
        raise NumericError(f"gradient inversion failed to converge on {bad} coordinates")
    return x.reshape(np.shape(y))


def squared_euclidean(dim: int = 1) -> SeparableGenerator:
    rule = _ScalarRule(
        value=lambda s: 0.5 * s * s,
        grad=lambda s: s,
        grad2=lambda s: np.ones_like(s),
        grad_inverse=lambda t: t,
        conjugate=lambda t: 0.5 * t * t,
    )
    return SeparableGenerator("sqeuclid", DomainSpec(dim), DomainSpec(dim), rule)


def negative_entropy(dim: int = 1) -> SeparableGenerator:
    """phi(x) = sum x_i log x_i - x_i on the positive orthant (gradient log)."""
    rule = _ScalarRule(
        value=lambda s: s * np.log(s) - s,
        grad=np.log,
        grad2=lambda s: 1.0 / s,
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
        grad2=lambda s: 1.0 / (s * s),
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
