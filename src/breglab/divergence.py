"""Bregman divergences, dual transport, means, and the two decompositions.

_div is the one formula and _clamped the one clamp: bregman_div,
dual_divergence (from conjugate values and the inverse gradient) and every
loss evaluate through them.  _clamped passes a nonnegative float without
numpy (generators._float_scalar); without that path the 54-case oracle
battery took a median 0.28 s against 0.25 s (2-core VM, medians of 15 runs).

This module owns the bias/variance split.  A loss D(theta, delta) splits
exactly at the dual mean (grad phi)^-1(E grad phi(delta)), D(delta, theta) at
the plain mean E delta, and the variance term is the Bregman information of
Banerjee et al. (JMLR 2005).  BregmanInfo.of computes that center and
variance, of equal weights for risk_lab's chunks and under a probability
vector otherwise; _split alone turns it into a DecompositionReport, for
decompose_left/right and the oracle.  Points reach a loss as _Points, which
evaluate phi and grad phi once each, and only if read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, NumericError
from .generators import Generator, _float_scalar

# Floating-point cancellation can push a true zero slightly negative; values
# in [-NEG_CLAMP, 0) are reported as 0, anything more negative is an error.
NEG_CLAMP = 1e-12

WEIGHT_SUM_TOL = 1e-12


def _inner(g: Generator, u, v: np.ndarray):
    """<u, v> over the coordinate axis; v is a fresh array that the products overwrite."""
    prod = np.multiply(u, v, out=v)
    return prod if g.dimension == 1 else np.sum(prod, axis=-1)


def _scalarize(arr):
    arr = np.asarray(arr)
    return float(arr) if arr.ndim == 0 else arr


def _clamped(d):
    v = _float_scalar(d)
    if v is not None and v >= 0.0:
        return v
    arr = np.asarray(d, dtype=float)
    if np.any(arr < -NEG_CLAMP):
        raise NumericError(
            f"divergence evaluated to {float(arr.min())}, below the cancellation"
            f" tolerance -{NEG_CLAMP}; inputs are too badly conditioned"
        )
    neg = arr < 0.0
    if np.any(neg):
        arr = np.where(neg, 0.0, arr)
    return _scalarize(arr)


def _div(g: Generator, x, y, phi_gap, grad_y):
    """D_phi(x, y) from phi_gap = phi(x) - phi(y) and grad phi(y), which a caller may reuse.

    The inputs are only read; the arithmetic runs in place on one array of
    its own, so a batch costs one allocation and not three.
    """
    inner = np.asarray(_inner(g, grad_y, np.asarray(x - y)))
    return _clamped(np.subtract(phi_gap, inner, out=inner))


def bregman_div(g: Generator, x, y):
    """D_phi(x, y) = phi(x) - phi(y) - <grad phi(y), x - y>, broadcast over batches."""
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    g.domain.check(xa, "x")
    g.domain.check(ya, "y")
    return _div(g, xa, ya, g.value(xa) - g.value(ya), g.gradient(ya))


def dual_divergence(g: Generator, u, v):
    """Divergence of the conjugate generator, evaluated at dual points."""
    ua = np.asarray(u, dtype=float)
    va = np.asarray(v, dtype=float)
    return _div(g, ua, va, g.conjugate(ua) - g.conjugate(va), g.invert_gradient(va))


def dual_transport(g: Generator, x, y):
    """D_phi(x, y) computed entirely in dual space.

    Maps both points through the gradient and evaluates the conjugate
    divergence with swapped arguments; equals bregman_div(g, x, y) up to
    floating point.
    """
    return dual_divergence(g, g.gradient(y), g.gradient(x))


def _weighted_points(g: Generator, points, weights):
    """The points as _Points and their probability vector, uniform when weights is None."""
    pts = np.asarray(points, dtype=float)
    if g.dimension == 1:
        if pts.ndim != 1 or pts.shape[0] < 1:
            raise ConfigError("points must be a non-empty 1-d array for a scalar generator")
    else:
        if pts.ndim != 2 or pts.shape[1] != g.dimension:
            raise ConfigError(f"points must have shape (m, {g.dimension})")
    m = pts.shape[0]
    if weights is None:
        return _Points(g, pts), np.full(m, 1.0 / m)
    w = np.asarray(weights, dtype=float)
    if w.shape != (m,):
        raise ConfigError(f"weights must have shape ({m},), got {w.shape}")
    if np.any(~np.isfinite(w)) or np.any(w < 0.0):
        raise ConfigError("weights must be finite and nonnegative")
    off = abs(float(np.sum(w)) - 1.0)
    if off > WEIGHT_SUM_TOL:
        raise ConfigError(f"weights must sum to 1 within {WEIGHT_SUM_TOL}, off by {off}")
    return _Points(g, pts), w


def _oriented(orientation: str, y, est):
    """The arguments of the loss: (y, est) for D(y, est) on the left, (est, y) on the right."""
    return (y, est) if orientation == "left" else (est, y)


class _Points:
    """Points x of g; phi(x) and grad phi(x) are each evaluated on first read and kept."""

    def __init__(self, g: Generator, x):
        self.g = g
        self.x = x

    @cached_property
    def phi(self):
        return self.g.value(self.x)

    @cached_property
    def grad(self):
        return self.g.gradient(self.x)


def _loss(g: Generator, orientation: str, est: _Points, y: _Points):
    """D(y, est) for the left orientation, D(est, y) for the right.

    The same arithmetic as bregman_div, from phi and grad phi evaluated once.
    """
    a, b = _oriented(orientation, y, est)
    return _div(g, a.x, b.x, a.phi - b.phi, b.grad)


def _merged_mean(ka: int, ma: float, kb: int, mb: float) -> float:
    # the mean of a plus a correction: two equal means merge to that mean exactly
    return ma + (mb - ma) * (kb / (ka + kb))


@dataclass(frozen=True)
class BregmanInfo:
    """Center and summed divergence to it (the Bregman information) of estimates.

    Left orientation: the center c is grad phi*(mean grad phi(delta)) and
    v = sum D(c, delta_i).  Right: c is the plain mean and v = sum D(delta_i, c).
    Under a probability vector w the sums are weighted by w and k is 1.0, so
    v is the expected divergence.  The compensation identity
    sum D(y, delta_i) = v + k D(y, c) (mirrored on the right) merges two sets
    exactly: the merged v is the two v plus nonnegative k D terms, so nothing
    cancels.
    """

    g: Generator
    orientation: str
    k: float = 0  # number of points; 1.0 under a probability vector
    mean: object = 0.0  # mean dual value on the left, mean estimate on the right
    center: object = 0.0
    v: float = 0.0

    @staticmethod
    def _center(g: Generator, orientation: str, est: _Points, weights=None):
        """(mean, center) of the points est.x, plainly averaged or weighted by weights.

        The mean is of grad phi(x) on the left, where the center is its
        inverse gradient, and of x itself on the right, where it is the center.
        """
        values = est.grad if orientation == "left" else est.x
        if weights is None:
            mean = np.mean(values, axis=0)
        elif values.ndim == 1:
            mean = np.sum(weights * values)
        else:
            mean = np.sum(weights[:, None] * values, axis=0)
        mean = _scalarize(mean)
        return mean, _scalarize(g.invert_gradient(mean)) if orientation == "left" else mean

    @classmethod
    def of(cls, g: Generator, orientation: str, est: _Points, weights=None) -> "BregmanInfo":
        """Info of the points est.x, scalars or the rows of an (m, d) array.

        weights, if given, is a probability vector over the points.
        """
        if est.x.size == 0:
            return cls(g, orientation)
        mean, center = cls._center(g, orientation, est, weights)
        loss = _loss(g, orientation, est, _Points(g, center))
        if weights is None:
            return cls(g, orientation, len(est.x), mean, center, float(np.sum(loss)))
        return cls(g, orientation, 1.0, mean, center, float(np.sum(weights * loss)))

    def bias(self, y) -> float:
        """The bias term of a loss against y: D(y, c) on the left, D(c, y) on the right."""
        return float(bregman_div(self.g, *_oriented(self.orientation, y, self.center)))

    def _excess(self, y: float) -> float:
        """Summed divergence of the set to y (left: from y) minus v, by the compensation identity."""
        return self.k * self.bias(y)

    def __add__(self, other: "BregmanInfo") -> "BregmanInfo":
        if other.k == 0:
            return self
        if self.k == 0:
            return other
        mean = _merged_mean(self.k, self.mean, other.k, other.mean)
        center = float(self.g.invert_gradient(mean)) if self.orientation == "left" else mean
        v = self.v + other.v + self._excess(center) + other._excess(center)
        return BregmanInfo(self.g, self.orientation, self.k + other.k, mean, center, v)


def bregman_mean(g: Generator, points, weights=None):
    """The point whose gradient image is the weighted average of the inputs'."""
    return BregmanInfo._center(g, "left", *_weighted_points(g, points, weights))[1]


@dataclass(frozen=True)
class DecompositionReport:
    orientation: str
    total: float
    bias_term: float
    variance_term: float
    center: object


def _split(g: Generator, orientation: str, est: _Points, p, y: _Points) -> DecompositionReport:
    """Risk, bias term, variance term and center of the points est.x under p, against y.x.

    An out-of-domain y.x is named as bregman_div names it: x on the left, y on the right.
    """
    info = BregmanInfo.of(g, orientation, est, p)
    g.domain.check(y.x, "x" if orientation == "left" else "y")
    total = float(np.sum(p * _loss(g, orientation, est, y)))
    return DecompositionReport(orientation, total, info.bias(y.x), info.v, info.center)


def decompose_left(g: Generator, x, points, weights=None) -> DecompositionReport:
    """Split sum_i w_i D(x, x_i) at the dual-averaged center.

    The bias term is the divergence from x to the center, the variance term
    the weighted divergence from the center to the points; the three numbers
    satisfy total = bias + variance up to floating point.
    """
    est, w = _weighted_points(g, points, weights)
    return _split(g, "left", est, w, _Points(g, np.asarray(x, dtype=float)))


def decompose_right(g: Generator, y, points, weights=None) -> DecompositionReport:
    """Split sum_i w_i D(x_i, y) at the ordinary weighted mean."""
    est, w = _weighted_points(g, points, weights)
    return _split(g, "right", est, w, _Points(g, np.asarray(y, dtype=float)))
