"""Bregman divergences, dual transport, means, and the two decompositions."""

from __future__ import annotations

from dataclasses import dataclass

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
    d = g.conjugate(ua) - g.conjugate(va) - _inner(g, g.invert_gradient(va), np.asarray(ua - va))
    return _clamped(d)


def dual_transport(g: Generator, x, y):
    """D_phi(x, y) computed entirely in dual space.

    Maps both points through the gradient and evaluates the conjugate
    divergence with swapped arguments; equals bregman_div(g, x, y) up to
    floating point.
    """
    return dual_divergence(g, g.gradient(y), g.gradient(x))


def _weights(weights, m: int) -> np.ndarray:
    if weights is None:
        return np.full(m, 1.0 / m)
    w = np.asarray(weights, dtype=float)
    if w.shape != (m,):
        raise ConfigError(f"weights must have shape ({m},), got {w.shape}")
    if np.any(~np.isfinite(w)) or np.any(w < 0.0):
        raise ConfigError("weights must be finite and nonnegative")
    off = abs(float(np.sum(w)) - 1.0)
    if off > WEIGHT_SUM_TOL:
        raise ConfigError(f"weights must sum to 1 within {WEIGHT_SUM_TOL}, off by {off}")
    return w


def _points(g: Generator, points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if g.dimension == 1:
        if pts.ndim != 1 or pts.shape[0] < 1:
            raise ConfigError("points must be a non-empty 1-d array for a scalar generator")
    else:
        if pts.ndim != 2 or pts.shape[1] != g.dimension:
            raise ConfigError(f"points must have shape (m, {g.dimension})")
    return pts


def _weighted_sum(w: np.ndarray, values: np.ndarray):
    if values.ndim == 1:
        return np.sum(w * values)
    return np.sum(w[:, None] * values, axis=0)


def bregman_mean(g: Generator, points, weights=None):
    """The point whose gradient image is the weighted average of the inputs'."""
    pts = _points(g, points)
    w = _weights(weights, pts.shape[0])
    avg_dual = _weighted_sum(w, np.asarray(g.gradient(pts)))
    return _scalarize(g.invert_gradient(avg_dual))


@dataclass(frozen=True)
class DecompositionReport:
    orientation: str
    total: float
    bias_term: float
    variance_term: float
    center: object


def decompose_left(g: Generator, x, points, weights=None) -> DecompositionReport:
    """Split sum_i w_i D(x, x_i) at the dual-averaged center.

    The bias term is the divergence from x to the center, the variance term
    the weighted divergence from the center to the points; the three numbers
    satisfy total = bias + variance up to floating point.
    """
    pts = _points(g, points)
    w = _weights(weights, pts.shape[0])
    center = bregman_mean(g, pts, w)
    total = float(np.sum(w * bregman_div(g, x, pts)))
    bias = float(bregman_div(g, x, center))
    variance = float(np.sum(w * bregman_div(g, center, pts)))
    return DecompositionReport("left", total, bias, variance, center)


def decompose_right(g: Generator, y, points, weights=None) -> DecompositionReport:
    """Split sum_i w_i D(x_i, y) at the ordinary weighted mean."""
    pts = _points(g, points)
    w = _weights(weights, pts.shape[0])
    center = _scalarize(_weighted_sum(w, pts))
    total = float(np.sum(w * bregman_div(g, pts, y)))
    bias = float(bregman_div(g, center, y))
    variance = float(np.sum(w * bregman_div(g, pts, center)))
    return DecompositionReport("right", total, bias, variance, center)
