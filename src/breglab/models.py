"""Sampling models with sufficient statistics and classical estimators.

All builtins are scalar i.i.d. families.  Draws are bit-reproducible: chunk c
of a batch uses the Philox stream keyed by derive_key(seed, c), uniforms are
shifted into the open interval (0, 1), and each family applies its inverse
CDF (exponential) or the ndtri Gaussian transform (normal, lognormal).  The
chunk grid is fixed, so batches are identical for any worker count.
``Model.draw_blocks`` is the one place a chunk's stream is keyed.  It draws
the chunk into consecutive row blocks of a caller's buffer: the uniforms of
a block fill it and each family's transform runs in place on them before
the next block is drawn.  Philox is counter-based, so the rows are the same
for any block size, and a chunk allocates no array.  ``Model.draw`` runs
that iterator with one block per chunk over the chunk's rows of its result;
the risk lab draws block by block into one buffer per worker thread and
estimates each block while it is in cache.

scipy is imported only where it is used: the normal and lognormal transforms
import ``scipy.special.ndtri`` on each call, so the first Gaussian draw of a
process pays for loading it and exponential draws never do.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import ConfigError
from .estimators import Estimator, _sample_mean
from .generators import DomainSpec
from .prng import derive_key, open_uniforms, philox

CHUNK_ROWS = 65536


def _chunk_ranges(rows: int):
    for c, start in enumerate(range(0, rows, CHUNK_ROWS)):
        yield c, start, min(start + CHUNK_ROWS, rows)


def map_chunks(fn, rows: int, workers: int = 1) -> list:
    """[fn(c, start, stop) for each chunk of the fixed grid over rows], in chunk order.

    Chunks run on up to `workers` threads; the grid and the order of the
    results depend only on rows.
    """
    if int(workers) < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    tasks = list(_chunk_ranges(int(rows)))
    if int(workers) > 1 and len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=min(int(workers), len(tasks))) as pool:
            return list(pool.map(lambda task: fn(*task), tasks))
    return [fn(*task) for task in tasks]


class Model:
    """Base class for scalar parametric families."""

    family: str = ""

    def __init__(self, model_id: str, param_space: DomainSpec, support: DomainSpec):
        self.id = model_id
        self.param_space = param_space
        self.support = support

    def _transform(self, u: np.ndarray, theta: float) -> np.ndarray:
        """Observations from open uniforms u; builtins overwrite u and return it."""
        raise NotImplementedError

    def _check_theta(self, theta) -> float:
        theta = float(theta)
        self.param_space.check(np.asarray(theta), "theta")
        return theta

    def draw_blocks(
        self, theta: float, n: int, seed: int, c: int, out: np.ndarray, block_rows: int
    ):
        """Draw chunk c into out block by block: yields (start, stop, out[start:stop]).

        The Philox stream keyed by derive_key(seed, c) fills consecutive row
        blocks of out (C-contiguous float64, shape (rows, n)), each block's
        uniforms transformed in place before the next block is drawn.  A
        counter-based stream continues where the last block stopped, so the
        rows equal one draw of the whole chunk for any block size.  A block
        has block_rows rows, and the last one up to block_rows + 1: a one-row
        block is never cut from a longer chunk.
        """
        rng = philox(derive_key(int(seed), c))
        rows = out.shape[0]
        start = 0
        while start < rows:
            stop = start + block_rows
            if stop >= rows - 1:
                stop = rows
            u = open_uniforms(rng, (stop - start, n), out=out[start:stop])
            x = self._transform(u, theta)
            if x is not u:
                # a transform that returns a new array instead of working in place
                u[...] = x
            yield start, stop, u
            start = stop

    def draw(self, theta, n: int, replicates: int, seed: int, workers: int = 1) -> np.ndarray:
        """(replicates, n) array of observations, identical for any worker count."""
        theta = self._check_theta(theta)
        if int(n) < 1:
            raise ConfigError(f"n must be >= 1, got {n}")
        if int(replicates) < 1:
            raise ConfigError(f"replicates must be >= 1, got {replicates}")
        n = int(n)
        out = np.empty((int(replicates), n))

        def fill(c, start, stop):
            for _ in self.draw_blocks(theta, n, seed, c, out[start:stop], stop - start):
                pass

        map_chunks(fill, replicates, workers)
        return out

    def _stat(self, arr: np.ndarray) -> np.ndarray:
        return np.sum(arr, axis=-1)

    def sufficient_stat(self, x):
        """Reduce a sample (or a batch with samples on the last axis)."""
        arr = np.asarray(x, dtype=float)
        if arr.ndim < 1 or arr.shape[-1] < 1:
            raise ConfigError("expected at least one observation")
        self.support.check(arr, "observation")
        out = self._stat(arr)
        return float(out) if out.ndim == 0 else out

    @property
    def classical_umvue(self) -> Estimator:
        """The sample mean, mean-unbiased where the model's mean is theta."""
        return Estimator("classical", _sample_mean)


class ExponentialModel(Model):
    """Exponential family parameterized by its mean theta (rate 1/theta)."""

    family = "exp"

    def __init__(self):
        super().__init__("exp", DomainSpec(lo=0.0), DomainSpec(lo=0.0))

    def _transform(self, u, theta):
        # inverse CDF: F^{-1}(u) = -theta * log(1 - u)
        np.negative(u, out=u)
        np.log1p(u, out=u)
        u *= -theta
        return u


class NormalModel(Model):
    """Normal location family with known variance sigma2."""

    family = "normal"

    def __init__(self, sigma2: float = 1.0):
        if not (np.isfinite(sigma2) and sigma2 > 0):
            raise ConfigError(f"sigma2 must be positive and finite, got {sigma2}")
        super().__init__(f"normal(sigma2={sigma2:g})", DomainSpec(), DomainSpec())
        self.sigma2 = float(sigma2)
        self._sigma = float(np.sqrt(sigma2))

    def _transform(self, u, theta):
        from scipy.special import ndtri

        # theta + sigma * ndtri(u)
        ndtri(u, out=u)
        u *= self._sigma
        u += theta
        return u


class LogNormalModel(Model):
    """Lognormal with median theta: log X ~ Normal(log theta, sigma2)."""

    family = "lognormal"

    def __init__(self, sigma2: float = 0.25):
        if not (np.isfinite(sigma2) and sigma2 > 0):
            raise ConfigError(f"sigma2 must be positive and finite, got {sigma2}")
        super().__init__(
            f"lognormal(sigma2={sigma2:g})", DomainSpec(lo=0.0), DomainSpec(lo=0.0)
        )
        self.sigma2 = float(sigma2)
        self._sigma = float(np.sqrt(sigma2))

    def _transform(self, u, theta):
        from scipy.special import ndtri

        # theta * exp(sigma * ndtri(u))
        ndtri(u, out=u)
        u *= self._sigma
        np.exp(u, out=u)
        u *= theta
        return u

    def _stat(self, arr):
        return np.sum(np.log(arr), axis=-1)

    @property
    def classical_umvue(self) -> Estimator:
        sigma2 = self.sigma2

        def fn(x):
            return np.exp(_sample_mean(np.log(x)) - sigma2 / (2.0 * x.shape[-1]))

        return Estimator("classical", fn)


def resolve_model(spec: str) -> Model:
    """Build a model from a selection string.

    Accepted forms: "exp", "normal[:<sigma2>]" (default sigma2 = 1) and
    "lognormal[:<sigma2>]" (default sigma2 = 0.25).
    """
    name, _, arg = spec.partition(":")
    if name == "exp":
        if arg:
            raise ConfigError("the exp model takes no parameter in its selection string")
        return ExponentialModel()
    if name in ("normal", "lognormal"):
        cls = NormalModel if name == "normal" else LogNormalModel
        if not arg:
            return cls()
        try:
            return cls(float(arg))
        except ValueError:
            raise ConfigError(f"bad sigma2 value {arg!r} in model spec {spec!r}") from None
    raise ConfigError(f"unknown model {spec!r}")
