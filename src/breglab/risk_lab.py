"""Monte Carlo risk estimation, unbiasedness checks, and paired comparisons.

Replicate streams are fully determined by (model, theta, n, replicates,
seed).  Every report is a reduction of per-chunk partials.  Chunk c draws
the rows keyed by derive_key(seed, c) block by block, each block at most
BLOCK_VALUES values, and runs the estimators on a block while it is still in
cache.  The estimates fill one chunk-length array per estimator, and the
whole chunk is then reduced at once to small summaries (counts, means,
centred power sums, and the Bregman information of divergence.BregmanInfo,
which owns the bias/variance split).  These merge in chunk order through the
fixed pairwise tree of prng.pairwise_sum.  Estimators work row by row and
workers only schedule chunks, so every report is bitwise identical for any
block size and any worker count.  Each worker thread draws its chunks into
one (CHUNK_ROWS, n) buffer that lives for one stream pass, so a chunk
allocates no draw arrays and memory is bounded by the chunk size times the
worker count, not by the replicate count.  Grid-valued checks derive the
stream for grid point i from derive_key(seed, i); paired operations reuse
one replicate set for every arm.

A chunk computes each quantity once.  It takes an estimator's domain mask
once and copies the in-domain estimates only when the mask drops one.  The
estimates, theta, the grid parameters and the center are divergence._Points,
which evaluate phi and grad phi once each, on first read.  Every
per-replicate divergence (the loss against theta or against each grid
parameter, and the Bregman information's sum against its center) is then one
divergence._div on those arrays.  This is the arithmetic bregman_div does,
minus its repeats, so no float differs from evaluating every divergence with
bregman_div.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .divergence import BregmanInfo, _loss, _merged_mean, _Points
from .divergence import bregman_div  # noqa: F401  uncalled; bench/spans.py wraps this name
from .errors import ConfigError, NumericError
from .estimators import Estimator
from .generators import Generator, require_dimension, squared_euclidean
from .models import CHUNK_ROWS, Model, map_chunks
from .prng import derive_key, pairwise_sum

ORIENTATIONS = ("left", "right")
MIN_REPLICATES = 1000
PASS_Z = 4.0
MAX_DROP_FRACTION = 1e-3
_GRID_MATCH_TOL = 1e-12
# values per block of a chunk's draw-and-estimate pass: a block and the
# estimators' temporaries on it fit a 2 MB L2 cache
BLOCK_VALUES = 1 << 17


@dataclass(frozen=True)
class RiskReport:
    model_id: str
    generator_id: str
    estimator_id: str
    theta: float
    n: int
    replicates: int
    seed: int
    orientation: str
    risk: float
    bias_term: float
    variance_term: float
    center: float
    se_risk: float
    loss_excess_kurtosis: float
    dropped: int
    valid: bool


@dataclass(frozen=True)
class UnbiasednessReport:
    kind: str  # "type1" | "type2"
    model_id: str
    generator_id: str  # "" for type2 checks
    estimator_id: str
    theta: float
    n: int
    replicates: int
    seed: int
    mean: float
    target: float
    se: float
    z: float
    verdict: bool
    dropped: int
    valid: bool


@dataclass(frozen=True)
class LehmannGridReport:
    model_id: str
    generator_id: str
    estimator_id: str
    theta: float
    n: int
    replicates: int
    seed: int
    orientation: str
    grid: tuple
    means: tuple
    ses: tuple
    theta_index: int
    argmin_index: int
    tie_broken_toward_theta: bool
    dropped: int
    valid: bool


@dataclass(frozen=True)
class ComparisonReport:
    model_id: str
    generator_id: str
    estimator_id_1: str
    estimator_id_2: str
    theta: float
    n: int
    replicates: int
    seed: int
    orientation: str
    risk_1: float
    risk_2: float
    risk_diff: float
    se_diff: float
    dropped: int
    valid: bool


def _check_setup(
    model: Model, theta, n: int, estimators, g: Generator, replicates: int,
    orientation: str = "left",
):
    if orientation not in ORIENTATIONS:
        raise ConfigError(f"orientation must be one of {ORIENTATIONS}, got {orientation!r}")
    theta = model._check_theta(theta)
    require_dimension(g, 1)
    g.domain.check(np.asarray(theta), "theta")
    if int(replicates) < MIN_REPLICATES:
        raise ConfigError(f"replicates must be >= {MIN_REPLICATES}, got {replicates}")
    if int(n) < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    for e in estimators:
        e.check_n(int(n))
    return theta


@dataclass(frozen=True)
class Moments:
    """Count, mean and centred power sums M2..M4 of a set of values.

    Two sets merge exactly by the updates of Chan, Golub and LeVeque (1979)
    and Pebay (2008), so a chunked reduction keeps five numbers per chunk.
    The merge runs on numpy scalars, so a sum that overflows becomes inf,
    which _finalize refuses, and never raises OverflowError.
    M3 and M4 cost two more passes over the values and only the excess
    kurtosis reads them, so they are computed on request and are NaN
    otherwise; count, mean and M2 do not depend on them.
    An M2 of 0 for values that differ, whose squared spread underflows
    (below about 1e-162), is a NumericError: its se of 0 would turn into a
    verdict.  A constant set keeps its exact M2 of 0.
    """

    k: int = 0
    mean: float = 0.0
    m2: float = 0.0
    m3: float = 0.0
    m4: float = 0.0

    @classmethod
    def of(cls, values, higher: bool = False) -> "Moments":
        """Moments of values; M3 and M4 only when higher is true."""
        v = np.asarray(values, dtype=float)
        if v.size == 0:
            return cls()
        # shifting by the first value keeps a constant set exact: its mean is
        # that value and its power sums are 0
        d = v - v[0]
        shift = float(np.mean(d))
        d -= shift
        d2 = d * d
        m2 = float(np.sum(d2))
        if m2 == 0.0 and np.any(d):
            raise NumericError("the spread of the values underflows: M2 is 0 while they differ")
        m3 = m4 = math.nan
        if higher:
            # in place: the products are the same, with one array less alive
            d *= d2
            m3 = float(np.sum(d))
            d2 *= d2
            m4 = float(np.sum(d2))
        return cls(v.size, float(v[0]) + shift, m2, m3, m4)

    def __add__(self, other: "Moments") -> "Moments":
        if other.k == 0:
            return self
        if self.k == 0:
            return other
        na, nb = np.float64(self.k), np.float64(other.k)
        nt = na + nb
        d = np.float64(other.mean - self.mean)
        with np.errstate(over="ignore", invalid="ignore"):
            m2 = self.m2 + other.m2 + d * d * na * nb / nt
            m3 = (
                self.m3 + other.m3 + d**3 * na * nb * (na - nb) / nt**2
                + 3.0 * d * (na * other.m2 - nb * self.m2) / nt
            )
            m4 = (
                self.m4 + other.m4 + d**4 * na * nb * (na * na - na * nb + nb * nb) / nt**3
                + 6.0 * d * d * (na * na * other.m2 + nb * nb * self.m2) / nt**2
                + 4.0 * d * (na * other.m3 - nb * self.m3) / nt
            )
        if m2 == 0.0 and d != 0.0:
            raise NumericError("the spread of the values underflows: M2 is 0 while they differ")
        mean = _merged_mean(self.k, self.mean, other.k, other.mean)
        return Moments(self.k + other.k, mean, float(m2), float(m3), float(m4))

    @property
    def se(self) -> float:
        """Standard error of the mean, from the unbiased sample variance."""
        return math.sqrt(self.m2 / (self.k - 1)) / math.sqrt(self.k)

    @property
    def excess_kurtosis(self) -> float:
        # zero-variance values have no defined kurtosis; report 0 so reports
        # stay strict JSON instead of carrying NaN
        return 0.0 if self.m2 == 0.0 else self.k * self.m4 / (self.m2 * self.m2) - 3.0


def _kept(values, keep):
    """values where keep holds; values itself, not a copy, when keep drops nothing."""
    return values if keep.all() else values[keep]


def _in_domain(g: Generator, values):
    """The values inside g's domain, copied only when one is outside it."""
    return _kept(values, g.domain.mask(values))


class _Parts(tuple):
    """One chunk's summaries; adding two merges them elementwise."""

    def __add__(self, other):
        return _Parts(a + b for a, b in zip(self, other))


def _block_rows(n: int) -> int:
    """Rows of a kernel block: the largest power of two whose n-wide rows hold
    at most BLOCK_VALUES values, and at least 8.

    A power of two splits CHUNK_ROWS evenly, and every block starts at a
    multiple of 8 rows and of 8 n values, where vectorised loops over the
    whole chunk split too.
    """
    return 1 << max(3, (BLOCK_VALUES // n).bit_length() - 1)


def _stream(model: Model, theta, n, estimators, replicates, seed, workers, reduce):
    """Merged summaries of one replicate stream, computed chunk by chunk.

    Chunk c draws the rows keyed by derive_key(seed, c) block by block
    (Model.draw_blocks) and runs every estimator on each block while it is
    in cache, writing one chunk-length array of estimates per estimator.
    An estimator must give one float per row of the block it is called on
    (Estimator.per_row); any other shape is a ConfigError.  reduce then takes the whole chunk's
    estimates, keyed by estimator id, and returns a sequence of summaries.
    Summaries merge in the fixed pairwise tree, so the result is the same
    for any worker count and, since estimators work row by row, any block size.

    Each thread draws every chunk it runs into its own buffer, created on its
    first chunk and dropped with this pass.  The estimate arrays are
    reduce's own, so an estimate reduce pops from the dict is freed as soon
    as reduce is done with it or with the in-domain copy it made.
    """
    seen = {}
    for e in estimators:
        if e.id in seen and seen[e.id] is not e:
            raise ConfigError(f"two distinct estimators share the id '{e.id}'")
        seen[e.id] = e
    n = int(n)
    block_rows = _block_rows(n)
    local = threading.local()

    def chunk(c, start, stop):
        buf = getattr(local, "buf", None)
        if buf is None:
            # a whole chunk's rows although one block would do.  One block
            # (per thread, or per chunk before or after the estimate arrays)
            # keeps glibc's dynamic mmap and trim thresholds low: reproduce
            # took 0.116-0.121 s per run against 0.093 s, at 29 400-34 500
            # minor page faults against 2 630, for the same bytes (2-core VM,
            # in process, median of 40 runs in each of 2 processes)
            buf = local.buf = np.empty((min(CHUNK_ROWS, int(replicates)), n))
        rows = stop - start
        est = {eid: np.empty(rows) for eid in seen}
        for lo, hi, x in model.draw_blocks(theta, n, seed, c, buf[:rows], block_rows):
            for eid, e in seen.items():
                est[eid][lo:hi] = e.per_row(e(x), hi - lo)
        return _Parts(reduce(est))

    return pairwise_sum(map_chunks(chunk, replicates, workers))


def _finalize(model: Model, theta: float, n: int, replicates: int, seed: int, *stats) -> dict:
    """Fields every report shares: its run header and the drop accounting.

    stats are the Moments whose means and standard errors the report
    carries, each over the replicates that survived its masks.  A report
    needs at least two of those; it is flagged invalid when more than 0.1
    percent were dropped.  A mean or se that is not finite, because the
    values overflow double precision, is a NumericError: it never gets a
    verdict.  So is an se of 0 from a subnormal M2 > 0, which M2 / (k - 1)
    takes below the least float.
    """
    kept = stats[0].k
    if kept < 2:
        raise NumericError("fewer than two replicates survived the domain and finiteness masks")
    for m in stats:
        if not (math.isfinite(m.mean) and math.isfinite(m.se)):
            raise NumericError(f"mean {m.mean} or its standard error {m.se} is not finite")
        if m.se == 0.0 and m.m2 != 0.0:
            raise NumericError(f"the standard error of M2 = {m.m2} underflows to 0")
    dropped = int(replicates) - kept
    return {
        "model_id": model.id,
        "theta": theta,
        "n": int(n),
        "replicates": int(replicates),
        "seed": int(seed),
        "dropped": dropped,
        "valid": bool(dropped <= MAX_DROP_FRACTION * int(replicates)),
    }


def _z_score(mean: float, target: float, se: float) -> float:
    if se == 0.0:
        return 0.0 if mean == target else math.copysign(math.inf, mean - target)
    return (mean - target) / se


def estimate_risk(
    model: Model,
    theta,
    n: int,
    estimator: Estimator,
    g: Generator,
    orientation: str,
    replicates: int,
    seed: int,
    workers: int = 1,
) -> RiskReport:
    """Monte Carlo risk with its bias/variance split at the matching center.

    Left orientation: loss D(theta, delta), center is the inverse gradient of
    the mean dual estimate.  Right orientation: loss D(delta, theta), center
    is the plain mean estimate.  Replicates whose estimate leaves the
    generator's domain are dropped and counted; the report is flagged invalid
    when more than 0.1 percent drop.  A loss kurtosis that is not finite is a
    NumericError, as _finalize makes a non-finite mean or se.
    """
    theta = _check_setup(model, theta, n, [estimator], g, replicates, orientation)

    y = _Points(g, theta)

    def reduce(est):
        d = _Points(g, _in_domain(g, est.pop(estimator.id)))
        info = BregmanInfo.of(g, orientation, d)
        loss = _loss(g, orientation, d, y)
        del d  # phi and grad phi make room for the loss moments' temporaries
        return Moments.of(loss, higher=True), info

    losses, info = _stream(model, theta, n, [estimator], replicates, seed, workers, reduce)
    common = _finalize(model, theta, n, replicates, seed, losses)
    kurtosis = losses.excess_kurtosis
    if not math.isfinite(kurtosis):
        raise NumericError(f"loss excess kurtosis {kurtosis} is not finite")
    return RiskReport(
        **common,
        generator_id=g.id,
        estimator_id=estimator.id,
        orientation=orientation,
        risk=losses.mean,
        bias_term=info.bias(theta),
        variance_term=info.v / info.k,
        center=info.center,
        se_risk=losses.se,
        loss_excess_kurtosis=kurtosis,
    )


def _unbiasedness_checks(
    model: Model, theta_grid, checks, n: int, replicates: int, seed: int, workers: int
) -> list[UnbiasednessReport]:
    """Unbiasedness reports for several checks that share each grid point's stream.

    checks holds (kind, estimator, g) triples, each the type-I check of g:
    the mean of grad phi over in-domain estimates against grad phi(theta).
    Type-II, E delta = theta, is the type-I check of squared_euclidean(),
    reported as kind "type2" with no generator.  Grid point i draws the
    stream keyed by derive_key(seed, i) once for all checks; reports come
    grid point by grid point, in the order of checks.  An empty grid is a
    ConfigError.
    """
    theta_grid = [float(theta) for theta in theta_grid]
    if not theta_grid:
        raise ConfigError("the theta grid must not be empty")
    estimators = [e for _, e, _ in checks]

    def reduce(est):
        return [Moments.of(g.gradient(_in_domain(g, est[e.id]))) for _, e, g in checks]

    reports = []
    for i, theta in enumerate(theta_grid):
        for _, e, g in checks:
            theta = _check_setup(model, theta, n, [e], g, replicates)
        parts = _stream(
            model, theta, n, estimators, replicates, derive_key(seed, i), workers, reduce
        )
        for (kind, e, g), m in zip(checks, parts):
            common = _finalize(model, theta, n, replicates, seed, m)
            target = float(g.gradient(theta))
            z = _z_score(m.mean, target, m.se)
            reports.append(
                UnbiasednessReport(
                    **common,
                    kind=kind,
                    generator_id="" if kind == "type2" else g.id,
                    estimator_id=e.id,
                    mean=m.mean,
                    target=target,
                    se=m.se,
                    z=float(z),
                    verdict=bool(abs(z) <= PASS_Z),
                )
            )
    return reports


def check_type1_unbiased(
    model: Model,
    theta_grid,
    estimator: Estimator,
    g: Generator,
    n: int,
    replicates: int,
    seed: int,
    workers: int = 1,
) -> list[UnbiasednessReport]:
    """Test whether the mean dual estimate matches grad phi(theta) on a grid.

    Verdict is PASS when |z| <= 4 with z = (mean - target) / se.
    """
    return _unbiasedness_checks(
        model, theta_grid, [("type1", estimator, g)], n, replicates, seed, workers
    )


def check_type2_unbiased(
    model: Model,
    theta_grid,
    estimator: Estimator,
    n: int,
    replicates: int,
    seed: int,
    workers: int = 1,
) -> list[UnbiasednessReport]:
    """Test whether the mean estimate matches theta itself on a grid.

    It is the type-I check of squared_euclidean().  Verdict is PASS when
    |z| <= 4 with z = (mean - target) / se.
    """
    return _unbiasedness_checks(
        model, theta_grid, [("type2", estimator, squared_euclidean())], n, replicates, seed, workers
    )


def lehmann_grid_check(
    model: Model,
    theta,
    grid,
    estimator: Estimator,
    g: Generator,
    orientation: str,
    n: int,
    replicates: int,
    seed: int,
    workers: int = 1,
) -> LehmannGridReport:
    """Mean loss against every grid parameter, from one shared replicate set.

    theta must be a grid member.  Ties at the minimum are broken toward
    theta and recorded explicitly.
    """
    theta = _check_setup(model, theta, n, [estimator], g, replicates, orientation)
    grid = [float(v) for v in grid]
    matches = [
        i for i, v in enumerate(grid) if abs(v - theta) <= _GRID_MATCH_TOL * (1.0 + abs(theta))
    ]
    if not matches:
        raise ConfigError(f"theta = {theta} must be a member of the grid {grid}")
    theta_index = matches[0]
    for v in grid:
        g.domain.check(np.asarray(v), "grid parameter")

    ys = [_Points(g, v) for v in grid]

    def reduce(est):
        d = _Points(g, _in_domain(g, est.pop(estimator.id)))
        return [Moments.of(_loss(g, orientation, d, y)) for y in ys]

    parts = _stream(model, theta, n, [estimator], replicates, seed, workers, reduce)
    common = _finalize(model, theta, n, replicates, seed, *parts)
    means = [m.mean for m in parts]
    best = min(means)
    candidates = [i for i, m in enumerate(means) if m == best]
    if theta_index in candidates:
        argmin_index = theta_index
    else:
        argmin_index = candidates[0]
    return LehmannGridReport(
        **common,
        generator_id=g.id,
        estimator_id=estimator.id,
        orientation=orientation,
        grid=tuple(grid),
        means=tuple(means),
        ses=tuple(m.se for m in parts),
        theta_index=theta_index,
        argmin_index=int(argmin_index),
        tie_broken_toward_theta=bool(len(candidates) > 1 and theta_index in candidates),
    )


def compare_estimators(
    model: Model,
    theta,
    n: int,
    estimator_pair,
    g: Generator,
    orientation: str,
    replicates: int,
    seed: int,
    workers: int = 1,
) -> ComparisonReport:
    """Paired risk comparison on shared samples.

    Both estimators see the same replicate draws; the difference of
    per-replicate losses gives the paired standard error.  Replicates where
    either estimate leaves the generator's domain are dropped from both arms.
    """
    e1, e2 = estimator_pair
    theta = _check_setup(model, theta, n, [e1, e2], g, replicates, orientation)

    y = _Points(g, theta)

    def reduce(est):
        a = est.pop(e1.id)
        b = est.pop(e2.id, a)  # one entry when both arms are the same estimator
        keep = g.domain.mask(a) & g.domain.mask(b)
        l1 = _loss(g, orientation, _Points(g, _kept(a, keep)), y)
        del a  # the first arm's estimates are not needed for the second
        l2 = _loss(g, orientation, _Points(g, _kept(b, keep)), y)
        return Moments.of(l1), Moments.of(l2), Moments.of(l1 - l2)

    m1, m2, diff = _stream(model, theta, n, [e1, e2], replicates, seed, workers, reduce)
    common = _finalize(model, theta, n, replicates, seed, diff, m1, m2)
    return ComparisonReport(
        **common,
        generator_id=g.id,
        estimator_id_1=e1.id,
        estimator_id_2=e2.id,
        orientation=orientation,
        risk_1=m1.mean,
        risk_2=m2.mean,
        risk_diff=diff.mean,
        se_diff=diff.se,
    )
