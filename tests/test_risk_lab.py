"""Monte Carlo risk lab: reports, verdicts, pairing, and drop accounting."""

import dataclasses
import re
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest
import scipy.stats
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from breglab import (
    CHUNK_ROWS,
    ConfigError,
    DiscreteModel,
    DomainError,
    Estimator,
    ExponentialModel,
    LogNormalModel,
    NormalModel,
    NumericError,
    bregman_div,
    build_type1_umvue,
    check_type1_unbiased,
    check_type2_unbiased,
    compare_estimators,
    const_estimator,
    estimate_risk,
    first_k_estimator,
    lehmann_grid_check,
    negative_entropy,
    negative_log,
    squared_euclidean,
    verify_decompositions_grid,
    verify_rb_inequality,
)
from breglab.prng import derive_key, pairwise_sum
from breglab.generators import SeparableGenerator
from breglab import risk_lab
from breglab.divergence import _Points
from breglab.risk_lab import BregmanInfo, Moments, _stream

EXP = ExponentialModel()
NEGLOG = negative_log(1)
SQE = squared_euclidean(1)


def mean_estimator():
    return EXP.classical_umvue


class TestEstimateRisk:
    def test_spot_on_constant_has_zero_risk(self):
        for orientation in ("left", "right"):
            rep = estimate_risk(
                EXP, 2.0, 3, const_estimator(2.0), NEGLOG, orientation, 2000, seed=1
            )
            assert rep.risk == 0.0
            assert rep.bias_term == 0.0
            assert rep.variance_term == 0.0
            assert rep.se_risk == 0.0
            assert rep.loss_excess_kurtosis == 0.0
            npt.assert_allclose(rep.center, 2.0)

    def test_normal_mean_right_risk_matches_theory(self):
        # right-orientation squared euclidean risk of the mean is sigma^2 / (2n)
        model = NormalModel(sigma2=1.0)
        rep = estimate_risk(
            model, 0.7, 4, model.classical_umvue, SQE, "right", 200_000, seed=7
        )
        assert abs(rep.risk - 0.125) <= 3.0 * rep.se_risk
        assert rep.dropped == 0 and rep.valid

    @pytest.mark.parametrize("orientation", ["left", "right"])
    def test_identity_and_center(self, orientation):
        rep = estimate_risk(
            EXP, 2.0, 5, build_type1_umvue(EXP, NEGLOG), NEGLOG, orientation, 50_000, seed=3
        )
        assert abs(rep.risk - rep.bias_term - rep.variance_term) <= 1e-9 * (1.0 + rep.risk)
        assert rep.bias_term >= 0.0 and rep.variance_term >= 0.0
        assert rep.se_risk > 0.0

    def test_left_and_right_agree_for_squared_euclidean(self):
        model = NormalModel()
        kw = dict(replicates=50_000, seed=5)
        left = estimate_risk(model, 0.3, 4, model.classical_umvue, SQE, "left", **kw)
        right = estimate_risk(model, 0.3, 4, model.classical_umvue, SQE, "right", **kw)
        npt.assert_allclose(left.risk, right.risk, rtol=1e-12)
        npt.assert_allclose(left.bias_term, right.bias_term, atol=1e-12)
        npt.assert_allclose(left.variance_term, right.variance_term, rtol=1e-12)
        npt.assert_allclose(left.center, right.center, rtol=1e-12)

    def test_worker_count_does_not_change_report(self):
        kw = dict(replicates=100_000, seed=9)
        base = estimate_risk(EXP, 2.0, 5, mean_estimator(), NEGLOG, "left", **kw)
        for workers in (2, 8):
            rep = estimate_risk(EXP, 2.0, 5, mean_estimator(), NEGLOG, "left", workers=workers, **kw)
            assert dataclasses.asdict(rep) == dataclasses.asdict(base)

    def test_argument_validation(self):
        with pytest.raises(ConfigError):
            estimate_risk(EXP, 2.0, 5, mean_estimator(), NEGLOG, "up", 2000, seed=0)
        with pytest.raises(ConfigError):
            estimate_risk(EXP, 2.0, 5, mean_estimator(), NEGLOG, "left", 999, seed=0)
        with pytest.raises(ConfigError):
            estimate_risk(EXP, 2.0, 1, build_type1_umvue(EXP, NEGLOG), NEGLOG, "left", 2000, seed=0)
        with pytest.raises(DomainError):
            estimate_risk(NormalModel(), -1.0, 5, NormalModel().classical_umvue, NEGLOG, "left", 2000, seed=0)
        with pytest.raises(ConfigError):
            estimate_risk(EXP, 2.0, 5, mean_estimator(), negative_log(2), "left", 2000, seed=0)

    def test_empty_sample_rejected(self):
        with pytest.raises(ConfigError, match="n must be >= 1, got 0"):
            estimate_risk(EXP, 2.0, 0, mean_estimator(), NEGLOG, "left", 2000, seed=0)


class TestDropAccounting:
    def test_partial_drops_counted_and_flagged(self):
        # the shifted first observation goes nonpositive on about 5 percent of
        # replicates, far past the 0.1 percent validity threshold
        shifted = Estimator("shifted-first", lambda x: x[..., 0] - 0.05)
        rep = estimate_risk(ExponentialModel(), 1.0, 3, shifted, NEGLOG, "left", 20_000, seed=11)
        assert rep.dropped > 500
        assert not rep.valid
        assert np.isfinite(rep.risk)

    def test_no_drops_is_valid(self):
        rep = estimate_risk(EXP, 2.0, 3, mean_estimator(), NEGLOG, "left", 2000, seed=11)
        assert rep.dropped == 0 and rep.valid

    def test_everything_dropped_raises(self):
        with pytest.raises(NumericError):
            estimate_risk(EXP, 2.0, 3, const_estimator(-1.0), NEGLOG, "left", 2000, seed=11)


class TestUnbiasednessChecks:
    def test_type1_estimator_passes_type1(self):
        grid = [0.5, 2.0, 7.0]
        reports = check_type1_unbiased(
            EXP, grid, build_type1_umvue(EXP, NEGLOG), NEGLOG, 5, 100_000, seed=7
        )
        for rep, theta in zip(reports, grid):
            assert rep.verdict, f"|z| = {abs(rep.z):.2f} at theta = {theta}"
            npt.assert_allclose(rep.target, -1.0 / theta)

    def test_type1_estimator_fails_type2(self):
        (rep,) = check_type2_unbiased(
            EXP, [2.0], build_type1_umvue(EXP, NEGLOG), 5, 100_000, seed=7
        )
        assert not rep.verdict and rep.z > 10.0
        # its mean is theta * n / (n - 1) = 2.5
        assert abs(rep.mean - 2.5) <= 4.0 * rep.se

    def test_classical_passes_type2_fails_type1(self):
        (t2,) = check_type2_unbiased(EXP, [2.0], mean_estimator(), 5, 100_000, seed=7)
        assert t2.verdict
        (t1,) = check_type1_unbiased(EXP, [2.0], mean_estimator(), NEGLOG, 5, 100_000, seed=7)
        assert not t1.verdict and abs(t1.z) > 10.0

    def test_sqeuclid_collapses_type1_onto_type2(self):
        # with the identity gradient the two notions coincide, stream for stream
        model = NormalModel()
        t1 = check_type1_unbiased(model, [0.4], model.classical_umvue, SQE, 4, 20_000, seed=7)[0]
        t2 = check_type2_unbiased(model, [0.4], model.classical_umvue, 4, 20_000, seed=7)[0]
        assert (t1.mean, t1.target, t1.se, t1.z, t1.verdict) == (
            t2.mean, t2.target, t2.se, t2.z, t2.verdict,
        )

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("model, grid", [
        (EXP, (0.5, 2.0)), (LogNormalModel(), (1.0, np.e)), (NormalModel(), (-1.5, 0.4)),
    ], ids=["exp", "lognormal", "normal"])
    def test_type2_is_the_sqeuclid_type1_check(self, model, grid, workers):
        # NaN and inf on a few rows, so the drop counts are compared too
        def fn(x):
            out = np.mean(x, axis=-1)
            frac = (x[..., 0] * 1e3) % 1.0
            out[frac < 4e-4] = np.nan
            out[frac > 1.0 - 3e-4] = np.inf
            return out

        e = Estimator("mean-dropping", fn)
        run = (5, CHUNK_ROWS + 1000, 11, workers)
        type2 = check_type2_unbiased(model, grid, e, *run)
        type1 = check_type1_unbiased(model, grid, e, SQE, *run)
        assert sum(r.dropped for r in type2) > 0
        for t2, t1 in zip(type2, type1, strict=True):
            assert (t2.kind, t2.generator_id, t1.kind, t1.generator_id) == (
                "type2", "", "type1", "sqeuclid"
            )
            assert dataclasses.replace(t2, kind="type1", generator_id="sqeuclid") == t1

    def test_grid_points_use_distinct_streams(self):
        reports = check_type2_unbiased(EXP, [2.0, 2.0], mean_estimator(), 5, 20_000, seed=7)
        assert reports[0].mean != reports[1].mean

    def test_exact_constant_gives_zero_z(self):
        (rep,) = check_type2_unbiased(EXP, [2.0], const_estimator(2.0), 3, 2000, seed=0)
        assert rep.z == 0.0 and rep.se == 0.0 and rep.verdict
        (bad,) = check_type2_unbiased(EXP, [2.0], const_estimator(3.0), 3, 2000, seed=0)
        assert bad.z == np.inf and not bad.verdict


@pytest.mark.parametrize("grid", [[], (), np.array([])], ids=["list", "tuple", "array"])
@pytest.mark.parametrize("check", [
    lambda grid: check_type1_unbiased(EXP, grid, mean_estimator(), NEGLOG, 5, 2000, seed=1),
    lambda grid: check_type2_unbiased(EXP, grid, mean_estimator(), 5, 2000, seed=1),
    lambda grid: verify_rb_inequality(DiscreteModel((1.0, 2.0), 2), NEGLOG, mean_estimator(), grid),
    lambda grid: verify_decompositions_grid(DiscreteModel((1.0, 2.0), 2), NEGLOG, mean_estimator(), grid),
], ids=["type1", "type2", "rb", "decompositions"])
def test_empty_theta_grid_is_a_config_error(check, grid):
    with pytest.raises(ConfigError, match="^the theta grid must not be empty$"):
        check(grid)


class TestLehmannGrid:
    GRID = (1.0, 1.5, 2.0, 2.5, 3.0)

    def test_type1_estimator_minimizes_at_truth(self):
        rep = lehmann_grid_check(
            EXP, 2.0, self.GRID, build_type1_umvue(EXP, NEGLOG), NEGLOG, "left", 5, 100_000, seed=7
        )
        assert rep.theta_index == 2
        assert rep.argmin_index == 2
        assert not rep.tie_broken_toward_theta
        assert len(rep.means) == len(self.GRID) and len(rep.ses) == len(self.GRID)

    def test_classical_minimizes_elsewhere(self):
        rep = lehmann_grid_check(
            EXP, 2.0, self.GRID, mean_estimator(), NEGLOG, "left", 5, 100_000, seed=7
        )
        assert rep.argmin_index == 1  # grid value 1.5

    def test_theta_must_be_grid_member(self):
        with pytest.raises(ConfigError):
            lehmann_grid_check(
                EXP, 1.7, self.GRID, mean_estimator(), NEGLOG, "left", 5, 2000, seed=7
            )

    def test_grid_values_must_be_in_domain(self):
        with pytest.raises(DomainError):
            lehmann_grid_check(
                EXP, 2.0, (2.0, -1.0), mean_estimator(), NEGLOG, "left", 5, 2000, seed=7
            )


class TestCompareEstimators:
    def test_estimator_against_itself_ties_exactly(self):
        e = mean_estimator()
        rep = compare_estimators(EXP, 2.0, 5, (e, e), NEGLOG, "left", 2000, seed=7)
        assert rep.risk_diff == 0.0 and rep.se_diff == 0.0
        assert rep.risk_1 == rep.risk_2

    def test_distinct_estimators_same_id_rejected(self):
        e1 = Estimator("m", lambda x: np.mean(x, axis=-1))
        e2 = Estimator("m", lambda x: x[..., 0])
        with pytest.raises(ConfigError):
            compare_estimators(EXP, 2.0, 5, (e1, e2), NEGLOG, "left", 2000, seed=7)

    def test_mean_beats_first_observation_by_factor_n(self):
        model = NormalModel()
        first = first_k_estimator(model, None, 1)
        rep = compare_estimators(
            model, 0.5, 4, (first, model.classical_umvue), SQE, "right", 100_000, seed=7
        )
        assert rep.risk_diff > 0.0
        assert rep.risk_diff / rep.se_diff > 5.0
        assert abs(rep.risk_1 / rep.risk_2 - 4.0) < 0.2

    def test_pairing_shares_draws(self):
        # risk_1 from the paired run equals the standalone risk on the same seed
        e1 = first_k_estimator(EXP, NEGLOG, 3)
        e2 = build_type1_umvue(EXP, NEGLOG)
        rep = compare_estimators(EXP, 2.0, 5, (e1, e2), NEGLOG, "left", 20_000, seed=7)
        solo = estimate_risk(EXP, 2.0, 5, e1, NEGLOG, "left", 20_000, seed=7)
        npt.assert_allclose(rep.risk_1, solo.risk, rtol=1e-12)




PARTIAL_GENERATORS = {
    "sqeuclid": squared_euclidean(1),
    "negentropy": negative_entropy(1),
    "neglog": negative_log(1),
    "neglog-newton": negative_log(1).without_closed_forms(),
}


def _close(got, want, scale):
    assert abs(got - want) <= 1e-12 * scale, (got, want, scale)


class TestPartials:
    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(st.floats(0.01, 100.0), min_size=2, max_size=80),
        cuts=st.lists(st.integers(0, 80), max_size=6),
        gen=st.sampled_from(sorted(PARTIAL_GENERATORS)),
    )
    # the Newton inverse of grad phi = -1/8 is 8 - 2.6e-11; a left merge
    # through k D(c, c_part) alone would carry that error into v
    @example(values=[1.0, 1.0, 8.0], cuts=[2], gen="neglog-newton")
    def test_merged_parts_equal_one_shot(self, values, cuts, gen):
        x = np.array(values)
        # a spread far below the magnitude leaves any float algorithm, the
        # one-shot one included, only eps * max / spread relative accuracy
        assume(np.ptp(x) >= 0.01 * np.max(x))
        g = PARTIAL_GENERATORS[gen]
        bounds = [0, *sorted(min(c, x.size) for c in cuts), x.size]
        parts = [x[a:b] for a, b in zip(bounds[:-1], bounds[1:])]  # empty parts included
        m = pairwise_sum([Moments.of(p, higher=True) for p in parts])
        exact = [Fraction(v) for v in values]
        mean = sum(exact) / len(exact)
        sums = [float(sum((v - mean) ** r for v in exact)) for r in (2, 3, 4)]
        assert m.k == x.size
        _close(m.mean, float(mean), float(mean))
        _close(m.m2, sums[0], sums[0])
        _close(m.m3, sums[1], float(sum(abs(v - mean) ** 3 for v in exact)))  # M3 may cancel
        _close(m.m4, sums[2], sums[2])
        for orientation in ("left", "right"):
            info = pairwise_sum(
                [BregmanInfo.of(g, orientation, _Points(g, p)) for p in parts]
            )
            if orientation == "left":
                center = float(g.invert_gradient(np.mean(g.gradient(x))))
                v = float(np.sum(bregman_div(g, center, x)))
            else:
                center = float(np.mean(x))
                v = float(np.sum(bregman_div(g, x, center)))
            assert info.k == x.size
            _close(info.center, center, center)
            _close(info.v, v, v)


REF_ROWS = 2 * CHUNK_ROWS + 17  # two full chunks and a short one


def _dropping(e, col):
    """e with NaN where observation col is small, and on the whole 17-row chunk."""

    def fn(x):
        out = np.array(e.fn(x), dtype=float)
        out[x[..., col] < 0.03] = np.nan
        if x.shape[0] == REF_ROWS % CHUNK_ROWS:
            out[:] = np.nan
        return out

    return Estimator(f"{e.id}-dropping{col}", fn, requires_min_n=e.requires_min_n)


def _chunked_estimates(e, x):
    # the estimator sees chunk-sized blocks, exactly as the lab hands them out
    return np.concatenate([e(x[s : s + CHUNK_ROWS]) for s in range(0, x.shape[0], CHUNK_ROWS)])


def _loss(orientation, est, y):
    return bregman_div(NEGLOG, y, est) if orientation == "left" else bregman_div(NEGLOG, est, y)


def _se(values):
    return np.std(values, ddof=1) / np.sqrt(values.size)


class TestChunkedReference:
    """Every report type against a brute-force full-array computation."""

    THETA, N, SEED = 2.0, 5, 23
    E1 = _dropping(EXP.classical_umvue, 0)
    E2 = _dropping(build_type1_umvue(EXP, NEGLOG), 1)

    def draws(self, theta=THETA, seed=SEED):
        return EXP.draw(theta, self.N, REF_ROWS, seed)

    def reports(self, workers):
        theta, n, e1, run = self.THETA, self.N, self.E1, (REF_ROWS, self.SEED, workers)
        return [
            estimate_risk(EXP, theta, n, e1, NEGLOG, "left", *run),
            estimate_risk(EXP, theta, n, e1, NEGLOG, "right", *run),
            *check_type1_unbiased(EXP, [1.0, 2.0], e1, NEGLOG, n, *run),
            *check_type2_unbiased(EXP, [2.0], e1, n, *run),
            lehmann_grid_check(EXP, theta, (1.5, 2.0, 2.5), e1, NEGLOG, "right", n, *run),
            compare_estimators(EXP, theta, n, (e1, self.E2), NEGLOG, "left", *run),
        ]

    def test_drops_fall_in_some_chunks_and_fill_one(self):
        dropped = np.isnan(_chunked_estimates(self.E1, self.draws()))
        per_chunk = [np.count_nonzero(dropped[s : s + CHUNK_ROWS]) for s in (0, CHUNK_ROWS)]
        assert all(0 < d < CHUNK_ROWS for d in per_chunk)
        assert np.all(dropped[2 * CHUNK_ROWS :])

    def test_reports_match_full_array_computation(self):
        risk_left, risk_right, t1a, t1b, t2, lehmann, cmp = self.reports(1)
        x = self.draws()
        v = _chunked_estimates(self.E1, x)
        kept = v[NEGLOG.domain.mask(v)]
        for rep, orientation in ((risk_left, "left"), (risk_right, "right")):
            losses = _loss(orientation, kept, self.THETA)
            if orientation == "left":
                center = NEGLOG.invert_gradient(np.mean(NEGLOG.gradient(kept)))
            else:
                center = np.mean(kept)
            assert rep.dropped == REF_ROWS - kept.size and not rep.valid
            npt.assert_allclose(rep.risk, np.mean(losses), rtol=1e-12)
            npt.assert_allclose(rep.se_risk, _se(losses), rtol=1e-12)
            kurtosis = scipy.stats.kurtosis(losses)
            npt.assert_allclose(rep.loss_excess_kurtosis, kurtosis, rtol=1e-12)
            npt.assert_allclose(rep.center, center, rtol=1e-12)
            npt.assert_allclose(rep.bias_term, _loss(orientation, center, self.THETA), rtol=1e-12)
            variance = np.mean(_loss(orientation, kept, center))
            npt.assert_allclose(rep.variance_term, variance, rtol=1e-12)

        for rep, i, theta in ((t1a, 0, 1.0), (t1b, 1, 2.0)):
            vi = _chunked_estimates(self.E1, self.draws(theta, derive_key(self.SEED, i)))
            duals = NEGLOG.gradient(vi[NEGLOG.domain.mask(vi)])
            assert rep.dropped == REF_ROWS - duals.size
            npt.assert_allclose(rep.mean, np.mean(duals), rtol=1e-12)
            npt.assert_allclose(rep.se, _se(duals), rtol=1e-12)
        v0 = _chunked_estimates(self.E1, self.draws(2.0, derive_key(self.SEED, 0)))
        finite = v0[np.isfinite(v0)]
        assert t2.dropped == REF_ROWS - finite.size
        npt.assert_allclose(t2.mean, np.mean(finite), rtol=1e-12)
        npt.assert_allclose(t2.se, _se(finite), rtol=1e-12)

        for y, mean, se in zip(lehmann.grid, lehmann.means, lehmann.ses):
            losses = _loss("right", kept, y)
            npt.assert_allclose(mean, np.mean(losses), rtol=1e-12)
            npt.assert_allclose(se, _se(losses), rtol=1e-12)
        assert lehmann.dropped == REF_ROWS - kept.size

        w = _chunked_estimates(self.E2, x)
        both = NEGLOG.domain.mask(v) & NEGLOG.domain.mask(w)
        l1, l2 = _loss("left", v[both], self.THETA), _loss("left", w[both], self.THETA)
        assert cmp.dropped == REF_ROWS - np.count_nonzero(both) > risk_left.dropped
        npt.assert_allclose(
            [cmp.risk_1, cmp.risk_2, cmp.risk_diff], [np.mean(l1), np.mean(l2), np.mean(l1 - l2)],
            rtol=1e-12,
        )
        npt.assert_allclose(cmp.se_diff, _se(l1 - l2), rtol=1e-12)

    def test_reports_bitwise_equal_across_workers(self):
        base = [dataclasses.asdict(r) for r in self.reports(1)]
        for workers in (2, 8):
            assert [dataclasses.asdict(r) for r in self.reports(workers)] == base


class TestDrawBuffers:
    """Chunks are drawn into one reused buffer per worker thread."""

    ROWS = 2 * CHUNK_ROWS + 17

    def reports(self, e1, e2, workers):
        run = (self.ROWS, 31, workers)
        return [
            dataclasses.asdict(r)
            for r in (
                estimate_risk(EXP, 2.0, 3, e1, NEGLOG, "left", *run),
                estimate_risk(EXP, 2.0, 3, e1, NEGLOG, "right", *run),
                *check_type1_unbiased(EXP, [1.0, 2.0], e1, NEGLOG, 3, *run),
                *check_type2_unbiased(EXP, [2.0], e1, 3, *run),
                lehmann_grid_check(EXP, 2.0, (1.5, 2.0), e1, NEGLOG, "right", 3, *run),
                compare_estimators(EXP, 2.0, 3, (e1, e2), NEGLOG, "left", *run),
            )
        ]

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_estimates_may_be_views_of_the_buffer(self, workers):
        # a view of the draw buffer is overwritten by the thread's next chunk;
        # every report must be reduced before that happens
        view = Estimator("first", lambda x: x[..., 0])
        copy = Estimator("first", lambda x: x[..., 0].copy())
        last = Estimator("last", lambda x: x[..., -1].copy())
        base = self.reports(copy, last, 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, so a shared buffer would race
        try:
            assert self.reports(view, last, workers) == base
        finally:
            sys.setswitchinterval(interval)

    def test_buffer_does_not_outlive_the_pass(self):
        e = build_type1_umvue(EXP, NEGLOG)
        estimate_risk(EXP, 2.0, 5, e, NEGLOG, "left", 2 * CHUNK_ROWS, seed=3)  # warm up
        tracemalloc.start()
        try:
            estimate_risk(EXP, 2.0, 5, e, NEGLOG, "left", 2 * CHUNK_ROWS, seed=3, workers=2)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak > 5 * CHUNK_ROWS * 8  # at least one (CHUNK_ROWS, 5) buffer was live
        assert current < 64 * 1024


class TestSpreadUnderflow:
    """An M2 of 0 is exact for a constant set and a NumericError for values that differ."""

    def test_one_set(self):
        with pytest.raises(NumericError, match="spread of the values underflows"):
            Moments.of([1e-300, 2e-300])

    def test_merge(self):
        a, b = Moments.of([1e-300]), Moments.of([2e-300])
        assert a.m2 == b.m2 == 0.0
        with pytest.raises(NumericError, match="spread of the values underflows"):
            a + b

    def test_se_of_a_subnormal_m2(self):
        # exp draws scale exactly with theta = 2**-k: at k = 536 the se is still
        # nonzero, at k = 537 M2 is subnormal and M2 / (k - 1) underflows
        assert check_type2_unbiased(EXP, [2.0**-536], mean_estimator(), 5, 1000, seed=0)[0].se > 0
        with pytest.raises(NumericError, match="standard error of M2 = .* underflows to 0"):
            check_type2_unbiased(EXP, [2.0**-537], mean_estimator(), 5, 1000, seed=0)

    def test_constant_set_keeps_a_zero_se(self):
        m = pairwise_sum([Moments.of(np.full(k, 1e-300)) for k in (3, 1, 4)])
        assert (m.k, m.mean, m.m2, m.se) == (8, 1e-300, 0.0, 0.0)


class TestMomentOrders:
    def test_low_orders_do_not_depend_on_higher(self):
        x = EXP.draw(2.0, 1, 5000, seed=4)[:, 0]
        parts = [x[:1000], x[1000:1001], x[1001:1001], x[1001:]]
        low = pairwise_sum([Moments.of(p) for p in parts])
        full = pairwise_sum([Moments.of(p, higher=True) for p in parts])
        assert (low.k, low.mean, low.m2, low.se) == (full.k, full.mean, full.m2, full.se)
        assert np.isnan(low.m3) and np.isnan(low.m4) and np.isnan(low.excess_kurtosis)
        assert np.isfinite(full.excess_kurtosis)


def test_risk_memory_does_not_grow_with_replicates():
    e = build_type1_umvue(EXP, NEGLOG)

    def peak(replicates):
        tracemalloc.start()
        try:
            estimate_risk(EXP, 2.0, 5, e, NEGLOG, "left", replicates, seed=3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2 * CHUNK_ROWS)  # warm up lazy imports and caches
    assert peak(16 * CHUNK_ROWS) < 2 * peak(2 * CHUNK_ROWS)


class CountingNegLog(SeparableGenerator):
    """negative_log(1) that counts the points of its array evaluations of phi and grad phi.

    Scalar evaluations (theta, grid parameters, chunk centers) are not counted.
    """

    def __init__(self):
        g = negative_log(1)
        super().__init__(g.id, g.dimension, g.domain, g.dual_domain, g._rule)
        self.points = {"value": 0, "gradient": 0}

    def _count(self, name, x):
        if np.ndim(x) > 0:
            self.points[name] += np.size(x)

    def value(self, x):
        self._count("value", x)
        return super().value(x)

    def gradient(self, x):
        self._count("gradient", x)
        return super().gradient(x)


class TestComputeOnce:
    """phi and grad phi of the estimates are evaluated once per replicate."""

    M = 2 * CHUNK_ROWS + 17

    @pytest.mark.parametrize("orientation, gradients", [("left", 1), ("right", 0)])
    def test_estimate_risk_points_per_replicate(self, orientation, gradients):
        g = CountingNegLog()
        e = build_type1_umvue(EXP, g)
        rep = estimate_risk(EXP, 2.0, 5, e, g, orientation, self.M, seed=5)
        assert rep.dropped == 0
        assert g.points["value"] == self.M
        assert g.points["gradient"] <= gradients * self.M

    @pytest.mark.parametrize("orientation", ["left", "right"])
    def test_lehmann_points_do_not_grow_with_the_grid(self, orientation):
        e = build_type1_umvue(EXP, NEGLOG)
        points = []
        for grid in ((2.0,), (1.0, 1.5, 2.0, 2.5, 3.0)):
            g = CountingNegLog()
            lehmann_grid_check(EXP, 2.0, grid, e, g, orientation, 5, self.M, seed=5)
            points.append(g.points)
        assert points[0] == points[1]
        assert points[0]["value"] == self.M


def _ref_moments(values, higher=False) -> Moments:
    """Moments.of as first written, with a fresh array for every step."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        return Moments()
    s = v - v[0]
    shift = float(np.mean(s))
    d = s - shift
    d2 = d * d
    m3, m4 = (float(np.sum(d2 * d)), float(np.sum(d2 * d2))) if higher else (np.nan,) * 2
    return Moments(v.size, float(v[0]) + shift, float(np.sum(d2)), m3, m4)


def _ref_loss(g, orientation, est, y):
    return bregman_div(g, y, est) if orientation == "left" else bregman_div(g, est, y)


def _ref_info(g, orientation, est) -> BregmanInfo:
    """BregmanInfo of est with every divergence through bregman_div."""
    if est.size == 0:
        return BregmanInfo(g, orientation)
    if orientation == "left":
        mean = float(np.mean(g.gradient(est)))
        center = float(g.invert_gradient(mean))
    else:
        mean = center = float(np.mean(est))
    v = float(np.sum(_ref_loss(g, orientation, est, center)))
    return BregmanInfo(g, orientation, est.size, mean, center, v)


class TestBitwiseReference:
    """Every report type equals, bitwise, a chunk reduction built on bregman_div.

    The reference masks with a copy, evaluates each divergence with
    bregman_div and each moment on fresh arrays, and merges through the same
    stream, so any float the compute-once kernel moved shows here.
    """

    ROWS, THETA, N, SEED = CHUNK_ROWS + 1000, 2.0, 4, 41
    GRID = (1.5, 2.0, 2.5)
    ESTIMATORS = {
        # drops through NaN and through values outside neglog's domain: the copy path
        "dropping": Estimator("dropping", lambda x: np.where(
            x[..., 0] < 0.02, np.nan, np.where(x[..., 1] > 7.0, -1.0, x[..., 2])
        )),
        # drops nothing and returns a view of the draw buffer: the no-copy path
        "view": Estimator("view", lambda x: x[..., 0]),
    }

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("orientation", ["left", "right"])
    @pytest.mark.parametrize("name", sorted(ESTIMATORS))
    def test_risk_lehmann_compare(self, name, orientation, workers):
        e, g = self.ESTIMATORS[name], NEGLOG
        run = (self.ROWS, self.SEED, workers)
        stream = (EXP, self.THETA, self.N, [e], *run)

        def risk_reduce(est):
            vals = est[e.id]
            vals = vals[g.domain.mask(vals)]
            loss = _ref_moments(_ref_loss(g, orientation, vals, self.THETA), higher=True)
            return loss, _ref_info(g, orientation, vals)

        losses, info = _stream(*stream, risk_reduce)
        rep = estimate_risk(EXP, self.THETA, self.N, e, g, orientation, *run)
        a, b = (self.THETA, info.center) if orientation == "left" else (info.center, self.THETA)
        assert (rep.risk, rep.se_risk, rep.loss_excess_kurtosis) == (
            losses.mean, losses.se, losses.excess_kurtosis
        )
        assert (rep.center, rep.variance_term) == (info.center, info.v / info.k)
        assert rep.bias_term == float(bregman_div(g, a, b))
        assert rep.dropped == self.ROWS - losses.k
        assert (rep.dropped > 0) == (name == "dropping")

        def grid_reduce(est):
            vals = est[e.id]
            vals = vals[g.domain.mask(vals)]
            return [_ref_moments(_ref_loss(g, orientation, vals, v)) for v in self.GRID]

        parts = _stream(*stream, grid_reduce)
        rep = lehmann_grid_check(EXP, self.THETA, self.GRID, e, g, orientation, self.N, *run)
        assert rep.means == tuple(m.mean for m in parts)
        assert rep.ses == tuple(m.se for m in parts)
        assert rep.dropped == self.ROWS - parts[0].k

        other = EXP.classical_umvue

        def pair_reduce(est):
            x1, x2 = est[e.id], est[other.id]
            keep = g.domain.mask(x1) & g.domain.mask(x2)
            l1 = _ref_loss(g, orientation, x1[keep], self.THETA)
            l2 = _ref_loss(g, orientation, x2[keep], self.THETA)
            return _ref_moments(l1), _ref_moments(l2), _ref_moments(l1 - l2)

        m1, m2, diff = _stream(
            EXP, self.THETA, self.N, [e, other], self.ROWS, self.SEED, workers, pair_reduce
        )
        rep = compare_estimators(EXP, self.THETA, self.N, (e, other), g, orientation, *run)
        assert (rep.risk_1, rep.risk_2, rep.risk_diff, rep.se_diff) == (
            m1.mean, m2.mean, diff.mean, diff.se
        )
        assert rep.dropped == self.ROWS - diff.k

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name", sorted(ESTIMATORS))
    def test_unbiasedness_checks(self, name, workers):
        e, g = self.ESTIMATORS[name], NEGLOG
        thetas = (1.0, 2.0)
        type1 = check_type1_unbiased(EXP, thetas, e, g, self.N, self.ROWS, self.SEED, workers)
        type2 = check_type2_unbiased(EXP, thetas, e, self.N, self.ROWS, self.SEED, workers)

        def dual_reduce(est):
            vals = est[e.id]
            return [_ref_moments(g.gradient(vals[g.domain.mask(vals)]))]

        def finite_reduce(est):
            vals = est[e.id]
            return [_ref_moments(vals[np.isfinite(vals)])]

        for i, theta in enumerate(thetas):
            key = derive_key(self.SEED, i)
            for rep, reduce in ((type1[i], dual_reduce), (type2[i], finite_reduce)):
                (m,) = _stream(EXP, theta, self.N, [e], self.ROWS, key, workers, reduce)
                assert (rep.mean, rep.se, rep.dropped) == (m.mean, m.se, self.ROWS - m.k)


# The traced peak of estimate_risk(exp, theta 2, n 5, type-I UMVUE, neglog, 4 chunks,
# one worker) before the kernel computed phi and grad phi once: the (CHUNK_ROWS, 5)
# draw buffer plus seven chunk-length arrays, 6.01 MiB in either orientation.
PARENT_RISK_PEAK = 6.01 * 2**20


@pytest.mark.parametrize("orientation", ["left", "right"])
def test_risk_peak_memory_not_above_parent(orientation):
    e = build_type1_umvue(EXP, NEGLOG)
    estimate_risk(EXP, 2.0, 5, e, NEGLOG, orientation, 2 * CHUNK_ROWS, seed=3)  # warm up
    tracemalloc.start()
    try:
        estimate_risk(EXP, 2.0, 5, e, NEGLOG, orientation, 4 * CHUNK_ROWS, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= PARENT_RISK_PEAK


def _all_reports(e1, e2, n, rows, workers, seed=17):
    run = (rows, seed, workers)
    return [
        dataclasses.asdict(r)
        for r in (
            estimate_risk(EXP, 2.0, n, e1, NEGLOG, "left", *run),
            estimate_risk(EXP, 2.0, n, e1, NEGLOG, "right", *run),
            *check_type1_unbiased(EXP, [1.0, 2.0], e1, NEGLOG, n, *run),
            *check_type2_unbiased(EXP, [2.0], e1, n, *run),
            lehmann_grid_check(EXP, 2.0, (1.5, 2.0, 2.5), e1, NEGLOG, "left", n, *run),
            compare_estimators(EXP, 2.0, n, (e1, e2), NEGLOG, "right", *run),
        )
    ]


class TestBlockBoundaries:
    """A chunk estimated block by block reports exactly what one block per chunk does."""

    N = 5
    E1, E2 = build_type1_umvue(EXP, NEGLOG), EXP.classical_umvue

    def whole_chunks(self, monkeypatch, rows, workers):
        with monkeypatch.context() as m:
            m.setattr(risk_lab, "BLOCK_VALUES", 8 * CHUNK_ROWS * self.N)
            assert risk_lab._block_rows(self.N) >= CHUNK_ROWS
            return _all_reports(self.E1, self.E2, self.N, rows, workers)

    def test_block_rows(self):
        assert risk_lab._block_rows(5) == 16384
        assert risk_lab._block_rows(10) == 8192
        assert risk_lab._block_rows(1) == 131072
        assert risk_lab._block_rows(10**6) == 8

    # last chunk's rows on and around a 16 384-row block edge, a one-row
    # remainder (16 385) among them, and a one-row last chunk
    @pytest.mark.parametrize(
        "rows", [16383, 16384, 16385, 16386, 32769, CHUNK_ROWS + 16385, 2 * CHUNK_ROWS + 1]
    )
    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_default_blocks(self, monkeypatch, rows, workers):
        got = _all_reports(self.E1, self.E2, self.N, rows, workers)
        assert got == self.whole_chunks(monkeypatch, rows, workers)

    # 128-row blocks put many edges in one chunk: rows on and around them,
    # with one-row remainders (1025, CHUNK_ROWS + 129)
    @pytest.mark.parametrize("rows", [1023, 1024, 1025, 1026, 1151, CHUNK_ROWS + 129])
    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_small_blocks(self, monkeypatch, rows, workers):
        with monkeypatch.context() as m:
            m.setattr(risk_lab, "BLOCK_VALUES", 128 * self.N)
            assert risk_lab._block_rows(self.N) == 128
            got = _all_reports(self.E1, self.E2, self.N, rows, workers)
        assert got == self.whole_chunks(monkeypatch, rows, workers)

    def test_estimators_see_blocks(self):
        seen = []

        def fn(x):
            seen.append(x.shape[0])
            return np.mean(x, axis=-1)

        e = Estimator("recording", fn)
        estimate_risk(EXP, 2.0, self.N, e, NEGLOG, "left", CHUNK_ROWS + 16385, seed=1)
        assert seen == [16384] * 4 + [16385]


class TestEstimatorOutputShape:
    """An estimator must give one float per replicate, in every report type."""

    ROWS = 1000
    GOOD = build_type1_umvue(EXP, NEGLOG)
    BAD = {
        "one short": (lambda x: x[:-1, 0], "(999,)"),
        "scalar": (lambda x: 2.0, "()"),
        "column": (lambda x: x[:, :1], "(1000, 1)"),
        "two columns": (lambda x: x[:, :2], "(1000, 2)"),
    }

    def reports(self, e, workers):
        run = (self.ROWS, 3, workers)
        yield lambda: estimate_risk(EXP, 2.0, 5, e, NEGLOG, "left", *run)
        yield lambda: estimate_risk(EXP, 2.0, 5, e, NEGLOG, "right", *run)
        yield lambda: check_type1_unbiased(EXP, [2.0], e, NEGLOG, 5, *run)
        yield lambda: check_type2_unbiased(EXP, [2.0], e, 5, *run)
        yield lambda: lehmann_grid_check(EXP, 2.0, (1.5, 2.0), e, NEGLOG, "right", 5, *run)
        yield lambda: compare_estimators(EXP, 2.0, 5, (e, self.GOOD), NEGLOG, "left", *run)
        yield lambda: compare_estimators(EXP, 2.0, 5, (self.GOOD, e), NEGLOG, "left", *run)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("kind", sorted(BAD))
    def test_refused_with_both_shapes(self, kind, workers):
        fn, shape = self.BAD[kind]
        e = Estimator("bad", fn)
        for report in self.reports(e, workers):
            with pytest.raises(ConfigError, match=rf"'bad'.*\(1000,\).*{re.escape(shape)}"):
                report()
