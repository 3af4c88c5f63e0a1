"""Divergence values, dual transport, Bregman means, pointwise decompositions."""

import numpy as np
import numpy.testing as npt
import pytest

from breglab import (
    ConfigError,
    DomainError,
    NumericError,
    bregman_div,
    bregman_mean,
    decompose_left,
    decompose_right,
    dual_divergence,
    dual_transport,
    mahalanobis,
    negative_entropy,
    negative_log,
    squared_euclidean,
)
from breglab.divergence import BregmanInfo, _Points
from breglab.generators import DomainSpec, SeparableGenerator, _ScalarRule

A2 = np.array([[2.0, 0.5], [0.5, 1.0]])
GENERATORS = [squared_euclidean(2), mahalanobis(A2), negative_entropy(2), negative_log(2)]


def random_pair(g, rng, count):
    if g.domain.lo == 0.0:
        return rng.uniform(0.1, 8.0, (count, 2)), rng.uniform(0.1, 8.0, (count, 2))
    return rng.normal(0.0, 2.0, (count, 2)), rng.normal(0.0, 2.0, (count, 2))


class TestFrozenDivergences:
    def test_squared_euclidean_is_half_squared_distance(self):
        g = squared_euclidean(1)
        npt.assert_allclose(bregman_div(g, 1.0, 0.0), 0.5)
        npt.assert_allclose(bregman_div(g, 0.0, 1.0), 0.5)
        g3 = squared_euclidean(3)
        x = np.array([1.0, 2.0, 3.0])
        y = np.array([0.0, 2.0, 5.0])
        npt.assert_allclose(bregman_div(g3, x, y), 0.5 * np.sum((x - y) ** 2))

    def test_negative_log_is_itakura_saito(self):
        g = negative_log(1)
        npt.assert_allclose(bregman_div(g, 2.0, 1.0), 1.0 - np.log(2.0))
        npt.assert_allclose(bregman_div(g, 1.0, 2.0), 0.5 + np.log(2.0) - 1.0)

    def test_negative_entropy_is_generalized_kl(self):
        g = negative_entropy(1)
        npt.assert_allclose(bregman_div(g, 1.0, np.e), np.e - 2.0)
        x, y = 3.0, 2.0
        npt.assert_allclose(bregman_div(g, x, y), x * np.log(x / y) - x + y)

    def test_asymmetry(self):
        g = negative_log(1)
        assert bregman_div(g, 2.0, 1.0) != bregman_div(g, 1.0, 2.0)


class TestDivergenceProperties:
    @pytest.mark.parametrize("g", GENERATORS, ids=lambda g: g.id)
    def test_nonnegative_and_zero_on_diagonal(self, g):
        rng = np.random.default_rng(29)
        x, y = random_pair(g, rng, 300)
        d = np.asarray(bregman_div(g, x, y))
        assert np.all(d >= 0.0)
        same = np.asarray(bregman_div(g, x, x))
        assert np.all(same == 0.0)

    @pytest.mark.parametrize("g", GENERATORS, ids=lambda g: g.id)
    def test_positive_off_diagonal(self, g):
        rng = np.random.default_rng(31)
        x, y = random_pair(g, rng, 300)
        assert np.all(np.asarray(bregman_div(g, x, y)) > 0.0)

    def test_domain_errors_name_the_argument(self):
        g = negative_log(1)
        with pytest.raises(DomainError, match="x"):
            bregman_div(g, -1.0, 1.0)
        with pytest.raises(DomainError, match="y"):
            bregman_div(g, 2.0, -1.0)

    def test_nonconvex_rule_raises_instead_of_going_negative(self):
        # A deliberately invalid "generator" whose divergence is far below
        # zero must fail loudly rather than be clamped.
        rule = _ScalarRule(value=np.sin, grad=np.cos)
        fake = SeparableGenerator("sine", 1, DomainSpec(), DomainSpec(-1.0, 1.0), rule)
        with pytest.raises(NumericError):
            bregman_div(fake, 3.0, 0.0)


class TestDualTransport:
    @pytest.mark.parametrize("g", GENERATORS, ids=lambda g: g.id)
    def test_matches_primal_divergence(self, g):
        rng = np.random.default_rng(37)
        x, y = random_pair(g, rng, 1000)
        primal = np.asarray(bregman_div(g, x, y))
        dual = np.asarray(dual_transport(g, x, y))
        npt.assert_allclose(dual, primal, rtol=1e-9, atol=1e-12)

    def test_dual_divergence_frozen_value(self):
        # For the squared euclidean case the conjugate divergence is again
        # half the squared distance.
        g = squared_euclidean(1)
        npt.assert_allclose(dual_divergence(g, 2.0, 1.0), 0.5)


class TestBregmanMean:
    def test_arithmetic_geometric_harmonic(self):
        pts = np.array([1.0, 2.0, 4.0])
        npt.assert_allclose(bregman_mean(squared_euclidean(1), pts), pts.mean())
        npt.assert_allclose(bregman_mean(negative_entropy(1), pts), 2.0)
        npt.assert_allclose(bregman_mean(negative_log(1), np.array([1.0, 3.0])), 1.5)

    def test_weighted_mean(self):
        pts = np.array([1.0, 4.0])
        w = np.array([0.75, 0.25])
        npt.assert_allclose(bregman_mean(negative_entropy(1), pts, w), 4.0 ** 0.25)

    @pytest.mark.parametrize("g", GENERATORS, ids=lambda g: g.id)
    def test_minimizes_left_functional(self, g):
        rng = np.random.default_rng(41)
        pts, _ = random_pair(g, rng, 20)
        center = np.asarray(bregman_mean(g, pts))
        at_center = float(np.mean(bregman_div(g, center, pts)))
        for _ in range(20):
            probe = center + rng.normal(0.0, 0.05, center.shape)
            if not g.domain.contains(probe):
                continue
            assert float(np.mean(bregman_div(g, probe, pts))) >= at_center

    def test_plain_mean_minimizes_right_functional(self):
        g = negative_log(1)
        rng = np.random.default_rng(43)
        pts = rng.uniform(0.5, 3.0, 25)
        center = pts.mean()
        at_center = float(np.mean(bregman_div(g, pts, center)))
        for probe in center + np.linspace(-0.3, 0.3, 13):
            assert float(np.mean(bregman_div(g, pts, probe))) >= at_center


class TestDecompositions:
    def test_left_frozen_example(self):
        rep = decompose_left(squared_euclidean(1), 0.0, np.array([-1.0, 1.0]))
        npt.assert_allclose(rep.total, 0.5)
        npt.assert_allclose(rep.bias_term, 0.0, atol=1e-15)
        npt.assert_allclose(rep.variance_term, 0.5)
        npt.assert_allclose(rep.center, 0.0, atol=1e-15)
        assert rep.orientation == "left"

    def test_right_frozen_example(self):
        rep = decompose_right(squared_euclidean(1), 0.0, np.array([-1.0, 1.0]))
        npt.assert_allclose(rep.total, 0.5)
        npt.assert_allclose(rep.bias_term, 0.0, atol=1e-15)
        npt.assert_allclose(rep.variance_term, 0.5)
        assert rep.orientation == "right"

    def test_left_center_is_dual_average(self):
        g = negative_log(1)
        pts = np.array([1.0, 3.0])
        rep = decompose_left(g, 2.0, pts)
        npt.assert_allclose(rep.center, 1.5)
        # querying at the center itself zeroes the bias term
        at_center = decompose_left(g, 1.5, pts)
        assert at_center.bias_term == 0.0

    def test_point_mass_is_all_zero(self):
        g = negative_entropy(1)
        pts = np.array([2.0])
        for rep in (decompose_left(g, 2.0, pts), decompose_right(g, 2.0, pts)):
            assert (rep.total, rep.bias_term, rep.variance_term) == (0.0, 0.0, 0.0)

    def test_right_bias_vanishes_at_the_mean(self):
        g = negative_entropy(1)
        pts = np.array([1.0, 2.0, 4.0])
        rep = decompose_right(g, pts.mean(), pts)
        assert rep.bias_term == 0.0

    @pytest.mark.parametrize("g", GENERATORS, ids=lambda g: g.id)
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_identity_holds(self, g, side):
        rng = np.random.default_rng(47)
        pts, ref = random_pair(g, rng, 40)
        w = rng.uniform(0.2, 1.0, 40)
        w /= w.sum()
        fn = decompose_left if side == "left" else decompose_right
        rep = fn(g, ref[0], pts, w)
        assert abs(rep.total - rep.bias_term - rep.variance_term) <= 1e-10 * (1.0 + rep.total)
        assert rep.bias_term >= 0.0 and rep.variance_term >= 0.0

    def test_unweighted_matches_uniform_weights(self):
        g = negative_entropy(1)
        pts = np.array([1.0, 2.0, 4.0])
        a = decompose_left(g, 2.0, pts)
        b = decompose_left(g, 2.0, pts, np.full(3, 1.0 / 3.0))
        npt.assert_allclose(
            (a.total, a.bias_term, a.variance_term), (b.total, b.bias_term, b.variance_term)
        )

    def test_weight_validation(self):
        g = squared_euclidean(1)
        pts = np.array([1.0, 2.0])
        with pytest.raises(ConfigError):
            decompose_left(g, 1.0, pts, np.array([0.5, 0.6]))
        with pytest.raises(ConfigError):
            decompose_left(g, 1.0, pts, np.array([1.5, -0.5]))
        with pytest.raises(ConfigError):
            decompose_left(g, 1.0, pts, np.array([1.0]))

    def test_points_shape_validation(self):
        with pytest.raises(ConfigError):
            bregman_mean(squared_euclidean(2), np.ones((3, 4)))
        with pytest.raises(ConfigError):
            bregman_mean(squared_euclidean(1), np.ones((3, 1)))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_empty_points_rejected(self, d):
        g = squared_euclidean(d)
        x = 0.0 if d == 1 else np.zeros(d)
        pts = np.empty(0) if d == 1 else np.empty((0, d))
        for call in (
            lambda: bregman_mean(g, pts),
            lambda: decompose_left(g, x, pts),
            lambda: decompose_right(g, x, pts),
        ):
            with pytest.raises(ConfigError, match="points must"):
                call()

    @pytest.mark.parametrize(
        "d, x, m",
        [
            (1, [1.0, 1.0], 2), (1, [1.0, 1.0], 3), (1, [1.0], 2),
            (2, 1.0, 3), (2, [1.0, 2.0, 3.0], 3), (2, [[1.0, 2.0]], 2),
        ],
    )
    def test_parameter_shape_must_fit_the_generator(self, d, x, m):
        g = squared_euclidean(d)
        pts = np.arange(1.0, m + 1.0) if d == 1 else np.ones((m, d))
        for fn in (decompose_left, decompose_right):
            with pytest.raises(ConfigError, match=r"parameter must have shape"):
                fn(g, x, pts)


class TestBregmanInfo:
    """The one bias/variance split, plainly averaged or under a probability vector."""

    RNG = np.random.default_rng(11)
    CASES = [
        (squared_euclidean(1), RNG.uniform(0.5, 4.0, 12)),
        (negative_log(1), RNG.uniform(0.5, 4.0, 12)),
        (negative_entropy(1), RNG.uniform(0.5, 4.0, 12)),
        (negative_entropy(1).without_closed_forms(), RNG.uniform(0.5, 4.0, 12)),
        (mahalanobis(A2), RNG.uniform(0.5, 4.0, (12, 2))),
        (negative_log(2), RNG.uniform(0.5, 4.0, (12, 2))),
    ]

    @pytest.mark.parametrize("case", range(len(CASES)))
    @pytest.mark.parametrize("orientation", ["left", "right"])
    def test_uniform_weights_match_unweighted(self, case, orientation):
        g, pts = self.CASES[case]
        est = _Points(g, pts)
        plain = BregmanInfo.of(g, orientation, est)
        weighted = BregmanInfo.of(g, orientation, est, np.full(len(pts), 1.0 / len(pts)))
        assert plain.k == len(pts) and weighted.k == 1.0
        npt.assert_allclose(weighted.mean, plain.mean, rtol=1e-15, atol=0)
        npt.assert_allclose(weighted.center, plain.center, rtol=1e-15, atol=0)
        npt.assert_allclose(weighted.v, plain.v / plain.k, rtol=1e-15, atol=0)
