"""Generator contracts: domains, closed forms, duality, numeric inversion."""

import math

import mpmath
import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from breglab import (
    ConfigError,
    DomainError,
    DomainSpec,
    NumericError,
    RangeError,
    UnsupportedError,
    mahalanobis,
    negative_entropy,
    negative_log,
    resolve_generator,
    squared_euclidean,
)

A2 = np.array([[2.0, 0.5], [0.5, 1.0]])
EPS = np.finfo(float).eps


def spd(entries, d, ridge):
    """A symmetric positive definite d x d matrix from d*d of entries and a ridge."""
    b = np.array(entries[: d * d]).reshape(d, d)
    return b @ b.T + ridge * np.eye(d)


def interior_points(g, rng, count, dim):
    if g.domain.kind == "positive":
        return rng.uniform(0.1, 10.0, (count, dim))
    return rng.normal(0.0, 2.0, (count, dim))


def dual_points(g, rng, count, dim):
    if g.id == "neglog":
        return -rng.uniform(0.1, 10.0, (count, dim))
    if g.id == "negentropy":
        return rng.uniform(-2.0, 2.3, (count, dim))
    return rng.normal(0.0, 2.0, (count, dim))


def all_generators(dim=2):
    return [
        squared_euclidean(dim),
        mahalanobis(A2) if dim == 2 else mahalanobis(1.5 * np.eye(dim)),
        negative_entropy(dim),
        negative_log(dim),
    ]


class TestDomainSpec:
    def test_kinds(self):
        assert DomainSpec(1).contains(-5.0)
        assert DomainSpec(1, "positive").contains(1e-12)
        assert not DomainSpec(1, "positive").contains(0.0)
        spec = DomainSpec(1, "interval", -1.0, 1.0)
        assert spec.contains(0.0) and not spec.contains(1.0)

    def test_nonfinite_rejected(self):
        assert not DomainSpec(1).contains(np.inf)
        assert not DomainSpec(1).contains(np.nan)

    def test_bad_specs(self):
        with pytest.raises(ConfigError):
            DomainSpec(0)
        with pytest.raises(ConfigError):
            DomainSpec(1, "interval", 2.0, 1.0)
        with pytest.raises(ConfigError):
            DomainSpec(1, "half-open")

    def test_check_names_offender(self):
        with pytest.raises(DomainError, match=r"x\[1\] = -3.0"):
            DomainSpec(3, "positive").check(np.array([1.0, -3.0, 2.0]), "x")


class TestFrozenValues:
    def test_values(self):
        npt.assert_allclose(negative_log(3).value(np.ones(3)), 0.0, atol=1e-15)
        npt.assert_allclose(squared_euclidean(2).value(np.array([3.0, 4.0])), 12.5)
        npt.assert_allclose(negative_entropy(1).value(1.0), -1.0)

    def test_gradients(self):
        npt.assert_allclose(negative_log(1).gradient(0.5), -2.0)
        npt.assert_allclose(negative_entropy(1).gradient(np.e), 1.0)

    def test_inversions(self):
        npt.assert_allclose(negative_log(1).invert_gradient(-2.0), 0.5)
        npt.assert_allclose(negative_entropy(1).invert_gradient(0.0), 1.0)

    def test_conjugates(self):
        npt.assert_allclose(squared_euclidean(2).conjugate(np.array([3.0, 4.0])), 12.5)
        npt.assert_allclose(negative_entropy(1).conjugate(0.0), 1.0)
        npt.assert_allclose(negative_log(1).conjugate(-1.0), -1.0)

    def test_mahalanobis_matches_quadratic_form(self):
        g = mahalanobis(A2)
        x = np.array([1.0, -2.0])
        npt.assert_allclose(g.value(x), 0.5 * x @ A2 @ x)
        npt.assert_allclose(g.gradient(x), A2 @ x)
        y = np.array([0.3, 0.7])
        npt.assert_allclose(g.invert_gradient(y), np.linalg.solve(A2, y))
        npt.assert_allclose(g.conjugate(y), 0.5 * y @ np.linalg.solve(A2, y))


class TestDomainErrors:
    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_boundary_rejected_not_clipped(self, bad):
        g = negative_log(1)
        with pytest.raises(DomainError):
            g.value(bad)
        with pytest.raises(DomainError):
            g.gradient(bad)

    def test_shape_mismatch(self):
        with pytest.raises(DomainError):
            squared_euclidean(3).value(np.array([1.0, 2.0]))

    def test_dual_range_enforced(self):
        g = negative_log(1)
        with pytest.raises(RangeError):
            g.invert_gradient(1.0)
        with pytest.raises(RangeError):
            g.invert_gradient(0.0)
        with pytest.raises(RangeError):
            g.conjugate(0.5)

    def test_inverse_overflow_is_numeric_error(self):
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            negative_entropy(1).invert_gradient(1e4)


class TestCalculus:
    @pytest.mark.parametrize("g", all_generators(), ids=lambda g: g.id)
    def test_gradient_matches_central_differences(self, g):
        rng = np.random.default_rng(42)
        pts = interior_points(g, rng, 50, g.dimension)
        grads = np.asarray(g.gradient(pts))
        for i in range(g.dimension):
            h = 1e-6 * (1.0 + np.abs(pts[:, i]))
            hi = pts.copy()
            lo = pts.copy()
            hi[:, i] += h
            lo[:, i] -= h
            fd = (np.asarray(g.value(hi)) - np.asarray(g.value(lo))) / (2.0 * h)
            npt.assert_allclose(grads[:, i], fd, rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("g", all_generators(), ids=lambda g: g.id)
    def test_inverse_gradient_round_trip(self, g):
        rng = np.random.default_rng(7)
        pts = interior_points(g, rng, 1000, g.dimension)
        back = np.asarray(g.invert_gradient(np.asarray(g.gradient(pts))))
        npt.assert_allclose(back, pts, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("g", all_generators(), ids=lambda g: g.id)
    def test_dual_round_trip(self, g):
        rng = np.random.default_rng(11)
        y = dual_points(g, rng, 1000, g.dimension)
        back = np.asarray(g.gradient(g.invert_gradient(y)))
        assert np.all(np.abs(back - y) <= 1e-9 * (1.0 + np.linalg.norm(y, axis=-1, keepdims=True)))

    @pytest.mark.parametrize("g", all_generators(), ids=lambda g: g.id)
    def test_young_fenchel_equality(self, g):
        rng = np.random.default_rng(13)
        x = interior_points(g, rng, 500, g.dimension)
        y = np.asarray(g.gradient(x))
        gap = np.asarray(g.value(x)) + np.asarray(g.conjugate(y)) - np.sum(x * y, axis=-1)
        assert np.max(np.abs(gap)) <= 1e-9

    @pytest.mark.parametrize("g", all_generators(), ids=lambda g: g.id)
    def test_strict_midpoint_convexity(self, g):
        rng = np.random.default_rng(17)
        x = interior_points(g, rng, 200, g.dimension)
        y = interior_points(g, rng, 200, g.dimension)
        mid = np.asarray(g.value(0.5 * (x + y)))
        avg = 0.5 * (np.asarray(g.value(x)) + np.asarray(g.value(y)))
        assert np.all(mid < avg)


class TestNumericInversion:
    @pytest.mark.parametrize(
        "factory", [squared_euclidean, negative_entropy, negative_log], ids=lambda f: f.__name__
    )
    def test_matches_closed_form(self, factory):
        g = factory(2)
        gn = g.without_closed_forms()
        rng = np.random.default_rng(19)
        y = dual_points(g, rng, 1000, 2)
        x_closed = np.asarray(g.invert_gradient(y))
        x_num = np.asarray(gn.invert_gradient(y))
        npt.assert_allclose(x_num, x_closed, rtol=1e-9, atol=1e-12)
        back = np.asarray(g.gradient(x_num))
        assert np.all(np.abs(back - y) <= 1e-9 * (1.0 + np.abs(y)))

    @pytest.mark.parametrize(
        "factory", [squared_euclidean, negative_entropy, negative_log], ids=lambda f: f.__name__
    )
    def test_generic_conjugate_matches_closed_form(self, factory):
        g = factory(2)
        gn = g.without_closed_forms()
        rng = np.random.default_rng(23)
        y = dual_points(g, rng, 500, 2)
        npt.assert_allclose(
            np.asarray(gn.conjugate(y)), np.asarray(g.conjugate(y)), rtol=1e-10, atol=1e-12
        )

    def test_mahalanobis_has_no_numeric_path(self):
        with pytest.raises(UnsupportedError):
            mahalanobis(A2).without_closed_forms()


# (factory, 50-digit reference inverse, condition number of the inverse at y)
# per generator with a numeric inverse.  The condition number
# |y / (x phi''(x))| is 1 for sqeuclid and neglog and |y| = |log x| for
# negentropy.
BISECTED = {
    "sqeuclid": (squared_euclidean, mpmath.mpf, lambda y: 1.0),
    "negentropy": (negative_entropy, mpmath.exp, abs),
    "neglog": (negative_log, lambda y: -1 / mpmath.mpf(y), lambda y: 1.0),
}
# |x| from 1e-300 to 1e300: hypothesis's own float choices, and magnitudes
# spread evenly over the decades
MAGNITUDES = st.one_of(
    st.floats(1e-300, 1e300), st.floats(-300.0, 300.0).map(lambda e: 10.0**e)
)


def dual_point(name, magnitude, negative):
    """grad phi(x) for |x| = magnitude, with x negative only where the domain allows it."""
    x = -magnitude if negative and name == "sqeuclid" else magnitude
    return float(BISECTED[name][0](1).gradient(x))


class TestBisectionInverse:
    """The numeric inverse: the least float whose gradient reaches y, over the whole float range."""

    @given(name=st.sampled_from(sorted(BISECTED)), magnitude=MAGNITUDES, negative=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_result_is_the_least_float_reaching_y(self, name, magnitude, negative):
        y = dual_point(name, magnitude, negative)
        g = BISECTED[name][0](1).without_closed_forms()
        x = float(g.invert_gradient(y))
        assert float(g.gradient(np.nextafter(x, -np.inf))) < y <= float(g.gradient(x))

    @given(name=st.sampled_from(sorted(BISECTED)), magnitude=MAGNITUDES, negative=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_relative_error_within_the_conditioning(self, name, magnitude, negative):
        # Bisection stops within an ulp of x of where the computed gradient
        # crosses y, and a gradient off by an ulp of y moves that crossing by
        # kappa eps relatively; 2 eps (1 + kappa) covers both with room for a
        # libm log that is not correctly rounded.  No absolute floor.
        factory, reference, kappa = BISECTED[name]
        y = dual_point(name, magnitude, negative)
        x = float(factory(1).without_closed_forms().invert_gradient(y))
        with mpmath.workdps(50):
            want = reference(y)
            rel = float(abs((mpmath.mpf(x) - want) / want))
        assert rel <= 2.0 * EPS * (1.0 + kappa(y)), (y, x, rel)

    @pytest.mark.parametrize(
        "name, y", [("negentropy", 710.0), ("negentropy", -800.0), ("neglog", -1e-320)]
    )
    def test_root_beyond_the_float_range_raises(self, name, y):
        g = BISECTED[name][0](1).without_closed_forms()
        with pytest.raises(NumericError, match="float in open interval"):
            g.invert_gradient(y)

    def test_sqeuclid_inverse_of_zero_is_positive_zero(self):
        closed = squared_euclidean(1)
        x = float(closed.without_closed_forms().invert_gradient(0.0))
        want = float(closed.invert_gradient(0.0))
        assert (x, math.copysign(1.0, x)) == (want, math.copysign(1.0, want)) == (0.0, 1.0)


class TestMatrixValidation:
    def test_asymmetric_rejected(self):
        with pytest.raises(ConfigError):
            mahalanobis([[1.0, 0.2], [0.3, 1.0]])

    def test_indefinite_rejected(self):
        with pytest.raises(ConfigError):
            mahalanobis([[1.0, 2.0], [2.0, 1.0]])

    def test_nonsquare_rejected(self):
        with pytest.raises(ConfigError):
            mahalanobis([[1.0, 0.0]])

    def test_asymmetry_is_relative_to_the_largest_entry(self):
        # every entry is below 1e-12, yet the off-diagonal pair differs by 50
        # times the largest diagonal entry
        with pytest.raises(ConfigError, match="not symmetric"):
            mahalanobis([[1e-20, 5e-13], [0.0, 1e-20]])

    @pytest.mark.parametrize("k", [-400, 0, 400])
    def test_power_of_two_scalings_accepted_bit_for_bit(self, k):
        a = A2 * 2.0**k
        g = mahalanobis(a)
        assert np.array_equal(g.matrix, a)
        # scaling A by an even power of two scales its factor exactly
        x = np.array([1.0, -2.0])
        ref = mahalanobis(A2)
        assert np.array_equal(g.gradient(x), ref.gradient(x) * 2.0**k)
        assert np.array_equal(g.invert_gradient(g.gradient(x)), ref.invert_gradient(ref.gradient(x)))

    def test_near_symmetric_matrix_is_stored_mirrored(self):
        g = mahalanobis([[2.0, 0.5 + 1e-13], [0.5, 1.0]])
        assert np.array_equal(g.matrix, A2)

    @settings(max_examples=60, deadline=None)
    @given(
        entries=st.lists(st.floats(-1.0, 1.0), min_size=25, max_size=25),
        d=st.integers(1, 5),
        ridge=st.floats(1e-3, 1.0),
        k=st.sampled_from([-400, 0, 400]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_gradient_round_trip_within_condition_number(self, entries, d, ridge, k, seed):
        g = mahalanobis(spd(entries, d, ridge) * 2.0**k)
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(50, d)) * np.exp(rng.uniform(-20.0, 20.0, (50, 1)))
        back = np.reshape(g.invert_gradient(g.gradient(x[..., 0] if d == 1 else x)), x.shape)
        err = np.linalg.norm(back - x, axis=-1) / np.linalg.norm(x, axis=-1)
        assert np.all(err <= 4.0 * EPS * np.linalg.cond(g.matrix))


class TestScipyReference:
    """The numpy factor and substitution against scipy's cho_factor and cho_solve."""

    @staticmethod
    def reference(a, y):
        return scipy.linalg.cho_solve(scipy.linalg.cho_factor(a, lower=True), y.T).T

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_diagonal_matrices_bit_for_bit(self, d):
        rng = np.random.default_rng(d)
        for _ in range(20):
            a = np.diag(np.exp(rng.uniform(-20.0, 20.0, d)))
            y = rng.normal(size=(500, d)) * np.exp(rng.uniform(-20.0, 20.0, (500, d)))
            got = mahalanobis(a).invert_gradient(y[:, 0] if d == 1 else y)
            assert np.array_equal(np.reshape(got, y.shape), self.reference(a, y))

    @settings(max_examples=80, deadline=None)
    @given(
        entries=st.lists(st.floats(-1.0, 1.0), min_size=25, max_size=25),
        d=st.integers(2, 5),
        ridge=st.floats(1e-3, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_dense_matrices_within_condition_number(self, entries, d, ridge, seed):
        g = mahalanobis(spd(entries, d, ridge))
        rng = np.random.default_rng(seed)
        y = rng.normal(size=(200, d)) * np.exp(rng.uniform(-20.0, 20.0, (200, 1)))
        ref = self.reference(g.matrix, y)
        err = np.linalg.norm(g.invert_gradient(y) - ref, axis=-1) / np.linalg.norm(ref, axis=-1)
        assert np.all(err <= 4.0 * EPS * np.linalg.cond(g.matrix))

    @pytest.mark.parametrize("a", [[[-1.0]], [[0.0]], [[1.0, 1.0], [1.0, 1.0]],
                                   [[1.0, 2.0], [2.0, 1.0]], np.diag([1.0, -1e-300])],
                             ids=["negative", "zero", "singular", "indefinite", "tiny-negative"])
    def test_not_positive_definite_raises(self, a):
        with pytest.raises(ConfigError, match="not positive definite"):
            mahalanobis(a)


class TestRegistry:
    @pytest.mark.parametrize("name", ["sqeuclid", "negentropy", "neglog"])
    def test_builtin_strings(self, name):
        g = resolve_generator(name, dim=3)
        assert g.id == name and g.dimension == 3

    def test_unknown_string(self):
        with pytest.raises(ConfigError):
            resolve_generator("entropy")

    def test_mahalanobis_file(self, tmp_path):
        path = tmp_path / "a.mat"
        path.write_text("2\n2.0 0.5\n0.5 1.0\n")
        g = resolve_generator(f"mahalanobis:{path}")
        assert g.id == "mahalanobis" and g.dimension == 2
        npt.assert_allclose(g.matrix, A2)

    def test_mahalanobis_bad_file(self, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_text("2\n1.0 0.0\n")
        with pytest.raises(ConfigError):
            resolve_generator(f"mahalanobis:{path}")
        with pytest.raises(ConfigError):
            resolve_generator("mahalanobis:/no/such/file")


class TestElementwiseMode:
    def test_dimension_one_is_elementwise(self):
        g = negative_log(1)
        x = np.array([1.0, 2.0, 4.0])
        npt.assert_allclose(g.value(x), -np.log(x))
        npt.assert_allclose(g.gradient(x), -1.0 / x)
        npt.assert_allclose(g.invert_gradient(-1.0 / x), x)

    def test_scalar_maha_elementwise(self):
        g = mahalanobis([[2.0]])
        x = np.array([1.0, 3.0])
        npt.assert_allclose(g.value(x), np.array([1.0, 9.0]))
        npt.assert_allclose(g.gradient(x), 2.0 * x)
