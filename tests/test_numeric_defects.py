"""The numeric defects of ROADMAP item 1, each stated as the behaviour it should have.

The two bregman_div tests fail today (item 1(a)) and are marked as strict
xfails, with raises=NumericError where the defect is a refusal.  A strict
xfail that starts to pass fails the suite, so the change that fixes a defect
must also remove its mark.  The numeric inverse gradient tests (item 1(b))
pass, and stay as regression tests.
"""

import math

import numpy as np
import pytest

from breglab import NumericError, bregman_div, negative_entropy, negative_log, squared_euclidean

DEFECT = "ROADMAP item 1"


def nearly_equal_pairs(rng, x):
    """(x, y) with y = x(1 + 1e-9 z): valid points a relative gap of about 1e-9 apart."""
    return x, x * (1.0 + 1e-9 * rng.standard_normal(x.shape))


def assert_relatively_exact(got, want):
    assert abs(float(got) - want) <= 1e-12 * abs(want), (float(got), want)


@pytest.mark.xfail(strict=True, raises=NumericError, reason=DEFECT)
def test_sqeuclid_accepts_nearly_equal_pairs_at_scale_1e7():
    # the generic formula cancels 1e14-sized terms; 488 of these 1000 pairs are refused
    rng = np.random.default_rng(0)
    x, y = nearly_equal_pairs(rng, 1e7 * rng.uniform(0.5, 1.5, 1000))
    d = bregman_div(squared_euclidean(1), x, y)
    assert np.all(d >= 0.0)
    # x - y is exact here (Sterbenz), so half its square is the divergence to an ulp or two
    np.testing.assert_allclose(d, 0.5 * (x - y) ** 2, rtol=1e-12)


@pytest.mark.xfail(strict=True, raises=NumericError, reason=DEFECT)
def test_negentropy_accepts_nearly_equal_pairs_over_lognormal_scales():
    rng = np.random.default_rng(1)
    x, y = nearly_equal_pairs(rng, rng.lognormal(0.0, 6.0, 1000))
    d = bregman_div(negative_entropy(1), x, y)
    assert np.all(np.isfinite(d)) and np.all(d >= 0.0)


def test_negentropy_newton_inverse_is_relatively_exact_near_zero():
    # an absolute stopping rule stops far from a root this close to x = 0
    g = negative_entropy(1).without_closed_forms()
    assert_relatively_exact(g.invert_gradient(-100.0), math.exp(-100.0))


@pytest.mark.parametrize("y", [-200.0, -700.0, 700.0])
def test_negentropy_newton_inverse_reaches_the_float_range(y):
    # roots this far out need a bracket that reaches the whole float range
    g = negative_entropy(1).without_closed_forms()
    assert_relatively_exact(g.invert_gradient(y), math.exp(y))


def test_neglog_newton_inverse_is_relatively_exact_near_zero_gradient():
    # an absolute stopping rule stops far from a root where y is this close to 0
    g = negative_log(1).without_closed_forms()
    assert_relatively_exact(g.invert_gradient(-1e-8), 1e8)


@pytest.mark.parametrize("y", [-1e-300, -1e300])
def test_neglog_newton_inverse_reaches_the_float_range(y):
    g = negative_log(1).without_closed_forms()
    assert_relatively_exact(g.invert_gradient(y), -1.0 / y)
