"""The numeric defects of ROADMAP item 1, each stated as the behaviour it should have.

The two bregman_div tests and the merged Bregman information test fail
today (item 1(a)) and are marked as strict xfails, with raises=NumericError
where the defect is a refusal.  A strict xfail that starts to pass fails the
suite, so the change that fixes a defect must also remove its mark.  The numeric inverse gradient tests (item 1(b))
pass, and stay as regression tests.
"""

import math

import mpmath
import numpy as np
import pytest

from breglab import NumericError, bregman_div, negative_entropy, negative_log, squared_euclidean
from breglab.divergence import BregmanInfo, _Points
from breglab.prng import pairwise_sum

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


def _negentropy_information(values, orientation):
    """Bregman information of the values at 50 digits, for phi(x) = x log x - x."""
    with mpmath.workdps(50):
        xs = [mpmath.mpf(v) for v in values]
        div = lambda a, b: a * mpmath.log(a / b) - a + b  # noqa: E731
        if orientation == "left":
            c = mpmath.exp(mpmath.fsum(mpmath.log(v) for v in xs) / len(xs))
            return float(mpmath.fsum(div(c, v) for v in xs))
        c = mpmath.fsum(xs) / len(xs)
        return float(mpmath.fsum(div(v, c) for v in xs))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=DEFECT)
@pytest.mark.parametrize("orientation", ["left", "right"])
def test_negentropy_information_merges_relatively_exactly(orientation):
    # the falsifying example of the risk lab's merged-against-one-shot property
    # test: the generic formula cancels terms near 70 down to a sum near 0.03
    g = negative_entropy(1)
    x = np.array([67.0, 70.0])
    parts = [BregmanInfo.of(g, orientation, _Points(g, x[i : i + 1])) for i in range(2)]
    merged = pairwise_sum(parts)
    one_shot = BregmanInfo.of(g, orientation, _Points(g, x))
    want = _negentropy_information(x, orientation)
    assert_relatively_exact(one_shot.v, want)
    assert_relatively_exact(merged.v, want)
    assert_relatively_exact(merged.v, one_shot.v)


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
