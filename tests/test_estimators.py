"""Estimator algebra: permutation symmetrization, registry formulas, spec strings."""

import itertools

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from breglab import (
    BudgetError,
    ConfigError,
    Estimator,
    ExponentialModel,
    LogNormalModel,
    NormalModel,
    UnsupportedError,
    build_type1_umvue,
    const_estimator,
    first_k_estimator,
    negative_entropy,
    negative_log,
    resolve_estimator,
    squared_euclidean,
    symmetrize,
)
from breglab.estimators import _row_sum

first_obs = Estimator("first", lambda x: x[..., 0])
head2_mean = Estimator("head2", lambda x: np.mean(x[..., :2], axis=-1), requires_min_n=2)


class TestEstimatorCalls:
    def test_accepts_arrays(self):
        x = np.array([3.0, 1.0, 2.0])
        assert first_obs(x) == 3.0
        assert first_obs(list(x)) == 3.0

    def test_batch_evaluation(self):
        x = np.arange(12.0).reshape(4, 3)
        npt.assert_array_equal(first_obs(x), x[:, 0])

    def test_min_n_enforced(self):
        with pytest.raises(ConfigError):
            head2_mean(np.array([1.0]))

    def test_min_n_is_keyword_only(self):
        # a positional fourth argument cannot be taken for the minimum n
        with pytest.raises(TypeError):
            Estimator("x", lambda x: x[..., 0], frozenset())

    def test_scalar_input_rejected(self):
        with pytest.raises(ConfigError, match="must have a sample axis"):
            first_obs(3.0)

    def test_const(self):
        e = const_estimator(2.5)
        assert e.id == "const:2.5"
        npt.assert_array_equal(e(np.ones((4, 3))), np.full(4, 2.5))

    @pytest.mark.parametrize("value, name", [
        (2.5, "const:2.5"), (2.0, "const:2"), (0.0, "const:0"), (-0.0, "const:-0"),
        (1e300, "const:1e+300"), (np.inf, "const:inf"),
        (0.1234567, "const:0.1234567"), (0.1234568, "const:0.1234568"),
        (1.0 / 3.0, "const:0.3333333333333333"), (1234567.0, "const:1234567.0"),
    ])
    def test_const_id_names_the_value_exactly(self, value, name):
        e = const_estimator(value)
        assert e.id == name
        assert float(e.id.partition(":")[2]).hex() == float(value).hex()


class TestSymmetrize:
    def test_neglog_first_observation(self):
        g = negative_log(1)
        rb = symmetrize(g, first_obs)
        # dual values -1 and -1/2 average to -3/4, whose preimage is 4/3
        npt.assert_allclose(rb(np.array([1.0, 2.0])), 4.0 / 3.0)
        assert rb.id == "rb[neglog,perms=all](first)"

    def test_output_is_permutation_invariant(self):
        g = negative_entropy(1)
        rb = symmetrize(g, first_obs)
        x = np.array([0.7, 1.9, 3.2, 0.4])
        vals = [float(rb(np.asarray(p))) for p in itertools.permutations(x)]
        npt.assert_allclose(vals, vals[0], rtol=1e-12)

    def test_idempotent_up_to_float(self):
        g = negative_log(1)
        rb = symmetrize(g, first_obs)
        rb2 = symmetrize(g, rb)
        rng = np.random.default_rng(59)
        x = rng.uniform(0.5, 4.0, (50, 5))
        npt.assert_allclose(rb2(x), rb(x), rtol=1e-12)

    def test_squared_euclidean_degenerates_to_plain_average(self):
        g = squared_euclidean(1)
        rb = symmetrize(g, head2_mean)
        rng = np.random.default_rng(61)
        x = rng.normal(0.0, 1.0, (100, 5))
        npt.assert_allclose(rb(x), np.mean(x, axis=-1), rtol=0, atol=1e-12)

    def test_exact_budget_limit_applies(self):
        rb = symmetrize(negative_log(1), first_obs)
        with pytest.raises(BudgetError):
            rb(np.ones((1, 9)))

    def test_linear_estimator_collapses_to_mean(self):
        rb = symmetrize(squared_euclidean(1), first_obs)
        npt.assert_allclose(rb(np.array([1.0, 2.0, 3.0])), 2.0)

    def test_product_of_first_two(self):
        prod12 = Estimator("prod12", lambda x: x[..., 0] * x[..., 1], requires_min_n=2)
        rb = symmetrize(squared_euclidean(1), prod12)
        npt.assert_allclose(rb(np.array([1.0, 2.0, 3.0])), 22.0 / 6.0)


class TestType1Registry:
    def test_exponential_neglog(self):
        e = build_type1_umvue(ExponentialModel(), negative_log(1))
        npt.assert_allclose(e(np.array([1.0, 2.0, 3.0, 4.0, 5.0])), 3.75)
        assert e.requires_min_n == 2
        with pytest.raises(ConfigError):
            e(np.array([4.0]))

    def test_exponential_ratio_to_classical(self):
        model = ExponentialModel()
        e = build_type1_umvue(model, negative_log(1))
        rng = np.random.default_rng(67)
        x = rng.uniform(0.5, 4.0, (40, 6))
        npt.assert_allclose(e(x), model.classical_umvue(x) * 6.0 / 5.0, rtol=1e-12)

    def test_lognormal_negentropy_is_geometric_mean(self):
        e = build_type1_umvue(LogNormalModel(), negative_entropy(1))
        npt.assert_allclose(e(np.array([np.e, np.e**3])), np.e**2)

    def test_normal_sqeuclid_is_mean(self):
        e = build_type1_umvue(NormalModel(), squared_euclidean(1))
        npt.assert_allclose(e(np.array([1.0, 2.0, 6.0])), 3.0)

    def test_unregistered_pairs_raise(self):
        with pytest.raises(UnsupportedError):
            build_type1_umvue(ExponentialModel(), negative_entropy(1))
        with pytest.raises(UnsupportedError):
            build_type1_umvue(NormalModel(), negative_log(1))


class TestFirstK:
    def test_uses_registry_formula_when_available(self):
        e = first_k_estimator(ExponentialModel(), negative_log(1), 3)
        npt.assert_allclose(e(np.array([1.0, 2.0, 3.0, 4.0, 5.0])), 3.0)
        assert e.id == "first-k:3"
        assert e.requires_min_n == 3

    def test_falls_back_to_head_mean_below_min_n(self):
        e = first_k_estimator(ExponentialModel(), negative_log(1), 1)
        npt.assert_allclose(e(np.array([1.0, 2.0, 3.0])), 1.0)

    def test_no_generator_means_head_mean(self):
        e = first_k_estimator(ExponentialModel(), None, 2)
        npt.assert_allclose(e(np.array([1.0, 3.0, 100.0])), 2.0)

    def test_lognormal_head_geometric_mean(self):
        e = first_k_estimator(LogNormalModel(), negative_entropy(1), 2)
        npt.assert_allclose(e(np.array([np.e, np.e**3, 50.0])), np.e**2)

    def test_bad_k(self):
        with pytest.raises(ConfigError):
            first_k_estimator(ExponentialModel(), None, 0)


class TestResolveEstimator:
    def test_strings(self):
        model = ExponentialModel()
        g = negative_log(1)
        assert resolve_estimator("classical", model, g).id == "classical"
        assert resolve_estimator("type1", model, g).id == "type1"
        assert resolve_estimator("first-k:2", model, g).id == "first-k:2"
        assert resolve_estimator("const:1.5", model, g).id == "const:1.5"

    def test_errors(self):
        model = ExponentialModel()
        with pytest.raises(ConfigError):
            resolve_estimator("type1", model, None)
        for spec in ("first-k:x", "const:x", "median"):
            with pytest.raises(ConfigError):
                resolve_estimator(spec, model, negative_log(1))


# magnitudes 1e-300..1e300 of either sign, and the values that sums treat specially
ROW_VALUES = st.one_of(
    st.builds(lambda m, sign: sign * m, st.floats(1e-300, 1e300), st.sampled_from([1.0, -1.0])),
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]),
)


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


def _columns_left_to_right(x):
    out = x[..., 0] + 0.0
    for j in range(1, x.shape[-1]):
        out += x[..., j]
    return out


class TestRowSum:
    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 7),
        lead=st.sampled_from([(), (1,), (6,), (2, 3)]),
        data=st.data(),
    )
    def test_short_rows_bitwise_equal_numpy(self, n, lead, data):
        size = int(np.prod(lead, dtype=int)) * n
        x = np.array(data.draw(st.lists(ROW_VALUES, min_size=size, max_size=size)))
        x = x.reshape(*lead, n)
        with np.errstate(over="ignore", invalid="ignore"):
            assert _bits(_row_sum(x)) == _bits(np.sum(x, axis=-1))
            assert _bits(_row_sum(x) / n) == _bits(np.mean(x, axis=-1))

    def test_all_negative_zero_rows_sum_to_positive_zero(self):
        # numpy adds the columns onto +0.0, so only the helper's start keeps this equal
        x = np.full((3, 4), -0.0)
        assert _bits(_row_sum(x)) == _bits(np.sum(x, axis=-1)) == _bits(np.zeros(3))

    @pytest.mark.parametrize("n", [8, 9, 12])
    def test_long_rows_fall_back_to_numpy(self, n):
        # 1 + 2^-53 rounds to 1 left to right, but numpy's pairwise tree keeps the tail
        x = np.full((3, n), 2.0**-53)
        x[:, 0] = 1.0
        assert _bits(_row_sum(x)) == _bits(np.sum(x, axis=-1))
        assert _bits(_columns_left_to_right(x)) != _bits(np.sum(x, axis=-1))

    @pytest.mark.parametrize("n", [1, 2, 5, 7, 9])
    def test_builtin_estimators_keep_their_numpy_formulas(self, n):
        sigma2 = 0.7
        cases = [
            (ExponentialModel(), 2.0, negative_log(1)),
            (LogNormalModel(sigma2=sigma2), 1.5, negative_entropy(1)),
            (NormalModel(sigma2=sigma2), -0.4, squared_euclidean(1)),
        ]
        for model, theta, g in cases:
            x = model.draw(theta, n, 5000, seed=n)
            logs = np.log(x) if model.family == "lognormal" else None
            type1 = {
                "exp": lambda: np.sum(x, axis=-1) / (n - 1),
                "lognormal": lambda: np.exp(np.mean(logs, axis=-1)),
                "normal": lambda: np.mean(x, axis=-1),
            }[model.family]
            classical = {
                "exp": lambda: np.mean(x, axis=-1),
                "lognormal": lambda: np.exp(np.mean(logs, axis=-1) - sigma2 / (2.0 * n)),
                "normal": lambda: np.mean(x, axis=-1),
            }[model.family]
            if n >= 2 or model.family != "exp":
                assert _bits(build_type1_umvue(model, g)(x)) == _bits(type1())
            assert _bits(model.classical_umvue(x)) == _bits(classical())
            for k in range(1, n + 1):
                head = first_k_estimator(model, None, k)
                assert _bits(head(x)) == _bits(np.mean(x[..., :k], axis=-1))
