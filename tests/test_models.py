"""Sampling models: reproducible draws, supports, statistics, classical estimators."""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from scipy.special import ndtri

from breglab import (
    CHUNK_ROWS,
    ConfigError,
    DomainError,
    ExponentialModel,
    LogNormalModel,
    NormalModel,
    resolve_model,
)
from breglab import models
from breglab.prng import derive_key, open_uniforms, philox

MODELS = [ExponentialModel(), NormalModel(), LogNormalModel()]

# each family's transform written as a fresh-array formula, the reference for
# the in-place transforms
REFERENCE_TRANSFORMS = {
    "exp": lambda m, u, theta: -theta * np.log1p(-u),
    "normal": lambda m, u, theta: theta + m._sigma * ndtri(u),
    "lognormal": lambda m, u, theta: theta * np.exp(m._sigma * ndtri(u)),
}


class CopyingExponential(ExponentialModel):
    """An exponential model whose transform returns a new array."""

    def _transform(self, u, theta):
        return -theta * np.log1p(-u)


class TestDraws:
    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.family)
    def test_same_seed_same_draw(self, model):
        theta = 2.0 if model.family != "normal" else 0.3
        a = model.draw(theta, 4, 500, seed=11)
        b = model.draw(theta, 4, 500, seed=11)
        npt.assert_array_equal(a, b)
        c = model.draw(theta, 4, 500, seed=12)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("workers", [2, 8])
    def test_worker_count_never_changes_draws(self, workers):
        model = ExponentialModel()
        base = model.draw(2.0, 5, 200_000, seed=3, workers=1)
        npt.assert_array_equal(model.draw(2.0, 5, 200_000, seed=3, workers=workers), base)

    def test_replicate_prefix_is_stable(self):
        # growing the replicate count must not disturb earlier rows, including
        # across the chunk boundary
        model = ExponentialModel()
        big = model.draw(1.5, 3, CHUNK_ROWS + 10, seed=9)
        small = model.draw(1.5, 3, CHUNK_ROWS, seed=9)
        npt.assert_array_equal(big[:CHUNK_ROWS], small)
        npt.assert_array_equal(model.draw(1.5, 3, 1, seed=9)[0], big[0])

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.family)
    def test_draws_land_in_support(self, model):
        theta = 2.0 if model.family != "normal" else 0.0
        x = model.draw(theta, 6, 5000, seed=21)
        assert np.all(np.isfinite(x))
        assert model.support.contains(x)

    def test_argument_validation(self):
        model = ExponentialModel()
        with pytest.raises(DomainError):
            model.draw(-1.0, 3, 100, seed=0)
        with pytest.raises(ConfigError):
            model.draw(2.0, 0, 100, seed=0)
        with pytest.raises(ConfigError):
            model.draw(2.0, 3, 0, seed=0)
        with pytest.raises(DomainError):
            LogNormalModel().draw(0.0, 3, 100, seed=0)

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ConfigError):
            ExponentialModel().draw(2.0, 3, 100, seed=0, workers=workers)


class TestInPlaceDraws:
    ROWS = CHUNK_ROWS + 17  # one full chunk and a short last one

    @pytest.mark.parametrize("model", [*MODELS, NormalModel(2.5)], ids=lambda m: m.id)
    def test_chunks_equal_reference_formula(self, model):
        theta, n, seed = (0.3 if model.family == "normal" else 1.7), 3, 5
        formula = REFERENCE_TRANSFORMS[model.family]
        buf = np.empty((CHUNK_ROWS, n))
        x = model.draw(theta, n, self.ROWS, seed)
        for c, start in enumerate(range(0, self.ROWS, CHUNK_ROWS)):
            rows = min(CHUNK_ROWS, self.ROWS - start)
            u = open_uniforms(philox(derive_key(seed, c)), (rows, n))
            ref = formula(model, u, theta)
            # one block of the whole chunk, drawn into the caller's buffer
            ((lo, hi, got),) = model.draw_blocks(theta, n, seed, c, buf[:rows], rows)
            assert (lo, hi) == (0, rows) and np.shares_memory(got, buf)
            npt.assert_array_equal(got, ref)
            fresh = np.empty((rows, n))
            for _ in model.draw_blocks(theta, n, seed, c, fresh, rows):
                pass
            npt.assert_array_equal(fresh, ref)
            npt.assert_array_equal(x[start : start + rows], ref)

    @pytest.mark.parametrize("workers", [1, 2, 8])
    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.family)
    def test_draw_is_concatenated_chunks(self, model, workers):
        theta, n, seed = 2.0, 2, 8
        rows = 2 * CHUNK_ROWS + 3
        chunks = [
            x
            for c, start in enumerate(range(0, rows, CHUNK_ROWS))
            for _, _, x in model.draw_blocks(
                theta, n, seed, c, np.empty((min(CHUNK_ROWS, rows - start), n)), CHUNK_ROWS
            )
        ]
        npt.assert_array_equal(model.draw(theta, n, rows, seed, workers=workers), np.vstack(chunks))

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.family)
    def test_chunk_into_buffer_allocates_nothing_large(self, model):
        buf = np.empty((CHUNK_ROWS, 5))  # 2.6 MB
        for _ in model.draw_blocks(1.0, 5, 3, 0, buf, CHUNK_ROWS):  # warm up
            pass
        tracemalloc.start()
        try:
            for _ in model.draw_blocks(1.0, 5, 3, 1, buf, CHUNK_ROWS):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_uniforms_come_through_the_module_name(self, monkeypatch):
        # profilers wrap models.open_uniforms; the draw must look it up there
        calls = []

        def counting(*args, **kwargs):
            calls.append(kwargs.get("out") is not None)
            return open_uniforms(*args, **kwargs)

        monkeypatch.setattr(models, "open_uniforms", counting)
        ExponentialModel().draw(1.0, 2, self.ROWS, seed=1)
        assert calls == [True, True]

    # chunk rows -> block edges for 16-row blocks: a block that would leave a
    # one-row tail takes that row, so no one-row block is cut from a longer chunk
    BLOCK_EDGES = {
        1: (0, 1), 2: (0, 2), 15: (0, 15), 16: (0, 16), 17: (0, 17), 18: (0, 16, 18),
        33: (0, 16, 33), 34: (0, 16, 32, 34), 64: (0, 16, 32, 48, 64),
    }

    @pytest.mark.parametrize("rows", sorted(BLOCK_EDGES))
    @pytest.mark.parametrize(
        "model", [*MODELS, CopyingExponential()], ids=lambda m: type(m).__name__
    )
    def test_blocks_fill_the_chunk(self, model, rows):
        theta, n, seed, c = 1.5, 3, 4, 2
        whole = np.empty((rows, n))
        for _ in model.draw_blocks(theta, n, seed, c, whole, rows):
            pass
        out = np.empty((rows, n))
        edges = []
        for lo, hi, x in model.draw_blocks(theta, n, seed, c, out, 16):
            assert x.shape == (hi - lo, n) and np.shares_memory(x, out[lo:hi])
            # the block is transformed before the next one is drawn
            assert x.tobytes() == whole[lo:hi].tobytes()
            edges.append(lo)
        assert (*edges, rows) == self.BLOCK_EDGES[rows]
        assert out.tobytes() == whole.tobytes()

    def test_transform_returning_new_array(self):
        theta, n, seed = 1.5, 4, 12
        base = ExponentialModel().draw(theta, n, self.ROWS, seed)
        model = CopyingExponential()
        for workers in (1, 2):
            npt.assert_array_equal(model.draw(theta, n, self.ROWS, seed, workers=workers), base)
        buf = np.empty((17, n))
        for _ in model.draw_blocks(theta, n, seed, 1, buf, 17):
            pass
        npt.assert_array_equal(buf, base[CHUNK_ROWS:])


class TestDistributions:
    def test_exponential_moments(self):
        theta = 2.0
        x = ExponentialModel().draw(theta, 1, 200_000, seed=7)[:, 0]
        se = x.std(ddof=1) / np.sqrt(x.shape[0])
        assert abs(x.mean() - theta) <= 3.0 * se
        # median of an exponential is theta * log 2
        frac = np.mean(x <= theta * np.log(2.0))
        assert abs(frac - 0.5) <= 3.0 * np.sqrt(0.25 / x.shape[0])

    def test_normal_moments(self):
        m = NormalModel(sigma2=2.25)
        x = m.draw(-1.0, 1, 200_000, seed=7)[:, 0]
        se = x.std(ddof=1) / np.sqrt(x.shape[0])
        assert abs(x.mean() + 1.0) <= 3.0 * se
        var_se = m.sigma2 * np.sqrt(2.0 / x.shape[0])
        assert abs(x.var(ddof=1) - 2.25) <= 3.0 * var_se

    def test_lognormal_median_and_log_moments(self):
        theta = np.e
        m = LogNormalModel(sigma2=0.25)
        x = m.draw(theta, 1, 200_000, seed=7)[:, 0]
        assert abs(np.mean(x <= theta) - 0.5) <= 3.0 * np.sqrt(0.25 / x.shape[0])
        logs = np.log(x)
        se = logs.std(ddof=1) / np.sqrt(x.shape[0])
        assert abs(logs.mean() - 1.0) <= 3.0 * se

    def test_exponential_sum_inverse_moment(self):
        # T = sum of n exponentials has E[1/T] = 1 / ((n - 1) theta) for n >= 2
        theta, n = 2.0, 5
        t = ExponentialModel().draw(theta, n, 200_000, seed=13).sum(axis=1)
        inv = 1.0 / t
        se = inv.std(ddof=1) / np.sqrt(inv.shape[0])
        assert abs(inv.mean() - 1.0 / ((n - 1) * theta)) <= 3.0 * se


class TestSufficientStats:
    def test_exponential_sum(self):
        m = ExponentialModel()
        assert m.sufficient_stat(np.array([1.0, 2.0, 3.0, 4.0, 5.0])) == 15.0
        npt.assert_allclose(m.sufficient_stat(np.ones((4, 2))), np.full(4, 2.0))

    def test_lognormal_sum_of_logs(self):
        m = LogNormalModel()
        npt.assert_allclose(m.sufficient_stat(np.array([np.e, np.e**3])), 4.0)

    def test_permutation_invariance(self):
        m = ExponentialModel()
        x = np.array([0.3, 1.7, 0.9])
        assert m.sufficient_stat(x) == m.sufficient_stat(x[::-1])

    def test_support_violations_raise(self):
        with pytest.raises(DomainError):
            ExponentialModel().sufficient_stat(np.array([1.0, -2.0]))
        with pytest.raises(DomainError):
            LogNormalModel().sufficient_stat(np.array([0.0, 1.0]))


class TestClassicalEstimators:
    def test_exponential_mean(self):
        e = ExponentialModel().classical_umvue
        npt.assert_allclose(e(np.array([1.0, 2.0, 3.0, 4.0, 5.0])), 3.0)

    def test_normal_mean(self):
        e = NormalModel().classical_umvue
        npt.assert_allclose(e(np.array([1.0, 3.0])), 2.0)

    def test_lognormal_bias_correction(self):
        m = LogNormalModel(sigma2=0.5)
        npt.assert_allclose(m.classical_umvue(np.array([np.e])), np.exp(1.0 - 0.25))

    def test_lognormal_classical_is_mean_unbiased(self):
        theta = np.e
        m = LogNormalModel(sigma2=0.25)
        x = m.draw(theta, 10, 100_000, seed=17)
        est = m.classical_umvue(x)
        se = est.std(ddof=1) / np.sqrt(est.shape[0])
        assert abs(est.mean() - theta) <= 3.0 * se


class TestResolveModel:
    def test_builtin_strings(self):
        assert resolve_model("exp").family == "exp"
        assert resolve_model("normal").sigma2 == 1.0
        assert resolve_model("normal:2.5").sigma2 == 2.5
        assert resolve_model("lognormal").sigma2 == 0.25
        assert resolve_model("lognormal:0.5").sigma2 == 0.5

    def test_bad_strings(self):
        for spec in ("exp:1", "normal:abc", "lognormal:-1", "weibull"):
            with pytest.raises(ConfigError):
                resolve_model(spec)

    def test_ids_carry_parameters(self):
        assert resolve_model("normal:2").id == "normal(sigma2=2)"
        assert resolve_model("exp").id == "exp"
