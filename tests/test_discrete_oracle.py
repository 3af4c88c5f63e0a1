"""Exact enumeration oracle: expectations, decomposition closure, risk ordering."""

import math
import re

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from breglab import (
    BudgetError,
    ConfigError,
    DiscreteModel,
    DomainError,
    Estimator,
    bregman_div,
    decompose_left,
    decompose_right,
    dual_transport,
    exact_rao_blackwell,
    mahalanobis,
    negative_entropy,
    negative_log,
    resolve_estimator,
    squared_euclidean,
    symmetrize,
    verify_decompositions,
    verify_decompositions_grid,
    verify_rb_inequality,
)
from breglab import discrete_oracle
from breglab.discrete_oracle import _expect, _law, _multiset_classes
from breglab.generators import SeparableGenerator

FIRST = Estimator("first", lambda x: x[..., 0])
HEAD2 = Estimator("head2", lambda x: np.mean(x[..., :2], axis=-1))
# the oracle command resolves estimator specs on its DiscreteModel
SPEC_MODEL = DiscreteModel((1.0, 2.0, 3.0), 3)
MEAN = resolve_estimator("mean", SPEC_MODEL)

ORACLE_GENERATORS = [
    squared_euclidean(1),
    mahalanobis([[1.5]]),
    negative_entropy(1),
    negative_log(1),
]


def counting(e: Estimator):
    """e with an fn that records the shape of every input it is called on."""
    calls = []

    def fn(x):
        calls.append(np.shape(x))
        return e.fn(x)

    return Estimator(e.id, fn, requires_min_n=e.requires_min_n), calls


def outcome_index(m: int, n: int) -> np.ndarray:
    """(m^n, n) support indices in outcome order, built with np.meshgrid."""
    grids = np.meshgrid(*([np.arange(m)] * n), indexing="ij")
    return np.stack(grids, axis=-1).reshape(-1, n)


def outcome_law(values: np.ndarray, w: np.ndarray):
    """Atoms of values and their probabilities summed over outcome weights w.

    Each atom's probability is the pairwise sum of its outcomes' weights in
    stable argsort order, the outcome-indexed reference for _law.
    """
    order = np.argsort(values, kind="stable")
    ranked = values[order]
    starts = np.flatnonzero(np.concatenate(([True], ranked[1:] != ranked[:-1])))
    return ranked[starts], np.add.reduceat(w[order], starts)


def class_law(dm: DiscreteModel, values: np.ndarray):
    """_law of per-outcome values on dm's multiset classes."""
    labels, counts, _ = _multiset_classes(dm.m, dm.n)
    return _law(np.asarray(values, dtype=float), labels, len(counts))


def orderings(dm: DiscreteModel, theta: float) -> np.ndarray:
    """Probability of one ordering of each multiset class of dm at theta."""
    return np.prod(dm.pmf(theta)[_multiset_classes(dm.m, dm.n)[2]], axis=1)


def sorted_row_classes(m: int, n: int):
    """Reference multiset labels and sizes: np.unique of sorted outcome rows.

    The index array holds the outcomes' support indices in int8, so
    (m, n) = (2, 20) stays small.
    """
    index = np.indices((m,) * n, dtype=np.int8).reshape(n, -1).T
    place = m ** np.arange(n - 1, -1, -1, dtype=np.int64)
    _, labels, counts = np.unique(
        np.sort(index, axis=1) @ place, return_inverse=True, return_counts=True
    )
    return index, labels, counts


class CountingGenerator(SeparableGenerator):
    """A builtin separable generator that counts the points of its array evaluations.

    Scalar evaluations (theta, centres) are not counted.
    """

    def __init__(self, g):
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


class TestDiscreteModel:
    def test_construction(self):
        dm = DiscreteModel((3.0, 1.0, 2.0), 2)
        assert dm.support == (1.0, 2.0, 3.0)
        assert dm.m == 3 and dm.outcome_count == 9

    def test_validation(self):
        with pytest.raises(ConfigError):
            DiscreteModel((), 2)
        with pytest.raises(ConfigError):
            DiscreteModel((1.0, 1.0), 2)
        with pytest.raises(ConfigError):
            DiscreteModel((0.0, 1.0), 2)
        with pytest.raises(ConfigError):
            DiscreteModel((1.0, 2.0), 0)
        with pytest.raises(ConfigError):
            DiscreteModel((1.0, 2.0), 2.5)

    def test_bool_n_is_refused(self):
        # bool is an int subclass; True must not pass for n = 1
        for flag in (True, False):
            with pytest.raises(ConfigError, match=rf"^n must be a positive int, got {flag}$"):
                DiscreteModel((1.0, 2.0), flag)

    def test_budget(self):
        with pytest.raises(BudgetError):
            DiscreteModel(tuple(range(1, 11)), 7)  # 10^7 outcomes
        DiscreteModel(tuple(range(1, 11)), 6)  # exactly 10^6 still fits

    def test_pmf(self):
        dm = DiscreteModel((1.0, 2.0, 4.0), 3)
        for theta in (0.5, 1.0, 2.0):
            p = dm.pmf(theta)
            npt.assert_allclose(p.sum(), 1.0, atol=1e-14)
            assert np.all(np.diff(p) < 0.0)  # larger values are rarer
            # explicit normalization, computed from scratch
            w = np.exp(-theta * np.asarray(dm.support))
            npt.assert_allclose(p, w / w.sum(), rtol=1e-12)
        with pytest.raises(DomainError):
            dm.pmf(-1.0)

    def test_enumeration_order(self):
        dm = DiscreteModel((1.0, 2.0), 2)
        npt.assert_array_equal(
            dm.outcome_values, [[1.0, 1.0], [1.0, 2.0], [2.0, 1.0], [2.0, 2.0]]
        )

    def test_outcome_values_match_meshgrid_construction(self):
        for m in range(1, 7):
            for n in range(1, 7):
                support = tuple(float(v) for v in range(1, m + 1))
                vals = DiscreteModel(support, n).outcome_values
                npt.assert_array_equal(vals, np.asarray(support)[outcome_index(m, n)])

    @pytest.mark.parametrize("m,n", [(1, 3), (2, 7), (3, 5), (10, 5), (2, 12)])
    def test_outcome_values_column_major(self, m, n):
        dm = DiscreteModel(tuple(0.5 + 0.7 * i for i in range(m)), n)
        vals = dm.outcome_values
        npt.assert_array_equal(vals, np.asarray(dm.support)[outcome_index(m, n)])
        assert vals.flags.f_contiguous
        if n < 8:
            # row reductions give the same bits as on the row-major array
            rows = np.ascontiguousarray(vals)
            assert np.array_equal(np.mean(vals, axis=-1), np.mean(rows, axis=-1))
            assert np.array_equal(np.mean(vals[..., :2], axis=-1), np.mean(rows[..., :2], axis=-1))

    def test_outcome_weights_sum_to_one(self):
        dm = DiscreteModel((1.0, 2.0, 3.0), 5)
        npt.assert_allclose(dm.outcome_weights(1.3).sum(), 1.0, atol=1e-12)

    @pytest.mark.parametrize(
        "support,n",
        [
            ((1.0, 2.0, 3.0), 5),
            ((0.5, 1.5, 2.5, 4.0), 4),
            (tuple(0.5 * i for i in range(1, 11)), 5),
            ((2.0,), 3),
            ((0.3, 7.0), 1),
        ],
    )
    def test_outcome_weights_match_rowwise_product(self, support, n):
        # the outer-product build must keep the lexicographic, first-coordinate
        # slowest order of outcome_values, which every law gathers weights in
        dm = DiscreteModel(support, n)
        for theta in (0.5, 1.0, 2.0):
            w = dm.outcome_weights(theta)
            rowwise = np.prod(dm.pmf(theta)[outcome_index(dm.m, n)], axis=1)
            npt.assert_array_equal(w, rowwise)
            assert abs(float(w.sum()) - 1.0) <= 1e-14


class TestExactRaoBlackwell:
    def test_neglog_first_observation_values(self):
        dm = DiscreteModel((1.0, 2.0), 2)
        rb = exact_rao_blackwell(dm, negative_log(1), FIRST)
        out = rb.fn(dm.outcome_values)
        npt.assert_allclose(out, [1.0, 4.0 / 3.0, 4.0 / 3.0, 2.0], rtol=1e-12)

    def test_budget(self):
        # only the m^n outcome budget limits the oracle, not n itself
        with pytest.raises(BudgetError):
            exact_rao_blackwell(DiscreteModel((1.0, 2.0), 21), negative_log(1), FIRST)

    @pytest.mark.parametrize("support,n", [((1.0, 2.0), 9), ((1.0, 2.0, 3.0), 10)])
    def test_first_observation_closed_forms_beyond_n8(self, support, n):
        # E[grad phi(X1) | multiset] is the mean of grad phi over the sample:
        # the harmonic mean under neglog (grad = -1/x), the mean under sqeuclid
        dm = DiscreteModel(support, n)
        vals = dm.outcome_values
        neglog = exact_rao_blackwell(dm, negative_log(1), FIRST).fn(vals)
        npt.assert_allclose(neglog, n / np.sum(1.0 / vals, axis=1), rtol=1e-12)
        sqeuclid = exact_rao_blackwell(dm, squared_euclidean(1), FIRST).fn(vals)
        npt.assert_allclose(sqeuclid, np.mean(vals, axis=1), rtol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        support=st.lists(
            st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=4, unique=True
        ),
        n=st.integers(min_value=1, max_value=5),
        g=st.sampled_from(ORACLE_GENERATORS),
        e=st.sampled_from([FIRST, HEAD2, MEAN]),
    )
    def test_matches_permutation_average(self, support, n, g, e):
        dm = DiscreteModel(tuple(support), n)
        vals = dm.outcome_values
        grouped = exact_rao_blackwell(dm, g, e).fn(vals)
        brute = symmetrize(g, e).fn(vals)
        npt.assert_allclose(grouped, brute, rtol=1e-13, atol=0.0)

    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(min_value=1, max_value=6), n=st.integers(min_value=1, max_value=6))
    @example(m=1, n=1)
    @example(m=1, n=6)
    @example(m=2, n=20)
    def test_multiset_labels_match_sorted_rows(self, m, n):
        labels, counts, reps = _multiset_classes(m, n)
        index, ref_labels, ref_counts = sorted_row_classes(m, n)
        npt.assert_array_equal(labels, ref_labels)
        npt.assert_array_equal(counts, ref_counts)
        assert labels.dtype == ref_labels.dtype and counts.dtype == ref_counts.dtype
        if n <= 6:
            npt.assert_array_equal(index, outcome_index(m, n))
        # reps[c] is the sorted index row of class c, which every outcome in it shares
        _, first = np.unique(ref_labels, return_index=True)
        npt.assert_array_equal(reps, np.sort(index[first], axis=1))
        again = _multiset_classes(m, n)
        for arr, cached in zip((labels, counts, reps), again):
            assert cached is arr and not arr.flags.writeable

    def test_sample_outside_support_raises(self):
        dm = DiscreteModel((1.0, 2.0, 3.0), 3)
        rb = exact_rao_blackwell(dm, negative_log(1), FIRST)
        npt.assert_allclose(rb.fn(np.array([3.0, 1.0, 1.0])), 9.0 / 7.0, rtol=1e-14)
        for bad in ([1.0, 2.0, 2.5], [1.0, 2.0, 4.0], [0.5, 1.0, 1.0], [1.0, np.nan, 2.0]):
            with pytest.raises(DomainError):
                rb.fn(np.array([[1.0, 1.0, 1.0], bad]))
        with pytest.raises(ConfigError):
            rb.fn(np.array([1.0, 2.0]))
        with pytest.raises(DomainError, match=r"^sample value 2\.5 is not in the oracle support$"):
            rb.fn(np.array([[1.0, 2.0, 2.5], [1.0, 1.0, 2.5]]))

    def test_invariant_input_is_fixed_point(self):
        dm = DiscreteModel((1.0, 2.0, 3.0), 3)
        rb = exact_rao_blackwell(dm, negative_entropy(1), MEAN)
        npt.assert_allclose(rb.fn(dm.outcome_values), MEAN.fn(dm.outcome_values), rtol=1e-12)


class TestRBInequality:
    @pytest.mark.parametrize("g", ORACLE_GENERATORS, ids=lambda g: g.id)
    def test_noninvariant_estimator_strict_gap(self, g):
        dm = DiscreteModel((1.0, 2.0, 3.0), 4)
        rep = verify_rb_inequality(dm, g, FIRST, (0.5, 1.0, 2.0))
        assert rep.passed
        assert not rep.permutation_invariant
        assert rep.min_gap > 1e-6
        assert rep.max_violation == 0.0
        for row in rep.rows:
            assert row.gap == row.risk_estimator - row.risk_rb

    def test_invariant_estimator_zero_gap(self):
        dm = DiscreteModel((1.0, 2.0, 3.0), 4)
        rep = verify_rb_inequality(dm, negative_log(1), MEAN, (0.5, 1.0, 2.0))
        assert rep.passed and rep.permutation_invariant
        assert abs(rep.min_gap) <= 1e-12

    def test_sqeuclid_gap_is_half_variance_reduction(self):
        # for the squared euclidean loss the risk gap equals half the variance
        # reduction, since permutation averaging preserves the plain mean
        dm = DiscreteModel((1.0, 2.0, 4.0), 3)
        g = squared_euclidean(1)
        theta = 1.2
        rep = verify_rb_inequality(dm, g, FIRST, (theta,))
        rb = exact_rao_blackwell(dm, g, FIRST)
        w, v = dm.outcome_weights(theta), dm.outcome_values
        var = lambda fn: np.sum(w * fn(v) ** 2) - np.sum(w * fn(v)) ** 2
        half_reduction = 0.5 * (var(FIRST.fn) - var(rb.fn))
        npt.assert_allclose(rep.rows[0].gap, half_reduction, atol=1e-12)


class TestComputeOnce:
    """Each check evaluates the estimator once and reuses per-outcome values."""

    THETAS = (0.5, 1.0, 2.0)

    @pytest.mark.parametrize("g", ORACLE_GENERATORS, ids=lambda g: g.id)
    def test_rb_check_calls_estimator_once(self, g):
        dm = DiscreteModel((1.0, 2.0, 3.0), 4)
        e, calls = counting(FIRST)
        verify_rb_inequality(dm, g, e, self.THETAS)
        assert calls == [(81, 4)]

    def test_rb_check_takes_two_expectations_per_theta(self, monkeypatch):
        # the risks of e and of its Rao-Blackwell estimate, each through _expect
        calls = []
        original = discrete_oracle._expect

        def expect(p, values):
            calls.append(len(p))
            return original(p, values)

        monkeypatch.setattr(discrete_oracle, "_expect", expect)
        dm = DiscreteModel((1.0, 2.0, 3.0), 4)
        verify_rb_inequality(dm, negative_log(1), FIRST, self.THETAS)
        assert len(calls) == 2 * len(self.THETAS)

    @pytest.mark.parametrize("g", ORACLE_GENERATORS, ids=lambda g: g.id)
    def test_decomposition_check_calls_estimator_once(self, g):
        dm = DiscreteModel((1.0, 2.0, 3.0), 4)
        e, calls = counting(HEAD2)
        for theta in self.THETAS:
            calls.clear()
            verify_decompositions(dm, g, e, theta)
            assert calls == [(81, 4)]

    @pytest.mark.parametrize("g", ORACLE_GENERATORS, ids=lambda g: g.id)
    def test_decomposition_grid_calls_estimator_once(self, g):
        dm = DiscreteModel((1.0, 2.0, 3.0), 4)
        e, calls = counting(HEAD2)
        checks = verify_decompositions_grid(dm, g, e, self.THETAS)
        assert calls == [(81, 4)]
        assert [c.theta for c in checks] == list(self.THETAS)

    @pytest.mark.parametrize(
        "g", ORACLE_GENERATORS + [negative_log(1).without_closed_forms()], ids=lambda g: g.id
    )
    @pytest.mark.parametrize("e", [FIRST, HEAD2, MEAN], ids=lambda e: e.id)
    def test_grid_checks_equal_one_theta_checks(self, g, e):
        dm = DiscreteModel((0.5, 1.5, 2.5, 4.0), 3)
        grid = verify_decompositions_grid(dm, g, e, self.THETAS)
        # dataclass equality compares every float field exactly
        assert grid == [verify_decompositions(dm, g, e, theta) for theta in self.THETAS]

    @pytest.mark.parametrize(
        "g", ORACLE_GENERATORS + [negative_log(1).without_closed_forms()], ids=lambda g: g.id
    )
    @pytest.mark.parametrize("e", [FIRST, HEAD2, MEAN], ids=lambda e: e.id)
    def test_rb_risk_is_risk_of_returned_estimator(self, g, e):
        # bitwise: the check reads the same class table the estimator returns.
        # Both risks are weighed by q, the probability of one ordering of each
        # multiset class: the risk of e over the law of its values, the risk
        # of the Rao-Blackwell estimate over the classes, read on one
        # representative each and weighted by class size
        dm = DiscreteModel((0.5, 1.5, 2.5, 4.0), 4)
        rep = verify_rb_inequality(dm, g, e, self.THETAS)
        rb = exact_rao_blackwell(dm, g, e)
        assert rep.rb_estimator_id == rb.id
        vals = dm.outcome_values
        _, counts, reps = _multiset_classes(dm.m, dm.n)
        on_reps = rb.fn(np.asarray(dm.support)[reps])
        law = class_law(dm, e.fn(vals))
        for row in rep.rows:
            q = np.prod(dm.pmf(row.theta)[reps], axis=1)
            assert row.risk_rb == _expect(counts * q, bregman_div(g, row.theta, on_reps))
            ref = _expect(law.probabilities(q), bregman_div(g, row.theta, law.atoms))
            assert row.risk_estimator == ref
            # the sums over the outcome weights round otherwise: 2.7e-16
            # relative at worst for e and 3.6e-16 for rb over these 45 rows
            w = dm.outcome_weights(row.theta)
            for risk, fn in ((row.risk_estimator, e.fn), (row.risk_rb, rb.fn)):
                atoms, p = outcome_law(np.asarray(fn(vals), dtype=float), w)
                by_outcome = _expect(p, bregman_div(g, row.theta, atoms))
                assert abs(risk - by_outcome) <= 1e-15 * abs(by_outcome)

    def test_theta_errors_unchanged(self):
        dm = DiscreteModel((1.0, 2.0), 2)
        msg = r"^theta = -1\.0 is outside open interval \(0\.0, inf\)$"
        with pytest.raises(DomainError, match=msg):
            verify_rb_inequality(dm, negative_log(1), FIRST, (1.0, -1.0))
        with pytest.raises(DomainError, match=msg):
            verify_decompositions(dm, negative_log(1), FIRST, -1.0)


def run_all(dm, g, e, thetas):
    """The RB check, one-theta decompositions, the grid and the RB estimator's values on dm."""
    rb = verify_rb_inequality(dm, g, e, thetas)
    one = [verify_decompositions(dm, g, e, t) for t in thetas]
    grid = verify_decompositions_grid(dm, g, e, thetas)
    table = exact_rao_blackwell(dm, g, e).fn(dm.outcome_values)
    return repr(rb), repr(one), repr(grid), table


def fresh_all(support, n, g, e, thetas):
    """run_all with a new model for every call."""
    rb = verify_rb_inequality(DiscreteModel(support, n), g, e, thetas)
    one = [verify_decompositions(DiscreteModel(support, n), g, e, t) for t in thetas]
    grid = verify_decompositions_grid(DiscreteModel(support, n), g, e, thetas)
    dm = DiscreteModel(support, n)
    table = exact_rao_blackwell(dm, g, e).fn(dm.outcome_values)
    return repr(rb), repr(one), repr(grid), table


def assert_same_runs(got, ref):
    assert got[:3] == ref[:3]
    assert np.array_equal(got[3].view(np.int64), ref[3].view(np.int64))


def count_laws(monkeypatch):
    """Record every _law call from the oracle; returns the list of calls."""
    calls = []
    original = discrete_oracle._law

    def counted(values, *classes):
        calls.append(len(values))
        return original(values, *classes)

    monkeypatch.setattr(discrete_oracle, "_law", counted)
    return calls


class TestLawReuse:
    """One model keeps the law of its last estimates; reuse must be exact and never alias."""

    THETAS = (0.5, 1.0, 2.0)
    SUPPORT = (0.5, 1.5, 2.5, 4.0)

    @pytest.mark.parametrize(
        "g", ORACLE_GENERATORS + [negative_entropy(1).without_closed_forms()], ids=lambda g: g.id
    )
    @pytest.mark.parametrize("e", [FIRST, HEAD2, MEAN], ids=lambda e: e.id)
    def test_reused_law_gives_fresh_model_reports(self, g, e):
        got = run_all(DiscreteModel(self.SUPPORT, 4), g, e, self.THETAS)
        assert_same_runs(got, fresh_all(self.SUPPORT, 4, g, e, self.THETAS))

    def test_shared_id_different_fn_builds_new_law(self, monkeypatch):
        laws = count_laws(monkeypatch)
        g = squared_euclidean(1)
        e1 = Estimator("same", lambda x: x[..., 0])
        e2 = Estimator("same", lambda x: x[..., 1])
        dm = DiscreteModel(self.SUPPORT, 3)
        got = [run_all(dm, g, e, self.THETAS) for e in (e1, e2, e1)]
        assert len(laws) == 3
        for run, e in zip(got, (e1, e2, e1)):
            assert_same_runs(run, fresh_all(self.SUPPORT, 3, g, e, self.THETAS))

    def test_signed_zero_constants_do_not_alias(self, monkeypatch):
        # every check's law must carry the sign of its own estimates' zero
        used = []
        original = discrete_oracle._estimate_law

        def spied(*args):
            values, law = original(*args)
            used.append((bool(np.signbit(values[0])), bool(np.signbit(law.atoms[0]))))
            return values, law

        monkeypatch.setattr(discrete_oracle, "_estimate_law", spied)
        g = squared_euclidean(1)
        zero, negzero = (resolve_estimator(s, SPEC_MODEL) for s in ("const:0", "const:-0"))
        assert negzero.id == "const:-0"
        dm = DiscreteModel(self.SUPPORT, 3)
        for e in (zero, negzero, zero, negzero):
            assert_same_runs(
                run_all(dm, g, e, self.THETAS), fresh_all(self.SUPPORT, 3, g, e, self.THETAS)
            )
        signs = [sign for sign, _ in used]
        assert signs.count(True) == signs.count(False) > 0
        assert all(value_sign == atom_sign for value_sign, atom_sign in used)

    def test_stateful_estimator_gets_each_calls_law(self):
        g = negative_log(1)
        calls = []

        def fn(x):
            calls.append(None)
            return x[..., 0] if len(calls) == 1 else np.mean(x, axis=-1)

        dm = DiscreteModel(self.SUPPORT, 3)
        stateful = Estimator("stateful", fn)
        first = verify_decompositions_grid(dm, g, stateful, self.THETAS)
        second = verify_decompositions_grid(dm, g, stateful, self.THETAS)
        assert calls == [None, None]
        for got, ref in ((first, FIRST), (second, MEAN)):
            same = Estimator("stateful", ref.fn)
            fresh = DiscreteModel(self.SUPPORT, 3)
            assert repr(got) == repr(verify_decompositions_grid(fresh, g, same, self.THETAS))
        assert first != second

    def test_estimator_refilling_one_buffer_gets_each_calls_law(self):
        # the model must not keep a reference the estimator can overwrite
        dm = DiscreteModel(self.SUPPORT, 3)
        buf = np.empty(dm.outcome_count)
        fills = iter([FIRST.fn, MEAN.fn, FIRST.fn])

        def fn(x):
            buf[:] = next(fills)(x)
            return buf

        g = negative_entropy(1)
        refilled = Estimator("refilled", fn)
        for ref in (FIRST, MEAN, FIRST):
            got = verify_decompositions_grid(dm, g, refilled, self.THETAS)
            fresh = verify_decompositions_grid(
                DiscreteModel(self.SUPPORT, 3), g, Estimator("refilled", ref.fn), self.THETAS
            )
            assert repr(got) == repr(fresh)

    def test_estimator_writing_into_outcomes_raises(self):
        dm = DiscreteModel(self.SUPPORT, 2)

        def fn(x):
            x[:, 0] = 1.0
            return x[:, 0]

        with pytest.raises(ValueError):
            verify_decompositions(dm, squared_euclidean(1), Estimator("writer", fn), 1.0)
        npt.assert_array_equal(
            dm.outcome_values, np.asarray(self.SUPPORT)[outcome_index(len(self.SUPPORT), 2)]
        )


class TestComputeOnceAcrossCalls:
    THETAS = (0.5, 1.0, 2.0)

    @pytest.mark.parametrize("g", ORACLE_GENERATORS, ids=lambda g: g.id)
    @pytest.mark.parametrize("e", [FIRST, HEAD2, MEAN], ids=lambda e: e.id)
    def test_rb_then_decompositions_sort_and_weigh_once(self, monkeypatch, g, e):
        laws = count_laws(monkeypatch)
        weighed = []
        original = DiscreteModel.outcome_weights

        def outcome_weights(self, theta):
            weighed.append(theta)
            return original(self, theta)

        monkeypatch.setattr(DiscreteModel, "outcome_weights", outcome_weights)
        dm = DiscreteModel((1.0, 2.0, 3.0), 4)
        verify_rb_inequality(dm, g, e, self.THETAS)
        for theta in self.THETAS:
            verify_decompositions(dm, g, e, theta)
        assert laws == [81]
        # every expectation is weighed through the multiset classes
        assert weighed == []

    def test_reused_law_still_checks_domain(self, monkeypatch):
        laws = count_laws(monkeypatch)
        dm = DiscreteModel((1.0, 2.0), 2)
        bad = Estimator("bad", lambda x: 1.5 - x[..., 0])  # [0.5, 0.5, -0.5, -0.5]
        verify_rb_inequality(dm, squared_euclidean(1), bad, (1.0,))
        verify_decompositions(dm, squared_euclidean(1), bad, 1.0)
        assert laws == [4]
        outside = r"\[2\] = -0\.5 is outside open interval \(0\.0, inf\)$"
        with pytest.raises(DomainError, match=r"^estimate" + outside):
            verify_decompositions(dm, negative_log(1), bad, 1.0)
        with pytest.raises(DomainError, match=r"^estimate" + outside):
            verify_decompositions_grid(dm, negative_entropy(1), bad, (0.5, 1.0))
        with pytest.raises(DomainError, match=r"^x" + outside):
            verify_rb_inequality(dm, negative_log(1), bad, (1.0,))
        with pytest.raises(DomainError, match=r"^x" + outside):
            exact_rao_blackwell(dm, negative_entropy(1), bad)
        assert laws == [4]

    def test_outcome_values_shared_per_support_and_read_only(self):
        a, b = DiscreteModel((1.0, 2.0, 3.0), 4), DiscreteModel((3.0, 2.0, 1.0), 4)
        assert a.outcome_values is b.outcome_values
        assert not a.outcome_values.flags.writeable
        assert DiscreteModel((1.0, 2.0, 3.0), 3).outcome_values is not a.outcome_values


EPS = np.finfo(float).eps


def enumerated(w, per_outcome):
    """math.fsum of w * f over the outcomes and the scale sum |w * f| of its bound."""
    terms = w * np.asarray(per_outcome, dtype=float)
    return math.fsum(terms), math.fsum(np.abs(terms))


def assert_enumerated(got, w, per_outcome):
    ref, scale = enumerated(w, per_outcome)
    assert abs(got - ref) <= 8 * EPS * scale, (got, ref, scale)
    return ref, scale


class TestLaw:
    """Sums over the law of an estimate against a full enumeration of its outcomes."""

    @settings(max_examples=80, deadline=None)
    @given(
        support=st.lists(
            st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=6, unique=True
        ),
        n=st.integers(min_value=1, max_value=4),
        theta=st.floats(min_value=0.05, max_value=5.0),
        g=st.sampled_from([squared_euclidean(1), negative_log(1), negative_entropy(1)]),
        e=st.sampled_from([FIRST, HEAD2, MEAN, resolve_estimator("const:1.5", SPEC_MODEL)]),
    )
    def test_checks_match_enumeration(self, support, n, theta, g, e):
        dm = DiscreteModel(tuple(support), n)
        vals = dm.outcome_values
        w = dm.outcome_weights(theta)
        delta = np.asarray(e.fn(vals), dtype=float)
        law = class_law(dm, delta)
        p = law.probabilities(orderings(dm, theta))
        assert np.array_equal(law.atoms, np.unique(delta))
        # the cells are the distinct (atom, class) pairs of the outcomes
        labels, counts, _ = _multiset_classes(dm.m, n)
        keys = np.searchsorted(law.atoms, delta) * len(counts) + labels
        cells, mult = np.unique(keys, return_counts=True)
        assert np.array_equal(law.atom * len(counts) + law.cls, cells)
        assert np.array_equal(law.mult, mult)
        for f in (lambda x: x, g.gradient, g.value, lambda x: bregman_div(g, theta, x)):
            assert_enumerated(_expect(p, f(law.atoms)), w, f(delta))

        (chk,) = verify_decompositions_grid(dm, g, e, [theta])
        assert_enumerated(chk.center_right, w, delta)
        risk_l = assert_enumerated(chk.risk_left, w, bregman_div(g, theta, delta))
        var_l = assert_enumerated(chk.variance_left, w, bregman_div(g, chk.center_left, delta))
        risk_r = assert_enumerated(chk.risk_right, w, bregman_div(g, delta, theta))
        var_r = assert_enumerated(chk.variance_right, w, bregman_div(g, delta, chk.center_right))
        # the biases are the same scalar divergences, so residuals differ from the
        # enumerated ones by at most the risk and variance errors
        for residual, bias, (risk, s1), (var, s2) in (
            (chk.residual_left, chk.bias_left, risk_l, var_l),
            (chk.residual_right, chk.bias_right, risk_r, var_r),
        ):
            assert abs(residual - abs(risk - bias - var)) <= 8 * EPS * (s1 + s2)

        rep = verify_rb_inequality(dm, g, e, [theta])
        rb = exact_rao_blackwell(dm, g, e).fn(vals)
        (row,) = rep.rows
        assert_enumerated(row.risk_estimator, w, bregman_div(g, theta, delta))
        assert_enumerated(row.risk_rb, w, bregman_div(g, theta, rb))

    @pytest.mark.parametrize(
        "values",
        [
            np.repeat([-1.0, -0.0, 0.0, 2.0], 100),  # long ascending runs
            np.tile([0.0, -0.0, 3.0, -1.0, -0.0], 80),  # no runs
            np.array([2.0]),
        ],
        ids=["runs", "no-runs", "one"],
    )
    def test_law_is_stable_argsort_grouping(self, values):
        law = _law(values, np.zeros(len(values), dtype=np.int64), 1)
        order = np.argsort(values, kind="stable")
        ranked = values[order]
        starts = np.flatnonzero(np.concatenate(([True], ranked[1:] != ranked[:-1])))
        assert np.array_equal(law.atoms, ranked[starts])
        # with one class the cells are the atoms, each holding its run of outcomes
        cells = np.arange(len(starts))
        assert np.array_equal(law.atom, cells) and np.array_equal(law.starts, cells)
        assert not np.any(law.cls)
        assert np.array_equal(law.mult, np.diff(starts, append=len(values)))
        # a -0.0 / 0.0 tie keeps the sign of its first outcome
        assert np.array_equal(np.signbit(law.atoms), np.signbit(ranked[starts]))

    @pytest.mark.parametrize("e", [FIRST, MEAN, resolve_estimator("const:2", SPEC_MODEL)],
                             ids=lambda e: e.id)
    def test_probabilities_are_pairwise_sums(self, e):
        # 10^5 outcomes in 2002 classes: an atom's probability is a pairwise
        # sum over its cells, within a few eps of the exact sum of its
        # outcomes' weights
        dm = DiscreteModel(tuple(0.5 * i for i in range(1, 11)), 5)
        w = dm.outcome_weights(0.7)
        delta = np.asarray(e.fn(dm.outcome_values), dtype=float)
        p = class_law(dm, delta).probabilities(orderings(dm, 0.7))
        order = np.argsort(delta, kind="stable")
        ranked = delta[order]
        starts = np.flatnonzero(np.concatenate(([True], ranked[1:] != ranked[:-1])))
        segments = np.split(w[order], starts[1:])
        exact = np.array([math.fsum(seg) for seg in segments])
        assert np.all(np.abs(p - exact) <= 4 * EPS * exact)

    @settings(max_examples=80, deadline=None)
    @given(
        support=st.lists(
            st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=5, unique=True
        ),
        n=st.integers(min_value=1, max_value=6),
        theta=st.floats(min_value=0.01, max_value=10.0),
    )
    def test_class_weights_are_class_probabilities(self, support, n, theta):
        # class size times the probability of one ordering: n roundings of a
        # product, against the exact sum of the class's outcome weights, each
        # n - 1 roundings of the same product in another order
        dm = DiscreteModel(tuple(support), n)
        labels, counts, reps = _multiset_classes(dm.m, n)
        classes = counts * np.prod(dm.pmf(theta)[reps], axis=1)
        assert abs(math.fsum(classes) - 1.0) <= 4 * n * EPS
        w = dm.outcome_weights(theta)
        segments = np.split(w[np.argsort(labels, kind="stable")], np.cumsum(counts)[:-1])
        exact = np.array([math.fsum(seg) for seg in segments])
        # a weight below 1e-300 may be a product that passed through subnormals
        npt.assert_allclose(classes, exact, rtol=n * EPS, atol=1e-300)

    @pytest.mark.parametrize(
        "g", [squared_euclidean(1), negative_log(1), negative_entropy(1)], ids=lambda g: g.id
    )
    def test_phi_and_gradient_see_atoms_and_classes_only(self, g):
        # FIRST over (1, 2, 3)^4 takes 3 values on 81 outcomes in 15 multiset classes
        dm = DiscreteModel((1.0, 2.0, 3.0), 4)
        atoms, classes = 3, 15
        counted = CountingGenerator(g)
        verify_decompositions_grid(dm, counted, FIRST, (0.5, 1.0, 2.0))
        assert counted.points == {"value": atoms, "gradient": atoms}
        counted = CountingGenerator(g)
        verify_rb_inequality(dm, counted, FIRST, (0.5, 1.0, 2.0))
        for points in counted.points.values():
            assert atoms < points <= atoms + classes

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(min_value=1, max_value=5),
        n=st.integers(min_value=1, max_value=5),
        pool=st.lists(
            st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0, 3.0]), min_size=1, max_size=6
        ),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_cells_partition_outcomes_by_atom_and_class(self, m, n, pool, seed):
        labels, counts, _ = _multiset_classes(m, n)
        values = np.asarray(pool)[np.random.default_rng(seed).integers(len(pool), size=m**n)]
        law = _law(values, labels, len(counts))
        # summed per class, the cells' outcome counts give the class sizes;
        # summed per atom, the atom's outcome count
        npt.assert_array_equal(np.bincount(law.cls, weights=law.mult), counts)
        _, per_atom = np.unique(values, return_counts=True)
        npt.assert_array_equal(np.add.reduceat(law.mult, law.starts), per_atom)
        assert np.all(law.mult >= 1)
        # cells strictly ascend by (atom, class), and starts marks each atom's first cell
        keys = law.atom * len(counts) + law.cls
        assert np.all(np.diff(keys) > 0)
        runs = np.diff(law.starts, append=len(keys))
        npt.assert_array_equal(law.atom, np.repeat(np.arange(len(law.atoms)), runs))

    def test_law_at_the_outcome_budget(self):
        # 10^6 outcomes in 5005 classes, each outcome its own atom: the cell
        # keys reach 5e9, past int32
        dm = DiscreteModel(tuple(float(v) for v in range(1, 11)), 6)
        labels, counts, _ = _multiset_classes(dm.m, dm.n)
        law = _law(np.arange(dm.outcome_count, dtype=float), labels, len(counts))
        assert len(law.atoms) == dm.outcome_count and np.all(law.mult == 1)
        npt.assert_array_equal(law.cls, labels)
        p = law.probabilities(orderings(dm, 0.7))
        assert abs(math.fsum(p) - 1.0) <= 4 * dm.n * EPS

    def test_multiset_classes_cached_read_only(self):
        labels, counts, reps = _multiset_classes(3, 4)
        again = _multiset_classes(3, 4)
        assert again[0] is labels and again[1] is counts and again[2] is reps
        for arr in (labels, counts, reps):
            with pytest.raises(ValueError):
                arr[0] = 0


SPLIT_GENERATORS = {
    **{g.id: g for g in ORACLE_GENERATORS},
    "negentropy-newton": negative_entropy(1).without_closed_forms(),
}


class TestDecompositions:
    @pytest.mark.parametrize("g", ORACLE_GENERATORS, ids=lambda g: g.id)
    def test_residuals_close(self, g):
        dm = DiscreteModel((1.0, 2.0, 3.0), 4)
        for theta in (0.5, 1.0, 2.0):
            chk = verify_decompositions(dm, g, FIRST, theta)
            assert chk.passed
            assert chk.max_residual <= 1e-12
            assert chk.risk_left >= 0.0 and chk.risk_right >= 0.0

    def test_right_center_is_plain_expectation(self):
        dm = DiscreteModel((1.0, 2.0), 3)
        chk = verify_decompositions(dm, negative_log(1), MEAN, 0.9)
        brute = np.sum(dm.outcome_weights(0.9) * MEAN.fn(dm.outcome_values))
        npt.assert_allclose(chk.center_right, brute, rtol=1e-14)

    def test_transport_identity_under_enumeration(self):
        # left risk computed in dual space must match the primal enumeration
        dm = DiscreteModel((1.0, 2.0, 3.0), 3)
        theta = 1.4
        for g in ORACLE_GENERATORS:
            delta = np.asarray(FIRST.fn(dm.outcome_values))
            primal = float(np.sum(dm.outcome_weights(theta) * bregman_div(g, theta, delta)))
            dual = float(
                np.sum(dm.outcome_weights(theta) * np.asarray(dual_transport(g, theta, delta)))
            )
            assert abs(dual - primal) <= 1e-12 * (1.0 + abs(primal))

    @pytest.mark.parametrize("gen", sorted(SPLIT_GENERATORS))
    @pytest.mark.parametrize("e", [FIRST, HEAD2, MEAN], ids=lambda e: e.id)
    def test_one_split_with_the_pointwise_decompositions(self, gen, e):
        # the oracle's split is decompose_left/right over the estimate's law
        g = SPLIT_GENERATORS[gen]
        dm = DiscreteModel((0.5, 1.5, 2.5, 4.0), 4)
        law = discrete_oracle._estimate_law(dm, g, e, "estimate")[1]
        for theta in (0.5, 1.0, 2.0):
            chk = verify_decompositions(dm, g, e, theta)
            p = law.probabilities(orderings(dm, theta))
            for side, fn in (("left", decompose_left), ("right", decompose_right)):
                rep = fn(g, theta, law.atoms, p)
                assert rep.orientation == side
                assert rep.total == getattr(chk, f"risk_{side}")
                assert rep.bias_term == getattr(chk, f"bias_{side}")
                assert rep.variance_term == getattr(chk, f"variance_{side}")
                assert rep.center == getattr(chk, f"center_{side}")

    def test_estimate_must_stay_in_domain(self):
        dm = DiscreteModel((1.0, 2.0), 2)
        bad = Estimator("bad", lambda x: x[..., 0] - 1.5)
        outside = r"\[0\] = -0\.5 is outside open interval \(0\.0, inf\)$"
        with pytest.raises(DomainError, match=r"^estimate" + outside):
            verify_decompositions(dm, negative_log(1), bad, 1.0)
        with pytest.raises(DomainError, match=r"^x" + outside):
            verify_rb_inequality(dm, negative_log(1), bad, (1.0,))


@pytest.mark.parametrize("check", [
    lambda dm, g: verify_rb_inequality(dm, g, FIRST, (1.0,)),
    lambda dm, g: verify_decompositions(dm, g, FIRST, 1.0),
    lambda dm, g: exact_rao_blackwell(dm, g, FIRST),
], ids=["rb", "decompositions", "exact_rao_blackwell"])
def test_checks_refuse_a_two_dimensional_generator(check):
    # the estimates are scalars, so only a one-dimensional generator applies
    with pytest.raises(ConfigError, match="has dimension 2; the points have 1"):
        check(DiscreteModel((1.0, 2.0), 2), squared_euclidean(2))


# estimators on the 27 outcomes of DiscreteModel((1, 2, 3), 3) that do not
# give one value per outcome, and the shape each gives
BAD_SHAPES = {
    "one short": (lambda x: x[:-1, 0], "(26,)"),
    "scalar": (lambda x: 2.0, "()"),
    "column": (lambda x: x[:, :1], "(27, 1)"),
    "two columns": (lambda x: x[:, :2], "(27, 2)"),
}


@pytest.mark.parametrize("check", [
    lambda dm, g, e: verify_rb_inequality(dm, g, e, (1.0,)),
    lambda dm, g, e: verify_decompositions_grid(dm, g, e, (1.0,)),
    lambda dm, g, e: exact_rao_blackwell(dm, g, e),
], ids=["rb", "decompositions_grid", "exact_rao_blackwell"])
@pytest.mark.parametrize("kind", sorted(BAD_SHAPES))
def test_checks_refuse_estimates_not_one_per_outcome(check, kind):
    fn, shape = BAD_SHAPES[kind]
    with pytest.raises(ConfigError, match=rf"'bad'.*\(27,\), got {re.escape(shape)}$"):
        check(DiscreteModel((1.0, 2.0, 3.0), 3), negative_log(1), Estimator("bad", fn))


class TestResolveDiscreteEstimator:
    def test_strings(self):
        x = np.array([[1.0, 2.0, 3.0]])
        npt.assert_allclose(resolve_estimator("mean", SPEC_MODEL)(x), 2.0)
        npt.assert_allclose(resolve_estimator("classical", SPEC_MODEL)(x), 2.0)
        npt.assert_allclose(resolve_estimator("first-k:2", SPEC_MODEL)(x), 1.5)
        npt.assert_allclose(resolve_estimator("const:0.7", SPEC_MODEL)(x), 0.7)

    def test_errors(self):
        for spec in ("first-k:zero", "first-k:0", "const:x", "median"):
            with pytest.raises(ConfigError):
                resolve_estimator(spec, SPEC_MODEL)
