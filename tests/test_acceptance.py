"""Acceptance gate: nine numbered criteria, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines; every
criterion also asserts, so a FAIL line always comes with a failing test.
"""

import contextlib
import io
import itertools
import json
import time

import numpy as np

from breglab import (
    DiscreteModel,
    Estimator,
    ExponentialModel,
    LogNormalModel,
    NormalModel,
    build_type1_umvue,
    bregman_div,
    check_type1_unbiased,
    check_type2_unbiased,
    compare_estimators,
    dual_transport,
    estimate_risk,
    first_k_estimator,
    lehmann_grid_check,
    mahalanobis,
    negative_entropy,
    negative_log,
    squared_euclidean,
    symmetrize,
    verify_decompositions,
    verify_rb_inequality,
)
from breglab.cli import main as cli_main
from breglab.reporting import render_json

SEED = 7

GENERATORS_2D = [
    squared_euclidean(2),
    mahalanobis(np.array([[2.0, 0.5], [0.5, 1.0]])),
    negative_entropy(2),
    negative_log(2),
]

# oracle battery: three supports, four scalar generators, three estimators,
# three theta values; the largest case enumerates 10^5 outcomes
BATTERY_MODELS = [
    DiscreteModel((1.0, 2.0, 3.0), 5),
    DiscreteModel((0.5, 1.5, 2.5, 4.0), 4),
    DiscreteModel(tuple(0.5 * i for i in range(1, 11)), 5),
]
BATTERY_GENERATORS = [
    squared_euclidean(1),
    mahalanobis([[1.5]]),
    negative_entropy(1),
    negative_log(1),
]
BATTERY_ESTIMATORS = [
    Estimator("first", lambda x: x[..., 0]),
    Estimator("head2", lambda x: np.mean(x[..., :2], axis=-1), requires_min_n=2),
    Estimator("mean", lambda x: np.mean(x, axis=-1)),
]
BATTERY_THETAS = (0.5, 1.0, 2.0)


def _verdict(num: int, ok: bool, detail: str) -> None:
    word = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {word} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _interior(g, rng, count):
    if g.domain.lo == 0.0:
        return rng.uniform(0.1, 8.0, (count, g.dimension))
    return rng.normal(0.0, 2.0, (count, g.dimension))


def _dual_points(g, rng, count):
    if g.id == "neglog":
        return -rng.uniform(0.1, 10.0, (count, g.dimension))
    if g.id == "negentropy":
        return rng.uniform(-2.0, 2.3, (count, g.dimension))
    return rng.normal(0.0, 2.0, (count, g.dimension))


def test_criterion_1_duality_transport():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for g in GENERATORS_2D:
        x = _interior(g, rng, 1000)
        y = _interior(g, rng, 1000)
        primal = np.asarray(bregman_div(g, x, y))
        dual = np.asarray(dual_transport(g, x, y))
        rel = np.max(np.abs(dual - primal) / (1.0 + np.abs(primal)))
        worst = max(worst, float(rel))
    elapsed = time.perf_counter() - start
    _verdict(
        1,
        worst <= 1e-9 and elapsed < 1.0,
        f"4 generators x 1000 pairs, worst relative gap {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_legendre_round_trip():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst_rt = 0.0
    worst_yf = 0.0
    paths = 0
    for g in GENERATORS_2D:
        variants = [g]
        if g.id != "mahalanobis":  # quadratic case has no numeric fallback
            variants.append(g.without_closed_forms())
        for gv in variants:
            paths += 1
            y = _dual_points(g, rng, 1000)
            x = np.asarray(gv.invert_gradient(y))
            back = np.asarray(gv.gradient(x))
            rt = np.max(np.abs(back - y) / (1.0 + np.abs(y)))
            gap = np.asarray(gv.value(x)) + np.asarray(gv.conjugate(y)) - np.sum(x * y, axis=-1)
            worst_rt = max(worst_rt, float(rt))
            worst_yf = max(worst_yf, float(np.max(np.abs(gap))))
    elapsed = time.perf_counter() - start
    _verdict(
        2,
        worst_rt <= 1e-9 and worst_yf <= 1e-9 and elapsed < 1.0,
        f"{paths} gradient paths x 1000 dual points, round trip {worst_rt:.2e}, "
        f"Young-Fenchel {worst_yf:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_exact_decomposition_identities():
    start = time.perf_counter()
    worst = 0.0
    cases = 0
    for dm, g, e in itertools.product(BATTERY_MODELS, BATTERY_GENERATORS, BATTERY_ESTIMATORS):
        for theta in BATTERY_THETAS:
            chk = verify_decompositions(dm, g, e, theta)
            worst = max(worst, chk.max_residual)
            cases += 1
            assert chk.passed, (dm.support, g.id, e.id, theta)
    elapsed = time.perf_counter() - start
    _verdict(
        3,
        worst <= 1e-12 and elapsed < 120.0,
        f"{cases} battery cases, both orientations, max residual {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_4_rao_blackwell_inequality():
    start = time.perf_counter()
    min_strict_gap = np.inf
    worst_violation = 0.0
    cases = 0
    for dm, g, e in itertools.product(BATTERY_MODELS, BATTERY_GENERATORS, BATTERY_ESTIMATORS):
        rep = verify_rb_inequality(dm, g, e, BATTERY_THETAS)
        cases += 1
        assert rep.passed, (dm.support, g.id, e.id)
        worst_violation = max(worst_violation, rep.max_violation)
        if e.id == "mean":
            assert rep.permutation_invariant, (dm.support, g.id)
        else:
            assert not rep.permutation_invariant, (dm.support, g.id, e.id)
            min_strict_gap = min(min_strict_gap, rep.min_gap)
    elapsed = time.perf_counter() - start
    _verdict(
        4,
        worst_violation <= 1e-12 and min_strict_gap > 1e-6 and elapsed < 120.0,
        f"{cases} battery reports, max violation {worst_violation:.2e}, "
        f"smallest non-invariant gap {min_strict_gap:.2e}, {elapsed:.1f}s",
    )


def test_criterion_5_exponential_example():
    start = time.perf_counter()
    model, g = ExponentialModel(), negative_log(1)
    theta, n, m = 2.0, 5, 1_000_000
    t1 = build_type1_umvue(model, g)

    a = check_type1_unbiased(model, [theta], t1, g, n, m, SEED)[0]
    ok_a = a.verdict and abs(a.mean + 0.5) <= 3.0 * a.se

    # the left bias term is quadratic in the dual-mean error, so a 3-SE band
    # on the dual mean bounds it by 0.5 * (3 se)^2 * theta^2 (conjugate
    # curvature at theta); allow a factor-2 cushion on top
    left = estimate_risk(model, theta, n, t1, g, "left", m, SEED)
    ok_a = ok_a and left.bias_term <= (3.0 * a.se) ** 2 * theta**2

    b = check_type2_unbiased(model, [theta], t1, n, m, SEED)[0]
    ok_b = (not b.verdict) and b.z > 10.0 and abs(b.mean - 2.5) <= 3.0 * b.se

    c2 = check_type2_unbiased(model, [theta], model.classical_umvue, n, m, SEED)[0]
    c1 = check_type1_unbiased(model, [theta], model.classical_umvue, g, n, m, SEED)[0]
    ok_c = c2.verdict and (not c1.verdict) and abs(c1.z) > 10.0
    ok_c = ok_c and abs(c1.mean + 0.625) <= 3.0 * c1.se

    cmp_rep = compare_estimators(
        model, theta, n, (t1, first_k_estimator(model, g, 3)), g, "left", m, SEED
    )
    ok_d = cmp_rep.risk_diff < 0.0 and -cmp_rep.risk_diff > 5.0 * cmp_rep.se_diff

    elapsed = time.perf_counter() - start
    _verdict(
        5,
        ok_a and ok_b and ok_c and ok_d and elapsed < 60.0,
        f"dual mean {a.mean:.6f} (z {a.z:+.2f}), left bias {left.bias_term:.1e}, "
        f"primal mean {b.mean:.4f} (z {b.z:+.1f}), "
        f"classical dual mean {c1.mean:.6f} (z {c1.z:+.1f}), "
        f"paired improvement {-cmp_rep.risk_diff / cmp_rep.se_diff:.0f} se, {elapsed:.1f}s",
    )


def test_criterion_6_lognormal_example():
    start = time.perf_counter()
    model, g = LogNormalModel(0.25), negative_entropy(1)
    theta, n, m = float(np.e), 10, 100_000
    t1 = build_type1_umvue(model, g)

    a = check_type1_unbiased(model, [theta], t1, g, n, m, SEED)[0]
    ok_a = a.verdict and abs(a.mean - 1.0) <= 3.0 * a.se

    c2 = check_type2_unbiased(model, [theta], model.classical_umvue, n, m, SEED)[0]
    c1 = check_type1_unbiased(model, [theta], model.classical_umvue, g, n, m, SEED)[0]
    ok_c = c2.verdict and (not c1.verdict) and abs(c1.z) > 10.0
    ok_c = ok_c and abs(c1.mean - 0.9875) <= 3.0 * c1.se

    elapsed = time.perf_counter() - start
    _verdict(
        6,
        ok_a and ok_c and elapsed < 30.0,
        f"geometric-mean log mean {a.mean:.5f} (z {a.z:+.2f}), classical log mean "
        f"{c1.mean:.5f} (z {c1.z:+.1f}, type2 z {c2.z:+.2f}), {elapsed:.1f}s",
    )


def test_criterion_7_squared_error_degeneracy():
    start = time.perf_counter()
    model, g = NormalModel(1.0), squared_euclidean(1)
    kw = dict(replicates=100_000, seed=SEED)
    left = estimate_risk(model, 0.7, 4, model.classical_umvue, g, "left", **kw)
    right = estimate_risk(model, 0.7, 4, model.classical_umvue, g, "right", **kw)
    gaps = [
        abs(left.risk - right.risk) / (1.0 + abs(right.risk)),
        abs(left.bias_term - right.bias_term),
        abs(left.variance_term - right.variance_term) / (1.0 + abs(right.variance_term)),
        abs(left.center - right.center),
    ]
    term_gap = max(gaps)

    # extended pipeline against plain permutation averaging, enumerated by hand
    first = Estimator("first", lambda x: x[..., 0])
    rb = symmetrize(g, first)
    x = model.draw(0.7, 5, 100, seed=SEED + 1)
    perms = list(itertools.permutations(range(5)))
    manual = np.mean([x[:, p][:, 0] for p in perms], axis=0)
    rb_gap = float(np.max(np.abs(np.asarray(rb(x)) - manual)))

    elapsed = time.perf_counter() - start
    _verdict(
        7,
        term_gap <= 1e-10 and rb_gap <= 1e-12,
        f"left/right term gap {term_gap:.2e}, pipeline vs plain averaging "
        f"{rb_gap:.2e} on 100 samples, {elapsed:.1f}s",
    )


def test_criterion_8_lehmann_consistency():
    start = time.perf_counter()
    model, g = ExponentialModel(), negative_log(1)
    grid = (1.0, 1.5, 2.0, 2.5, 3.0)
    m = 1_000_000
    t1 = lehmann_grid_check(
        model, 2.0, grid, build_type1_umvue(model, g), g, "left", 5, m, SEED
    )
    classical = lehmann_grid_check(
        model, 2.0, grid, model.classical_umvue, g, "left", 5, m, SEED
    )
    ok = (
        t1.argmin_index == t1.theta_index == 2
        and classical.argmin_index != classical.theta_index
    )
    elapsed = time.perf_counter() - start
    _verdict(
        8,
        ok and elapsed < 120.0,
        f"type1 argmin at grid[{t1.argmin_index}] = {grid[t1.argmin_index]}, classical "
        f"argmin at grid[{classical.argmin_index}] = {grid[classical.argmin_index]}, {elapsed:.1f}s",
    )


def test_criterion_9_determinism(tmp_path):
    start = time.perf_counter()
    model, g = ExponentialModel(), negative_log(1)
    checks = []

    # raw replicate streams
    draws = [model.draw(2.0, 5, 1_000_000, seed=SEED, workers=w) for w in (1, 2, 8)]
    checks.append(all(np.array_equal(draws[0], d) for d in draws[1:]))
    checks.append(np.array_equal(draws[0], model.draw(2.0, 5, 1_000_000, seed=SEED)))

    # every report type, rendered to canonical JSON
    def render_all(workers):
        e = build_type1_umvue(model, g)
        reports = [
            estimate_risk(model, 2.0, 5, e, g, "left", 200_000, SEED, workers),
            check_type1_unbiased(model, [1.0, 2.0], e, g, 5, 100_000, SEED, workers)[0],
            compare_estimators(
                model, 2.0, 5, (e, first_k_estimator(model, g, 3)), g, "left",
                100_000, SEED, workers,
            ),
            lehmann_grid_check(
                model, 2.0, (1.0, 2.0, 3.0), e, g, "left", 5, 100_000, SEED, workers
            ),
        ]
        return render_json(reports)

    rendered = [render_all(w) for w in (1, 2, 8)]
    checks.append(rendered[0] == rendered[1] == rendered[2])
    checks.append(render_all(1) == rendered[0])

    # CLI artifacts: reruns and worker counts produce identical bytes
    argv = [
        "risk", "--model", "exp", "--gen", "neglog", "--estimator", "type1",
        "--theta", "2.0", "--n", "5", "-M", "20000", "--seed", str(SEED),
    ]
    blobs = []
    for i, workers in enumerate(("1", "1", "2", "8")):
        out = tmp_path / f"run{i}.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli_main(argv + ["--workers", workers, "--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    checks.append(len(set(blobs)) == 1)
    json.loads(blobs[0])  # the artifact is valid JSON on top of being stable

    elapsed = time.perf_counter() - start
    _verdict(
        9,
        all(checks),
        f"draws, reports, oracle sums, CLI files identical over reruns and "
        f"workers 1/2/8 ({sum(checks)}/{len(checks)} groups), {elapsed:.1f}s",
    )
