"""Acceptance suite: the twelve numerical gates, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; each
test also asserts, so the suite fails loudly under plain pytest.
"""

import math
import time

import numpy as np

import sigpath as sp
from sigpath.sig_regression import evaluate as regression_evaluate

from helpers import max_coeff_gap, random_affine_system


def _line(num, ok, detail):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _pair_corpus(seed=0, count=200):
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        d = int(rng.integers(1, 4))
        a = sp.PiecewiseLinearPath(d, rng.normal(size=(int(rng.integers(1, 7)), d)) * 0.5)
        b = sp.PiecewiseLinearPath(d, rng.normal(size=(int(rng.integers(1, 7)), d)) * 0.5)
        pairs.append((a, b))
    return pairs


def test_criterion_01_chen_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for a, b in _pair_corpus():
        lhs = sp.signature(sp.concat(a, b), 5)
        rhs = sp.mul(sp.signature(a, 5), sp.signature(b, 5))
        worst = max(worst, max_coeff_gap(lhs, rhs))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 5.0
    _line(1, ok, f"concat product gap {worst:.2e} (tol 1e-12), {elapsed:.1f}s (cap 5s)")


def test_criterion_02_inverse_and_reversal():
    worst_inv = 0.0
    worst_rev = 0.0
    for a, _ in _pair_corpus():
        s = sp.signature(a, 5)
        one = sp.unit(a.dim, 5)
        worst_inv = max(
            worst_inv, sp.max_coefficient_difference(sp.mul(s, sp.inverse_psi(s)), one)
        )
        worst_rev = max(
            worst_rev, max_coeff_gap(sp.inverse_psi(s), sp.signature(sp.reverse(a), 5))
        )
    ok = worst_inv <= 1e-12 and worst_rev <= 1e-12
    _line(2, ok, f"inverse law gap {worst_inv:.2e}, reversal gap {worst_rev:.2e} (tol 1e-12)")


def test_criterion_03_level_coincidence():
    t0 = time.perf_counter()
    worst_low = 0.0
    min_split = np.inf
    for n in range(1, 6):
        rho, sigma = sp.axis_rho_sigma(n)
        sr = sp.signature(rho, 6)
        ss = sp.signature(sigma, 6)
        for k in range(n + 1):
            worst_low = max(worst_low, float(np.max(np.abs(sr.levels[k] - ss.levels[k]))))
        min_split = min(min_split, sp.level_norm(sp.sub(sr, ss), n + 1))
    elapsed = time.perf_counter() - t0
    ok = worst_low <= 1e-12 and min_split > 1e-6 and elapsed < 10.0
    _line(
        3,
        ok,
        f"shared levels gap {worst_low:.2e} (tol 1e-12), "
        f"level n+1 split >= {min_split:.2e} (floor 1e-6), {elapsed:.1f}s (cap 10s)",
    )


def test_criterion_04_product_vs_metric():
    rep = sp.experiment_product_vs_metric(k_max=5)
    worst_low = max(rep.series["max_low_level_coeff"])
    metric_exact = rep.series["metric_d_to_origin"] == [2.0 ** (k + 1) for k in range(1, 6)]
    ok = rep.verdict and sp.recheck_verdict(rep) and worst_low <= 1e-12 and metric_exact
    _line(
        4,
        ok,
        f"loop low-level coeffs {worst_low:.1e} (tol 1e-12), "
        f"metric to origin equals 2^(k+1) exactly: {metric_exact}, verdict {rep.verdict}",
    )


def test_criterion_05_quotient_vs_metric():
    rep = sp.experiment_quotient_vs_metric((1e-1, 1e-2, 1e-3))
    rows_ok = []
    for eps, var, dist in zip(
        rep.series["epsilon"], rep.series["variation_distance"], rep.series["metric_d"]
    ):
        rows_ok.append(var <= 6 * eps and dist >= 2.0 and abs(dist - (2 + 2 * eps)) <= 1e-12)
    ok = rep.verdict and all(rows_ok)
    _line(
        5,
        ok,
        "variation gap <= 6*eps and metric = 2+2*eps >= 2 for eps in "
        f"{rep.series['epsilon']}: {all(rows_ok)}",
    )


def test_criterion_06_incompleteness():
    rep = sp.experiment_incompleteness(n_max=10)
    d_ok = all(v >= 2.0 for v in rep.series["d_to_origin"])
    c = rep.series["fitted_c"][0]
    scaled_ok = all(v <= c + 1e-12 for v in rep.series["scaled_d_to_double"])
    mono_ok = True
    for k in (1, 2, 3, 4):
        vals = rep.series[f"sig_max_level_{k}"]
        mono_ok &= all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
    ok = rep.verdict and d_ok and scaled_ok and mono_ok
    _line(
        6,
        ok,
        f"d to origin >= 2: {d_ok}, n*d(next) <= fitted c = {c:.4f}: {scaled_ok}, "
        f"levelwise decay monotone: {mono_ok}",
    )


def test_criterion_07_group_discontinuity():
    rep = sp.experiment_group_discontinuity(n_max=20)
    near_ok = all(
        dr <= 3.0 / n + 1e-12
        for n, dr in zip(rep.indices, rep.series["d_rho_to_limit"])
    )
    far_ok = all(v >= 2.0 - 1e-12 for v in rep.series["d_product_to_origin"])
    ok = rep.verdict and near_ok and far_ok
    _line(
        7,
        ok,
        f"factor distance <= 3/n for n <= 20: {near_ok}, product stays >= 2: {far_ok}",
    )


def test_criterion_08_length_lower_bound():
    t0 = time.perf_counter()
    stair = sp.concat(sp.linear_path([1.0, 0.0]), sp.linear_path([0.0, 1.0]))
    rep = sp.length_lower_bound(stair, n_max=5, mc_samples=100_000, seed=0)
    elapsed = time.perf_counter() - t0
    p_exact = rep.series["p_all_even"] == [0.5] * 5
    bound_ok = all(
        phi >= lb - 1e-12
        for phi, lb in zip(rep.series["phi_exact"], rep.series["lower_bound"])
        if lb > 0
    )
    growth = rep.series["growth_root"]
    growth_ok = all(a <= b + 1e-12 for a, b in zip(growth, growth[1:]))
    toward = all(g <= 2.0 + 1e-9 for g in growth)
    mc_ok = all(
        abs(mean - phi) <= 3 * se + 1e-9
        for mean, se, phi in zip(
            rep.series["mc_mean"], rep.series["mc_se"], rep.series["phi_exact"]
        )
    )
    ok = (
        rep.verdict and p_exact and bound_ok and growth_ok and toward
        and mc_ok and elapsed < 30.0
    )
    _line(
        8,
        ok,
        f"P(all pairs even) = 1/2 exactly: {p_exact}, moment lower bound: {bound_ok}, "
        f"root growth nondecreasing toward 2: {growth_ok and toward}, "
        f"MC within 3 SE: {mc_ok}, {elapsed:.1f}s (cap 30s)",
    )


def test_criterion_09_series_certification():
    rng = np.random.default_rng(7)
    worst_ratio = 0.0
    all_ok = True
    for _ in range(100):
        field, path, y0 = random_affine_system(rng)
        oracle = sp.oracle_solve(field, path, y0)
        for N in range(1, 9):
            sol = sp.ito_series(field, path, y0, N)
            disc = float(np.linalg.norm(sol.value - oracle))
            all_ok &= disc <= sol.error_bound
            worst_ratio = max(worst_ratio, disc / sol.error_bound)
    scalar = sp.LinearVectorField(matrices=np.array([[[1.0]]]), offsets=np.array([[0.0]]))
    fixture_ok = True
    for N in range(1, 9):
        sol = sp.ito_series(scalar, sp.linear_path([1.0]), np.array([1.0]), N)
        fixture_ok &= abs(sol.value[0] - math.e) <= sol.error_bound
    ok = all_ok and fixture_ok
    _line(
        9,
        ok,
        f"100 systems x N=1..8 within bound: {all_ok} (worst ratio {worst_ratio:.3f}), "
        f"scalar exponential fixture within bound: {fixture_ok}",
    )


def test_criterion_10_regression_realisability():
    field, y0 = sp.demo_field()
    ds = sp.generate_dataset(field, y0, n_paths=60, segment_count=3, r=1.0,
                             noise_scale=0.0, seed=3)
    target = sp.truncated_functional_LN(field, y0, 2)
    responses = np.stack([target.evaluate(sp.signature(p, 2)) for p in ds.paths])
    realised = sp.RegressionDataset(
        segments=ds.segments, features=ds.features, responses=responses,
        depth=ds.depth, noise_scale=0.0, seed=3,
    )
    fitted = sp.fit(realised, depth=2)
    residual = regression_evaluate(fitted, realised)["rmse_train"]

    train = sp.generate_dataset(field, y0, n_paths=200, segment_count=4, r=1.0,
                                noise_scale=0.0, seed=0)
    held = sp.generate_dataset(field, y0, n_paths=100, segment_count=4, r=1.0,
                               noise_scale=0.0, seed=1)
    cl_ok = all(field.growth_constant * p.length <= 1.0 for p in train.paths)
    rmses = []
    for depth in (1, 2, 3, 4):
        metrics = regression_evaluate(sp.fit(train, depth=depth), train, heldout=held)
        rmses.append(metrics["rmse_heldout"])
    decreasing = all(a > b for a, b in zip(rmses, rmses[1:]))
    ok = residual <= 1e-8 and decreasing and cl_ok
    _line(
        10,
        ok,
        f"realisable residual {residual:.1e} (tol 1e-8), held-out RMSE strictly "
        f"decreasing over depths 1..4: {decreasing} "
        f"({', '.join(f'{r:.1e}' for r in rmses)}), CL <= 1: {cl_ok}",
    )


def test_criterion_11_group_like_suite():
    rng = np.random.default_rng(0)
    worst = 0.0
    all_pass = True
    for _ in range(100):
        d = int(rng.integers(1, 4))
        path = sp.PiecewiseLinearPath(d, rng.normal(size=(int(rng.integers(1, 7)), d)) * 0.5)
        rep = sp.check_group_like(sp.signature(path, 5), tolerance=1e-9)
        all_pass &= rep.passed
        worst = max(worst, rep.max_discrepancy)
    lv = [np.zeros(2**k) for k in range(3)]
    lv[0][0] = 1.0
    lv[2][sp.word_index((1, 2), 2)] = 1.0
    planted_fails = not sp.check_group_like(sp.TruncatedTensor(2, 2, lv)).passed
    ok = all_pass and planted_fails
    _line(
        11,
        ok,
        f"100 signatures pass shuffle checks at 1e-9 (worst {worst:.1e}): {all_pass}, "
        f"planted non-group-like tensor fails: {planted_fails}",
    )


def test_criterion_12_interpolation_inequality():
    rng = np.random.default_rng(11)
    r = 1.0
    worst = 0.0
    for _ in range(100):
        a = sp.PiecewiseLinearPath(2, rng.normal(size=(int(rng.integers(1, 5)), 2)))
        b = sp.PiecewiseLinearPath(2, rng.normal(size=(int(rng.integers(1, 5)), 2)))
        a = sp.PiecewiseLinearPath(2, a.segments * (r * rng.uniform(0.3, 1.0) / a.length))
        b = sp.PiecewiseLinearPath(2, b.segments * (r * rng.uniform(0.3, 1.0) / b.length))
        ca, cb = sp.constant_speed(a), sp.constant_speed(b)
        delta = sp.difference_path(ca, cb)
        sup = sp.sup_distance(ca, cb)
        for p in (1.25, 1.5, 1.75):
            lhs = sp.p_variation(delta, p)
            rhs = (2 * r) ** (1 / p) * sup ** (1 - 1 / p)
            worst = max(worst, lhs / rhs)
    ok = worst <= 1.0
    _line(
        12,
        ok,
        f"p-variation of the difference within (2r)^(1/p) * sup^(1-1/p) "
        f"on 100 pairs, worst ratio {worst:.3f}",
    )
