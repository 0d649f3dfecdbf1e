import dataclasses
import json
from fractions import Fraction

import numpy as np
import pytest

import sigpath as sp
from sigpath.signature_engine import _signature_levels
from sigpath.tensor_algebra import _MAX_COEFFICIENTS
from sigpath.tensor_algebra import product_metric, unit
from sigpath.topology_lab import ExperimentReport, _thin_rectangles

from helpers import (
    BAD_INTEGERS,
    BIG_INT,
    reference_product_metric,
    reference_sign_dots,
    rotated_orthogonal_path,
    same_bits,
    traced_peak_bytes,
    with_value,
)

STAIRCASE = np.array([[1, 0], [0, 2], [3, 0], [0, 1], [2, 0], [0, 3]] * 2, dtype=float) / 4


def test_experiment_names_registry():
    assert set(sp.EXPERIMENT_NAMES) == {
        "product-vs-metric",
        "quotient-vs-metric",
        "incompleteness",
        "group-discontinuity",
        "length-bound",
    }


def test_product_vs_metric_report():
    rep = sp.experiment_product_vs_metric(k_max=4)
    assert rep.verdict
    assert rep.indices == list(range(1, 5))
    # low-level coefficients vanish identically, metric stays 2^(k+1)
    assert all(v == 0.0 for v in rep.series["max_low_level_coeff"])
    assert rep.series["metric_d_to_origin"] == [2.0 ** (k + 1) for k in range(1, 5)]
    pm = rep.series["product_metric_to_unit"]
    assert all(a > b for a, b in zip(pm, pm[1:]))
    with pytest.raises(ValueError):
        sp.experiment_product_vs_metric(k_max=0)
    with pytest.raises(ValueError):
        sp.experiment_product_vs_metric(k_max=7)
    # at depth 0 no level is low, so the maximum is 0.0 and the verdict
    # fails as at depth 1, where the product metric cannot decrease
    for depth in (0, 1):
        rep = sp.experiment_product_vs_metric(k_max=4, depth=depth)
        assert not rep.verdict
        assert rep.series["max_low_level_coeff"] == [0.0] * 4


def test_quotient_vs_metric_report():
    rep = sp.experiment_quotient_vs_metric()
    assert rep.verdict
    for eps, var, dist in zip(
        rep.series["epsilon"], rep.series["variation_distance"], rep.series["metric_d"]
    ):
        assert var <= 6 * eps
        assert dist >= 2.0
        assert abs(dist - (2 + 2 * eps)) <= 1e-12
    with pytest.raises(ValueError):
        sp.experiment_quotient_vs_metric((-0.1,))
    # an empty range checks nothing, so it is refused like the others
    with pytest.raises(ValueError, match="empty"):
        sp.experiment_quotient_vs_metric(())
    # the rectangle of width 0 reduces to the trivial path, as the
    # out-and-back does, so its metric_d is exactly 0
    rep = sp.experiment_quotient_vs_metric((0.0, 1e-2))
    assert rep.verdict and rep.series["metric_d"][0] == 0.0


def test_incompleteness_report():
    rep = sp.experiment_incompleteness()
    assert rep.verdict
    assert rep.indices == list(range(1, 11))
    assert all(d >= 2.0 for d in rep.series["d_to_origin"])
    c = rep.series["fitted_c"][0]
    assert all(s <= c + 1e-12 for s in rep.series["scaled_d_to_double"])
    for k in (1, 2, 3, 4):
        vals = rep.series[f"sig_max_level_{k}"]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


def test_group_discontinuity_report():
    rep = sp.experiment_group_discontinuity(n_max=12)
    assert rep.verdict
    for n, dr, prod in zip(
        rep.indices, rep.series["d_rho_to_limit"], rep.series["d_product_to_origin"]
    ):
        assert dr <= 3.0 / n + 1e-12
        assert prod >= 2.0 - 1e-12


def test_report_round_trip_and_recheck():
    rep = sp.experiment_quotient_vs_metric()
    doc = rep.to_dict()
    clone = ExperimentReport.from_dict(json.loads(json.dumps(doc)))
    assert clone == rep
    assert sp.recheck_verdict(clone)

    js = rep.to_json()
    clone2 = ExperimentReport.from_json(js)
    assert clone2 == rep

    text = rep.render_text()
    assert "PASS" in text and rep.name in text


def test_recheck_catches_tampering():
    rep = sp.experiment_group_discontinuity(n_max=8)
    assert sp.recheck_verdict(rep)
    series = {k: list(v) for k, v in rep.series.items()}
    series["d_product_to_origin"][0] = 0.5
    bad = dataclasses.replace(rep, series=series)
    assert not sp.recheck_verdict(bad)

    unknown = dataclasses.replace(rep, name="no-such-experiment")
    with pytest.raises(ValueError):
        sp.recheck_verdict(unknown)


def test_recheck_refuses_reports_missing_what_the_check_reads():
    records = [
        {"name": "quotient-vs-metric", "indices": [1], "series": {}, "verdict": True},
        {"name": "incompleteness", "indices": [], "series": {}, "verdict": True},
    ]
    # every series of a real report present but empty, with no index
    stair = sp.PiecewiseLinearPath(2, STAIRCASE)
    for rep in (
        sp.experiment_incompleteness(n_max=3),
        sp.length_lower_bound(stair, n_max=2, mc_samples=100),
    ):
        series = {k: [] for k in rep.series}
        records.append({"name": rep.name, "indices": [], "series": series, "verdict": True})
    # an index the check's arithmetic cannot take: 2.0 ** 2001 overflows
    records.append(dict(sp.experiment_product_vs_metric(1).to_dict(), indices=[2000]))
    for record in records:
        with pytest.raises(ValueError, match="malformed experiment report"):
            sp.recheck_verdict(ExperimentReport.from_dict(record))
    # a report is frozen, so it cannot come to hold the index 0 it refuses
    zero = sp.experiment_group_discontinuity(1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        zero.indices = [0]


def test_experiments_deterministic():
    a = sp.experiment_incompleteness(n_max=6)
    b = sp.experiment_incompleteness(n_max=6)
    assert a == b


def test_length_bound_staircase():
    stair = sp.concat(sp.linear_path([1.0, 0.0]), sp.linear_path([0.0, 1.0]))
    rep = sp.length_lower_bound(stair, n_max=4, mc_samples=20000, seed=0)
    assert rep.verdict
    assert rep.series["p_all_even"] == [0.5] * 4
    assert rep.series["length"][0] == 2.0
    # (2n)! phi = L^(2n) / 2 exactly for the two-segment staircase
    assert rep.series["phi_exact"] == [4.0**n / 2.0 for n in (1, 2, 3, 4)]
    growth = rep.series["growth_root"]
    assert all(a <= b + 1e-12 for a, b in zip(growth, growth[1:]))
    assert all(g <= 2.0 + 1e-9 for g in growth)
    for n, phi, lb in zip(rep.indices, rep.series["phi_exact"], rep.series["lower_bound"]):
        if lb > 0:
            assert phi >= lb - 1e-12
    for mean, se, phi in zip(
        rep.series["mc_mean"], rep.series["mc_se"], rep.series["phi_exact"]
    ):
        assert abs(mean - phi) <= 3 * se + 1e-9


def test_length_bound_single_segment():
    rep = sp.length_lower_bound(sp.linear_path([2.0, 0.0]), n_max=3, mc_samples=5000)
    assert rep.verdict
    # one segment: X_n is deterministic, every moment is L^(2n)
    assert rep.series["phi_exact"] == [4.0, 16.0, 64.0]
    assert rep.series["p_all_even"] == [1.0] * 3
    assert all(se == 0.0 for se in rep.series["mc_se"])


def test_length_bound_preconditions():
    slanted = sp.concat(sp.linear_path([1.0, 0.0]), sp.linear_path([1.0, 1.0]))
    with pytest.raises(ValueError):
        sp.length_lower_bound(slanted, n_max=2)

    rng = np.random.default_rng(0)
    toomany = sp.PiecewiseLinearPath(182, np.diag(np.ones(182)))
    with pytest.raises(ValueError):
        sp.length_lower_bound(toomany, n_max=1)

    with pytest.raises(ValueError):
        sp.length_lower_bound(sp.linear_path([1.0, 0.0]), n_max=6)

    for empty in (sp.constant_path(2), sp.PiecewiseLinearPath(2, np.zeros((3, 2)))):
        with pytest.raises(ValueError, match="no nonzero segment"):
            sp.length_lower_bound(empty, n_max=1, mc_samples=10)


# the benchmark's 12-segment staircase, of length 6
_STAIRCASE = np.array([[1, 0], [0, 2], [3, 0], [0, 1], [2, 0], [0, 3]] * 2, dtype=float) / 4


@pytest.mark.parametrize(
    "scale",
    [
        pytest.param(4e14, id="mc-variance"),  # the Monte Carlo's variance overflows
        pytest.param(1e30, id="mc-mean"),  # its mean overflows as well
        pytest.param(2e30, id="L**10"),  # L**10 is beyond float range: OverflowError
    ],
)
def test_length_bound_overflow_is_a_floating_point_error(scale):
    # under the suite's warnings-as-errors a RuntimeWarning would fail this
    path = sp.PiecewiseLinearPath(2, _STAIRCASE * scale)
    with pytest.raises(FloatingPointError, match="^the length-bound series is beyond float range$"):
        sp.length_lower_bound(path, n_max=5, mc_samples=1000)


def test_length_bound_just_below_overflow_is_finite():
    rep = sp.length_lower_bound(sp.PiecewiseLinearPath(2, _STAIRCASE * 2e14), n_max=5, mc_samples=1000)
    assert rep.verdict
    assert all(np.isfinite(values).all() for values in rep.series.values())


def test_length_bound_zero_segments_filtered():
    padded = sp.PiecewiseLinearPath(
        2, np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    )
    stair = sp.concat(sp.linear_path([1.0, 0.0]), sp.linear_path([0.0, 1.0]))
    a = sp.length_lower_bound(padded, n_max=3, mc_samples=5000, seed=1)
    b = sp.length_lower_bound(stair, n_max=3, mc_samples=5000, seed=1)
    assert a.series["phi_exact"] == b.series["phi_exact"]
    assert a.series["mc_mean"] == b.series["mc_mean"]


def test_length_bound_recheck():
    stair = sp.concat(sp.linear_path([1.0, 0.0]), sp.linear_path([0.0, 1.0]))
    rep = sp.length_lower_bound(stair, n_max=3, mc_samples=5000, seed=2)
    assert sp.recheck_verdict(rep)
    series = {k: list(v) for k, v in rep.series.items()}
    series["growth_root"][-1] = 0.1  # break monotonicity
    bad = dataclasses.replace(rep, series=series)
    assert not sp.recheck_verdict(bad)


def test_metric_d_loop_hand_values():
    o = sp.constant_path(2)
    for k in (1, 2, 3, 4, 5):
        assert sp.metric_d(o, sp.gamma_loop(k)) == 2.0 ** (k + 1)


@pytest.mark.parametrize(
    "call, name",
    [
        pytest.param(lambda: sp.length_lower_bound(sp.linear_path([1.0]), n_max=2.5), "n_max", id="length-n_max=2.5"),
        pytest.param(
            lambda: sp.length_lower_bound(sp.linear_path([1.0]), mc_samples=float("nan")), "mc_samples",
            id="length-mc_samples=nan",
        ),
        pytest.param(lambda: sp.length_lower_bound(sp.linear_path([1.0]), n_max=True), "n_max", id="length-n_max=True"),
        # refused by name before the signature is formed or numpy's
        # allocator is asked for the draws
        pytest.param(
            lambda: sp.length_lower_bound(sp.linear_path([1.0]), mc_samples=2**62), "mc_samples",
            id="length-mc_samples=2**62",
        ),
        pytest.param(
            lambda: sp.length_lower_bound(sp.linear_path([1.0]), mc_samples=_MAX_COEFFICIENTS + 1), "mc_samples",
            id="length-mc_samples=limit+1",
        ),
        pytest.param(lambda: sp.experiment_incompleteness(n_max=float("nan")), "n_max", id="incompleteness-n_max=nan"),
        pytest.param(lambda: sp.experiment_incompleteness(n_max=1), "n_max", id="incompleteness-n_max=1"),
        pytest.param(lambda: sp.experiment_product_vs_metric(2.0), "k_max", id="product-k_max=2.0"),
        pytest.param(lambda: sp.experiment_product_vs_metric(7), "k_max", id="product-k_max=7"),
        pytest.param(lambda: sp.experiment_group_discontinuity("3"), "n_max", id="group-n_max='3'"),
    ],
)
def test_size_arguments_must_be_integers_in_range(call, name):
    # refused at the boundary with a ValueError naming the argument, not a
    # TypeError from deep inside
    with pytest.raises(ValueError, match=f"need an integer .*{name}"):
        call()


def test_numpy_integer_sizes_are_accepted():
    stair = sp.concat(sp.linear_path([1.0, 0.0]), sp.linear_path([0.0, 1.0]))
    pairs = [
        (sp.experiment_product_vs_metric(np.int64(2)), sp.experiment_product_vs_metric(2)),
        (sp.experiment_incompleteness(np.int32(3)), sp.experiment_incompleteness(3)),
        (sp.experiment_group_discontinuity(np.int64(3)), sp.experiment_group_discontinuity(3)),
        (
            sp.length_lower_bound(stair, n_max=np.int64(2), mc_samples=np.int64(100)),
            sp.length_lower_bound(stair, n_max=2, mc_samples=100),
        ),
    ]
    for got, want in pairs:
        assert got.to_json() == want.to_json()


def test_reducedness_is_derived_not_declared():
    # a caller can no longer mark an unreduced path reduced: e1 (-e1) e2
    # reduces to e2, so the metric between them is zero
    segs = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]
    with pytest.raises(TypeError):
        sp.PiecewiseLinearPath(2, segs, reduced=True)
    assert sp.metric_d(sp.PiecewiseLinearPath(2, segs), sp.linear_path([0.0, 1.0])) == 0.0
    origin = sp.constant_path(2)
    assert sp.reduce(origin) is origin


def test_ball_membership_examples():
    a = sp.linear_path([3.0, 4.0])
    assert sp.ball_br_membership(a, 5.0)
    assert not sp.ball_br_membership(a, 4.9)


def _einsum_monte_carlo(path, n_max, mc_samples, seed):
    # the Monte Carlo of length_lower_bound as it was before the Gram table:
    # gather each sample's unit directions, contract adjacent pairs
    lens = path.segment_lengths
    segs = path.segments[lens > 0.0]
    lens = lens[lens > 0.0]
    L = float(np.sum(lens))
    unit_dirs = segs / lens[:, None]
    edges = np.cumsum(lens / L)[:-1]
    rng = np.random.default_rng(seed)
    means, ses = [], []
    for n in range(1, n_max + 1):
        u = rng.random((mc_samples, 2 * n))
        u.sort(axis=1)
        dirs = unit_dirs[np.searchsorted(edges, u)]
        pair_dots = np.einsum("sjd,sjd->sj", dirs[:, 0::2, :], dirs[:, 1::2, :]) * (L * L)
        x = pair_dots.prod(axis=1)
        means.append(float(x.mean()))
        ses.append(float(x.std(ddof=1) / np.sqrt(mc_samples)) if mc_samples > 1 else 0.0)
    return means, ses


def test_length_bound_monte_carlo_is_bitwise_the_einsum_gather():
    rng = np.random.default_rng(21)
    n_cap = {2: 5, 3: 4, 4: 3, 5: 3}
    for trial in range(40):
        d = int(rng.integers(2, 6))
        path = rotated_orthogonal_path(rng, d, int(rng.integers(1, 15)))
        n_max = int(rng.integers(1, n_cap[d] + 1))
        rep = sp.length_lower_bound(path, n_max=n_max, mc_samples=3000, seed=trial)
        means, ses = _einsum_monte_carlo(path, n_max, 3000, trial)
        assert rep.series["mc_mean"] == means
        assert rep.series["mc_se"] == ses


def test_length_bound_memory_is_bounded():
    stair = sp.PiecewiseLinearPath(2, STAIRCASE)
    assert traced_peak_bytes(sp.length_lower_bound, stair, n_max=5, seed=0) < 32 * 2**20


def _axis_path(*lengths):
    # segments alternating between the two axes
    segs = [[v, 0.0] if i % 2 == 0 else [0.0, v] for i, v in enumerate(lengths)]
    return sp.PiecewiseLinearPath(2, np.array(segs))


_BLOCK = sp.topology_lab._MC_BLOCK


@pytest.mark.parametrize(
    "path, n_max, mc_samples",
    [
        # edges on bucket boundaries: 1/2, then 1/4 and 1/2
        (_axis_path(1.0, 1.0), 5, 3000),
        (_axis_path(1.0, 1.0, 2.0), 5, 3000),
        # several edges in one bucket: two in each bucket either side of 1/2
        # (1e-6 and 1e-13 segments), then two, at 1/2 and 1/2 + 5e-14
        (_axis_path(1.0, 1e-6, 1e-13, 1e-6, 1.0), 5, 3000),
        (_axis_path(1.0, 1e-13, 1e-13, 1.0), 5, 3000),
        (rotated_orthogonal_path(np.random.default_rng(26), 3, 20), 4, 3000),
        (sp.PiecewiseLinearPath(2, STAIRCASE), 5, 1),
        (sp.PiecewiseLinearPath(2, STAIRCASE), 5, 2),
        (sp.PiecewiseLinearPath(2, STAIRCASE), 2, _BLOCK - 1),
        (sp.PiecewiseLinearPath(2, STAIRCASE), 2, _BLOCK),
        (sp.PiecewiseLinearPath(2, STAIRCASE), 2, _BLOCK + 1),
    ],
)
def test_length_bound_monte_carlo_edge_cases_are_bitwise_the_einsum_gather(path, n_max, mc_samples):
    rep = sp.length_lower_bound(path, n_max=n_max, mc_samples=mc_samples, seed=mc_samples)
    means, ses = _einsum_monte_carlo(path, n_max, mc_samples, mc_samples)
    assert rep.series["mc_mean"] == means
    assert rep.series["mc_se"] == ses


def test_length_bound_blocks_give_the_same_report(monkeypatch):
    stair = sp.PiecewiseLinearPath(2, STAIRCASE)
    want = sp.length_lower_bound(stair, n_max=5, mc_samples=300, seed=3)
    for block in (1, 7):
        monkeypatch.setattr(sp.topology_lab, "_MC_BLOCK", block)
        assert sp.length_lower_bound(stair, n_max=5, mc_samples=300, seed=3) == want


def test_sorting_network_sorts_every_zero_one_row():
    # a comparator network sorts every input iff it sorts every 0-1 input
    for k in range(1, 11):
        rows = (np.arange(2**k)[:, None] >> np.arange(k)) & 1
        cols = list(rows.T)
        for i, j in sp.topology_lab._sorting_network(k):
            assert i < j < k
            cols[i], cols[j] = np.minimum(cols[i], cols[j]), np.maximum(cols[i], cols[j])
        assert np.array_equal(np.stack(cols, axis=1), np.sort(rows, axis=1))


def _enumerated_moment(fracs, n):
    # the exact average of (sum_i eps_i p_i)**2n over all 2**m sign vectors
    m = len(fracs)
    total = sum(sum(f if row >> i & 1 else -f for i, f in enumerate(fracs)) ** (2 * n) for row in range(2**m))
    return total / 2**m


@pytest.mark.parametrize("m", [1, 5, 12, 17])
def test_even_moments_are_the_sign_enumeration_rounded_once(m):
    # up to m = 10 the exact rational average, rounded once, is met bit for
    # bit.  At every m the old programme's float enumeration agrees within
    # its own error: each dot product is off by at most about (m - 1) u
    # (sum p = 1), which the power 2n multiplies by 2n |s|**(2n - 1), and
    # the pairwise mean adds about (m + 8) u relative.  It is 7 ulps off at
    # m = 5, n = 5, where the exact value is met.
    pfrac = np.random.default_rng(m).uniform(0.2, 2.0, size=m)
    pfrac /= pfrac.sum()
    got = sp.topology_lab._even_moments(pfrac, 5)
    sdot = reference_sign_dots(pfrac)
    u = 2.0**-53
    for n, value in enumerate(got, 1):
        want = np.mean(sdot ** (2 * n))
        tol = 2 * n * m * u * np.mean(np.abs(sdot) ** (2 * n - 1)) + (m + 9) * u * want
        assert abs(value - want) <= tol
        if m <= 10:
            assert value == float(_enumerated_moment([Fraction(p) for p in pfrac], n))


def test_even_moments_are_exact_across_scales():
    # fractions from 1e-5 to 1e5 need not sum to 1: every value is the
    # exact rational average rounded once
    rng = np.random.default_rng(28)
    for m in range(1, 9):
        for _ in range(6):
            pfrac = 10.0 ** rng.uniform(-5, 5, size=m)
            got = sp.topology_lab._even_moments(pfrac, 5)
            fracs = [Fraction(p) for p in pfrac]
            assert got == [float(_enumerated_moment(fracs, n)) for n in range(1, 6)]


def test_length_bound_p_all_even_is_exact_on_the_staircase():
    rep = sp.length_lower_bound(sp.PiecewiseLinearPath(2, STAIRCASE), n_max=5, mc_samples=1)
    # axis steps: each length is the step's one nonzero entry, L = 6 exactly
    lens = np.abs(STAIRCASE).sum(axis=1)
    fracs = [Fraction(p) for p in lens / lens.sum()]
    assert rep.series["p_all_even"] == [float(_enumerated_moment(fracs, n)) for n in range(1, 6)]


def test_length_bound_runs_up_to_181_segments():
    # the int16 pair index a * m + b reaches 181 * 181 - 1 = 32760 < 2**15;
    # one segment more would wrap it, so 182 are refused
    lengths = np.random.default_rng(29).uniform(0.2, 2.0, size=182)
    path = _axis_path(*lengths[:181])
    rep = sp.length_lower_bound(path, n_max=2, mc_samples=3000, seed=4)
    means, ses = _einsum_monte_carlo(path, 2, 3000, 4)
    assert rep.series["mc_mean"] == means
    assert rep.series["mc_se"] == ses
    with pytest.raises(ValueError, match="pair index"):
        sp.length_lower_bound(_axis_path(*lengths), n_max=1, mc_samples=10)


def test_length_bound_sign_enumeration_is_bounded_at_twenty_segments():
    # the one-shot (2**20, 20) int64 sign array took 196 MiB and the blocked
    # enumeration 16 MiB; the moments fold on m Python ints per level
    path = _axis_path(*np.random.default_rng(27).uniform(0.2, 2.0, size=20))
    assert traced_peak_bytes(sp.length_lower_bound, path, n_max=1, mc_samples=10) < 2**20


def test_length_bound_rejects_too_few_samples():
    stair = sp.PiecewiseLinearPath(2, STAIRCASE)
    for bad in (0, -1, -100):
        with pytest.raises(ValueError, match="mc_samples"):
            sp.length_lower_bound(stair, n_max=2, mc_samples=bad)
    rep = sp.length_lower_bound(stair, n_max=2, mc_samples=1)
    assert rep.series["mc_se"] == [0.0, 0.0]
    json.loads(rep.to_json())


def test_length_bound_memory_is_one_block_of_draws():
    # the benchmark staircase at the 100k default and n_max 5: one (100k, 10)
    # array of draws took 22.3 MiB with its sort and gather
    stair = sp.PiecewiseLinearPath(2, STAIRCASE)
    assert traced_peak_bytes(sp.length_lower_bound, stair, n_max=5, seed=0) < 8 * 2**20


@pytest.mark.parametrize("depth", [2, 4])
@pytest.mark.parametrize("batch_coefficients", [1, 700, 2**17])
def test_incompleteness_signatures_are_bitwise_per_rectangle(monkeypatch, depth, batch_coefficients):
    # one rectangle per kernel call, a few per call, and all in one call
    monkeypatch.setattr(sp.topology_lab, "_BLOCK_COEFFICIENTS", batch_coefficients)
    n_max = 12
    rects = [sp.PiecewiseLinearPath(2, _thin_rectangles([1.0 / n])[0]) for n in range(1, n_max + 1)]
    levels = _signature_levels(np.stack([r.segments for r in rects]), depth)
    one = unit(2, depth)
    pm, level_max = [], {k: [] for k in range(1, 5)}
    for row, rect in enumerate(rects):
        sig = sp.signature(rect, depth)
        assert same_bits([lvl[row] for lvl in levels], list(sig.levels))
        pm.append(product_metric(sig, one))
        # product_metric is the experiment's own kernel on a batch of one,
        # so the per-level np.linalg.norm loop checks both
        assert pm[-1] == reference_product_metric(sig, one)
        for k in range(1, 5):
            level_max[k].append(float(np.max(np.abs(sig.levels[k]))) if k <= depth else 0.0)
    rep = sp.experiment_incompleteness(n_max=n_max, depth=depth)
    assert rep.series["product_metric_to_unit"] == pm
    for k in range(1, 5):
        assert rep.series[f"sig_max_level_{k}"] == level_max[k]


def test_incompleteness_memory_is_one_rectangle_at_a_time_when_deep():
    # at depth 16 a signature holds 2**17 coefficients: batching ten of them
    # in one kernel call would take about 96 MiB against 12 MiB
    assert traced_peak_bytes(sp.experiment_incompleteness, n_max=10, depth=16) < 16 * 2**20


@pytest.mark.parametrize("experiment, bound", [(sp.experiment_group_discontinuity, 32), (sp.experiment_incompleteness, 256)])
def test_family_experiments_hold_a_bounded_share_per_index(experiment, bound):
    # the marginal traced peak per index, in float-sized values, stays under
    # the share the n_max bound counts: the families are measured block by
    # block, so only the series grow with n_max
    low, high = (traced_peak_bytes(experiment, n) for n in (4000, 8000))
    assert (high - low) / 4000 / 8 < bound


def _family_members(n):
    # the paths the two family experiments measure at index n, built one
    # by one: rho_n, sigma_n, their product (the rectangle of width 1/n),
    # the rectangle of width 1/(2n), and the limits e1 and -e1
    rho = sp.PiecewiseLinearPath(2, [[0.0, 1.0 / n], [1.0, 0.0]])
    sigma = sp.PiecewiseLinearPath(2, [[0.0, -1.0 / n], [-1.0, 0.0]])
    limits = sp.linear_path([1.0, 0.0]), sp.linear_path([-1.0, 0.0])
    rect = sp.PiecewiseLinearPath(2, _thin_rectangles([1.0 / (2 * n)])[0])
    return rho, sigma, sp.concat(rho, sigma), rect, *limits


@pytest.mark.parametrize("n", [1, 2, 3, 1000, _MAX_COEFFICIENTS // 256, _MAX_COEFFICIENTS // 32])
def test_family_members_are_their_own_reduced_representatives(n):
    # the experiments measure their families without reduce, which must
    # leave every member as it is, up to each n_max bound
    rect = sp.PiecewiseLinearPath(2, _thin_rectangles([1.0 / n])[0])
    assert rect.segments.tobytes() == _family_members(n)[2].segments.tobytes()
    for path in _family_members(n):
        reduced = sp.reduce(path).segments
        assert reduced.shape == path.segments.shape and reduced.tobytes() == path.segments.tobytes()


@pytest.mark.parametrize("batch_coefficients", [128, 700, 2**17])
def test_family_distances_are_bitwise_metric_d(monkeypatch, batch_coefficients):
    # beyond the pinned defaults: every series value is the public per-pair
    # call, with blocks of one row, of a few rows (5 for group-discontinuity,
    # 2 for incompleteness) and the default blocks, all 64 indices in one
    monkeypatch.setattr(sp.topology_lab, "_BLOCK_COEFFICIENTS", batch_coefficients)
    n_max = 64
    discontinuity = sp.experiment_group_discontinuity(n_max).series
    incompleteness = sp.experiment_incompleteness(n_max).series
    origin = sp.constant_path(2)
    want = {key: [] for key in ("d_rho_to_limit", "d_sigma_to_limit", "d_product_to_origin", "d_to_origin", "d_to_double")}
    for n in range(1, n_max + 1):
        rho, sigma, product, double, e1, back = _family_members(n)
        want["d_rho_to_limit"].append(sp.metric_d(rho, e1))
        want["d_sigma_to_limit"].append(sp.metric_d(sigma, back))
        want["d_product_to_origin"].append(sp.metric_d(product, origin))
        want["d_to_origin"].append(sp.metric_d(origin, product))
        want["d_to_double"].append(sp.metric_d(product, double))
    for key, values in want.items():
        got = (discontinuity if key in discontinuity else incompleteness)[key]
        assert np.array(got).tobytes() == np.array(values).tobytes(), key


@pytest.mark.parametrize(
    "doc",
    [
        {"indices": [1], "series": {}, "verdict": True},
        {"name": "x", "indices": 5, "series": {}, "verdict": True},
        {"name": "x", "indices": [1], "series": [], "verdict": True},
        {"name": "x", "indices": [1], "series": {"a": 5}, "verdict": True},
        {"name": "x", "indices": [1], "series": {}},
        {"name": "x", "indices": "ab", "series": {}, "verdict": True},
        {"name": "x", "indices": [1], "series": {"a": [1.0, 2.0, 3.0]}, "verdict": True},
        [1, 2],
        None,
        3,
        "report",
    ],
)
def test_report_from_dict_rejects_malformed_input_with_value_error(doc):
    with pytest.raises(ValueError, match="malformed experiment report"):
        ExperimentReport.from_dict(doc)
    with pytest.raises(ValueError, match="malformed experiment report"):
        ExperimentReport.from_json(json.dumps(doc))


@pytest.mark.parametrize("bad", [bad for bad in BAD_INTEGERS if bad != BIG_INT])
def test_report_seed_must_be_a_json_integer(bad):
    doc = ExperimentReport("x", [1], {"a": [1.0]}, True, seed=3).to_dict()
    assert ExperimentReport.from_dict(doc).seed == 3
    with pytest.raises(ValueError, match="seed"):
        ExperimentReport.from_json(with_value(doc, "seed", bad))


@pytest.mark.parametrize(
    "key, bad",
    [("name", bad) for bad in ("5", "true", "null")]
    + [("verdict", bad) for bad in ('"false"', "0", "1", "null")]
    + [("series", bad) for bad in ('{"a": ["x"]}', '{"a": [true]}', '{"a": [null]}', '{"a": [1e400]}')],
)
def test_report_values_must_have_their_json_types(key, bad):
    # a bad value fails at decode time, not later in to_dict
    doc = ExperimentReport("x", [1], {"a": [1.0]}, True).to_dict()
    assert ExperimentReport.from_dict(doc).to_dict() == doc
    with pytest.raises(ValueError, match=key):
        ExperimentReport.from_json(with_value(doc, key, bad))


@pytest.mark.parametrize(
    "change, message",
    [
        ({"indices": [0.5, True]}, "report index"),
        ({"indices": [1, 0]}, "report index"),
        ({"indices": [1]}, "one value per index"),
        ({"name": 5}, "name"),
        ({"verdict": "false"}, "verdict"),
        ({"verdict": np.True_}, "verdict"),
        ({"seed": 1.5}, "seed"),
        ({"seed": -1}, "seed"),
    ],
)
def test_a_report_checks_itself_on_construction(change, message):
    # what from_dict refuses a built report refuses too, so to_json never
    # writes a record its own decoder refuses
    rep = sp.experiment_group_discontinuity(2)
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(rep, **change)
    built = dataclasses.replace(rep, indices=[np.int64(1), 2], seed=np.int64(4))
    assert built.indices == [1, 2] and built.seed == 4
    assert ExperimentReport.from_json(built.to_json()) == built


def test_a_series_grown_after_construction_is_refused():
    # the series stay lists, so one can grow after the report is built:
    # to_json refuses to write the record from_dict would refuse, and the
    # verdict is not rechecked on a series with a value no index holds
    rep = sp.experiment_group_discontinuity(2)
    rep.series["d_product_to_origin"].append(1.0)
    message = "every report series must hold one value per index$"
    with pytest.raises(ValueError, match=f"^{message}"):
        rep.to_json()
    with pytest.raises(ValueError, match=f"^malformed experiment report: {message}"):
        sp.recheck_verdict(rep)


@pytest.mark.parametrize("bad", [float("inf"), -float("inf"), float("nan")])
def test_a_non_finite_series_value_is_a_numerical_failure(bad):
    # a report holds computed values, so one beyond float range is refused
    # by name as a numerical failure, not as a malformed record
    rep = sp.experiment_group_discontinuity(2)
    rep.series["d_product_to_origin"][1] = bad
    for write in (rep.to_dict, rep.to_json):
        with pytest.raises(FloatingPointError, match="^report series 'd_product_to_origin' is beyond float range$"):
            write()


def test_report_from_json_rejects_invalid_json_with_value_error():
    with pytest.raises(ValueError):
        ExperimentReport.from_json("{not json")


@pytest.mark.parametrize(
    "experiment, top",
    [
        (sp.experiment_incompleteness, _MAX_COEFFICIENTS // 256),
        (sp.experiment_group_discontinuity, _MAX_COEFFICIENTS // 32),
    ],
)
def test_n_max_stays_within_the_coefficient_budget(experiment, top):
    # refused by name before any path is built
    assert top in (131072, 1048576)
    with pytest.raises(ValueError, match=f"n_max <= {top}, got {top + 1}"):
        experiment(top + 1)
