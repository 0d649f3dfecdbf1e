import math
import time

import numpy as np
import pytest

import sigpath as sp

from helpers import (
    max_coeff_gap,
    quadrature_signature,
    random_path,
    reference_check_group_like,
    reference_exact_signature,
    reference_mul,
    reference_pairs,
    reference_right_bracketing,
    reference_signature,
    resplit,
    same_bits,
    traced_peak_bytes,
)
from sigpath.signature_engine import (
    _CHUNK,
    _lie_residual,
    _log_majorant,
    _pair_gaps,
    _right_bracketing,
    _signature_levels,
)


def test_exp_segment_levels():
    v = np.array([2.0, -1.0])
    g = sp.exp_segment(v, 3)
    assert g.levels[0][0] == 1.0
    assert np.array_equal(g.levels[1], v)
    assert np.array_equal(g.levels[2], np.outer(v, v).ravel() / 2.0)
    lvl3 = np.multiply.outer(np.outer(v, v), v).ravel() / 6.0
    assert np.allclose(g.levels[3], lvl3, atol=1e-15)


def test_signature_of_trivial_path():
    o = sp.constant_path(3)
    s = sp.signature(o, 4)
    one = sp.unit(3, 4)
    assert max_coeff_gap(s, one) == 0.0


def test_signature_matches_quadrature_oracle():
    # independent oracle: RK4 on the signature ODE, nothing shared with
    # the Chen-product construction
    rng = np.random.default_rng(0)
    for _ in range(8):
        p = random_path(rng, max_segments=3, scale=1.0)
        s = sp.signature(p, 4)
        q = quadrature_signature(p, 4)
        assert max_coeff_gap(s, q) <= 1e-8


def test_chen_identity():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(30):
        d = int(rng.integers(1, 4))
        a = random_path(rng, dim=d)
        b = random_path(rng, dim=d)
        lhs = sp.signature(sp.concat(a, b), 5)
        rhs = sp.mul(sp.signature(a, 5), sp.signature(b, 5))
        worst = max(worst, max_coeff_gap(lhs, rhs))
    assert worst <= 1e-12


def test_reversal_gives_inverse():
    rng = np.random.default_rng(2)
    for _ in range(15):
        p = random_path(rng)
        s = sp.signature(p, 5)
        r = sp.signature(sp.reverse(p), 5)
        assert max_coeff_gap(sp.inverse_psi(s), r) <= 1e-12
        prod = sp.mul(s, r)
        assert sp.max_coefficient_difference(prod, sp.unit(p.dim, 5)) <= 1e-12


def test_reduction_invariance():
    rng = np.random.default_rng(3)
    for _ in range(15):
        p = random_path(rng)
        assert max_coeff_gap(sp.signature(p, 4), sp.signature(sp.reduce(p), 4)) <= 1e-10


def test_reparameterisation_invariance():
    rng = np.random.default_rng(4)
    for _ in range(15):
        p = random_path(rng)
        q = resplit(p, rng)
        assert max_coeff_gap(sp.signature(p, 4), sp.signature(q, 4)) <= 1e-12


def test_log_signature_first_level():
    rng = np.random.default_rng(5)
    p = random_path(rng, dim=2)
    ls = sp.log_signature(p, 4)
    assert ls.levels[0][0] == 0.0
    # level 1 of the log-signature is the total displacement
    assert np.allclose(ls.levels[1], p.points[-1], atol=1e-12)


def test_exact_signature_agrees_with_float():
    rng = np.random.default_rng(6)
    for _ in range(5):
        p = random_path(rng, dim=2, max_segments=4)
        a = sp.signature(p, 4)
        b = sp.exact_signature(p, 4)
        assert max_coeff_gap(a, b) <= 1e-13


def test_exact_signature_exact_cancellations():
    # the loop families cancel to literal zeros, not float residue
    for k in (1, 2, 3):
        s = sp.exact_signature(sp.gamma_loop(k), k)
        for m in range(1, k + 1):
            assert np.all(s.levels[m] == 0.0)
    with pytest.raises(ValueError):
        sp.exact_signature(random_path(np.random.default_rng(7), dim=3), 9)


@pytest.mark.parametrize("sample", [-5, 2.5, True, "200"])
def test_check_group_like_refuses_a_bad_sample(sample):
    # a negative sample used to check no sampled pair and pass
    with pytest.raises(ValueError, match="need an integer sample >= 0"):
        sp.check_group_like(sp.unit(2, 3), sample=sample)


def test_size_arguments_of_the_signature_layer():
    path = sp.linear_path([1.0, 0.5])
    with pytest.raises(ValueError, match="need an integer depth >= 0"):
        sp.exact_signature(path, 2.5)
    with pytest.raises(ValueError, match="depth"):
        sp.exact_signature(path, -1)
    # feature_count checks its sizes through _count like every other entry
    with pytest.raises(ValueError, match="need an integer depth >= 0"):
        sp.feature_count(2, 2.5)
    assert sp.feature_count(2, np.int64(2)) == 7
    want = sp.exact_signature(path, 3)
    assert same_bits(sp.exact_signature(path, np.int64(3)).levels, want.levels)
    x = sp.signature(path, 4)
    assert sp.check_group_like(x, sample=np.int64(50)) == sp.check_group_like(x, sample=50)


def test_check_group_like_pass_and_fail():
    rng = np.random.default_rng(8)
    for _ in range(10):
        rep = sp.check_group_like(sp.signature(random_path(rng), 5))
        assert rep.passed
        assert rep.max_discrepancy <= 1e-9

    assert sp.check_group_like(sp.unit(2, 3)).passed

    lv = [np.zeros(2**k) for k in range(3)]
    lv[0][0] = 1.0
    lv[2][sp.word_index((1, 2), 2)] = 1.0
    planted = sp.TruncatedTensor(2, 2, lv)
    rep = sp.check_group_like(planted)
    assert not rep.passed
    assert rep.max_discrepancy == pytest.approx(1.0)

    with pytest.raises(ValueError):
        sp.check_group_like(sp.scale(sp.unit(2, 2), 2.0))


def test_mirror_pair_coincidence_small():
    # stage-n mirror pair: identical through level n, split at level n+1
    for n in (1, 2, 3):
        rho, sigma = sp.axis_rho_sigma(n)
        sr = sp.signature(rho, n + 1)
        ss = sp.signature(sigma, n + 1)
        for k in range(n + 1):
            assert np.max(np.abs(sr.levels[k] - ss.levels[k])) == 0.0
        diff = sp.sub(sr, ss)
        assert sp.level_norm(diff, n + 1) > 1e-6


def test_signature_is_bitwise_the_pairwise_fold():
    rng = np.random.default_rng(9)
    for d in range(1, 5):
        for depth in range(7):
            for m in (0, 1, 2, 3, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1, 40):
                p = sp.PiecewiseLinearPath(d, rng.normal(size=(m, d)))
                want = reference_signature(p.segments, depth)
                assert same_bits(sp.signature(p, depth).levels, want), (d, depth, m)
            x = sp.signature(random_path(rng, dim=d), depth)
            y = sp.exp_segment(rng.normal(size=d), depth)
            assert same_bits(sp.mul(x, y).levels, reference_mul(x.levels, y.levels))


def _kernel_outcome(segments, depth):
    try:
        return _signature_levels(segments, depth)
    except FloatingPointError:
        return "overflow"


def test_batched_kernel_is_bitwise_the_reference_fold():
    # d 1-5 and depth 0-8 put both _outer routes (d**j < d**i and not) in
    # the fold, the first exponentials and the Horner steps; m runs across
    # the chunk edges, and the top level is capped at 5**6 coefficients so
    # the loop reference stays quick
    rng = np.random.default_rng(14)
    overflowed = 0
    for d in range(1, 6):
        for depth in range(9):
            if d**depth > 5**6:
                continue
            for m in (0, 1, 2, 3, 5, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1, 40):
                n = int(rng.integers(1, 4))
                segments = rng.normal(size=(n, m, d))
                segments[rng.random(size=segments.shape) < 0.15] = 0.0
                segments[rng.random(size=segments.shape) < 0.15] = -0.0
                batches = [segments]
                if m:
                    big = segments.copy()
                    big[int(rng.integers(0, n)), int(rng.integers(0, m))] *= 1e200
                    batches.append(big)
                for batch in batches:
                    with np.errstate(over="ignore", invalid="ignore"):
                        want = [reference_signature(row, depth) for row in batch]
                    got = _kernel_outcome(batch, depth)
                    if any(not np.all(np.isfinite(lvl)) for w in want for lvl in w):
                        overflowed += 1
                        assert got == "overflow", (d, depth, m)
                        continue
                    assert got != "overflow", (d, depth, m)
                    for row, w in enumerate(want):
                        assert same_bits([lvl[row] for lvl in got], w), (d, depth, m, row)
    assert overflowed > 0


def test_kernel_peak_memory_is_about_twice_the_budgeted_coefficients():
    # the long-path benchmark's signature shapes, a batched regression shape
    # and a long path at d = 1, where a step's factors are as large as the
    # chunk signatures; the budget counts the chunk signatures twice
    rng = np.random.default_rng(15)
    shapes = ((1, 400, 5, 4), (1, 330, 3, 6), (1, 340, 2, 8), (130, 4, 3, 5), (1, 100000, 1, 8))
    for n, m, d, depth in shapes:
        segments = rng.normal(size=(n, m, d)) * 0.1
        budgeted = 8 * 2 * n * math.ceil(m / _CHUNK) * sp.feature_count(d, depth)
        assert traced_peak_bytes(_signature_levels, segments, depth) <= 2.1 * budgeted, (m, d)


def test_every_signature_goes_through_the_one_fold(monkeypatch):
    calls = []
    fold = sp.signature_engine._fold

    def counting(*args, **kwargs):
        calls.append(1)
        return fold(*args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("the kernel multiplied through tensor_algebra")

    monkeypatch.setattr(sp.signature_engine, "_fold", counting)
    monkeypatch.setattr(sp.tensor_algebra, "_mul_levels", refuse)
    monkeypatch.setattr(sp.signature_engine, "_mul_levels", refuse, raising=False)
    monkeypatch.setattr(sp.tensor_algebra, "mul", refuse)
    path = sp.PiecewiseLinearPath(2, [[1.0, 0.5], [-0.25, 2.0], [0.5, 0.5]])
    field, y0 = sp.demo_field()
    runs = (
        lambda: sp.signature(path, 4),
        lambda: sp.exp_segment([1.0, -2.0], 4),
        lambda: sp.generate_dataset(field, y0, 4, 3, 1.0, 0.0, seed=0, depth=3),
        lambda: sp.exact_signature(path, 4),
    )
    for run in runs:
        before = len(calls)
        run()
        assert len(calls) == before + 1


def test_signature_accuracy_on_dyadic_path():
    # 128 steps in multiples of 1/16: exact_signature is the exact value
    rng = np.random.default_rng(10)
    p = sp.PiecewiseLinearPath(2, rng.integers(-16, 17, size=(128, 2)) / 16)
    got = sp.signature(p, 6)
    exact = sp.exact_signature(p, 6)
    for a, b in zip(got.levels, exact.levels):
        assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))


def test_signature_accuracy_sweep_across_chunk_counts():
    # dyadic steps, so exact_signature is the exact value: one chunk, the
    # chunk edges and long trees, each d at the deepest depth <= 8 that
    # exact_signature takes.  Each level is held to 1e-13 of max(1, its
    # largest coefficient); at d = 1 level k is (sum v)**k / k!, which may
    # cancel far below the products of size L**k / k! that any fold sums,
    # so there the scale is max(1, L**k / k!), L the path's length
    rng = np.random.default_rng(31)
    for d, depth in ((1, 8), (2, 8), (3, 7), (4, 6), (5, 5)):
        for m in (1, 7, 8, 9, 48, 128, 400):
            p = sp.PiecewiseLinearPath(d, rng.integers(-16, 17, size=(m, d)) / 16)
            got, exact = sp.signature(p, depth), sp.exact_signature(p, depth)
            for k, (a, b) in enumerate(zip(got.levels, exact.levels)):
                size = p.length**k / math.factorial(k) if d == 1 else np.max(np.abs(b))
                assert np.max(np.abs(a - b)) <= 1e-13 * max(1.0, size), (d, m, k)


def test_size_budget_is_checked_before_allocating():
    p = sp.PiecewiseLinearPath(2, [[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="limit"):
        sp.signature(p, 64)
    with pytest.raises(ValueError, match="limit"):
        sp.exp_segment([1.0, 0.0], 64)
    # the count stops at the budget, so a huge depth is rejected at once
    for d in (1, 2):
        with pytest.raises(ValueError, match="limit"):
            sp.signature(sp.PiecewiseLinearPath(d, np.ones((1, d))), 10**9)


def test_size_budget_counts_chunk_signatures(monkeypatch):
    # a planar path at depth 4 counts 2 * ceil(m / 8) * 31 coefficients:
    # 496 at 64 segments, 558 at 65
    monkeypatch.setattr(sp.tensor_algebra, "_MAX_COEFFICIENTS", 500)
    steps = np.random.default_rng(31).normal(size=(65, 2))
    sp.signature(sp.PiecewiseLinearPath(2, steps[:64]), 4)
    with pytest.raises(ValueError, match="1 x 65 segments of dimension 2 exceeds the limit of 500"):
        sp.signature(sp.PiecewiseLinearPath(2, steps), 4)


def test_deep_signature_of_a_long_path_fits_the_budget():
    # 300 planar segments at depth 16 hold 38 chunk signatures of 131071
    # coefficients; one exponential per segment would not fit 2**25
    path = sp.PiecewiseLinearPath(2, 0.1 * np.random.default_rng(32).normal(size=(300, 2)))
    assert same_bits(sp.signature(path, 16).levels[:9], sp.signature(path, 8).levels)


def test_exact_signature_depth_cap_is_quick():
    for d in (1, 2):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="limit"):
            sp.exact_signature(sp.PiecewiseLinearPath(d, np.ones((1, d))), 10**9)
        assert time.perf_counter() - start < 1.0
    # the accepted set: depth 12 at d = 2, depth 100 at d = 1
    sp.exact_signature(sp.PiecewiseLinearPath(2, np.ones((1, 2))), 12)
    sp.exact_signature(sp.PiecewiseLinearPath(1, np.ones((1, 1))), 100)
    for d, depth in ((2, 13), (1, 101)):
        with pytest.raises(ValueError, match="limit"):
            sp.exact_signature(sp.PiecewiseLinearPath(d, np.ones((1, d))), depth)


def _exact_outcome(fn, path, depth):
    try:
        return fn(path, depth)
    except OverflowError:
        return "overflow"


def test_exact_signature_is_bitwise_the_rational_fold():
    cases = [(sp.gamma_loop(k), 6) for k in range(1, 6)]
    rng = np.random.default_rng(12)
    for _ in range(40):
        d, depth = int(rng.integers(1, 4)), int(rng.integers(0, 6))
        cases.append((random_path(rng, dim=d, max_segments=11), depth))
    for d in (1, 2, 3):
        x = rng.normal(size=(7, d)) * 10.0 ** rng.choice([-300, 0, 300], size=(7, d))
        x[rng.random(size=x.shape) < 0.3] = -0.0
        cases.append((sp.PiecewiseLinearPath(d, x), 3))
        cases.append((sp.PiecewiseLinearPath(d, rng.integers(-3, 4, size=(5, d)) * 5e-324), 4))
        cases.append((sp.PiecewiseLinearPath(d, np.zeros((0, d))), 4))
    overflowed = 0
    for path, depth in cases:
        want = _exact_outcome(reference_exact_signature, path, depth)
        got = _exact_outcome(sp.exact_signature, path, depth)
        if want == "overflow":
            overflowed += 1
            assert got == "overflow"
        else:
            assert got != "overflow" and same_bits(got.levels, want), (path.segments, depth)
    assert overflowed > 0
    with pytest.raises(OverflowError):
        sp.exact_signature(sp.PiecewiseLinearPath(2, [[1e300, 1e300], [-1e300, 0.5]]), 2)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_paths_without_a_nonzero_segment_have_the_unit_signature(d):
    # the empty path runs as one zero segment inside _segment_levels, on
    # floats and on either integer type: every route gives the unit's bits
    # (level 0 one, every other coefficient +0.0)
    for depth in range(5):
        want = sp.unit(d, depth).levels
        for segs in (np.zeros((0, d)), np.zeros((1, d))):
            path = sp.PiecewiseLinearPath(d, segs)
            assert same_bits(sp.signature(path, depth).levels, want), (segs.shape, depth)
            assert same_bits(sp.exact_signature(path, depth).levels, want), (segs.shape, depth)
            assert same_bits([lvl[0] for lvl in _signature_levels(segs[None], depth)], want)
        assert same_bits([lvl[1] for lvl in _signature_levels(np.zeros((2, 0, d)), depth)], want)
    # Python ints at depth 100 in one dimension
    assert same_bits(sp.exact_signature(sp.constant_path(1), 100).levels, sp.unit(1, 100).levels)


def _fold_dtypes(monkeypatch):
    # the integer type of every fold exact_signature or the kernel runs
    seen = []
    fold = sp.signature_engine._fold

    def recording(levels):
        seen.append(levels[-1].dtype)
        return fold(levels)

    monkeypatch.setattr(sp.signature_engine, "_fold", recording)
    return seen


def _int64_threshold(depth):
    # the largest L with L**depth < 2**63
    top = int(2 ** (63 / depth))
    while top**depth >= 2**63:
        top -= 1
    while (top + 1) ** depth < 2**63:
        top += 1
    return top


def _split(rng, total, n):
    # n nonnegative integers that sum to total, the first one odd
    parts = np.diff(np.concatenate([[0], np.sort(rng.integers(0, total + 1, size=n - 1)), [total]]))
    if parts[0] % 2 == 0:
        donor = 1 + int(np.argmax(parts[1:]))
        parts[0] += 1
        parts[donor] -= 1
    return parts


def test_exact_signature_int64_switch_is_bitwise(monkeypatch):
    # L = sum of |w|_1 over the integer-scaled steps w: at the largest L
    # with L**depth < 2**63 the fold runs on int64, one above it on Python
    # ints, and both give the rational fold's bits.  Steps along one axis
    # put a coefficient of level depth at L**depth itself; an odd entry
    # makes the integer scaling of w / scale exactly scale
    seen = _fold_dtypes(monkeypatch)
    rng = np.random.default_rng(21)
    for depth, scale in ((2, 2), (3, 1), (3, 16), (5, 4)):
        below = _int64_threshold(depth)
        for total, dtype in ((below, np.int64), (below + 1, object)):
            mixed = (_split(rng, total, 8) * rng.choice([-1, 1], size=8)).reshape(4, 2)
            axis = np.column_stack([_split(rng, total, 4), np.zeros(4, dtype=np.int64)])
            for w in (mixed, axis):
                path = sp.PiecewiseLinearPath(2, w / scale)
                got = sp.exact_signature(path, depth)
                assert seen[-1] == np.dtype(dtype)
                assert same_bits(got.levels, reference_exact_signature(path, depth)), (w, depth)


def test_exact_signature_in_one_dimension(monkeypatch):
    # d = 1: depth 20 with L = 7 folds on int64, depth 100 on Python ints
    seen = _fold_dtypes(monkeypatch)
    path = sp.PiecewiseLinearPath(1, [[0.5], [0.25], [-1.0], [0.0]])
    for depth, dtype in ((20, np.int64), (100, object)):
        got = sp.exact_signature(path, depth)
        assert seen[-1] == np.dtype(dtype)
        assert same_bits(got.levels, reference_exact_signature(path, depth))


def test_exact_signature_on_int64_survives_a_wrapped_partial_sum(monkeypatch):
    # steps 1, 1 and 0 (times 1/2) at depth 62 give L = 2, L**62 < 2**63,
    # so the fold runs on int64.  Where the zero step follows the two unit
    # steps, its Horner partial sums C(k, j) T_j reach C(62, 31) 2**31 >
    # 2**63 and wrap; the step then multiplies them by zero, and int64 sums
    # and products are exact modulo 2**64, so every result keeps its bits
    seen = _fold_dtypes(monkeypatch)
    for steps in ([0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]):
        path = sp.PiecewiseLinearPath(1, np.array(steps)[:, None])
        got = sp.exact_signature(path, 62)
        assert seen[-1] == np.dtype(np.int64)
        assert same_bits(got.levels, reference_exact_signature(path, 62)), steps


def test_witness_loops_fold_on_int64(monkeypatch):
    # product-vs-metric's loops Gamma_1..Gamma_5 at depth 6 stay within
    # 64**6 = 2**36, so a fall back to Python ints is a slowdown and a fault
    seen = _fold_dtypes(monkeypatch)
    assert sp.experiment_product_vs_metric(5).verdict
    assert [dt for dt in seen if dt != np.float64] == [np.dtype(np.int64)] * 5


def test_overflow_is_a_floating_point_error():
    p = sp.PiecewiseLinearPath(2, [[1e100, 1e100], [-1e100, 2e100]])
    with pytest.raises(FloatingPointError):
        sp.signature(p, 4)
    with pytest.raises(FloatingPointError):
        sp.exp_segment([1e200], 2)
    with pytest.raises(ValueError):
        sp.exp_segment([np.inf], 2)


def _group_like_corpus():
    """Signatures, the unit, empty and one-segment paths and non-group-like
    tensors with level-0 coefficient 1, for d 1-4 and depth 0-7."""
    rng = np.random.default_rng(20)
    out = []
    for d in (1, 2, 3, 4):
        for depth in range(8):
            if d**depth > 4**6:
                continue
            path = sp.PiecewiseLinearPath(d, rng.normal(size=(int(rng.integers(2, 6)), d)))
            levels = [rng.normal(size=d**k) for k in range(depth + 1)]
            levels[0][0] = 1.0
            out += [
                sp.signature(path, depth),
                sp.unit(d, depth),
                sp.signature(sp.constant_path(d), depth),
                sp.signature(sp.linear_path(rng.normal(size=d)), depth),
                sp.TruncatedTensor(d, depth, levels),
            ]
    return out


def _gathered_gaps(x, pairs):
    # _pair_gaps on each (|u|, |w|) group of the pair list, back in list order
    gaps = np.empty(len(pairs))
    groups = {}
    for i, (u, w) in enumerate(pairs):
        groups.setdefault((len(u), len(w)), []).append(i)
    for (a, b), rows in groups.items():
        digits = np.array([pairs[i][0] + pairs[i][1] for i in rows], dtype=np.int64) - 1
        gaps[rows] = _pair_gaps(x.levels, x.dim, a, b, digits)
    return gaps


def _drawn_pairs(d, depth, sample, seed):
    # the pairs check_group_like visits when its draws fit in one block
    pairs = reference_pairs(d, depth, sample=0)
    if depth >= 2 and sample > 0:
        rng = np.random.default_rng(seed)
        lu = rng.integers(1, depth, size=sample)
        lw = rng.integers(1, depth - lu + 1)
        letters = 1 + rng.integers(0, d, size=(sample, 2, depth - 1))
        for i in range(sample):
            pairs.append(
                (tuple(letters[i, 0, : lu[i]].tolist()), tuple(letters[i, 1, : lw[i]].tolist()))
            )
    return pairs


def test_shuffle_gather_matches_the_per_pair_loop():
    # same pair list, each gap within a few ulps of the pair's magnitude
    eps = np.finfo(float).eps
    for x in _group_like_corpus():
        pairs = reference_pairs(x.dim, x.depth, sample=40, seed=3)
        if not pairs:
            continue
        got = _gathered_gaps(x, pairs)
        for gap, (u, w) in zip(got, pairs):
            lhs, rhs = sp.shuffle_pairing(x, u, w)
            size = sum(
                m * abs(x.coefficient(word)) for word, m in sp.shuffle_words(u, w).items()
            ) + abs(rhs)
            assert abs(gap - abs(lhs - rhs)) <= 8 * eps * size


def test_check_group_like_matches_the_reference_exactly_on_integer_tensors():
    # integer coefficients make every gap exact, so ties and the order of
    # the pairs decide worst_pair exactly as the per-pair loop does
    rng = np.random.default_rng(21)
    for d in (1, 2, 3):
        for depth in range(7):
            levels = [rng.integers(-2, 3, size=d**k).astype(float) for k in range(depth + 1)]
            levels[0][0] = 1.0
            x = sp.TruncatedTensor(d, depth, levels)
            for sample, seed in ((0, 0), (60, 5)):
                rep = sp.check_group_like(x, sample=sample, seed=seed)
                ok, worst, count, worst_pair = reference_check_group_like(
                    x, pairs=_drawn_pairs(d, depth, sample, seed)
                )
                assert rep.max_discrepancy == worst
                assert rep.worst_pair == worst_pair
                assert rep.pairs_checked == count
                assert rep.passed == (ok and rep.lie_residual <= rep.lie_tolerance)


def test_check_group_like_counts_the_reference_pairs():
    # at d = 1 every riffle gives the same word, so depth 40 forms none
    for d, depth, sample in ((1, 0, 5), (2, 1, 5), (3, 6, 2000), (4, 3, 7), (1, 40, 50)):
        rep = sp.check_group_like(sp.unit(d, depth), sample=sample)
        assert rep.pairs_checked == len(reference_pairs(d, depth, sample))
        assert rep.passed and rep.worst_pair == ((), ())
        assert rep.max_discrepancy == 0.0 and rep.lie_residual == 0.0


def test_check_group_like_catches_the_all_ones_perturbation():
    # the word (1,)*6 is one of 729 at level 6: the per-pair loop's 2000
    # sampled pairs miss it, and without samples only the Lie residual sees it
    for seed in range(4):
        rng = np.random.default_rng(seed)
        sig = sp.signature(sp.PiecewiseLinearPath(3, 0.4 * rng.normal(size=(8, 3))), 6)
        assert sp.check_group_like(sig, sample=2000).passed
        levels = [lvl.copy() for lvl in sig.levels]
        levels[6][sp.word_index((1,) * 6, 3)] += 1e-6
        planted = sp.TruncatedTensor(3, 6, levels)
        assert reference_check_group_like(planted, sample=2000)[0]
        for sample in (2000, 0):
            rep = sp.check_group_like(planted, sample=sample)
            assert not rep.passed
            assert rep.lie_residual > rep.lie_tolerance
            assert rep.lie_residual == pytest.approx(1e-6, rel=1e-6)


def test_check_group_like_fails_when_a_pair_overflows():
    # <x, 1 shuffle 1> = 2e308 and <x, 1>**2 = 1e400 both overflow: the gap
    # is not a number, which must count as a failure, without warnings
    x = sp.TruncatedTensor(2, 2, [[1.0], [1e200, 0.0], [1e308, 0.0, 0.0, 0.0]])
    rep = sp.check_group_like(x)
    assert not rep.passed
    assert rep.max_discrepancy == np.inf and rep.worst_pair == ((1,), (1,))
    assert rep.lie_residual == np.inf


def test_right_bracketing_is_the_word_expansion():
    rng = np.random.default_rng(22)
    for d in (1, 2, 3):
        for k in range(1, 6):
            p = rng.normal(size=d**k)
            want = reference_right_bracketing(p, d, k)
            assert np.allclose(_right_bracketing(p, k, d)[0], want, rtol=0, atol=1e-13)


def test_lie_residual_scales_with_the_log_series():
    # long d = 1 paths at depth 16: the log terms are k! times the largest
    # coefficient, and the residual stays within the majorant's tolerance
    rng = np.random.default_rng(23)
    for d, depth, size in ((1, 16, 3.0), (2, 12, 1.0), (3, 8, 2.0)):
        for _ in range(3):
            x = sp.signature(sp.PiecewiseLinearPath(d, size * rng.normal(size=(4, d))), depth)
            rep = sp.check_group_like(x, sample=0)
            assert rep.lie_residual <= 1e-3 * rep.lie_tolerance
    # a Lie element is fixed by r/k; its exponential is group-like
    lie = [np.zeros(2**k) for k in range(4)]
    lie[2][sp.word_index((1, 2), 2)], lie[2][sp.word_index((2, 1), 2)] = 1.0, -1.0
    g = sp.exp(sp.TruncatedTensor(2, 3, lie))
    assert _lie_residual(g.levels, 2) <= 1e-15
    assert sp.check_group_like(g).passed


def test_lie_residual_at_one_letter_is_the_log_beyond_level_one():
    # at d = 1 every bracket of degree >= 2 vanishes: the residual is
    # max_k>=2 |(log x)_k|, summed as a power series in one letter
    rng = np.random.default_rng(26)
    eps = np.finfo(float).eps
    for depth in range(2, 41):
        x = sp.signature(sp.PiecewiseLinearPath(1, rng.normal(size=(4, 1))), depth)
        want = max(float(np.abs(lvl).max()) for lvl in sp.log(x).levels[2:])
        got = _lie_residual(x.levels, 1)
        assert abs(got - want) <= 64 * eps * max(1.0, _log_majorant(x.levels))
    # a defect at level 6 of depth 8: the deterministic pairs stop at
    # length 4, so only the residual sees it, as |(log x)_6| = 1e-6
    sig = sp.signature(sp.PiecewiseLinearPath(1, np.array([[0.3], [-0.5], [0.4]])), 8)
    assert sp.check_group_like(sig, sample=0).passed
    levels = [lvl.copy() for lvl in sig.levels]
    levels[6][0] += 1e-6
    rep = sp.check_group_like(sp.TruncatedTensor(1, 8, levels), sample=0)
    assert not rep.passed and rep.max_discrepancy <= rep.tolerance
    assert rep.lie_residual == pytest.approx(1e-6, rel=1e-6)
    # an overflowing log counts as an infinite residual, without warnings,
    # also where inf * 0 makes a level not a number
    assert _lie_residual([np.ones(1), np.array([1e200]), np.array([1e308])], 1) == np.inf
    assert _lie_residual([np.ones(1), np.array([1e200]), np.array([1e200]), np.ones(1)], 1) == np.inf


def test_lie_residual_at_one_letter_skips_the_tensor_log(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("tensor log at d = 1")

    monkeypatch.setattr(sp.signature_engine, "_log_levels", refuse)
    x = sp.signature(sp.PiecewiseLinearPath(1, np.array([[0.7], [-0.2]])), 40)
    assert sp.check_group_like(x).passed


def test_check_group_like_blocks_give_the_same_pairs(monkeypatch):
    rng = np.random.default_rng(24)
    x = sp.signature(sp.PiecewiseLinearPath(3, 0.5 * rng.normal(size=(5, 3))), 5)
    levels = [lvl.copy() for lvl in x.levels]
    levels[4][7] += 1e-3
    y = sp.TruncatedTensor(3, 5, levels)
    want = sp.check_group_like(y, sample=0)
    monkeypatch.setattr(sp.signature_engine, "_MAX_COEFFICIENTS", 50)
    assert sp.check_group_like(y, sample=0) == want
    rep = sp.check_group_like(x, sample=300)
    assert rep.passed and rep.pairs_checked == len(reference_pairs(3, 5, 300))


def test_check_group_like_reads_no_coefficient_word_by_word(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("per-word access")

    monkeypatch.setattr(sp.TruncatedTensor, "coefficient", refuse)
    monkeypatch.setattr(sp.tensor_algebra, "shuffle_pairing", refuse)
    monkeypatch.setattr(sp.signature_engine, "shuffle_pairing", refuse, raising=False)
    rng = np.random.default_rng(25)
    x = sp.signature(sp.PiecewiseLinearPath(3, 0.4 * rng.normal(size=(8, 3))), 6)
    assert sp.check_group_like(x, sample=2000).passed


def test_check_group_like_scales_the_shuffle_gaps_like_the_residual():
    # a genuine signature of a longer path: its largest shuffle gap, 6.1e-9,
    # is rounding of level-6 sums of size mu_6, far inside lie_tolerance
    path = sp.PiecewiseLinearPath(2, 5 * np.random.default_rng(3).normal(size=(8, 2)))
    rep = sp.check_group_like(sp.signature(path, 6))
    assert rep.passed
    assert rep.tolerance < rep.max_discrepancy <= rep.lie_tolerance
    assert rep.worst_pair == ((2, 1, 2), (2, 2, 2))


def test_check_group_like_passes_correctly_rounded_signatures():
    # exact_signature rounds each coefficient once, so every gap and the
    # residual are rounding of the check alone
    for d, depths in ((1, (6, 7, 8)), (2, (6, 7, 8)), (3, (6,))):
        for depth in depths:
            for step in (0.1, 1.0, 5.0, 20.0):
                for seed in range(5):
                    rng = np.random.default_rng(seed)
                    path = sp.PiecewiseLinearPath(d, step * rng.normal(size=(8, d)))
                    rep = sp.check_group_like(sp.exact_signature(path, depth))
                    assert rep.passed, (d, depth, step, seed)
                    assert max(rep.max_discrepancy, rep.lie_residual) <= 1e-5 * rep.lie_tolerance


def test_check_group_like_passes_float_signatures_unless_the_fold_lost_them():
    # 8-step Gaussian paths, d 1-3, depth 6-8, steps 0.1-20: every float
    # signature passes, except where the fold's rounding left it a million
    # ulps from exact_signature.  That happens at d = 1 on a path whose
    # steps nearly cancel (length 38-152 against an endpoint of 1-4): level
    # k is the difference of products of size L**k/k!, while the check can
    # only scale by the sizes of the result
    eps = np.finfo(float).eps
    failed = []
    for d in (1, 2, 3):
        for depth in (6, 7, 8):
            for step in (0.1, 1.0, 5.0, 20.0):
                for seed in range(10):
                    rng = np.random.default_rng(seed)
                    path = sp.PiecewiseLinearPath(d, step * rng.normal(size=(8, d)))
                    sig = sp.signature(path, depth)
                    if sp.check_group_like(sig).passed:
                        continue
                    exact = sp.exact_signature(path, depth)
                    assert sp.check_group_like(exact).passed
                    size = max(1.0, max(float(np.abs(lvl).max()) for lvl in exact.levels))
                    assert max_coeff_gap(sig, exact) > 1e5 * eps * size
                    failed.append((d, depth, step, seed))
    assert {case[0] for case in failed} <= {1}


def test_check_group_like_fails_when_the_majorant_overflows():
    # mu_2 >= max|x_1|**2 / 2 is beyond float range: no rounding bound is
    # left, so the infinite gap of <x, 1 shuffle 1> = 0 against 1e400 fails
    x = sp.TruncatedTensor(2, 2, [[1.0], [1e200, 0.0], [0.0, 0.0, 0.0, 0.0]])
    rep = sp.check_group_like(x)
    assert rep.lie_tolerance == np.inf
    assert not rep.passed
    # and a finite gap fails too when the tolerance is infinite
    y = sp.TruncatedTensor(2, 2, [[1.0], [1e154, 0.0], [5e307, 1.5e308, -1.5e308, 0.0]])
    rep = sp.check_group_like(y)
    assert rep.lie_tolerance == np.inf and rep.max_discrepancy < np.inf
    assert not rep.passed
