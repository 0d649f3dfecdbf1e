import numpy as np
import pytest

import sigpath as sp

from helpers import (
    max_coeff_gap,
    quadrature_signature,
    random_path,
    reference_mul,
    reference_signature,
    resplit,
    same_bits,
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
            for m in (0, 1, 2, 3, 7, 40):
                p = sp.PiecewiseLinearPath(d, rng.normal(size=(m, d)))
                want = reference_signature(p.segments, depth)
                assert same_bits(sp.signature(p, depth).levels, want), (d, depth, m)
            x = sp.signature(random_path(rng, dim=d), depth)
            y = sp.exp_segment(rng.normal(size=d), depth)
            assert same_bits(sp.mul(x, y).levels, reference_mul(x.levels, y.levels))


def test_signature_accuracy_on_dyadic_path():
    # 128 steps in multiples of 1/16: exact_signature is the exact value
    rng = np.random.default_rng(10)
    p = sp.PiecewiseLinearPath(2, rng.integers(-16, 17, size=(128, 2)) / 16)
    got = sp.signature(p, 6)
    exact = sp.exact_signature(p, 6)
    for a, b in zip(got.levels, exact.levels):
        assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))


def test_size_budget_is_checked_before_allocating():
    p = sp.PiecewiseLinearPath(2, [[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="limit"):
        sp.signature(p, 64)
    with pytest.raises(ValueError, match="limit"):
        sp.exp_segment([1.0, 0.0], 64)


def test_overflow_is_a_floating_point_error():
    p = sp.PiecewiseLinearPath(2, [[1e100, 1e100], [-1e100, 2e100]])
    with pytest.raises(FloatingPointError):
        sp.signature(p, 4)
    with pytest.raises(FloatingPointError):
        sp.exp_segment([1e200], 2)
    with pytest.raises(ValueError):
        sp.exp_segment([np.inf], 2)
