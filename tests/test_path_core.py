import io
import json

import numpy as np
import pytest

import sigpath as sp
from sigpath.path_core import (
    PathFormatError,
    evaluate,
    path_from_dict,
    path_to_dict,
    positions_at,
    read_csv,
    write_csv,
)

from helpers import random_path, resplit


def test_linear_path_and_origin():
    p = sp.linear_path([1.0, -2.0])
    assert p.dim == 2 and p.segment_count == 1
    assert np.array_equal(evaluate(p, 1.0), np.array([1.0, -2.0]))
    assert np.array_equal(evaluate(p, 0.0), np.zeros(2))

    o = sp.linear_path([0.0, 0.0])
    assert o.length == 0.0
    assert np.array_equal(evaluate(o, 0.7), np.zeros(2))


def test_evaluate_midpoints_constant_speed():
    # two unit segments: the clock splits 50/50
    p = sp.PiecewiseLinearPath(2, np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert np.allclose(evaluate(p, 0.25), [0.5, 0.0])
    assert np.allclose(evaluate(p, 0.5), [1.0, 0.0])
    assert np.allclose(evaluate(p, 0.75), [1.0, 0.5])
    with pytest.raises(ValueError):
        evaluate(p, 1.5)


def test_concat_reverse():
    rng = np.random.default_rng(0)
    a = random_path(rng, dim=2)
    b = random_path(rng, dim=2)
    c = sp.concat(a, b)
    assert c.segment_count == a.segment_count + b.segment_count
    end = evaluate(a, 1.0) + evaluate(b, 1.0)
    assert np.allclose(evaluate(c, 1.0), end)

    r = sp.reverse(a)
    rr = sp.reverse(r)
    assert np.array_equal(rr.segments, a.segments)
    with pytest.raises(ValueError):
        sp.concat(a, random_path(rng, dim=3))


def test_reduce_examples():
    v = np.array([0.3, -1.2])
    loop = sp.concat(sp.linear_path(v), sp.linear_path(-v))
    assert sp.reduce(loop).segment_count == 0

    run = sp.concat(sp.linear_path([1.0, 0.0]), sp.linear_path([1.0, 0.0]))
    red = sp.reduce(run)
    assert red.segment_count == 1
    assert np.array_equal(red.segments[0], np.array([2.0, 0.0]))

    e1 = sp.linear_path([1.0, 0.0])
    e2 = sp.linear_path([0.0, 1.0])
    z = sp.concat(sp.concat(e1, e2), sp.concat(sp.reverse(e2), e1))
    red = sp.reduce(z)
    assert red.segment_count == 1
    assert np.array_equal(red.segments[0], np.array([2.0, 0.0]))


def test_reduce_drops_cancellation_residue():
    # 0.1 + 0.2 - 0.3 rounds to 5.55e-17, which must not survive as a segment
    for p in (
        sp.PiecewiseLinearPath(1, [[0.1], [0.2], [-0.3]]),
        sp.PiecewiseLinearPath(2, [[0.1, 0], [0.2, 0], [0, 1], [0, -1], [-0.3, 0]]),
    ):
        assert sp.reduce(p).segment_count == 0
        assert sp.metric_d(p, sp.constant_path(p.dim)) == 0.0


def test_reduce_cancels_reversal():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = random_path(rng)
        assert sp.reduce(sp.concat(a, sp.reverse(a))).segment_count == 0


def test_concat_associative_up_to_reduction():
    rng = np.random.default_rng(2)
    a, b, c = (random_path(rng, dim=2) for _ in range(3))
    left = sp.reduce(sp.concat(sp.concat(a, b), c))
    right = sp.reduce(sp.concat(a, sp.concat(b, c)))
    assert np.array_equal(left.segments, right.segments)


def test_reduced_flag_invariants():
    rng = np.random.default_rng(3)
    for _ in range(20):
        r = sp.reduce(random_path(rng))
        segs = r.segments
        assert not any(np.linalg.norm(v) == 0.0 for v in segs)
        for u, v in zip(segs[:-1], segs[1:]):
            cross = np.linalg.norm(u) * v - np.linalg.norm(v) * u
            aligned = np.linalg.norm(cross) <= 1e-12 * np.linalg.norm(v)
            assert not aligned or np.dot(u, v) < 0


def test_constant_speed_grid():
    p = sp.PiecewiseLinearPath(2, np.array([[3.0, 0.0], [0.0, 1.0]]))
    cs = sp.constant_speed(p)
    assert cs.length == p.length
    # breakpoint of the first segment sits at 3/4 of the clock
    assert np.allclose(evaluate(cs, 0.75), [3.0, 0.0])


def test_variation_norms():
    p = sp.PiecewiseLinearPath(2, np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert sp.one_variation(p) == 2.0
    assert sp.p_variation(p, 1.0) == pytest.approx(2.0, abs=1e-12)
    # a straight chord is shorter in p-variation for p > 1
    assert sp.p_variation(p, 2.0) == pytest.approx(np.sqrt(2.0), abs=1e-12)
    single = sp.linear_path([3.0, 4.0])
    for q in (1.0, 1.5, 2.0):
        assert sp.p_variation(single, q) == pytest.approx(5.0, abs=1e-12)
    with pytest.raises(ValueError):
        sp.p_variation(p, 0.5)


def test_p_variation_monotone_in_p():
    rng = np.random.default_rng(4)
    for _ in range(10):
        a = random_path(rng, dim=2)
        vals = [sp.p_variation(a, q) for q in (1.0, 1.25, 1.5, 2.0)]
        assert all(x >= y - 1e-12 for x, y in zip(vals, vals[1:]))


def test_distance_helpers():
    a = sp.linear_path([1.0, 0.0])
    b = sp.linear_path([0.0, 1.0])
    ca, cb = sp.constant_speed(a), sp.constant_speed(b)
    assert sp.sup_distance(ca, cb) == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert sp.one_variation_distance(ca, cb) == pytest.approx(np.sqrt(2.0), abs=1e-12)
    d = sp.difference_path(ca, cb)
    assert d.dim == 2
    assert np.allclose(evaluate(d, 1.0), [1.0, -1.0])
    with pytest.raises(ValueError):
        sp.sup_distance(a, sp.linear_path([1.0]))


def test_axis_families():
    for n in (1, 2, 3):
        rho, sigma = sp.axis_rho_sigma(n)
        assert rho.segment_count == 2**n == sigma.segment_count
        assert rho.length == 2.0**n
        # all segments are coordinate directions
        for v in np.concatenate([rho.segments, sigma.segments]):
            assert sorted(np.abs(v)) == [0.0, 1.0]
    with pytest.raises(ValueError):
        sp.axis_rho_sigma(0)

    for k in (1, 2, 4):
        assert sp.gamma_loop(k).segment_count == 2 ** (k + 1)


def test_metric_d_basics():
    o = sp.constant_path(2)
    for k in (1, 2, 3):
        assert sp.metric_d(o, sp.gamma_loop(k)) == 2.0 ** (k + 1)
    a = sp.linear_path([1.0, 1.0])
    assert sp.metric_d(a, a) == 0.0
    b = sp.linear_path([2.0, 0.0])
    assert sp.metric_d(a, b) == sp.metric_d(b, a)
    with pytest.raises(ValueError):
        sp.metric_d(a, sp.linear_path([1.0]))


def test_metric_d_equivalence_invariance():
    # inserting a back-tracking excursion does not move the class
    rng = np.random.default_rng(5)
    a = random_path(rng, dim=2)
    exc = sp.linear_path([0.4, 0.9])
    noisy = sp.concat(sp.concat(a, sp.concat(exc, sp.reverse(exc))), sp.linear_path([0.0, 0.0]))
    assert sp.metric_d(a, noisy) <= 1e-12


def test_ball_membership():
    a = sp.linear_path([1.0, 0.0])
    loop = sp.concat(a, sp.reverse(a))
    assert sp.ball_br_membership(loop, 0.5)
    assert sp.ball_br_membership(a, 1.0)
    assert not sp.ball_br_membership(a, 0.5)
    with pytest.raises(ValueError):
        sp.ball_br_membership(a, 0.0)


def test_resplit_same_trajectory():
    rng = np.random.default_rng(6)
    p = random_path(rng, dim=2)
    q = resplit(p, rng)
    ts = np.linspace(0, 1, 17)
    assert np.allclose(positions_at(p, ts), positions_at(q, ts), atol=1e-12)


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    p = random_path(rng, dim=3)
    f = tmp_path / "path.csv"
    write_csv(p, f)
    q = read_csv(f)
    assert q.dim == p.dim
    assert np.array_equal(q.segments, p.segments)

    buf = io.StringIO()
    write_csv(p, buf)
    buf.seek(0)
    q2 = read_csv(buf)
    assert np.array_equal(q2.segments, p.segments)


def test_csv_malformed():
    with pytest.raises(PathFormatError):
        read_csv(io.StringIO("1.0,2.0\n"))  # missing header
    with pytest.raises(PathFormatError):
        read_csv(io.StringIO("# dim=2\n1.0\n"))  # wrong column count
    with pytest.raises(PathFormatError) as err:
        read_csv(io.StringIO("# dim=2\n1.0,2.0\nx,3.0\n"))
    assert "3" in str(err.value)  # failing line is named


def test_path_json_round_trip():
    rng = np.random.default_rng(8)
    p = random_path(rng, dim=2)
    doc = path_to_dict(p)
    assert set(doc) == {"dim", "segments"}
    q = path_from_dict(json.loads(json.dumps(doc)))
    assert np.array_equal(q.segments, p.segments)


def test_path_validation():
    with pytest.raises(ValueError):
        sp.PiecewiseLinearPath(0, np.zeros((1, 0)))
    with pytest.raises(ValueError):
        sp.PiecewiseLinearPath(2, np.array([[1.0, 2.0, 3.0]]))
    with pytest.raises(ValueError):
        sp.PiecewiseLinearPath(2, np.array([[np.nan, 0.0]]))
