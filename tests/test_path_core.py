import gc
import io
import json
import math
import re
import warnings

import numpy as np
import pytest

import sigpath as sp
from sigpath.path_core import (
    COLLINEAR_TOL,
    PathFormatError,
    _merge_collinear,
    _pair_tests,
    path_from_dict,
    path_to_dict,
    positions_at,
    read_csv,
    write_csv,
)

from helpers import (
    malformed_record_params,
    mixed_path_corpus,
    random_path,
    reference_blocked_p_variation,
    reference_difference_path,
    reference_one_variation_distance,
    reference_p_variation,
    reference_positions_at,
    reference_reduce,
    reference_sup_distance,
    resplit,
    traced_peak_bytes,
)


def _small_corpus():
    """Paths for the scalar routes of reduce and one_variation_distance.

    0-4-segment paths at d 1-3, plain and with a zero segment, a mirrored
    and a collinear (same or opposite direction) neighbour.  Then, in d = 2,
    neighbours of 4 + 4, 4 + 5, 5 + 0, 0 + 8, 8 + 0, 0 + 7, 7 + 1 and 1 + 7
    segments, on each side of the cap (an empty path counts as one segment),
    and a pair at d = 7 (scalar route) and at d = 8 (numpy route).
    """
    rng = np.random.default_rng(16)
    paths = []
    for d in (1, 2, 3):
        for m in range(5):
            segs = rng.normal(size=(m, d))
            variants = [segs]
            for second in (0.0, -1.0, 2.5, -0.5):
                if m >= 2:
                    variants.append(np.concatenate([segs[:1], second * segs[:1], segs[2:]]))
            paths += [sp.PiecewiseLinearPath(d, v) for v in variants]
    paths += [sp.PiecewiseLinearPath(2, rng.normal(size=(m, 2))) for m in (4, 4, 5, 0, 8, 0, 7, 1, 7)]
    return paths + [sp.PiecewiseLinearPath(d, rng.normal(size=(2, d))) for d in (7, 7, 8, 8)]


def _bitwise_corpus():
    rng = np.random.default_rng(11)
    edge = [
        sp.PiecewiseLinearPath(2, np.zeros((0, 2))),
        sp.PiecewiseLinearPath(3, np.zeros((1, 3))),
        sp.linear_path([0.5, -0.0]),
        sp.linear_path([-2.0]),
        sp.PiecewiseLinearPath(1, [[1.0], [-1.0], [0.0], [2.0], [0.5], [-0.25]]),
        sp.PiecewiseLinearPath(2, [[0.0, -0.0], [1.0, 0.0], [-1.0, -0.0], [0.0, 1.0]]),
        # mirrors that only a merge forms, so the cancellation test drops them
        sp.PiecewiseLinearPath(1, [[1.0], [1.0], [-2.0]]),
        sp.PiecewiseLinearPath(2, [[0.5, 0.0], [0.5, 0.0], [-1.0, -0.0], [0.0, 1.0]]),
    ]
    return edge + _small_corpus() + mixed_path_corpus(rng, 300)


def test_linear_path_and_origin():
    p = sp.linear_path([1.0, -2.0])
    assert p.dim == 2 and p.segment_count == 1
    assert np.array_equal(p.evaluate(1.0), np.array([1.0, -2.0]))
    assert np.array_equal(p.evaluate(0.0), np.zeros(2))

    o = sp.linear_path([0.0, 0.0])
    assert o.length == 0.0
    assert np.array_equal(o.evaluate(0.7), np.zeros(2))


def test_evaluate_midpoints_constant_speed():
    # two unit segments: the clock splits 50/50
    p = sp.PiecewiseLinearPath(2, np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert np.allclose(p.evaluate(0.25), [0.5, 0.0])
    assert np.allclose(p.evaluate(0.5), [1.0, 0.0])
    assert np.allclose(p.evaluate(0.75), [1.0, 0.5])
    with pytest.raises(ValueError):
        p.evaluate(1.5)


def _clock_probes(path, rng):
    # every knot time (and 1, the last knot of a path with no nonzero
    # segment), both of its float neighbours inside [0, 1], and random times
    knots = np.append(path.breakpoints, 1.0)
    ts = np.concatenate([knots, np.nextafter(knots, -1.0), np.nextafter(knots, 2.0), rng.random(16)])
    return ts[(ts >= 0.0) & (ts <= 1.0)]


@pytest.mark.parametrize("d", [1, 2, 7, 8, 64])
def test_positions_at_is_bitwise_the_np_interp_reference(d):
    # the distance kernel's clock and values on a stack of one give the
    # bits of one np.interp per coordinate, with zero segments, segments
    # scaled by 1e-17 and the empty path, at 1-d and 0-d times
    rng = np.random.default_rng(40 + d)
    paths = [sp.constant_path(d), sp.PiecewiseLinearPath(d, np.zeros((3, d)))]
    for _ in range(40):
        m = int(rng.integers(1, 9))
        segs = rng.normal(size=(m, d)) * 10.0 ** float(rng.integers(-3, 4))
        segs[rng.random(m) < 0.25] = 0.0
        segs[rng.random(m) < 0.25] *= 1e-17
        paths.append(sp.PiecewiseLinearPath(d, segs))
    for path in paths:
        ts = _clock_probes(path, rng)
        got = positions_at(path, ts)
        assert got.shape == (len(ts), d) and got.flags.c_contiguous
        assert got.tobytes() == reference_positions_at(path, ts).tobytes()
        one = positions_at(path, np.float64(ts[1]))
        assert one.shape == (1, d) and one.flags.c_contiguous
        assert one.tobytes() == got[1:2].tobytes()
        assert path.evaluate(ts[1]).tobytes() == got[1].tobytes()


def test_a_position_beyond_float_range_is_refused_by_name():
    # finite segments whose second vertex overflows: every distance refuses
    # such a value, and so do positions, with no numpy warning; positions
    # before the overflow are still read
    path = sp.PiecewiseLinearPath(2, [[1.7e308, 0.0], [1.7e308, 0.0], [-1.7e308, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match="a position of the path is beyond float range"):
            path.evaluate(1.0)
        assert path.evaluate(0.0).tolist() == [0.0, 0.0]
        assert sp.p_variation(path, 2.0) == math.inf


@pytest.mark.parametrize("ts", [[np.nan], [0.5, np.nan], [np.nan, 0.5], [-np.inf], [0.0, np.inf]])
def test_positions_at_refuses_times_outside_the_clock(ts):
    # nan compares false both ways, so the range check must not let it
    # through; evaluate refuses the same times
    p = sp.PiecewiseLinearPath(2, np.array([[1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="times must lie in"):
        positions_at(p, ts)
    bad = next(t for t in ts if not 0.0 <= t <= 1.0)
    with pytest.raises(ValueError, match=r"time t must be finite and in \[0, 1\]"):
        p.evaluate(bad)


def test_concat_reverse():
    rng = np.random.default_rng(0)
    a = random_path(rng, dim=2)
    b = random_path(rng, dim=2)
    c = sp.concat(a, b)
    assert c.segment_count == a.segment_count + b.segment_count
    end = a.evaluate(1.0) + b.evaluate(1.0)
    assert np.allclose(c.evaluate(1.0), end)

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
    assert np.allclose(cs.evaluate(0.75), [3.0, 0.0])


def test_variation_norms():
    p = sp.PiecewiseLinearPath(2, np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert p.length == 2.0
    assert sp.p_variation(p, 1.0) == pytest.approx(2.0, abs=1e-12)
    # a straight chord is shorter in p-variation for p > 1
    assert sp.p_variation(p, 2.0) == pytest.approx(np.sqrt(2.0), abs=1e-12)
    single = sp.linear_path([3.0, 4.0])
    for q in (1.0, 1.5, 2.0):
        assert sp.p_variation(single, q) == pytest.approx(5.0, abs=1e-12)
    with pytest.raises(ValueError):
        sp.p_variation(p, 0.5)
    for q in (math.nan, math.inf):
        with pytest.raises(ValueError):
            sp.p_variation(p, q)


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
    assert np.allclose(d.evaluate(1.0), [1.0, -1.0])
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


def test_metric_d_builds_no_path(monkeypatch):
    # validation happens once, on the arguments: the reduced representatives
    # stay rows on every route of reduce and of the distance
    rng = np.random.default_rng(23)
    segs = rng.normal(size=(2000, 2))
    pairs = [
        (sp.linear_path([1.0, 0.5]), sp.PiecewiseLinearPath(2, [[0.5, 0.25], [0.5, 0.25], [0.0, 1.0], [0.0, -1.0]])),
        (sp.PiecewiseLinearPath(2, segs), sp.PiecewiseLinearPath(2, rng.normal(size=(2000, 2)))),
        # a collinear pair sends the long path through the merge loop
        (sp.PiecewiseLinearPath(2, segs), sp.PiecewiseLinearPath(2, np.concatenate([segs[:1], segs]))),
    ]
    want = [sp.one_variation_distance(sp.reduce(a), sp.reduce(b)) for a, b in pairs]
    built = []
    init = sp.PiecewiseLinearPath.__post_init__

    def counting(self):
        built.append(self.dim)
        init(self)

    monkeypatch.setattr(sp.PiecewiseLinearPath, "__post_init__", counting)
    assert [sp.metric_d(a, b) for a, b in pairs] == want
    assert built == []
    sp.reduce(pairs[0][1])
    assert built == [2]


def test_ball_membership():
    a = sp.linear_path([1.0, 0.0])
    loop = sp.concat(a, sp.reverse(a))
    assert sp.ball_br_membership(loop, 0.5)
    assert sp.ball_br_membership(a, 1.0)
    assert not sp.ball_br_membership(a, 0.5)
    for bad in (0.0, -1.0, np.nan, -np.inf):
        with pytest.raises(ValueError, match="radius"):
            sp.ball_br_membership(a, bad)


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
    for text, message in [
        ("1.0,2.0\n", "line 1: data before '# dim=<d>' header"),
        ("# dim=2\n1.0\n", "line 2: expected 2 components, got 1"),
        ("# dim=2\n1.0,x\n", "line 2: non-numeric component"),
        ("# foo\n", "line 1: expected header"),
        ("# dim=0\n", "line 1: dim must be at least 1"),
        ("# dim=2\n1,nan\n", "line 2: non-finite component"),
        ("# dim=2\n1,inf\n", "line 2: non-finite component"),
        ("# dim=2\n\n1,x\n", "line 3: non-numeric component"),
        ("", "missing '# dim=<d>' header"),
    ]:
        with pytest.raises(PathFormatError) as err:
            read_csv(io.StringIO(text))
        assert message in str(err.value)
    # a comment after the header is skipped
    assert read_csv(io.StringIO("# dim=2\n# note\n1,2\n")).segments.tolist() == [[1.0, 2.0]]
    # so is a blank line, which still counts toward the line numbers above
    assert read_csv(io.StringIO("# dim=2\n1,2\n\n  \n3,4\n")).segments.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_path_json_round_trip():
    rng = np.random.default_rng(8)
    p = random_path(rng, dim=2)
    doc = path_to_dict(p)
    assert set(doc) == {"dim", "segments"}
    q = path_from_dict(json.loads(json.dumps(doc)))
    assert np.array_equal(q.segments, p.segments)


PATH_RECORD = {"dim": 2, "segments": [[1.0, 0.0], [0.0, 1.0]]}


@pytest.mark.parametrize("text", malformed_record_params(PATH_RECORD, ("dim",), [("segments",)]))
def test_path_record_with_a_bad_value_is_a_path_format_error(text):
    path_from_dict(PATH_RECORD)
    with pytest.raises(PathFormatError):
        path_from_dict(json.loads(text))


def test_axis_stage_must_be_an_integer():
    with pytest.raises(ValueError, match="need an integer 1 <= stage <= 21"):
        sp.axis_rho_sigma(1.5)
    with pytest.raises(ValueError, match="stage"):
        sp.axis_rho_sigma(0)
    rho, sigma = sp.axis_rho_sigma(np.int64(3))
    assert rho.segment_count == sigma.segment_count == 8


def test_axis_stages_stay_within_the_coefficient_budget():
    # 16 values per step of rho_n at most: the stage is refused by name
    # before any list is doubled
    top = sp.tensor_algebra._MAX_COEFFICIENTS.bit_length() - 5
    assert top == 21
    for build in (sp.axis_rho_sigma, sp.gamma_loop):
        with pytest.raises(ValueError, match=f"need an integer 1 <= stage <= {top}, got {top + 1}"):
            build(top + 1)


def test_path_validation():
    with pytest.raises(ValueError):
        sp.PiecewiseLinearPath(0, np.zeros((1, 0)))
    with pytest.raises(ValueError):
        sp.PiecewiseLinearPath(2, np.array([[1.0, 2.0, 3.0]]))
    with pytest.raises(ValueError):
        sp.PiecewiseLinearPath(2, np.array([[np.nan, 0.0]]))


@pytest.mark.parametrize("shape", [(3, 4), (2, 2, 2), (5,), (4,), ()], ids=str)
def test_segments_of_the_wrong_shape_are_refused_by_name(shape):
    # a reshape would reread a (3, 4) array at dim 2 as 6 segments and
    # (2, 2, 2) as 4; refused, as is a size no reshape takes
    with pytest.raises(ValueError, match=r"segments must have shape \(m, 2\), got " + re.escape(str(shape))):
        sp.PiecewiseLinearPath(2, np.ones(shape))


@pytest.mark.parametrize("empty", [[], np.zeros(0), np.zeros((0, 2)), np.zeros((0, 5))], ids=str)
def test_an_empty_segment_array_is_the_trivial_path(empty):
    path = sp.PiecewiseLinearPath(2, empty)
    assert path.segments.shape == (0, 2) and path.length == 0.0


def test_reduce_is_bitwise_the_loop_reference():
    for p in _bitwise_corpus():
        got, want = sp.reduce(p), reference_reduce(p)
        assert got.segments.shape == want.segments.shape
        assert got.segments.tobytes() == want.segments.tobytes()


@pytest.mark.parametrize("d", [2, 3, 4])
def test_pair_tests_agree_with_the_merge_loop_on_borderline_pairs(d):
    # w = lam u plus a part orthogonal to u within 0.1% of tol * |w|, so
    # about half the pairs merge and a pair's verdict turns on its last
    # bits: the numpy screen and the loop must round alike
    rng = np.random.default_rng(5)
    for _ in range(700):
        u = rng.standard_normal(d)
        perp = rng.standard_normal(d)
        perp -= perp @ u / (u @ u) * u
        w = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 10.0) * u
        w += perp / np.linalg.norm(perp) * COLLINEAR_TOL * np.linalg.norm(w) * (1 + rng.uniform(-1e-3, 1e-3))
        merged = len(_merge_collinear([u.tolist(), w.tolist()])) < 2
        assert bool(_pair_tests(np.array([u, w]))[0]) == merged


@pytest.mark.parametrize("cap", [None, 0], ids=["default-routes", "screen-always"])
def test_reduce_is_idempotent(monkeypatch, cap):
    # reducing a reduced segment list again changes no bit; a cap of 0 runs
    # the numpy screen on every path
    if cap is not None:
        monkeypatch.setattr(sp.path_core, "_SCREEN_ROWS", cap)
    for p in _bitwise_corpus():
        once = sp.reduce(p)
        twice = sp.reduce(sp.PiecewiseLinearPath(p.dim, once.segments))
        assert twice.segments.shape == once.segments.shape
        assert twice.segments.tobytes() == once.segments.tobytes()


def test_distances_are_bitwise_the_reference():
    corpus = _bitwise_corpus()
    pairs = [(a, b) for a, b in zip(corpus, corpus[1:] + corpus[:1]) if a.dim == b.dim]
    assert len(pairs) > 50
    for a, b in pairs:
        assert sp.one_variation_distance(a, b) == reference_one_variation_distance(a, b)
        assert sp.sup_distance(a, b) == reference_sup_distance(a, b)
        got, want = sp.difference_path(a, b), reference_difference_path(a, b)
        assert got.segments.tobytes() == want.segments.tobytes()
        ra, rb = reference_reduce(a), reference_reduce(b)
        assert sp.metric_d(a, b) == reference_one_variation_distance(ra, rb)


@pytest.mark.parametrize("scale", [1.0, 1e-170, 1e200])
def test_scalar_routes_are_bitwise_the_numpy_routes(monkeypatch, scale):
    # the loop references lose their squares at these scales, so reduce's
    # scalar merge loop is checked against its numpy screen, forced by a cap
    # of 0; the distances have one route, which the cap does not change
    paths = [sp.PiecewiseLinearPath(p.dim, p.segments * scale) for p in _small_corpus()]
    pairs = [(a, b) for a, b in zip(paths, paths[1:]) if a.dim == b.dim]

    def run():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reduced = [sp.reduce(p).segments for p in paths]
            return [r.tobytes() for r in reduced], [r.shape for r in reduced], [
                sp.one_variation_distance(a, b) for a, b in pairs
            ] + [sp.metric_d(a, b) for a, b in pairs]

    scalar = run()
    monkeypatch.setattr(sp.path_core, "_SCREEN_ROWS", 0)
    assert run() == scalar
    assert all(math.isfinite(x) and x > 0.0 for x in scalar[2][: len(pairs)])


def test_stacked_distances_are_the_single_pair_distances():
    # rows whose merged grids keep different numbers of knots are summed
    # apart: a pair with equal knot times keeps each time once, so its row
    # has 13 knots where the others have 24, and each row sums pairwise
    # (12 and more steps) exactly as its own single pair does
    rng = np.random.default_rng(29)
    sa, sb = rng.normal(size=(6, 12, 2)), rng.normal(size=(6, 12, 2))
    sb[::2] = 2.0 * sa[::2]
    got = sp.path_core._distances(sa, sb)
    for row, (a, b) in enumerate(zip(sa, sb)):
        a, b = sp.PiecewiseLinearPath(2, a), sp.PiecewiseLinearPath(2, b)
        assert got[row] == sp.one_variation_distance(a, b) == reference_one_variation_distance(a, b)


def test_distances_refuse_overflow_and_survive_an_overflowing_length():
    # a length beyond float range leaves the grid times exact: a path
    # against itself is at distance 0, with no warning
    a = sp.PiecewiseLinearPath(2, [[1e308, 0.0], [0.0, 1e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sp.one_variation_distance(a, a) == 0.0
        assert sp.metric_d(a, a) == 0.0
        assert sp.sup_distance(a, a) == 0.0
        assert a.breakpoints.tolist() == [0.0, 0.5, 1.0]
    # a step norm, a distance or a vertex beyond float range is refused
    pairs = [
        ([[1.7e308, 1.7e308]], []),
        ([[1e308, 0.0], [0.0, 1e308]], [[1.0, 0.0]]),
        ([[1e308, 0.0], [-1e308, 0.0]], [[0.0, 1e308], [0.0, 1e308]]),
    ]
    paths = [(sp.PiecewiseLinearPath(2, sa), sp.PiecewiseLinearPath(2, sb)) for sa, sb in pairs]
    for a, b in paths:
        with pytest.raises(FloatingPointError, match="beyond float range"):
            sp.one_variation_distance(a, b)
    # a uniform distance or a vertex beyond float range, for the other callers
    calls = [(sp.sup_distance, *paths[0]), (sp.sup_distance, *paths[2]), (sp.difference_path, *paths[2])]
    for call, a, b in calls:
        with pytest.raises(FloatingPointError, match="beyond float range"):
            call(a, b)


def test_reduce_excises_mirrors_before_merging():
    # merging 0.1 and 0.2 first and then -0.2 would leave 0.10000000000000003
    for segs, want in (
        ([[0.1], [0.2], [-0.2]], [[0.1]]),
        ([[0.1, 0.0], [0.2, 0.0], [-0.2, -0.0]], [[0.1, 0.0]]),
    ):
        red = sp.reduce(sp.PiecewiseLinearPath(len(want[0]), segs))
        assert red.segments.tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("zero, negated_zero", [(0.0, 0.0), (0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0)])
def test_mirrors_match_as_floats_whatever_the_sign_of_zero(zero, negated_zero):
    # a row and the negation of its successor are compared as floats, so
    # 0.0 and -0.0 match in either place and the mirrored pair is excised
    # before any merge (merging first would leave 0.10000000000000003)
    path = sp.PiecewiseLinearPath(2, [[0.1, 0.0], [0.2, zero], [-0.2, negated_zero]])
    assert sp.reduce(path).segments.tobytes() == np.array([[0.1, 0.0]]).tobytes()
    assert sp.metric_d(path, sp.linear_path([0.1, 0.0])) == 0.0


def test_metric_d_hands_the_garbage_collector_no_object_per_row():
    # a list per row would hold thousands of tracked objects at once, and
    # the collector would run many times per call, now and then a full
    # collection of every tracked object
    rng = np.random.default_rng(5)
    a, b = (sp.PiecewiseLinearPath(2, rng.normal(size=(4000, 2))) for _ in range(2))
    started = []

    def count(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        sp.metric_d(a, sp.concat(b, sp.reverse(sp.PiecewiseLinearPath(2, b.segments[:100]))))
    finally:
        gc.callbacks.remove(count)
    assert started == []


def test_reduce_refuses_a_merge_that_overflows():
    # the merged 2e308 is no finite segment, on either route of reduce
    huge = [[1e308, 0.0], [1e308, 0.0]]
    turns = [[0.0, 1.0], [1.0, 0.0]] * 4
    for segs in (huge, turns + huge):
        with pytest.raises(ValueError, match="non-finite"):
            sp.reduce(sp.PiecewiseLinearPath(2, segs))
        # metric_d reduces without building a path, and refuses it too
        with pytest.raises(ValueError, match="non-finite"):
            sp.metric_d(sp.PiecewiseLinearPath(2, segs), sp.constant_path(2))


def test_p_variation_is_bitwise_the_reference_up_to_d7():
    corpus = _bitwise_corpus()
    for p in corpus[::2]:
        for q in (1.0, 1.5, 2.0, 3.0):
            assert sp.p_variation(p, q) == reference_p_variation(p, q)
    rng = np.random.default_rng(12)
    for d in (6, 7):
        p = sp.PiecewiseLinearPath(d, rng.normal(size=(60, d)))
        assert sp.p_variation(p, 2.0) == reference_p_variation(p, 2.0)


def test_p_variation_high_dimension_within_an_ulp():
    # numpy sums rows of 8 or more coordinates pairwise, the DP in order
    rng = np.random.default_rng(13)
    for d in (8, 9, 16):
        for _ in range(3):
            p = sp.PiecewiseLinearPath(d, rng.normal(size=(50, d)))
            for q in (1.0, 1.5, 2.0):
                want = reference_p_variation(p, q)
                assert abs(sp.p_variation(p, q) - want) <= 1e-14 * want


def test_p_variation_spans_several_blocks(monkeypatch):
    # blocks of 1, 3 and 7 vertices give the same bits as one block
    rng = np.random.default_rng(14)
    p = sp.PiecewiseLinearPath(2, rng.normal(size=(40, 2)))
    want = reference_p_variation(p, 1.5)
    for cap in (1, 100, 300):
        monkeypatch.setattr(sp.path_core, "_BLOCK_COEFFICIENTS", cap)
        assert sp.p_variation(p, 1.5) == want


def test_p_variation_is_bitwise_the_blocked_programme():
    # pruning skips only candidates that cannot reach the max, so at every
    # d, pairwise-summed rows (d >= 8) included, the bits are the unpruned
    # programme's
    rng = np.random.default_rng(17)
    for d in (1, 2, 3, 7, 8, 9, 16, 64):
        for drift in (0.0, 0.3):
            path = sp.PiecewiseLinearPath(d, rng.normal(size=(150, d)) + drift)
            for q in (1.0, 1.5, 2.0, 3.0):
                assert sp.p_variation(path, q) == reference_blocked_p_variation(path, q)


def test_p_variation_pruning_on_random_cases(monkeypatch):
    # walks, drifting walks and smooth paths at scales 1e-3 to 1e3, with a
    # random block size
    rng = np.random.default_rng(18)
    for case in range(600):
        d, m = int(rng.integers(1, 4)), int(rng.integers(1, 300))
        segs = rng.normal(size=(m, d))
        segs = (segs, segs + 0.3, np.cumsum(segs, axis=0) / 10)[case % 3]
        path = sp.PiecewiseLinearPath(d, segs * 10.0 ** rng.uniform(-3, 3))
        q = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
        monkeypatch.setattr(sp.path_core, "_PVAR_BLOCK", int(rng.integers(1, 70)))
        assert sp.p_variation(path, q) == reference_blocked_p_variation(path, q)


@pytest.mark.parametrize("scale", [1.0, 1e-170, 1e200])
def test_p_variation_pruning_worst_cases(scale):
    # on a circle every block is in reach of the far side, and a zig-zag's
    # boxes are as wide as the path; 1e-170 and 1e200 run scaled
    angles = np.linspace(0.0, 2.0 * np.pi, 2001)
    circle = np.diff(np.column_stack([np.cos(angles), np.sin(angles)]), axis=0)
    zigzag = np.array([[1.0, 0.01], [-1.0, 0.01]] * 1000)
    for segs in (circle, zigzag):
        path = sp.PiecewiseLinearPath(2, segs * scale)
        for q in (1.0, 2.0, 3.0):
            assert sp.p_variation(path, q) == reference_blocked_p_variation(path, q)


def test_p_variation_prunes_a_random_walk(monkeypatch):
    # the costs formed for 2000 planar steps, bounds included, are under a
    # quarter of the m**2 / 2 pairs that the unpruned programme forms
    formed, costs = [], sp.path_core._pvar_costs

    def counting(steps, p):
        cost = costs(steps, p)
        formed.append(cost.size)
        return cost

    monkeypatch.setattr(sp.path_core, "_pvar_costs", counting)
    path = sp.PiecewiseLinearPath(2, np.random.default_rng(19).normal(size=(2000, 2)))
    sp.p_variation(path, 2.0)
    assert sum(formed) < 0.25 * 2000**2 / 2


def test_p_variation_bounds_overflow_quietly():
    # p = 1000 on a circle of radius 0.99 about the origin: every cost is
    # at most 1.98**1000 < 2**1024, but the boxes' far corners are 2.8
    # apart, so the bound overflows, and it must do so without a warning
    angles = np.linspace(0.0, 12.0 * np.pi, 49)
    pts = np.concatenate([[[0.0, 0.0]], 0.99 * np.column_stack([np.cos(angles), np.sin(angles)])])
    path = sp.PiecewiseLinearPath(2, np.diff(pts, axis=0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sp.p_variation(path, 1000.0) == reference_blocked_p_variation(path, 1000.0)


@pytest.mark.parametrize("scale", [1.0, 3.0, 0.25, 1e-200, 1e200])
def test_p_variation_is_finite_and_correct_at_large_p(scale):
    # 2.8**690 overflowed to inf, and the scaled 0.625**1600 underflowed to
    # 0.0; the costs relative to the largest vertex distance fit at every p,
    # and no warning escapes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        witness = sp.PiecewiseLinearPath(2, np.array([[0.99, 0.99], [-1.98, -1.98]]) * scale)
        assert sp.p_variation(witness, 690.0) == pytest.approx(2.8001428534987283 * scale, rel=1e-15, abs=0)
        for q in (1600.0, 1e6, 1e300):
            assert sp.p_variation(sp.linear_path([3.0 * scale, 4.0 * scale]), q) == pytest.approx(
                5.0 * scale, rel=1e-15, abs=0
            )
        # three unit steps back and forth: three costs of s**p, so the
        # p-variation is s * 3**(1/p), whichever of them fits in float range
        zigzag = sp.PiecewiseLinearPath(1, [[scale], [-scale], [scale]])
        for q in (2000.0, 1e5):
            assert sp.p_variation(zigzag, q) == pytest.approx(scale * 3.0 ** (1.0 / q), rel=1e-15, abs=0)
        # many coordinates: 0.9 in each of 10**4 makes a step of 90, and
        # 90**160 is beyond float range
        wide = sp.PiecewiseLinearPath(10_000, np.full((1, 10_000), 0.9 * scale))
        assert sp.p_variation(wide, 160.0) == pytest.approx(90.0 * scale, rel=1e-12, abs=0)


def test_p_variation_of_an_overflowing_path_is_infinite():
    # finite segments whose running sum overflows: |a_j - a_0| exceeds every double
    for m in (2, 400):
        segs = np.ones((m, 1))
        segs[:2] = 1e308
        with np.errstate(over="ignore"):
            assert sp.p_variation(sp.PiecewiseLinearPath(1, segs), 2.0) == math.inf


@pytest.mark.parametrize("scale", [1e155, 1e200, 1e-170])
def test_reduce_keeps_shapes_at_extreme_scales(scale):
    square = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]) * scale
    corner = square[:2]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for segs in (square, corner):
            red = sp.reduce(sp.PiecewiseLinearPath(2, segs))
            assert np.array_equal(red.segments, segs)
        # scaling changes no decision: a collinear run still merges exactly
        run = sp.reduce(sp.PiecewiseLinearPath(2, [[scale, 0.0], [2 * scale, 0.0], [0.0, scale]]))
        assert np.array_equal(run.segments, [[3 * scale, 0.0], [0.0, scale]])
        residue = sp.reduce(sp.PiecewiseLinearPath(1, [[0.1 * scale], [0.2 * scale], [-0.3 * scale]]))
        assert residue.segment_count == 0


@pytest.mark.parametrize("scale", [1e-170, 1e155, 1e200])
def test_distances_at_extreme_scales(scale):
    # no length or step norm under- or overflows: the square loop is 4s long;
    # abs=0 everywhere, as approx's default absolute margin would pass 0.0
    # at 1e-170
    square = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]) * scale
    loop, origin = sp.PiecewiseLinearPath(2, square), sp.constant_path(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(loop.segment_lengths, [scale] * 4)
        assert loop.length == pytest.approx(4 * scale, rel=1e-15, abs=0)
        assert sp.metric_d(loop, origin) == pytest.approx(4 * scale, rel=1e-15, abs=0)
        assert sp.one_variation_distance(loop, origin) == pytest.approx(4 * scale, rel=1e-15, abs=0)
        assert sp.sup_distance(loop, origin) == pytest.approx(math.sqrt(2) * scale, rel=1e-15, abs=0)
        assert np.array_equal(loop.breakpoints, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert np.array_equal(loop.endpoint, [0.0, 0.0])
        # a path with no length puts every vertex at time 0
        assert np.array_equal(origin.breakpoints, [0.0])
        assert np.array_equal(sp.PiecewiseLinearPath(2, np.zeros((3, 2))).breakpoints, np.zeros(4))
        assert np.array_equal(sp.difference_path(loop, origin).segments, square)
        # p-variation is 1-homogeneous, so it scales with the loop
        assert sp.p_variation(loop, 1.0) == pytest.approx(4 * scale, rel=1e-15, abs=0)
        unit_loop = sp.PiecewiseLinearPath(2, square / scale)
        for q in (2.0, 2.5):
            want = scale * sp.p_variation(unit_loop, q)
            assert sp.p_variation(loop, q) == pytest.approx(want, rel=1e-14, abs=0)


@pytest.mark.parametrize("d", [2, 7, 8, 64])
def test_rows_are_read_in_every_column(d):
    # row maxima and the nonzero-row test take few columns one at a time
    # and many in one call: the entries that decide both sit in the last
    # column, past a first column of 0 or 1e-300
    segs = np.zeros((3, d))
    segs[0, -1], segs[1, 0], segs[1, -1], segs[2, 0] = 1e200, 1e-300, 3e200, 1.0
    wide, step = sp.PiecewiseLinearPath(d, segs), sp.PiecewiseLinearPath(d, segs[:1] * 1e-200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert wide.segment_lengths.tolist() == [1e200, 3e200, 1.0]
        assert step.evaluate(1.0).tolist() == step.segments[0].tolist()
        assert sp.one_variation_distance(step, sp.constant_path(d)) == 1.0


def test_segment_lengths_are_bitwise_numpy_norms():
    for p in _bitwise_corpus():
        want = np.linalg.norm(p.segments, axis=1) if p.segment_count else np.zeros(0)
        assert p.segment_lengths.tobytes() == want.tobytes()
    # random rows on both sides of _FEW_COLUMNS = 8, where the squares are
    # summed column by column (d 6, 7) or in numpy's one call (d 8, 9): row
    # scales over 900 binades, entries within a row over sixty, so that every
    # square stays in the normal range of the unscaled reference
    rng = np.random.default_rng(16)
    for d in (6, 7, 8, 9):
        scales = 2.0 ** (rng.integers(-450, 450, size=(20000, 1)) + rng.integers(-30, 30, size=(20000, d)))
        rows = rng.normal(size=(20000, d)) * scales
        assert sp.PiecewiseLinearPath(d, rows).segment_lengths.tobytes() == np.linalg.norm(rows, axis=1).tobytes()


@pytest.mark.parametrize("d", [2, 64])
def test_p_variation_memory_is_bounded(d):
    p = sp.PiecewiseLinearPath(d, np.random.default_rng(15).normal(size=(2000, d)))
    assert traced_peak_bytes(sp.p_variation, p, 2.0) < 8 * 2**20


def test_p_variation_at_large_p_keeps_its_memory_bound():
    # the costs overflow at p = 1000, so the path runs again relative to
    # its largest vertex distance, found a block of rows at a time
    p = sp.PiecewiseLinearPath(2, np.random.default_rng(15).normal(size=(2000, 2)))
    assert traced_peak_bytes(sp.p_variation, p, 1000.0) < 8 * 2**20
