import json

import numpy as np
import pytest

import sigpath as sp
from sigpath.tensor_algebra import _count, _json_floats, _product_metric, tensor_from_dict, tensor_from_json, tensor_to_json

from helpers import (
    malformed_record_params,
    random_path,
    reference_exp,
    reference_inverse_psi,
    reference_log,
    reference_product_metric,
    reference_shuffle_words,
    same_bits,
    traced_peak_bytes,
)


def random_tensor(rng, d, depth, scalar=None):
    levels = [rng.normal(size=d**k) for k in range(depth + 1)]
    if scalar is not None:
        levels[0][0] = scalar
    return sp.TruncatedTensor(d, depth, levels)


def test_unit_laws():
    rng = np.random.default_rng(0)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        depth = int(rng.integers(0, 6))
        x = random_tensor(rng, d, depth)
        one = sp.unit(d, depth)
        for y in (sp.mul(one, x), sp.mul(x, one)):
            for a, b in zip(x.levels, y.levels):
                assert np.array_equal(a, b)


def test_mul_associative():
    rng = np.random.default_rng(1)
    for _ in range(30):
        d = int(rng.integers(1, 4))
        depth = int(rng.integers(1, 6))
        x, y, z = (random_tensor(rng, d, depth) for _ in range(3))
        left = sp.mul(sp.mul(x, y), z)
        right = sp.mul(x, sp.mul(y, z))
        for a, b in zip(left.levels, right.levels):
            assert np.max(np.abs(a - b)) <= 1e-12


def test_add_sub_scale():
    rng = np.random.default_rng(2)
    x = random_tensor(rng, 2, 3)
    y = random_tensor(rng, 2, 3)
    s = sp.add(x, y)
    back = sp.sub(s, y)
    for a, b in zip(back.levels, x.levels):
        assert np.max(np.abs(a - b)) <= 1e-15
    tw = sp.scale(x, 2.0)
    for a, b in zip(tw.levels, x.levels):
        assert np.array_equal(a, 2.0 * b)


def test_mul_dimension_mismatch():
    x = sp.unit(2, 3)
    y = sp.unit(3, 3)
    with pytest.raises(ValueError):
        sp.mul(x, y)
    with pytest.raises(ValueError):
        sp.mul(sp.unit(2, 3), sp.unit(2, 4))


def test_exp_log_inverse():
    rng = np.random.default_rng(3)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        depth = int(rng.integers(1, 6))
        x = random_tensor(rng, d, depth, scalar=0.0)
        y = sp.log(sp.exp(x))
        for a, b in zip(x.levels, y.levels):
            assert np.max(np.abs(a - b)) <= 1e-10
        g = random_tensor(rng, d, depth, scalar=1.0)
        h = sp.exp(sp.log(g))
        for a, b in zip(g.levels, h.levels):
            assert np.max(np.abs(a - b)) <= 1e-10


def test_series_are_bitwise_the_tensor_loops():
    # the level-list series give the bits of the step-by-step tensor series
    rng = np.random.default_rng(30)
    for d in (1, 2, 3):
        for depth in range(7):
            x = random_tensor(rng, d, depth, scalar=0.0)
            g = random_tensor(rng, d, depth, scalar=1.0)
            s = sp.signature(random_path(rng, dim=d), depth)
            assert same_bits(sp.exp(x).levels, reference_exp(x).levels)
            for y in (g, s, sp.unit(d, depth)):
                assert same_bits(sp.log(y).levels, reference_log(y).levels)
                assert same_bits(sp.inverse_psi(y).levels, reference_inverse_psi(y).levels)


def test_exp_log_domain_errors():
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError):
        sp.exp(random_tensor(rng, 2, 2, scalar=0.5))
    with pytest.raises(ValueError):
        sp.log(random_tensor(rng, 2, 2, scalar=0.0))


# finite inputs whose sums (1e308 + 1e308), scalings (1e200 * 1e200) and
# level-2 products (1e200 tensor 1e200) leave float range
_HUGE = sp.TruncatedTensor(2, 2, [[0.0], [1e308, -1e308], np.zeros(4)])
_BIG = sp.TruncatedTensor(2, 2, [[0.0], [1e200, -1e200], np.zeros(4)])
_BIG_UNIT = sp.TruncatedTensor(2, 2, [[1.0], [1e200, -1e200], np.zeros(4)])


@pytest.mark.parametrize(
    "op, level",
    [
        (lambda: sp.add(_HUGE, _HUGE), 1),
        (lambda: sp.sub(_HUGE, sp.scale(_HUGE, -1.0)), 1),
        (lambda: sp.scale(_BIG, 1e200), 1),
        (lambda: sp.mul(_BIG, _BIG), 2),
        (lambda: sp.exp(_BIG), 2),
        (lambda: sp.log(_BIG_UNIT), 2),
        (lambda: sp.inverse_psi(_BIG_UNIT), 2),
    ],
    ids=["add", "sub", "scale", "mul", "exp", "log", "inverse_psi"],
)
def test_an_operation_that_overflows_is_a_numerical_failure(op, level):
    # the inputs are finite, so the fault is the result's, not an argument's;
    # numpy's overflow warning stays silent (warnings are errors here)
    with pytest.raises(FloatingPointError, match=f"^level {level} is beyond float range$"):
        op()


def test_inverse_psi_two_sided():
    rng = np.random.default_rng(5)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        depth = int(rng.integers(1, 5))
        x = random_tensor(rng, d, depth, scalar=1.0)
        inv = sp.inverse_psi(x)
        one = sp.unit(d, depth)
        for prod in (sp.mul(x, inv), sp.mul(inv, x)):
            assert sp.max_coefficient_difference(prod, one) <= 1e-10


def test_inverse_psi_needs_unit_scalar():
    rng = np.random.default_rng(6)
    with pytest.raises(ValueError):
        sp.inverse_psi(random_tensor(rng, 2, 2, scalar=0.0))


def test_project_truncation_compatible():
    # pi_n(x y) = pi_n(x) pi_n(y): higher levels never feed lower ones
    rng = np.random.default_rng(7)
    for _ in range(10):
        x = random_tensor(rng, 2, 5)
        y = random_tensor(rng, 2, 5)
        n = int(rng.integers(0, 6))
        a = sp.project(sp.mul(x, y), n)
        b = sp.mul(sp.project(x, n), sp.project(y, n))
        for u, v in zip(a.levels, b.levels):
            assert np.array_equal(u, v)


def test_project_bounds():
    x = sp.unit(2, 3)
    assert sp.project(x, 3).depth == 3
    assert sp.project(x, 0).depth == 0
    with pytest.raises(ValueError):
        sp.project(x, 4)
    with pytest.raises(ValueError):
        sp.project(x, -1)


def test_level_norm_and_bounds():
    e1 = np.array([1.0, 0.0])
    g = sp.exp_segment(e1, 2)
    assert sp.level_norm(g, 1) == 1.0
    assert sp.level_norm(g, 2) == 0.5
    with pytest.raises(ValueError):
        sp.level_norm(g, 3)


def test_product_metric_hand_value():
    # levels of exp(e1): norm 1 at level 1, 1/2 at level 2
    g = sp.exp_segment(np.array([1.0, 0.0]), 2)
    one = sp.unit(2, 2)
    assert sp.product_metric(one, g) == 0.5 * 1.0 + 0.25 * 0.5
    assert sp.product_metric(g, g) == 0.0


def test_product_metric_is_metric():
    rng = np.random.default_rng(8)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        depth = int(rng.integers(1, 5))
        x, y, z = (random_tensor(rng, d, depth) for _ in range(3))
        assert sp.product_metric(x, y) == sp.product_metric(y, x)
        assert (
            sp.product_metric(x, z)
            <= sp.product_metric(x, y) + sp.product_metric(y, z) + 1e-12
        )


def _spread_tensor(rng, d, depth):
    # levels at scales 2**-12 to 2**2, so their norms fall on both sides of 1
    return sp.TruncatedTensor(d, depth, [rng.normal(size=d**k) * 2.0 ** rng.integers(-12, 3) for k in range(depth + 1)])


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_product_metric_is_bitwise_the_per_level_norms(d):
    rng = np.random.default_rng(40 + d)
    for depth in range(7):
        for _ in range(40):
            x, y = _spread_tensor(rng, d, depth), _spread_tensor(rng, d, depth)
            assert _bits(sp.product_metric(x, y)) == _bits(reference_product_metric(x, y))


@pytest.mark.parametrize("rows", [1, 5, 80])
def test_the_product_metric_kernel_is_bitwise_the_reference_on_every_row(rows):
    # a batch of rows against a batch of rows, and against one unbatched
    # tensor's levels, as experiment_incompleteness passes the unit
    rng = np.random.default_rng(rows)
    for d, depth in ((1, 6), (2, 4), (2, 6), (3, 3)):
        xs = [_spread_tensor(rng, d, depth) for _ in range(rows)]
        ys = [_spread_tensor(rng, d, depth) for _ in range(rows)]
        stacked = [[np.stack([t.levels[k] for t in ts]) for k in range(depth + 1)] for ts in (xs, ys)]
        want = [reference_product_metric(x, y) for x, y in zip(xs, ys)]
        assert _bits(_product_metric(*stacked)) == _bits(want)
        want = [reference_product_metric(x, ys[0]) for x in xs]
        assert _bits(_product_metric(stacked[0], ys[0].levels)) == _bits(want)


def test_unit_and_zero_check_the_budget_before_they_allocate(monkeypatch):
    # a level array allocated before the check would fail the test here,
    # not ask numpy for gigabytes: unit(2, 30) would take 16 GiB in all
    def refuse(*args, **kwargs):
        raise AssertionError("a level was allocated before the budget check")

    for make in (sp.unit, sp.zero):
        with monkeypatch.context() as patch:
            patch.setattr(np, "zeros", refuse)
            for dim, depth in ((2, 25), (2, 30), (10**6, 2), (1, 2**25)):
                with pytest.raises(ValueError, match=f"depth {depth} over one tensor of dimension {dim} exceeds the limit"):
                    make(dim, depth)
        assert make(2, 3).levels[3].shape == (8,)


def test_product_metric_gamma_loops_decreasing():
    depth = 6
    vals = [
        sp.product_metric(sp.signature(sp.gamma_loop(k), depth), sp.unit(2, depth))
        for k in range(1, 6)
    ]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_phi_contraction_values():
    assert sp.phi_contraction(sp.unit(2, 2), 1) == 0.0
    v = np.array([2.0, 1.0])
    g = sp.exp_segment(v, 2)
    assert abs(sp.phi_contraction(g, 1) - (v @ v) / 2) <= 1e-15

    lv = [np.zeros(2**k) for k in range(5)]
    lv[0][0] = 1.0
    lv[4][sp.word_index((1, 1, 2, 2), 2)] = 1.0
    x = sp.TruncatedTensor(2, 4, lv)
    assert sp.phi_contraction(x, 2) == 1.0

    lv[4][:] = 0.0
    lv[4][sp.word_index((1, 2, 1, 2), 2)] = 1.0
    y = sp.TruncatedTensor(2, 4, lv)
    assert sp.phi_contraction(y, 2) == 0.0

    with pytest.raises(ValueError):
        sp.phi_contraction(x, 3)


def test_phi_contraction_linear():
    rng = np.random.default_rng(9)
    x = random_tensor(rng, 2, 4)
    y = random_tensor(rng, 2, 4)
    lhs = sp.phi_contraction(sp.add(sp.scale(x, 2.5), sp.scale(y, -0.5)), 2)
    rhs = 2.5 * sp.phi_contraction(x, 2) - 0.5 * sp.phi_contraction(y, 2)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_word_index_round_trip():
    d = 3
    seen = set()
    for w in [(1,), (3,), (1, 2), (3, 3), (2, 1, 3)]:
        idx = sp.word_index(w, d)
        assert 0 <= idx < d ** len(w)
        seen.add((len(w), idx))
    assert len(seen) == 5
    with pytest.raises(ValueError):
        sp.word_index((0,), d)
    with pytest.raises(ValueError):
        sp.word_index((4,), d)


@pytest.mark.parametrize("bad", [1.5, True, 0, "1"])
def test_word_letters_are_integers(bad):
    # a letter goes through _count, so 1.5 is refused rather than read as 1
    x = sp.signature(sp.linear_path([1.0, 2.0]), 3)
    calls = [
        lambda: x.coefficient([bad]),
        lambda: sp.shuffle_words((bad,), (2,)),
        lambda: sp.shuffle_words((1,), (2, bad)),
        lambda: sp.shuffle_pairing(x, (1,), (bad,)),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="need an integer letter >= 1"):
            call()


def test_word_letters_take_numpy_integers():
    x = sp.signature(sp.linear_path([1.0, 2.0]), 3)
    u, w = (np.int64(2), np.int32(1)), (np.int64(1),)
    assert x.coefficient(u) == x.coefficient((2, 1))
    assert sp.shuffle_words(u, w) == sp.shuffle_words((2, 1), (1,))
    assert sp.shuffle_pairing(x, u, w) == sp.shuffle_pairing(x, (2, 1), (1,))
    with pytest.raises(ValueError, match="letter 3 outside 1..2"):
        x.coefficient([np.int64(3)])
    with pytest.raises(ValueError, match="word of length 4 exceeds depth 3"):
        x.coefficient((1, 1, 1, 1))


def test_shuffle_words_leibniz_count():
    # (1) shuffle (2) = 12 + 21; (1)(2) shuffle (3) has binomial(3,1) terms
    terms = sp.shuffle_words((1,), (2,))
    assert sorted(terms.items()) == [((1, 2), 1), ((2, 1), 1)]
    terms = sp.shuffle_words((1, 2), (3,))
    assert sum(terms.values()) == 3


def _random_words(rng, d, total):
    lu = int(rng.integers(0, total + 1))
    lw = int(rng.integers(0, total - lu + 1))
    return tuple(int(a) for a in rng.integers(1, d + 1, lu)), tuple(int(a) for a in rng.integers(1, d + 1, lw))


def test_shuffle_words_is_the_sum_over_interleavings():
    rng = np.random.default_rng(13)
    assert sp.shuffle_words((), ()) == {(): 1}
    for _ in range(300):
        u, w = _random_words(rng, int(rng.integers(1, 4)), 8)
        assert sp.shuffle_words(u, w) == reference_shuffle_words(u, w)


def test_shuffle_expansion_holds_no_memory_across_calls():
    # each call expands its own words; a cache keyed on the caller's words
    # peaked at over 11 MiB on these calls and never shrank
    x = sp.unit(3, 8)

    def many_pairings(calls):
        rng = np.random.default_rng(14)
        for _ in range(calls):
            sp.shuffle_pairing(x, *_random_words(rng, 3, 8))

    assert traced_peak_bytes(many_pairings, 5000) < 4 * 2**20


def test_shuffle_pairing_trivial_cases():
    one = sp.unit(2, 3)
    assert sp.shuffle_pairing(one, (1,), (2,)) == (0.0, 0.0)

    lv = [np.zeros(2**k) for k in range(3)]
    lv[0][0] = 1.0
    lv[2][sp.word_index((1, 2), 2)] = 1.0
    x = sp.TruncatedTensor(2, 2, lv)
    assert sp.shuffle_pairing(x, (1,), (2,)) == (1.0, 0.0)

    with pytest.raises(ValueError):
        sp.shuffle_pairing(one, (1, 2), (1, 2))
    with pytest.raises(ValueError):
        sp.shuffle_pairing(one, (5,), (1,))


def test_shuffle_pairing_on_signatures():
    rng = np.random.default_rng(10)
    for _ in range(10):
        p = random_path(rng, max_segments=3)
        x = sp.signature(p, 4)
        for u, w in [((1,), (1,)), ((1,), (1, 1))]:
            lhs, rhs = sp.shuffle_pairing(x, u, w)
            assert abs(lhs - rhs) <= 1e-10


def test_group_tensor_scalar_validation():
    lv = [np.full(1, 2.0), np.zeros(2)]
    with pytest.raises(ValueError):
        sp.GroupTensor(2, 1, lv)
    x = sp.TruncatedTensor(2, 1, lv)
    with pytest.raises(ValueError):
        sp.GroupTensor(x.dim, x.depth, x.levels)


def test_tensor_json_round_trip():
    rng = np.random.default_rng(11)
    x = random_tensor(rng, 3, 3)
    s = tensor_to_json(x)
    doc = json.loads(s)
    assert set(doc) == {"dim", "depth", "levels"}
    y = tensor_from_json(s)
    assert y.dim == x.dim and y.depth == x.depth
    for a, b in zip(x.levels, y.levels):
        assert np.array_equal(a, b)


def test_count_takes_integers_in_range_only():
    assert _count("n", 3, 1) == 3
    assert _count("n", np.int64(5), 1, 5) == 5
    assert type(_count("n", np.int32(2), 0)) is int
    for bad in (2.5, float("nan"), True, np.bool_(True), "3", None, 0, 6, np.float64(3.0)):
        with pytest.raises(ValueError, match=r"need an integer 1 <= n <= 5"):
            _count("n", bad, 1, 5)
    with pytest.raises(ValueError, match="need an integer n >= 1, got 2.5"):
        _count("n", 2.5, 1)


def test_json_floats_takes_nested_lists_of_finite_numbers():
    assert _json_floats("x", [[1, 2.5], [-0.0, 3]]).tolist() == [[1.0, 2.5], [-0.0, 3.0]]
    for bad in ([[1.0], ["2"]], [[True], [False]], [1.0, None], [1.0, float("nan")], [[1.0, [float("inf")]]]):
        with pytest.raises(ValueError, match="x must be a finite number"):
            _json_floats("x", bad)


def test_tensor_json_malformed():
    with pytest.raises(ValueError):
        tensor_from_json(json.dumps({"dim": 2, "depth": 1, "levels": [[1.0], [0.0]]}))
    with pytest.raises(ValueError):
        tensor_from_json(json.dumps({"dim": 2, "levels": [[1.0]]}))


TENSOR_RECORD = {"dim": 2, "depth": 1, "levels": [[1.0], [0.5, -0.25]]}


@pytest.mark.parametrize("text", malformed_record_params(TENSOR_RECORD, ("dim", "depth"), [("levels",)]))
def test_tensor_record_with_a_bad_value_is_a_value_error(text):
    # no int() truncation of 2.5 or "2", and no OverflowError or
    # AttributeError escaping the decoder
    tensor_from_dict(TENSOR_RECORD)
    with pytest.raises(ValueError):
        tensor_from_dict(json.loads(text))
    with pytest.raises(ValueError):
        tensor_from_json(text)
