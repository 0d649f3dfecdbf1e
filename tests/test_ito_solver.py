import itertools
import json
import math

import numpy as np
import pytest
from scipy.linalg import expm

import sigpath as sp
from sigpath.ito_solver import (
    field_from_json,
    field_to_json,
    word_coefficients,
)

from sigpath import ito_solver
from sigpath.ito_solver import (
    _EXPM_TEMPORARIES,
    _THETA13,
    _expm,
    _flow_end_states,
    _scaling_powers,
)

from helpers import (
    malformed_record_params,
    random_affine_system,
    reference_flow_end_states,
    reference_rk4_oracle,
    reference_series_value,
    resplit,
    same_bits,
    traced_peak_bytes,
)


def two_by_two_field():
    A1 = np.array([[0.0, 1.0], [0.0, 0.0]])
    A2 = np.array([[0.0, 0.0], [1.0, 0.0]])
    return sp.LinearVectorField(matrices=np.stack([A1, A2]), offsets=np.zeros((2, 2)))


def test_field_validation():
    with pytest.raises(ValueError):
        sp.LinearVectorField(matrices=np.zeros((2, 2, 3)), offsets=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        sp.LinearVectorField(matrices=np.zeros((2, 2, 2)), offsets=np.zeros((3, 2)))
    with pytest.raises(ValueError):
        sp.LinearVectorField(
            matrices=np.full((1, 1, 1), np.inf), offsets=np.zeros((1, 1))
        )
    f = two_by_two_field()
    assert f.input_dim == 2 and f.state_dim == 2 and f.is_linear
    with pytest.raises(ValueError):
        f.matrices[0, 0, 0] = 5.0  # read-only


def test_growth_constant_formula():
    f = two_by_two_field()
    # sqrt(d) * max operator norm, with the cushion factor e folded in
    assert f.growth_constant == pytest.approx(math.e * math.sqrt(2.0), rel=1e-12)
    g = sp.LinearVectorField(
        matrices=np.zeros((1, 1, 1)), offsets=np.array([[2.0]])
    )
    assert g.growth_constant == pytest.approx(math.e * 2.0, rel=1e-12)
    assert not g.is_linear


def test_word_operator_order():
    # word (1,2) acts as A_2 A_1 y0: first letter applied first
    f = two_by_two_field()
    y0 = np.array([1.0, 2.0])
    A1, A2 = f.matrices
    level = word_coefficients(f, y0, 2)[2]
    assert np.array_equal(level[sp.word_index((1, 2), 2)], A2 @ A1 @ y0)
    assert np.array_equal(level[sp.word_index((2, 1), 2)], A1 @ A2 @ y0)
    # at d = 1 the one word of length 3 is (1, 1, 1), and A_1 = 1 keeps y0
    g = sp.LinearVectorField(matrices=np.ones((1, 1, 1)), offsets=np.zeros((1, 1)))
    assert np.array_equal(word_coefficients(g, np.ones(1), 3)[3][0], np.ones(1))


def test_word_coefficients_against_direct_operators():
    # row word_index(i_1..i_k) of level k is A_{i_k} ... A_{i_2} (A_{i_1} y0
    # + b_{i_1}), formed here letter by letter
    rng = np.random.default_rng(0)
    for _ in range(5):
        f, path, y0 = random_affine_system(rng)
        d = f.input_dim
        coeffs = word_coefficients(f, y0, 3)
        for k in (1, 2, 3):
            for word in itertools.product(range(1, d + 1), repeat=k):
                v = f.matrices[word[0] - 1] @ y0 + f.offsets[word[0] - 1]
                for letter in word[1:]:
                    v = f.matrices[letter - 1] @ v
                assert np.allclose(coeffs[k][sp.word_index(word, d)], v, atol=1e-13)


def test_word_coefficients_size_budget_counts_state_dim():
    # 2**20 words fit the old per-word cap, but with w = 64 the coefficients
    # exceed the shared budget
    f = sp.LinearVectorField(matrices=np.zeros((2, 64, 64)), offsets=np.zeros((2, 64)))
    with pytest.raises(ValueError, match="limit"):
        word_coefficients(f, np.zeros(64), 20)
    with pytest.raises(ValueError, match="limit"):
        word_coefficients(f, np.zeros(64), 10**9)
    assert len(word_coefficients(f, np.zeros(64), 4)) == 5


def test_linear_oracle_is_expm_product():
    f = two_by_two_field()
    y0 = np.array([1.0, 2.0])
    path = sp.PiecewiseLinearPath(2, np.array([[1.0, 0.0], [0.0, 1.0]]))
    A1, A2 = f.matrices
    expected = expm(A2) @ expm(A1) @ y0
    assert np.allclose(sp.oracle_solve(f, path, y0), expected, atol=1e-12)


def test_scalar_exponential_fixture():
    f = sp.LinearVectorField(matrices=np.array([[[1.0]]]), offsets=np.array([[0.0]]))
    y0 = np.array([1.0])
    p = sp.linear_path([1.0])
    for N in range(1, 9):
        sol = sp.ito_series(f, p, y0, N)
        assert abs(sol.value[0] - math.e) <= sol.error_bound


def test_series_within_bound_on_corpus():
    rng = np.random.default_rng(1)
    for _ in range(20):
        f, path, y0 = random_affine_system(rng)
        oracle = sp.oracle_solve(f, path, y0)
        for N in (1, 3, 5, 8):
            sol = sp.ito_series(f, path, y0, N)
            disc = float(np.linalg.norm(sol.value - oracle))
            assert disc <= sol.error_bound


def test_discrepancy_decreases_past_cl():
    rng = np.random.default_rng(2)
    for _ in range(10):
        f, path, y0 = random_affine_system(rng)
        CL = f.growth_constant * path.length
        oracle = sp.oracle_solve(f, path, y0)
        discs = [
            float(np.linalg.norm(sp.ito_series(f, path, y0, N).value - oracle))
            for N in range(1, 9)
        ]
        for i in range(len(discs) - 1):
            # below 1e-9 the discrepancies near rounding level, where they need not fall
            if i + 1 > CL and discs[i] >= 1e-9:
                assert discs[i + 1] <= discs[i]


def test_solve_and_certify_fields():
    rng = np.random.default_rng(3)
    f, path, y0 = random_affine_system(rng)
    sol = sp.solve_and_certify(f, path, y0, 6)
    assert sol.terms_used == 6
    assert sol.oracle_value is not None
    # abs=0: the discrepancy is about 1e-12, inside approx's default absolute margin
    assert sol.discrepancy == pytest.approx(
        float(np.linalg.norm(sol.value - sol.oracle_value)), abs=0
    )
    assert sol.discrepancy <= sol.error_bound
    doc = sol.to_dict()
    assert {"value", "terms_used", "error_bound", "oracle_value", "discrepancy"} <= set(doc)


def test_equivalence_class_invariance_exact():
    rng = np.random.default_rng(4)
    for _ in range(15):
        d = int(rng.integers(2, 4))
        nseg = int(rng.integers(2, 6))
        path = sp.PiecewiseLinearPath(d, rng.normal(size=(nseg, d)) * 0.6)
        w = int(rng.integers(1, 4))
        f = sp.LinearVectorField(
            matrices=rng.normal(size=(d, w, w)) * 0.3,
            offsets=rng.normal(size=(d, w)) * 0.3,
        )
        y0 = rng.uniform(-1, 1, size=w)
        k = int(rng.integers(0, nseg + 1))
        exc = rng.normal(size=(int(rng.integers(1, 4)), d))
        segs = np.concatenate([path.segments[:k], exc, -exc[::-1], path.segments[k:]])
        ins = sp.reduce(sp.PiecewiseLinearPath(d, segs))
        a = sp.ito_series(f, path, y0, 4).value
        b = sp.ito_series(f, ins, y0, 4).value
        assert np.array_equal(a, b)


def test_flow_property_within_bound():
    rng = np.random.default_rng(5)
    for _ in range(10):
        f, path, y0 = random_affine_system(rng)
        if path.segment_count < 2:
            continue
        m = path.segment_count // 2
        a = sp.PiecewiseLinearPath(path.dim, path.segments[:m])
        b = sp.PiecewiseLinearPath(path.dim, path.segments[m:])
        whole = sp.ito_series(f, path, y0, 6)
        mid = sp.ito_series(f, a, y0, 6)
        two = sp.ito_series(f, b, mid.value, 6)
        gap = float(np.linalg.norm(whole.value - two.value))
        assert gap <= 2 * whole.error_bound


def test_oracle_resplit_invariance():
    rng = np.random.default_rng(6)
    for _ in range(10):
        f, path, y0 = random_affine_system(rng)
        ya = sp.oracle_solve(f, path, y0)
        yb = sp.oracle_solve(f, resplit(path, rng), y0)
        assert np.linalg.norm(ya - yb) <= 1e-10


def test_truncated_functional_matches_series():
    rng = np.random.default_rng(7)
    for _ in range(10):
        f, path, y0 = random_affine_system(rng)
        func = sp.truncated_functional_LN(f, y0, 4)
        via_functional = func.evaluate(sp.signature(path, 4))
        via_series = sp.ito_series(f, path, y0, 4).value
        assert np.array_equal(via_functional, via_series)


def test_dimension_mismatch():
    f = two_by_two_field()
    with pytest.raises(ValueError):
        sp.ito_series(f, sp.linear_path([1.0]), np.zeros(2), 3)
    with pytest.raises(ValueError):
        sp.ito_series(f, sp.linear_path([1.0, 0.0]), np.zeros(3), 3)


def test_field_json_round_trip():
    rng = np.random.default_rng(8)
    f, _, _ = random_affine_system(rng)
    doc = field_to_json(f)
    g = field_from_json(doc)
    assert np.array_equal(f.matrices, g.matrices)
    assert np.array_equal(f.offsets, g.offsets)

    assert set(json.loads(doc)) == {"d", "w", "A", "b"}
    with pytest.raises(ValueError):
        field_from_json(json.dumps({"d": 1, "w": 1, "A": [[[1.0]]]}))
    with pytest.raises(ValueError):
        field_from_json(json.dumps({"d": 2, "w": 1, "A": [[[1.0]]], "b": [[0.0]]}))
    with pytest.raises(ValueError):
        field_from_json('{"d": 1,')


FIELD_RECORD = {"d": 1, "w": 2, "A": [[[0.5, 0.0], [0.1, -0.2]]], "b": [[0.1, 0.0]]}


@pytest.mark.parametrize("text", malformed_record_params(FIELD_RECORD, ("d", "w"), [("A",), ("b",)]))
def test_field_record_with_a_bad_value_is_a_value_error(text):
    sp.field_from_dict(FIELD_RECORD)
    with pytest.raises(ValueError):
        sp.field_from_dict(json.loads(text))
    with pytest.raises(ValueError):
        field_from_json(text)


def test_series_error_bound_truncation_must_be_an_integer():
    f = sp.LinearVectorField([[[1.0]]], [[0.0]])
    # 2.5 used to give a bound (0.0054) for no truncation that exists
    for bad in (2.5, -1, float("nan")):
        with pytest.raises(ValueError, match="need an integer truncation >= 0"):
            sp.series_error_bound(f, 1.0, bad, 1.0)
    assert sp.series_error_bound(f, 1.0, np.int64(3), 1.0) == sp.series_error_bound(f, 1.0, 3, 1.0)


@pytest.mark.parametrize("what", ["path_length", "state_norm"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -2.0])
def test_series_error_bound_refuses_a_bad_length_or_state_norm(what, bad):
    # a NaN length used to be a numerical failure and a negative norm a
    # bare "math domain error"; both are input faults that name the argument
    f = sp.LinearVectorField([[[1.0]]], [[0.0]])
    args = {"path_length": 1.0, "state_norm": 1.0, what: bad}
    with pytest.raises(ValueError, match=f"{what} must be finite and nonnegative"):
        sp.series_error_bound(f, truncation=3, **args)


def test_word_coefficients_refuse_a_level_beyond_float_range():
    # 1e100**4 used to come back as inf with nothing raised
    f = sp.LinearVectorField([[[1e100]]], [[0.0]])
    assert sp.word_coefficients(f, [1.0], 3)[3].tolist() == [[1e300]]
    with pytest.raises(FloatingPointError, match="^word coefficient level 4 is beyond float range$"):
        sp.word_coefficients(f, [1.0], 4)
    with pytest.raises(FloatingPointError, match="^word coefficient level 1 is beyond float range$"):
        sp.word_coefficients(sp.LinearVectorField([[[1e200]]], [[0.0]]), [1e200], 2)


@pytest.mark.parametrize("y0", [[float("nan"), 0.0], [0.0, float("inf")]])
def test_oracle_refuses_a_non_finite_start(y0):
    f = sp.LinearVectorField([[[0.5, 0.0], [0.1, -0.2]]], [[0.1, 0.0]])
    with pytest.raises(ValueError, match="y0 must be finite"):
        sp.oracle_solve(f, sp.linear_path([1.0]), y0)


def test_oracle_overflow_is_numerical_failure():
    # exp(800) is beyond float range: the flow must not return a finite value
    for offset in (0.0, 1.0):
        f = sp.LinearVectorField([[[800.0]]], [[offset]])
        with pytest.raises(FloatingPointError):
            sp.oracle_solve(f, sp.linear_path([1.0]), [1.0])


@pytest.mark.parametrize(
    "y0, length, N",
    [(1000.0, 1.0, 2), (1e6, 1.0, 4), (1.0, 20.0, 2), (-3.0, 20.0, 12)],
)
def test_certificate_bounds_large_state_and_cl(y0, length, N):
    # dy = y dx: the tail e^L - sum_{k<=N} L^k/k! times |y0| must sit under the bound
    f = sp.LinearVectorField([[[1.0]]], [[0.0]])
    sol = sp.solve_and_certify(f, sp.linear_path([length]), [y0], N)
    assert sol.discrepancy <= sol.error_bound


def test_certificate_on_large_cl_corpus():
    rng = np.random.default_rng(11)
    for _ in range(20):
        f, path, y0 = random_affine_system(rng, low=20.0, high=40.0)
        oracle = sp.oracle_solve(f, path, y0)
        for N in (1, 3, 8, 12):
            sol = sp.ito_series(f, path, y0, N)
            assert float(np.linalg.norm(sol.value - oracle)) <= sol.error_bound


def test_error_bound_overflow_and_log_domain():
    f = sp.LinearVectorField([[[800.0]]], [[0.0]])
    with pytest.raises(FloatingPointError):
        sp.series_error_bound(f, 1.0, 4, 1.0)
    # e^{cL} alone overflows, but the whole bound (about e^633) does not
    g = sp.LinearVectorField([[[710.0]]], [[0.0]])
    assert 1e250 < sp.series_error_bound(g, 1.0, 2000, 0.0) < 1e300
    assert sp.series_error_bound(f, 0.0, 3, 1.0) == 0.0


def test_oracle_matches_rk4_reference():
    rng = np.random.default_rng(12)
    for _ in range(25):
        f, path, y0 = random_affine_system(rng)
        y = sp.oracle_solve(f, path, y0)
        ref = reference_rk4_oracle(f, path, y0)
        assert np.linalg.norm(y - ref) <= 1e-10 * max(1.0, float(np.linalg.norm(y)))


def test_scalar_affine_closed_form():
    for a, b, v, y0 in [(0.7, 0.3, 0.5, 1.0), (-1.3, 2.0, 1.2, -0.4), (2.0, -1.0, -0.9, 3.0)]:
        f = sp.LinearVectorField([[[a]]], [[b]])
        y = sp.oracle_solve(f, sp.linear_path([v]), [y0])[0]
        want = math.exp(a * v) * y0 + math.expm1(a * v) / a * b
        assert abs(y - want) <= 1e-14 * abs(want)


@pytest.mark.parametrize("linear", [True, False])
def test_dataset_responses_are_per_path_oracle(linear):
    field, y0 = sp.demo_field()
    if linear:
        field = sp.LinearVectorField(field.matrices, np.zeros_like(field.offsets))
    data = sp.generate_dataset(field, y0, 40, 4, 1.0, 0.0, seed=3, depth=2)
    rows = [sp.oracle_solve(field, p, y0) for p in data.paths]
    assert same_bits(list(data.responses), rows)


def test_flow_does_not_depend_on_blocking(monkeypatch):
    rng = np.random.default_rng(13)
    f, _, y0 = random_affine_system(rng)
    segments = rng.normal(size=(7, 5, f.input_dim)) * 0.3
    path = sp.PiecewiseLinearPath(f.input_dim, rng.normal(size=(60, f.input_dim)) * 0.1)
    whole = _flow_end_states(segments, f, y0)
    single = sp.oracle_solve(f, path, y0)
    per = (f.state_dim + 1) ** 2
    # one matrix, three paths of one column, and all paths over two columns
    for budget in (per, 3 * per, 14 * per):
        monkeypatch.setattr(ito_solver, "_MAX_COEFFICIENTS", budget)
        assert same_bits(list(_flow_end_states(segments, f, y0)), list(whole))
        assert same_bits([sp.oracle_solve(f, path, y0)], [single])
    rows = [_flow_end_states(segments[i : i + 1], f, y0)[0] for i in range(7)]
    assert same_bits(rows, list(whole))


def test_ito_series_is_bitwise_the_level_by_level_sum():
    # the functional evaluates the series exactly as the level-by-level sum
    # of signature levels against word coefficients
    rng = np.random.default_rng(31)
    for _ in range(60):
        f, path, y0 = random_affine_system(rng)
        for N in range(10):
            want = reference_series_value(f, path, y0, N)
            assert same_bits([sp.ito_series(f, path, y0, N).value], [want])
            got = sp.truncated_functional_LN(f, y0, N).evaluate(sp.signature(path, N))
            assert same_bits([got], [want])


def test_ito_series_reaches_the_series_through_the_functional(monkeypatch):
    calls = []
    real = sp.ito_solver.truncated_functional_LN

    def spy(*args):
        calls.append(args[2])
        return real(*args)

    monkeypatch.setattr(sp.ito_solver, "truncated_functional_LN", spy)
    f, path, y0 = random_affine_system(np.random.default_rng(32))
    sp.ito_series(f, path, y0, 5)
    assert calls == [5]


# _expm against scipy.linalg.expm: |R - S|_max <= 1e-12 max(1, |M|_1) |S|_max.
# The worst case over this corpus uses 0.11 of that (norm 700; 0.10 at
# theta13, 0.06 at 1e2).  Most of the gap is scipy's own error on
# non-normal matrices: against a 40-digit mpmath exponential, _expm was
# within 2e-13 of max|S| at norms up to 700 and scipy within 1.2e-11.
EXPM_NORMS = (1e-300, np.nextafter(_THETA13, 0.0), _THETA13, np.nextafter(_THETA13, 9.0), 1e2, 700.0)


def _structured_matrices(rng, n):
    yield np.diag(rng.normal(size=n))
    yield np.triu(rng.normal(size=(n, n)))
    yield np.triu(rng.normal(size=(n, n)), 1)  # nilpotent
    aug = np.zeros((n, n))  # [[A, b], [0, 0]] with w = n - 1
    aug[:-1] = rng.normal(size=(n - 1, n))
    yield aug


def _one_norm(m):
    return float(np.abs(m).sum(axis=0).max())


def test_expm_of_zero_is_the_identity_bitwise():
    for n in range(1, 9):
        got = _expm(np.zeros((3, n, n)))
        assert same_bits(list(got), [np.eye(n)] * 3)


def test_scaling_powers_are_the_smallest_that_reach_theta13():
    t = _THETA13
    norms = np.array([0.0, 5e-324, 1e-300, t, np.nextafter(t, 9.0), 2 * t, np.nextafter(2 * t, 99.0), 1e2, 700.0, 1.7e308])
    assert _scaling_powers(norms).tolist() == [0, 0, 0, 0, 1, 1, 2, 5, 8, 1022]
    edges = np.ldexp(t, np.arange(-20, 1000))
    norms = np.concatenate([
        10.0 ** np.random.default_rng(40).uniform(-300, 308, size=10**4),
        edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf),
    ])
    s = _scaling_powers(norms)
    assert np.all(np.ldexp(norms, -s) <= t)
    assert np.all((s == 0) | (np.ldexp(norms, 1 - s) > t))


@pytest.mark.parametrize("target", EXPM_NORMS, ids=lambda x: f"{x:.17g}")
def test_expm_matches_scipy_on_structured_matrices(target):
    rng = np.random.default_rng(41)
    mats = []
    for n in range(2, 8):  # augmented matrices for w = 1..6
        for _ in range(10):
            for m in _structured_matrices(rng, n):
                mats.append(m * (target / _one_norm(m)))
    # matrices exactly at the target norm, the theta13 boundary included
    mats += [np.diag([target, -target / 2]), np.array([[0.0, target], [0.0, 0.0]])]
    for m in mats:
        want = expm(m)
        got = _expm(m[None].copy())[0]
        assert np.all(np.isfinite(want))
        tol = 1e-12 * max(1.0, _one_norm(m)) * float(np.max(np.abs(want)))
        assert float(np.max(np.abs(got - want))) <= tol


def test_expm_rows_do_not_depend_on_the_stack():
    # scaling powers from 0 to 8 in one stack: each matrix is squared
    # exactly its own number of times
    rng = np.random.default_rng(42)
    mats = rng.normal(size=(40, 4, 4)) * 10.0 ** rng.uniform(-3, 2.3, size=(40, 1, 1))
    assert len(set(_scaling_powers(np.abs(mats).sum(axis=1).max(axis=1)).tolist())) > 5
    whole = _expm(mats.copy())
    assert same_bits(list(whole), [_expm(m[None].copy())[0] for m in mats])
    assert same_bits(list(whole), list(_expm(mats[::-1].copy())[::-1]))


def test_flow_with_mixed_scaling_does_not_depend_on_blocking(monkeypatch):
    rng = np.random.default_rng(43)
    f, _, y0 = random_affine_system(rng)
    segments = rng.normal(size=(9, 4, f.input_dim)) * 10.0 ** rng.uniform(-2, 1, size=(9, 4, 1))
    whole = _flow_end_states(segments, f, y0)
    per = _EXPM_TEMPORARIES * (f.state_dim + 1) ** 2
    for budget in (per, 5 * per, 18 * per):
        monkeypatch.setattr(ito_solver, "_MAX_COEFFICIENTS", budget)
        assert same_bits(list(_flow_end_states(segments, f, y0)), list(whole))


@pytest.mark.parametrize("low, high, tol", [(0.8, 2.0, 1e-14), (20.0, 40.0, 1e-10)])
def test_flow_matches_the_scipy_composition(low, high, tol):
    # measured worst: 6.4e-16 at C L 0.8-2 and 1.5e-12 at C L 20-40
    rng = np.random.default_rng(44)
    for _ in range(40):
        f, path, y0 = random_affine_system(rng, low=low, high=high)
        got = sp.oracle_solve(f, path, y0)
        want = reference_flow_end_states(path.segments[None], f, y0)[0]
        assert np.linalg.norm(got - want) <= tol * max(1.0, float(np.linalg.norm(want)))


def test_non_finite_flow_matrix_is_numerical_failure():
    with pytest.raises(FloatingPointError, match="^the norm of a segment's flow matrix is beyond float range$"):
        _scaling_powers(np.array([1.0, np.inf]))
    with pytest.raises(FloatingPointError, match="^the norm of a segment's flow matrix is beyond float range$"):
        _scaling_powers(np.array([np.nan]))
    # A(v) = 1e310 overflows to inf; 1e318 - 1e318 makes a NaN
    inf_field = sp.LinearVectorField([[[1e300]]], [[0.0]])
    nan_field = sp.LinearVectorField([[[1e308]], [[1e308]]], [[0.0], [0.0]])
    cases = [(inf_field, sp.linear_path([1e10])), (nan_field, sp.linear_path([1e10, -1e10]))]
    for field, path in cases:
        with pytest.raises(FloatingPointError, match="^the norm of a segment's flow matrix is beyond float range$"):
            sp.oracle_solve(field, path, [1.0])
    # a finite matrix whose exponential overflows: exp(800)
    with pytest.raises(FloatingPointError, match="^the exact flow is beyond float range$"):
        sp.oracle_solve(sp.LinearVectorField([[[800.0]]], [[0.0]]), sp.linear_path([1.0]), [1.0])


@pytest.mark.parametrize("w", [1, 3, 6])
@pytest.mark.parametrize("budget", [2**12, 2**14])
def test_flow_temporaries_stay_within_the_budget(monkeypatch, w, budget):
    # every live matrix array of a block counts against the budget, so the
    # peak is the budget's bytes plus the (n, w + 1) state and a little
    monkeypatch.setattr(ito_solver, "_MAX_COEFFICIENTS", budget)
    rng = np.random.default_rng(45)
    f = sp.LinearVectorField(rng.normal(size=(2, w, w)) * 0.3, rng.normal(size=(2, w)) * 0.3)
    n, m = 500, 8
    segments = rng.normal(size=(n, m, 2)) * 0.5
    assert _EXPM_TEMPORARIES * n * m * (w + 1) ** 2 >= 4 * budget  # many blocks
    peak = traced_peak_bytes(_flow_end_states, segments, f, rng.normal(size=w))
    assert peak <= 8 * budget + 8 * n * (w + 1) + 16 * 2**10
