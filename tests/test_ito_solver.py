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

from sigpath import signature_engine
from sigpath.ito_solver import _flow_end_states

from helpers import random_affine_system, reference_rk4_oracle, resplit, same_bits


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
    e12 = np.zeros(4)
    e12[sp.word_index((1, 2), 2)] = 1.0
    assert np.array_equal(sp.apply_word_operator(f, e12, y0), A2 @ A1 @ y0)
    e21 = np.zeros(4)
    e21[sp.word_index((2, 1), 2)] = 1.0
    assert np.array_equal(sp.apply_word_operator(f, e21, y0), A1 @ A2 @ y0)


def test_word_operator_needs_level_for_scalar_driver():
    f = sp.LinearVectorField(matrices=np.ones((1, 1, 1)), offsets=np.zeros((1, 1)))
    y0 = np.ones(1)
    with pytest.raises(ValueError):
        sp.apply_word_operator(f, np.ones(1), y0)
    out = sp.apply_word_operator(f, np.ones(1), y0, level_index=3)
    assert np.array_equal(out, y0)


def test_word_coefficients_against_direct_operators():
    rng = np.random.default_rng(0)
    f, path, y0 = random_affine_system(rng)
    d, w = f.input_dim, f.state_dim
    coeffs = word_coefficients(f, y0, 3)
    for k in (1, 2, 3):
        flat = coeffs[k]
        for idx in range(min(d**k, 6)):
            basis = np.zeros(d**k)
            basis[idx] = 1.0
            assert np.allclose(
                flat[idx], sp.apply_word_operator(f, basis, y0, level_index=k),
                atol=1e-13,
            )


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
    assert sol.discrepancy == pytest.approx(
        float(np.linalg.norm(sol.value - sol.oracle_value))
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
        monkeypatch.setattr(signature_engine, "_MAX_COEFFICIENTS", budget)
        assert same_bits(list(_flow_end_states(segments, f, y0)), list(whole))
        assert same_bits([sp.oracle_solve(f, path, y0)], [single])
    rows = [_flow_end_states(segments[i : i + 1], f, y0)[0] for i in range(7)]
    assert same_bits(rows, list(whole))
