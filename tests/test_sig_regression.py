import itertools
import json
import time

import numpy as np
import pytest

import sigpath as sp
from sigpath.sig_regression import (
    dataset_from_dict,
    dataset_from_json,
    dataset_to_dict,
    dataset_to_json,
    evaluate,
    functional_from_dict,
    functional_from_json,
    functional_to_json,
)

from helpers import (
    BAD_INTEGERS,
    BIG_INT,
    bad_value_params,
    malformed_record_params,
    random_path,
    reference_generate_dataset,
    reference_signature,
    same_bits,
)


def test_feature_count():
    assert sp.feature_count(2, 0) == 1
    assert sp.feature_count(2, 2) == 7
    assert sp.feature_count(3, 2) == 13
    assert sp.feature_count(1, 4) == 5


def test_featurize_trivial_path():
    o = sp.constant_path(2)
    x = sp.featurize(o, 2)
    expected = np.zeros(7)
    expected[0] = 1.0
    assert np.array_equal(x, expected)


def test_featurize_prefix_property():
    # deeper featurization extends the shallower one bitwise
    rng = np.random.default_rng(0)
    for _ in range(10):
        p = random_path(rng, dim=2)
        shallow = sp.featurize(p, 2)
        deep = sp.featurize(p, 4)
        assert np.array_equal(deep[: len(shallow)], shallow)


def test_linear_functional_shapes():
    w = np.zeros(7)
    w[0] = 2.0
    f = sp.LinearFunctional(dim=2, depth=2, weights=w)
    assert f.weights.shape == (7, 1)
    o = sp.constant_path(2)
    assert np.array_equal(f.evaluate(sp.signature(o, 2)), np.array([2.0]))
    with pytest.raises(ValueError):
        sp.LinearFunctional(dim=2, depth=2, weights=np.zeros(6))
    with pytest.raises(ValueError):
        sp.LinearFunctional(dim=2, depth=2, weights=np.zeros((7, 1, 1)))


def test_predict_matches_per_path():
    field, y0 = sp.demo_field()
    ds = sp.generate_dataset(field, y0, n_paths=12, segment_count=3, r=1.0,
                             noise_scale=0.0, seed=0)
    f = sp.fit(ds, depth=2)
    batched = f.predict(ds.features)
    single = np.stack([f.predict_path(p) for p in ds.paths])
    assert np.allclose(batched, single, atol=1e-13)
    # predict_path reads the signature's levels without a GroupTensor, bit for bit
    via_tensor = np.stack([f.evaluate(sp.signature(p, f.depth)) for p in ds.paths])
    assert single.tobytes() == via_tensor.tobytes()
    with pytest.raises(ValueError):
        f.predict_path(sp.linear_path([1.0, 2.0, 3.0]))


def test_generate_dataset_reproducible():
    field, y0 = sp.demo_field()
    a = sp.generate_dataset(field, y0, n_paths=8, segment_count=3, r=1.0,
                            noise_scale=0.0, seed=5)
    b = sp.generate_dataset(field, y0, n_paths=8, segment_count=3, r=1.0,
                            noise_scale=0.0, seed=5)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.responses, b.responses)
    c = sp.generate_dataset(field, y0, n_paths=8, segment_count=3, r=1.0,
                            noise_scale=0.0, seed=6)
    assert not np.array_equal(a.features, c.features)


def test_generate_dataset_features_are_bitwise_the_pairwise_fold():
    field, y0 = sp.demo_field()
    ds = sp.generate_dataset(field, y0, n_paths=9, segment_count=5, r=1.5,
                             noise_scale=0.0, seed=4, depth=5)
    for row, p in zip(ds.features, ds.paths):
        want = np.concatenate(reference_signature(p.segments, 5))
        assert same_bits([row], [want])
        assert same_bits([row], [sp.featurize(p, 5)])


def test_generate_dataset_size_budget():
    field, y0 = sp.demo_field()
    with pytest.raises(ValueError, match="limit"):
        sp.generate_dataset(field, y0, n_paths=1, segment_count=2, r=1.0,
                            noise_scale=0.0, seed=0, depth=64)


def test_generate_dataset_respects_radius():
    field, y0 = sp.demo_field()
    for r in (0.5, 1.0):
        ds = sp.generate_dataset(field, y0, n_paths=20, segment_count=4, r=r,
                                 noise_scale=0.0, seed=1)
        assert all(p.length <= r + 1e-12 for p in ds.paths)


def test_noise_only_perturbs_responses():
    field, y0 = sp.demo_field()
    clean = sp.generate_dataset(field, y0, n_paths=10, segment_count=3, r=1.0,
                                noise_scale=0.0, seed=2)
    noisy = sp.generate_dataset(field, y0, n_paths=10, segment_count=3, r=1.0,
                                noise_scale=0.1, seed=2)
    assert np.array_equal(clean.features, noisy.features)
    assert not np.array_equal(clean.responses, noisy.responses)
    gap = np.abs(clean.responses - noisy.responses).max()
    assert 0.0 < gap < 1.0


def test_realisable_recovery():
    # responses generated by a depth-2 functional are recovered exactly
    field, y0 = sp.demo_field()
    ds = sp.generate_dataset(field, y0, n_paths=60, segment_count=3, r=1.0,
                             noise_scale=0.0, seed=3)
    target = sp.truncated_functional_LN(field, y0, 2)
    responses = np.stack([target.evaluate(sp.signature(p, 2)) for p in ds.paths])
    realised = sp.RegressionDataset(
        segments=ds.segments, features=ds.features, responses=responses,
        depth=ds.depth, noise_scale=0.0, seed=3,
    )
    f = sp.fit(realised, depth=2)
    assert not f.rank_deficient
    assert np.abs(f.weights - target.weights).max() <= 1e-8
    metrics = evaluate(f, realised)
    assert metrics["rmse_train"] <= 1e-8


def test_heldout_rmse_decreases_with_depth():
    field, y0 = sp.demo_field()
    train = sp.generate_dataset(field, y0, n_paths=200, segment_count=4, r=1.0,
                                noise_scale=0.0, seed=0)
    held = sp.generate_dataset(field, y0, n_paths=100, segment_count=4, r=1.0,
                               noise_scale=0.0, seed=1)
    prev = np.inf
    for depth in (1, 2, 3, 4):
        f = sp.fit(train, depth=depth)
        metrics = evaluate(f, train, heldout=held)
        assert metrics["rmse_heldout"] < prev
        prev = metrics["rmse_heldout"]


def test_evaluate_metric_keys():
    field, y0 = sp.demo_field()
    ds = sp.generate_dataset(field, y0, n_paths=10, segment_count=3, r=1.0,
                             noise_scale=0.0, seed=4)
    f = sp.fit(ds, depth=1)
    m = evaluate(f, ds)
    assert set(m) == {"rmse_train", "max_abs_train", "uniform_gap_train"}
    assert m["uniform_gap_train"] >= m["rmse_train"] - 1e-15
    m2 = evaluate(f, ds, heldout=ds)
    assert m2["rmse_heldout"] == m["rmse_train"]


def test_scaling_equivariance_bitwise():
    field, y0 = sp.demo_field()
    ds = sp.generate_dataset(field, y0, n_paths=30, segment_count=3, r=1.0,
                             noise_scale=0.0, seed=6)
    scaled = sp.RegressionDataset(
        segments=ds.segments, features=ds.features, responses=ds.responses * 4.0,
        depth=ds.depth, noise_scale=0.0, seed=6,
    )
    f1 = sp.fit(ds, depth=3)
    f2 = sp.fit(scaled, depth=3)
    assert np.array_equal(f2.weights, f1.weights * 4.0)
    p = ds.paths[0]
    assert np.array_equal(f2.predict_path(p), f1.predict_path(p) * 4.0)


def test_rank_deficiency_flag_and_ridge():
    field, y0 = sp.demo_field()
    small = sp.generate_dataset(field, y0, n_paths=5, segment_count=3, r=1.0,
                                noise_scale=0.0, seed=7)
    f = sp.fit(small, depth=3)
    assert f.rank_deficient
    g = sp.fit(small, depth=3, ridge=1e-6)
    assert not g.rank_deficient
    with pytest.raises(ValueError):
        sp.fit(small, depth=3, ridge=-1.0)
    with pytest.raises(ValueError):
        sp.fit(small, depth=5)  # beyond generation depth


def test_feature_injectivity_on_corpus():
    field, y0 = sp.demo_field()
    ds = sp.generate_dataset(field, y0, n_paths=60, segment_count=4, r=1.0,
                             noise_scale=0.0, seed=8)
    feats = ds.features
    for i in range(len(feats)):
        gaps = np.linalg.norm(feats[i + 1 :] - feats[i], axis=1)
        assert gaps.size == 0 or gaps.min() > 1e-9


def test_demo_field_properties():
    field, y0 = sp.demo_field()
    assert field.input_dim == 2 and field.state_dim == 2
    assert field.growth_constant == pytest.approx(0.99, rel=1e-12)
    A1, A2 = field.matrices
    assert np.abs(A1 @ A2 - A2 @ A1).max() > 1e-3  # genuinely non-commuting
    assert y0.shape == (2,)


def test_serialisation_round_trips():
    field, y0 = sp.demo_field()
    ds = sp.generate_dataset(field, y0, n_paths=6, segment_count=3, r=1.0,
                             noise_scale=0.0, seed=9)
    f = sp.fit(ds, depth=2)

    f2 = functional_from_json(functional_to_json(f))
    assert np.array_equal(f.weights, f2.weights)
    assert (f.dim, f.depth, f.rank_deficient) == (f2.dim, f2.depth, f2.rank_deficient)

    ds2 = dataset_from_json(dataset_to_json(ds))
    assert np.array_equal(ds.features, ds2.features)
    assert np.array_equal(ds.responses, ds2.responses)
    assert all(
        np.array_equal(p.segments, q.segments) for p, q in zip(ds.paths, ds2.paths)
    )
    with pytest.raises(ValueError):
        functional_from_json("{\"dim\": 2}")


@pytest.mark.parametrize(
    "n_paths, segment_count",
    # 10**9 paths would take hours to draw; 360801 x 3 segments are two
    # over the 1082401 that fit 2**25 coefficients at d = 2, depth 4
    [(10**9, 4), ((2**25 // 31) // 3 + 1, 3)],
)
def test_generate_dataset_checks_the_budget_before_drawing(monkeypatch, n_paths, segment_count):
    def refuse(*args, **kwargs):
        raise AssertionError("generator created before the budget check")

    monkeypatch.setattr(sp.sig_regression.np.random, "default_rng", refuse)
    field, y0 = sp.demo_field()
    assert sp.feature_count(2, 4) == 31
    start = time.perf_counter()
    with pytest.raises(ValueError, match="limit"):
        sp.generate_dataset(field, y0, n_paths=n_paths, segment_count=segment_count, r=1.0,
                            noise_scale=0.0, seed=0, depth=4)
    assert time.perf_counter() - start < 1.0


def test_generate_dataset_refuses_a_negative_depth_before_drawing(monkeypatch):
    # the budget counts coefficients with feature_count, which takes no depth below 0
    def refuse(*args, **kwargs):
        raise AssertionError("generator created before the depth check")

    monkeypatch.setattr(sp.sig_regression.np.random, "default_rng", refuse)
    field, y0 = sp.demo_field()
    with pytest.raises(ValueError, match="depth >= 0"):
        sp.generate_dataset(field, y0, n_paths=4, segment_count=3, r=1.0, noise_scale=0.0, seed=0, depth=-1)


@pytest.mark.parametrize(
    "r, noise_scale, name",
    [
        (float("inf"), 0.0, "length budget r"),
        (float("nan"), 0.0, "length budget r"),
        (-float("inf"), 0.0, "length budget r"),
        (1.0, float("inf"), "noise_scale"),
        (1.0, float("nan"), "noise_scale"),
        (1.0, -float("inf"), "noise_scale"),
    ],
)
def test_generate_dataset_rejects_non_finite_arguments_before_drawing(monkeypatch, r, noise_scale, name):
    def refuse(*args, **kwargs):
        raise AssertionError("generator created before the argument check")

    monkeypatch.setattr(sp.sig_regression.np.random, "default_rng", refuse)
    field, y0 = sp.demo_field()
    with pytest.raises(ValueError, match=f"^{name} must be finite and"):
        sp.generate_dataset(field, y0, n_paths=4, segment_count=3, r=r,
                            noise_scale=noise_scale, seed=0, depth=2)


def _field_of_dim(d):
    rng = np.random.default_rng(d)
    mats, offs = rng.normal(size=(d, 2, 2)), rng.normal(size=(d, 2))
    base = sp.LinearVectorField(matrices=mats, offsets=offs)
    s = 0.9 / base.growth_constant
    return sp.LinearVectorField(matrices=s * mats, offsets=s * offs)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("segment_count", [1, 4, 8, 9, 17])
def test_generate_dataset_is_bitwise_the_per_path_loop(d, segment_count):
    # 8 and 9 segments sit either side of numpy's 8-element pairwise block,
    # so the lengths' row sums must still match the one-path sum
    field, y0 = _field_of_dim(d), np.array([0.5, -0.25])
    cases = itertools.product((1, 2, 64), (0.0, 0.3), (0, 7, 31))
    for k, (n_paths, noise, seed) in enumerate(cases):
        depth = k % 6
        args = (field, y0, n_paths, segment_count, 1.5, noise, seed)
        got = sp.generate_dataset(*args, depth=depth)
        want = reference_generate_dataset(*args, depth=depth)
        assert same_bits([got.features, got.responses], [want.features, want.responses])
        assert np.array_equal(got.features, want.features)
        assert np.array_equal(got.responses, want.responses)
        assert len(got.paths) == n_paths
        for p, q in zip(got.paths, want.paths):
            assert p.dim == d and same_bits([p.segments], [q.segments])
            assert not p.segments.flags.writeable


FUNCTIONAL_RECORD = {"dim": 2, "depth": 1, "weights": [[0.5], [1.0], [-1.0]], "rank_deficient": False}
DATASET_RECORD = dataset_to_dict(
    sp.generate_dataset(*sp.demo_field(), n_paths=3, segment_count=2, r=1.0, noise_scale=0.0, seed=1, depth=1)
)


@pytest.mark.parametrize(
    "text",
    malformed_record_params(FUNCTIONAL_RECORD, ("dim", "depth"), [("weights",)])
    + bad_value_params(FUNCTIONAL_RECORD, "rank_deficient", ('"false"', "0", "1", "null")),
)
def test_functional_record_with_a_bad_value_is_a_value_error(text):
    # a 400-digit depth is refused before 2**(depth + 1) is formed, and
    # rank_deficient must be a JSON boolean: "false" is no longer True
    functional_from_dict(FUNCTIONAL_RECORD)
    with pytest.raises(ValueError):
        functional_from_dict(json.loads(text))
    with pytest.raises(ValueError):
        functional_from_json(text)


@pytest.mark.parametrize(
    "text",
    malformed_record_params(
        DATASET_RECORD, ("depth",), [("features",), ("responses",), ("paths", 0, "segments")]
    )
    + bad_value_params(DATASET_RECORD, "seed", [bad for bad in BAD_INTEGERS if bad != BIG_INT])
    + bad_value_params(DATASET_RECORD, "noise_scale", ("1e400", BIG_INT, "true", '"0"')),
)
def test_dataset_record_with_a_bad_value_is_a_value_error(text):
    # a 400-digit seed is a valid numpy seed, so only the other bad values
    # are tried on it
    dataset_from_dict(DATASET_RECORD)
    with pytest.raises(ValueError):
        dataset_from_dict(json.loads(text))
    with pytest.raises(ValueError):
        dataset_from_json(text)


def test_ragged_dataset_record_is_a_value_error():
    doc = json.loads(json.dumps(DATASET_RECORD))
    doc["paths"][1]["segments"] = doc["paths"][1]["segments"][:1]
    with pytest.raises(ValueError):
        dataset_from_dict(doc)


def test_dataset_holds_a_read_only_segment_block_and_builds_paths_on_first_read():
    field, y0 = sp.demo_field()
    ds = sp.generate_dataset(field, y0, n_paths=5, segment_count=3, r=1.0, noise_scale=0.0, seed=4, depth=2)
    assert ds.segments.shape == (5, 3, 2) and not ds.segments.flags.writeable
    assert "paths" not in vars(ds)
    assert ds.paths is ds.paths and len(ds.paths) == 5
    assert all(same_bits([p.segments], [row]) for p, row in zip(ds.paths, ds.segments))
    fields = dict(features=ds.features, responses=ds.responses, depth=2, noise_scale=0.0)
    with pytest.raises(ValueError):
        sp.RegressionDataset(segments=ds.segments[0], **fields)
    with pytest.raises(ValueError):
        sp.RegressionDataset(segments=ds.segments[:4], **fields)
    with pytest.raises(ValueError):
        sp.RegressionDataset(segments=ds.segments, **{**fields, "depth": 3})
