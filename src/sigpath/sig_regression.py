"""Linear regression on truncated signature features.

The workflow: sample random paths inside a length ball, compute responses
by integrating a controlled ODE (plus optional Gaussian noise), flatten
truncated signatures into feature vectors, and fit a linear functional by
(optionally ridge-regularised) least squares.  Because the truncated
solution map is itself linear in these features, realisable targets are
recovered to numerical precision, while full ODE responses show the
depth-by-depth error decay promised by the factorial remainder.

Feature layout is frozen: levels 0..depth concatenated in level order,
each level flattened row-major.  The constant level-0 feature doubles as
the intercept column.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ito_solver import LinearVectorField, _check_y0, _flow_end_states
from .path_core import PiecewiseLinearPath, path_from_dict, path_to_dict
from .signature_engine import (
    LinearFunctional,
    _check_feature_count,
    _signature_levels,
    feature_count,
)
from .tensor_algebra import _MALFORMED, _check_budget, _count, _finite, _in_range, _json_floats, _real

__all__ = [
    "RegressionDataset",
    "featurize",
    "generate_dataset",
    "fit",
    "evaluate",
    "demo_field",
    "functional_to_dict",
    "functional_from_dict",
    "functional_to_json",
    "functional_from_json",
    "dataset_to_dict",
    "dataset_from_dict",
    "dataset_to_json",
    "dataset_from_json",
]


def featurize(path: PiecewiseLinearPath, depth: int) -> np.ndarray:
    """Flattened truncated signature, levels 0..depth in order.

    Truncated products only feed lower levels into higher ones, so the
    leading feature_count(dim, d) entries at any smaller depth d are
    bit-identical to featurize(path, d).
    """
    return np.concatenate(_signature_levels(path.segments[None], depth), axis=1)[0]


@dataclass(frozen=True, eq=False)
class RegressionDataset:
    """n >= 1 paths as one (n, m, d) segment block, with their features and responses."""

    segments: np.ndarray
    features: np.ndarray
    responses: np.ndarray
    depth: int
    noise_scale: float
    seed: int | None = None

    def __post_init__(self):
        segs = _finite("segments", self.segments)
        feats = _finite("features", self.features)
        resp = np.atleast_2d(_finite("responses", self.responses))
        if segs.ndim != 3:
            raise ValueError(f"segments must be an (n, m, d) block, got shape {segs.shape}")
        if segs.shape[0] == 0:
            raise ValueError("dataset is empty")
        if feats.ndim != 2 or not segs.shape[0] == feats.shape[0] == resp.shape[0]:
            raise ValueError("segments, features and responses must align")
        object.__setattr__(self, "depth", _count("depth", self.depth, 0))
        _check_feature_count(feats.shape[1], segs.shape[2], self.depth, "feature columns")
        object.__setattr__(self, "segments", segs)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "responses", resp)
        object.__setattr__(self, "noise_scale", _real("noise_scale", self.noise_scale, "nonnegative"))
        object.__setattr__(self, "seed", None if self.seed is None else _count("seed", self.seed, 0))

    @cached_property
    def paths(self) -> tuple:
        return tuple(PiecewiseLinearPath(self.dim, row) for row in self.segments)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.segments.shape[2]


def generate_dataset(
    field: LinearVectorField,
    y0,
    n_paths: int,
    segment_count: int,
    r: float,
    noise_scale: float,
    seed: int,
    depth: int = 4,
) -> RegressionDataset:
    """Random paths in the length-r ball with ODE responses.

    Segment directions are uniform on the sphere, segment lengths a random
    partition of a total drawn from [r/4, r), so every path lies strictly
    inside the ball.  Responses are oracle_solve's exact flows, computed
    for all paths at once and row for row bit-identical to it, with centred
    Gaussian noise added when noise_scale > 0; noise that takes a response
    beyond float range raises FloatingPointError.  Features for all paths come
    from one batched signature call, row for row bit-identical to
    featurize.  Everything is a pure function of the seed.

    Path by path the generator draws normal(size=(m, d)) directions, then
    random(m) lengths, then one uniform(0.25, 1.0) total, into blocks
    allocated once.  These draws stay in a loop: the ziggurat behind
    normal consumes a variable number of words, so one call for all paths
    would change the stream.  Normalising, scaling and forming segments
    then act on the whole (n_paths, m, d) block, which both kernels take
    as it is.
    """
    n_paths = _count("n_paths", n_paths, 1)
    segment_count = _count("segment_count", segment_count, 1)
    seed = _count("seed", seed, 0)
    r = _real("length budget r", r, "positive")
    noise_scale = _real("noise_scale", noise_scale, "nonnegative")
    d = field.input_dim
    # the kernel's size check, before any path is drawn
    what = f"{n_paths} x {segment_count} segments of dimension {d}"
    _check_budget(n_paths * segment_count, d, depth, what)
    y0 = _check_y0(field, y0)
    rng = np.random.default_rng(seed)
    dirs = np.empty((n_paths, segment_count, d))
    lengths = np.empty((n_paths, segment_count))
    totals = np.empty(n_paths)
    for i in range(n_paths):
        # normal, not standard_normal(out=...): 0 + 1 * x turns -0.0 into +0.0
        dirs[i] = rng.normal(size=(segment_count, d))
        rng.random(segment_count, out=lengths[i])
        totals[i] = rng.uniform(0.25, 1.0)
    dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
    lengths *= (r * totals / lengths.sum(axis=1))[:, None]
    segments = dirs * lengths[:, :, None]
    features = np.concatenate(_signature_levels(segments, depth), axis=1)
    responses = _flow_end_states(segments, field, y0)
    if noise_scale > 0:
        # noisy responses beyond float range are a numerical failure, not
        # the malformed input that RegressionDataset would call them
        with np.errstate(over="ignore"):
            responses = _in_range("a noisy response", responses + noise_scale * rng.standard_normal(responses.shape))
    return RegressionDataset(
        segments=segments,
        features=features,
        responses=responses,
        depth=depth,
        noise_scale=noise_scale,
        seed=seed,
    )


def fit(dataset: RegressionDataset, depth: int, ridge: float = 0.0) -> LinearFunctional:
    """Least-squares functional on features truncated to the given depth.

    ridge = 0 uses the minimum-norm solution and flags rank deficiency;
    ridge > 0 solves the augmented system [X; sqrt(ridge) I].  Both go
    through scipy.linalg.lstsq (gelsd), imported here rather than with the
    module, so that the other commands start without loading scipy;
    numpy.linalg.lstsq with the same cutoff calls another LAPACK build and
    changes the last bits of some fits.
    """
    depth = _count("depth", depth, 0, dataset.depth)
    ridge = _real("ridge", ridge, "nonnegative")
    dim = dataset.dim
    F = feature_count(dim, depth)
    X = dataset.features[:, :F]
    Y = dataset.responses
    import scipy.linalg

    rank_deficient = False
    if ridge == 0.0:
        sol, _, rank, _ = scipy.linalg.lstsq(X, Y)
        rank_deficient = rank < F
    else:
        X_aug = np.vstack([X, np.sqrt(ridge) * np.eye(F)])
        Y_aug = np.vstack([Y, np.zeros((F, Y.shape[1]))])
        sol, _, _, _ = scipy.linalg.lstsq(X_aug, Y_aug)
    # finite features and responses can still give weights beyond float
    # range, a numerical failure that the functional would call a bad input
    return LinearFunctional(
        dim=dim, depth=depth, weights=_in_range("a fitted weight", sol), rank_deficient=rank_deficient
    )


def _metrics(functional: LinearFunctional, dataset: RegressionDataset) -> dict:
    # predict sees only the width, and a dim-1 depth-3 block has the 4
    # columns of a dim-3 depth-1 functional
    if functional.dim != dataset.dim:
        raise ValueError(f"functional dim {functional.dim} does not match dataset dim {dataset.dim}")
    diff = functional.predict(dataset.features) - dataset.responses
    norms = np.linalg.norm(diff, axis=1)
    return {
        "rmse": float(np.sqrt(np.mean(norms**2))),
        "max_abs": float(np.max(np.abs(diff))),
        "uniform_gap": float(np.max(norms)),
    }


def evaluate(
    functional: LinearFunctional,
    dataset: RegressionDataset,
    heldout: RegressionDataset | None = None,
) -> dict:
    """RMSE, max absolute error and worst-case gap, per evaluation set.

    Keys are suffixed _train for the first dataset and _heldout for the
    optional second one.
    """
    out = {f"{k}_train": v for k, v in _metrics(functional, dataset).items()}
    if heldout is not None:
        out.update({f"{k}_heldout": v for k, v in _metrics(functional, heldout).items()})
    return out


def demo_field() -> tuple[LinearVectorField, np.ndarray]:
    """Fixed non-commuting planar field scaled to growth constant 0.99."""
    mats = np.array(
        [
            [[0.0, 1.0], [-1.0, 0.0]],
            [[0.5, 0.2], [0.0, -0.4]],
        ]
    )
    offs = np.array([[0.3, 0.0], [0.0, 0.1]])
    base = LinearVectorField(matrices=mats, offsets=offs)
    s = 0.99 / base.growth_constant
    field = LinearVectorField(matrices=s * mats, offsets=s * offs)
    return field, np.array([0.5, -0.25])


# ---------------------------------------------------------------------------
# serialisation


def functional_to_dict(functional: LinearFunctional) -> dict:
    return {
        "dim": functional.dim,
        "depth": functional.depth,
        "weights": [[float(v) for v in row] for row in functional.weights],
        "rank_deficient": functional.rank_deficient,
    }


def functional_from_dict(data: dict) -> LinearFunctional:
    try:
        return LinearFunctional(
            dim=data["dim"],
            depth=data["depth"],
            weights=_json_floats("functional key 'weights'", data["weights"]),
            rank_deficient=data.get("rank_deficient", False),
        )
    except _MALFORMED as exc:
        raise ValueError(f"malformed functional: {exc}") from None


def dataset_to_dict(dataset: RegressionDataset) -> dict:
    return {
        "paths": [path_to_dict(p) for p in dataset.paths],
        "features": [[float(v) for v in row] for row in dataset.features],
        "responses": [[float(v) for v in row] for row in dataset.responses],
        "depth": dataset.depth,
        "noise_scale": dataset.noise_scale,
        "seed": dataset.seed,
    }


def dataset_from_dict(data: dict) -> RegressionDataset:
    try:
        return RegressionDataset(
            segments=np.stack([path_from_dict(p).segments for p in data["paths"]]),
            features=_json_floats("dataset key 'features'", data["features"]),
            responses=_json_floats("dataset key 'responses'", data["responses"]),
            depth=data["depth"],
            noise_scale=_real("dataset key 'noise_scale'", data["noise_scale"]),
            seed=data.get("seed"),
        )
    except _MALFORMED as exc:
        raise ValueError(f"malformed dataset: {exc}") from None


def functional_to_json(functional: LinearFunctional) -> str:
    return json.dumps(functional_to_dict(functional), allow_nan=False, sort_keys=True)


def functional_from_json(text: str) -> LinearFunctional:
    return functional_from_dict(json.loads(text))


def dataset_to_json(dataset: RegressionDataset) -> str:
    return json.dumps(dataset_to_dict(dataset), allow_nan=False, sort_keys=True)


def dataset_from_json(text: str) -> RegressionDataset:
    return dataset_from_dict(json.loads(text))
