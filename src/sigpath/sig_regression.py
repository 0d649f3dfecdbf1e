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

import numpy as np
import scipy.linalg

from .ito_solver import LinearVectorField, _check_y0, _flow_end_states
from .path_core import PiecewiseLinearPath, path_from_dict, path_to_dict
from .signature_engine import _signature_levels, signature
from .tensor_algebra import TruncatedTensor

__all__ = [
    "LinearFunctional",
    "RegressionDataset",
    "feature_count",
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


def feature_count(dim: int, depth: int) -> int:
    """Number of tensor coefficients across levels 0..depth."""
    if dim < 1 or depth < 0:
        raise ValueError(f"need dim >= 1 and depth >= 0, got {dim}, {depth}")
    if dim == 1:
        return depth + 1
    return (dim ** (depth + 1) - 1) // (dim - 1)


def featurize(path: PiecewiseLinearPath, depth: int) -> np.ndarray:
    """Flattened truncated signature, levels 0..depth in order.

    Truncated products only feed lower levels into higher ones, so the
    leading feature_count(dim, d) entries at any smaller depth d are
    bit-identical to featurize(path, d).
    """
    return np.concatenate(signature(path, depth).levels)


@dataclass(frozen=True, eq=False)
class LinearFunctional:
    """Affine-in-signature predictor: one weight per tensor coefficient.

    weights has shape (feature_count(dim, depth), outputs).  rank_deficient
    records that an unregularised fit met a singular normal system and
    returned the minimum-norm solution.
    """

    dim: int
    depth: int
    weights: np.ndarray
    rank_deficient: bool = False

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim == 1:
            w = w[:, None]
        if w.ndim != 2:
            raise ValueError(f"weights must be 1- or 2-dimensional, got {w.ndim}")
        expected = feature_count(self.dim, self.depth)
        if w.shape[0] != expected:
            raise ValueError(
                f"weights must have {expected} rows for dim {self.dim} "
                f"depth {self.depth}, got {w.shape[0]}"
            )
        w = np.array(w)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def output_dim(self) -> int:
        return self.weights.shape[1]

    def _level_blocks(self):
        offset = 0
        for k in range(self.depth + 1):
            size = self.dim**k
            yield self.weights[offset : offset + size]
            offset += size

    def evaluate(self, tensor: TruncatedTensor) -> np.ndarray:
        """Pair with a truncated tensor, level by level in ascending order.

        This walks the same per-level arrays in the same order as the
        series solver, so functionals built from word coefficients agree
        with it exactly, not just to rounding.
        """
        if tensor.dim != self.dim:
            raise ValueError(f"tensor dim {tensor.dim} does not match {self.dim}")
        if tensor.depth < self.depth:
            raise ValueError(
                f"tensor depth {tensor.depth} is below functional depth {self.depth}"
            )
        blocks = self._level_blocks()
        acc = tensor.levels[0] @ next(blocks)
        for k, block in enumerate(blocks, start=1):
            acc = acc + tensor.levels[k] @ block
        return acc

    def predict_path(self, path: PiecewiseLinearPath) -> np.ndarray:
        return self.evaluate(signature(path, self.depth))

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Batched prediction from rows of flattened features."""
        features = np.asarray(features, dtype=float)
        expected = self.weights.shape[0]
        if features.shape[-1] < expected:
            raise ValueError(
                f"features have {features.shape[-1]} columns, need {expected}"
            )
        return features[..., :expected] @ self.weights


@dataclass(frozen=True, eq=False)
class RegressionDataset:
    paths: tuple
    features: np.ndarray
    responses: np.ndarray
    depth: int
    noise_scale: float
    seed: int | None = None

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        resp = np.atleast_2d(np.asarray(self.responses, dtype=float))
        if resp.shape[0] != feats.shape[0] or len(self.paths) != feats.shape[0]:
            raise ValueError("paths, features and responses must align")
        feats = np.array(feats)
        feats.setflags(write=False)
        resp = np.array(resp)
        resp.setflags(write=False)
        object.__setattr__(self, "paths", tuple(self.paths))
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "responses", resp)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.paths[0].dim


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
    Gaussian noise added when noise_scale > 0.  Features for all paths come
    from one batched signature call, row for row bit-identical to
    featurize.  Everything is a pure function of the seed.
    """
    if n_paths < 1 or segment_count < 1:
        raise ValueError("need at least one path and one segment")
    if r <= 0:
        raise ValueError(f"length budget must be positive, got {r}")
    if noise_scale < 0:
        raise ValueError(f"noise scale must be nonnegative, got {noise_scale}")
    d = field.input_dim
    rng = np.random.default_rng(seed)
    paths = []
    for _ in range(n_paths):
        dirs = rng.normal(size=(segment_count, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        lengths = rng.random(segment_count)
        lengths *= r * rng.uniform(0.25, 1.0) / lengths.sum()
        paths.append(PiecewiseLinearPath(d, dirs * lengths[:, None]))
    # features first: the kernel's size check fails before any oracle work
    segments = np.stack([p.segments for p in paths])
    features = np.concatenate(_signature_levels(segments, depth), axis=1)
    responses = _flow_end_states(segments, field, _check_y0(field, y0))
    if noise_scale > 0:
        responses = responses + noise_scale * rng.standard_normal(responses.shape)
    return RegressionDataset(
        paths=tuple(paths),
        features=features,
        responses=responses,
        depth=depth,
        noise_scale=float(noise_scale),
        seed=seed,
    )


def fit(dataset: RegressionDataset, depth: int, ridge: float = 0.0) -> LinearFunctional:
    """Least-squares functional on features truncated to the given depth.

    ridge = 0 uses the minimum-norm solution and flags rank deficiency;
    ridge > 0 solves the augmented system [X; sqrt(ridge) I].
    """
    if dataset.n_samples == 0:
        raise ValueError("dataset is empty")
    if depth > dataset.depth:
        raise ValueError(
            f"requested depth {depth} exceeds dataset feature depth {dataset.depth}"
        )
    if ridge < 0:
        raise ValueError(f"ridge must be nonnegative, got {ridge}")
    dim = dataset.dim
    F = feature_count(dim, depth)
    X = dataset.features[:, :F]
    Y = dataset.responses
    rank_deficient = False
    if ridge == 0.0:
        sol, _, rank, _ = scipy.linalg.lstsq(X, Y)
        rank_deficient = rank < F
    else:
        X_aug = np.vstack([X, np.sqrt(ridge) * np.eye(F)])
        Y_aug = np.vstack([Y, np.zeros((F, Y.shape[1]))])
        sol, _, _, _ = scipy.linalg.lstsq(X_aug, Y_aug)
    return LinearFunctional(
        dim=dim, depth=depth, weights=sol, rank_deficient=rank_deficient
    )


def _metrics(functional: LinearFunctional, dataset: RegressionDataset) -> dict:
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
        "rank_deficient": bool(functional.rank_deficient),
    }


def functional_from_dict(data: dict) -> LinearFunctional:
    try:
        return LinearFunctional(
            dim=int(data["dim"]),
            depth=int(data["depth"]),
            weights=np.asarray(data["weights"], dtype=float),
            rank_deficient=bool(data.get("rank_deficient", False)),
        )
    except (KeyError, TypeError) as exc:
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
            paths=tuple(path_from_dict(p) for p in data["paths"]),
            features=np.asarray(data["features"], dtype=float),
            responses=np.asarray(data["responses"], dtype=float),
            depth=int(data["depth"]),
            noise_scale=float(data["noise_scale"]),
            seed=data.get("seed"),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed dataset: {exc}") from None


def functional_to_json(functional: LinearFunctional) -> str:
    return json.dumps(functional_to_dict(functional), allow_nan=False, sort_keys=True)


def functional_from_json(text: str) -> LinearFunctional:
    return functional_from_dict(json.loads(text))


def dataset_to_json(dataset: RegressionDataset) -> str:
    return json.dumps(dataset_to_dict(dataset), allow_nan=False, sort_keys=True)


def dataset_from_json(text: str) -> RegressionDataset:
    return dataset_from_dict(json.loads(text))
