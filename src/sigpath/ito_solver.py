"""Controlled ODEs driven by piecewise-linear paths, solved two ways.

For an affine vector field the solution of

    dy_t = A(dx_t) y_t + b(dx_t),    A(v) = sum_j v^j A_j,  b(v) = sum_j v^j b_j

is a series in the signature of the driving path: the level-k term pairs
each word coefficient S_k[i_1..i_k] with the vector

    A_{i_k} ... A_{i_2} (A_{i_1} y0 + b_{i_1})

(first letter innermost).  ito_series evaluates the truncated series and
certifies it with the factorial remainder bound; oracle_solve integrates
the same equation exactly, by the flow of the augmented linear field
[[A(v), b(v)], [0, 0]] on (y, 1), one matrix exponential per segment, so
the two can be checked against each other.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from . import signature_engine
from .path_core import PiecewiseLinearPath
from .signature_engine import _check_budget, signature

__all__ = [
    "LinearVectorField",
    "SeriesSolution",
    "word_coefficients",
    "apply_word_operator",
    "ito_series",
    "oracle_solve",
    "solve_and_certify",
    "truncated_functional_LN",
    "series_error_bound",
    "field_to_dict",
    "field_from_dict",
    "field_to_json",
    "field_from_json",
]


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class LinearVectorField:
    """Affine-in-state vector field: d driving matrices A_j with offsets b_j.

    matrices has shape (d, w, w), offsets shape (d, w).  growth_constant is
    a recorded upper bound used in remainder certificates, see below.
    """

    matrices: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        mats = np.asarray(self.matrices, dtype=float)
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise ValueError(f"matrices must have shape (d, w, w), got {mats.shape}")
        offs = np.asarray(self.offsets, dtype=float)
        if offs.shape != mats.shape[:2]:
            raise ValueError(
                f"offsets shape {offs.shape} does not match matrices {mats.shape}"
            )
        if not (np.all(np.isfinite(mats)) and np.all(np.isfinite(offs))):
            raise ValueError("field entries must be finite")
        object.__setattr__(self, "matrices", _readonly(mats))
        object.__setattr__(self, "offsets", _readonly(offs))

    @property
    def input_dim(self) -> int:
        return self.matrices.shape[0]

    @property
    def state_dim(self) -> int:
        return self.matrices.shape[1]

    @property
    def is_linear(self) -> bool:
        return not np.any(self.offsets)

    @property
    def growth_constant(self) -> float:
        """Recorded scale C = e * c of the field, c the raw growth constant.

        For a unit-speed direction v, ||A(v)||_op <= sqrt(d) max_j ||A_j||_op
        and |b(v)| <= sqrt(d) max_j |b_j|; their sum c bounds the augmented
        matrix [[A(v), b(v)], [0, 0]] that series_error_bound works with.
        C times the path length is the size measure by which the tests,
        demos and benchmark scale their systems; the certificate itself
        uses c, not C.
        """
        return math.e * self._raw_growth

    @property
    def _raw_growth(self) -> float:
        d = self.input_dim
        max_op = max(
            (float(np.linalg.norm(a, ord=2)) for a in self.matrices), default=0.0
        )
        max_off = max(
            (float(np.linalg.norm(b)) for b in self.offsets), default=0.0
        )
        return math.sqrt(d) * max_op + math.sqrt(d) * max_off


@dataclass(frozen=True, eq=False)
class SeriesSolution:
    value: np.ndarray
    terms_used: int
    error_bound: float
    oracle_value: np.ndarray | None = None
    discrepancy: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "value", _readonly(self.value))
        if self.oracle_value is not None:
            object.__setattr__(self, "oracle_value", _readonly(self.oracle_value))

    def to_dict(self) -> dict:
        out = {
            "value": [float(v) for v in self.value],
            "terms_used": int(self.terms_used),
            "error_bound": float(self.error_bound),
        }
        if self.oracle_value is not None:
            out["oracle_value"] = [float(v) for v in self.oracle_value]
        if self.discrepancy is not None:
            out["discrepancy"] = float(self.discrepancy)
        return out


def _check_y0(field: LinearVectorField, y0) -> np.ndarray:
    y0 = np.asarray(y0, dtype=float)
    if y0.shape != (field.state_dim,):
        raise ValueError(
            f"y0 must have shape ({field.state_dim},), got {y0.shape}"
        )
    if not np.all(np.isfinite(y0)):
        raise ValueError("y0 must be finite")
    return y0


def word_coefficients(field: LinearVectorField, y0, depth: int) -> list[np.ndarray]:
    """Per-level coefficient arrays c_k of shape (d**k, w).

    Row w of c_k is the word operator for the length-k word with row-major
    index w applied to y0, so the truncated series is
    sum_k signature_level_k @ c_k (the k = 0 row is y0 itself).
    """
    y0 = _check_y0(field, y0)
    if depth < 0:
        raise ValueError(f"depth must be nonnegative, got {depth}")
    d, w = field.input_dim, field.state_dim
    _check_budget(w, d, depth, f"a field of input dimension {d} and state dimension {w}")
    coeffs = [y0.reshape(1, w)]
    if depth == 0:
        return coeffs
    c = np.einsum("jba,a->jb", field.matrices, y0) + field.offsets
    coeffs.append(c)
    for k in range(2, depth + 1):
        c = np.einsum("pa,jba->pjb", c, field.matrices).reshape(d**k, w)
        coeffs.append(c)
    return coeffs


def apply_word_operator(
    field: LinearVectorField, level: np.ndarray, y0, level_index: int | None = None
) -> np.ndarray:
    """Pair one flat level-k tensor with the word operators applied to y0.

    The level index is inferred from the array size when the input
    dimension makes that unambiguous; for d = 1 it must be passed.
    """
    level = np.asarray(level, dtype=float).reshape(-1)
    d = field.input_dim
    if level_index is None:
        if d == 1:
            raise ValueError("level_index is required when input dim is 1")
        k = 0
        while d**k < level.size:
            k += 1
        level_index = k
    if d**level_index != level.size:
        raise ValueError(
            f"level size {level.size} is not dim {d} to the power {level_index}"
        )
    coeffs = word_coefficients(field, y0, level_index)
    return level @ coeffs[level_index]


def series_error_bound(
    field: LinearVectorField, path_length: float, truncation: int, state_norm: float
) -> float:
    """Remainder certificate (c L)^{N+1}/(N+1)! * e^{cL} * (1 + |y0|).

    c is the raw growth constant (growth_constant / e) and state_norm is
    |y0|.  On z = (y, 1) the affine equation is linear, dz = M(dx) z with
    ||M(v)||_op <= c |v|, so the level-k term of the series has norm at
    most (cL)^k/k! |z0| and the tail past level N sums to at most the
    bound, for every field, path and start point.  A bound beyond float
    range raises FloatingPointError.
    """
    if truncation < 0:
        raise ValueError(f"truncation must be nonnegative, got {truncation}")
    cl = field._raw_growth * path_length
    if cl == 0.0:
        return 0.0
    n = truncation + 1
    log_bound = n * math.log(cl) - math.lgamma(n + 1) + cl + math.log1p(state_norm)
    if not log_bound < math.log(sys.float_info.max):
        raise FloatingPointError(f"remainder bound exp({log_bound:.6g}) is beyond float range")
    return math.exp(log_bound)


def _series_value(levels, coeffs, depth: int) -> np.ndarray:
    acc = levels[0] @ coeffs[0]
    for k in range(1, depth + 1):
        acc = acc + levels[k] @ coeffs[k]
    return acc


def ito_series(
    field: LinearVectorField, path: PiecewiseLinearPath, y0, truncation: int
) -> SeriesSolution:
    """Truncated signature series for the controlled ODE.

    The value depends on the driving path only through its signature, so it
    is unchanged by reparameterisation and by inserting out-and-back
    excursions.  error_bound is series_error_bound for the 1-variation
    length of the path as given and |y0|.
    """
    if path.dim != field.input_dim:
        raise ValueError(
            f"path dim {path.dim} does not match field input dim {field.input_dim}"
        )
    y0 = _check_y0(field, y0)
    coeffs = word_coefficients(field, y0, truncation)
    sig = signature(path, truncation)
    value = _series_value(sig.levels, coeffs, truncation)
    return SeriesSolution(
        value=value,
        terms_used=truncation,
        error_bound=series_error_bound(field, path.length, truncation, math.hypot(*y0)),
    )


def _flow_end_states(
    segments: np.ndarray, field: LinearVectorField, y0: np.ndarray
) -> np.ndarray:
    """Exact end states, shape (N, w), of N paths of m segments, shape (N, m, d).

    Along a segment v the state (y, 1) moves by expm([[A(v), b(v)], [0, 0]]).
    The augmented matrices of whole segment columns are formed and
    exponentiated together, at most _MAX_COEFFICIENTS coefficients at a
    time (paths are split too when one column alone is over), and composed
    in segment order.  expm works matrix by matrix and each row is composed
    on its own, so every row is bit-identical to a one-path call and the
    result does not depend on the blocking.  A non-finite end state raises
    FloatingPointError.
    """
    n, m, _ = segments.shape
    w = field.state_dim
    aug_field = np.zeros((field.input_dim, w + 1, w + 1))
    aug_field[:, :w, :w] = field.matrices
    aug_field[:, :w, w] = field.offsets
    per_matrix = (w + 1) ** 2
    budget = signature_engine._MAX_COEFFICIENTS
    rows = max(1, min(n, budget // per_matrix))
    cols = max(1, budget // (rows * per_matrix))
    z = np.tile(np.append(y0, 1.0), (n, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(0, m, cols):
            for i in range(0, n, rows):
                block = segments[i : i + rows, j : j + cols]
                flows = expm(np.einsum("rsj,jab->rsab", block, aug_field))
                for s in range(flows.shape[1]):
                    z[i : i + rows] = (flows[:, s] @ z[i : i + rows, :, None])[..., 0]
    if not np.all(np.isfinite(z)):
        raise FloatingPointError("the exact flow overflowed to non-finite values")
    return z[:, :w]


def oracle_solve(field: LinearVectorField, path: PiecewiseLinearPath, y0) -> np.ndarray:
    """Independent reference solution of the controlled ODE.

    The affine equation is linear on (y, 1), so its solution is the exact
    product of segment flows expm([[A(v_m), b(v_m)], [0, 0]]) ...
    expm([[A(v_1), b(v_1)], [0, 0]]) applied to (y0, 1), for linear and
    affine fields alike.  It shares no code with the signature series.  A
    solution beyond float range raises FloatingPointError.
    """
    if path.dim != field.input_dim:
        raise ValueError(
            f"path dim {path.dim} does not match field input dim {field.input_dim}"
        )
    y0 = _check_y0(field, y0)
    return _flow_end_states(path.segments[None], field, y0)[0]


def solve_and_certify(
    field: LinearVectorField, path: PiecewiseLinearPath, y0, truncation: int
) -> SeriesSolution:
    """Series solution with the oracle value and discrepancy filled in."""
    sol = ito_series(field, path, y0, truncation)
    oracle = oracle_solve(field, path, y0)
    return SeriesSolution(
        value=sol.value,
        terms_used=sol.terms_used,
        error_bound=sol.error_bound,
        oracle_value=oracle,
        discrepancy=float(np.linalg.norm(sol.value - oracle)),
    )


def truncated_functional_LN(field: LinearVectorField, y0, truncation: int):
    """The truncated solution map as an explicit functional on signatures.

    Applying the result to signature(path, truncation) reproduces
    ito_series(field, path, y0, truncation).value exactly: the functional
    stores the same per-level coefficient arrays and evaluation walks them
    in the same order.
    """
    from .sig_regression import LinearFunctional

    coeffs = word_coefficients(field, y0, truncation)
    return LinearFunctional(
        dim=field.input_dim,
        depth=truncation,
        weights=np.concatenate(coeffs, axis=0),
    )


# ---------------------------------------------------------------------------
# serialisation: {"d": ..., "w": ..., "A": [d matrices], "b": [d vectors]}


def field_to_dict(field: LinearVectorField) -> dict:
    return {
        "d": field.input_dim,
        "w": field.state_dim,
        "A": [[list(map(float, row)) for row in a] for a in field.matrices],
        "b": [list(map(float, b)) for b in field.offsets],
    }


def field_from_dict(data: dict) -> LinearVectorField:
    try:
        d = int(data["d"])
        w = int(data["w"])
        mats = np.asarray(data["A"], dtype=float)
        offs = np.asarray(data["b"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed field specification: {exc}") from None
    if mats.shape != (d, w, w):
        raise ValueError(f"A must have shape ({d}, {w}, {w}), got {mats.shape}")
    if offs.shape != (d, w):
        raise ValueError(f"b must have shape ({d}, {w}), got {offs.shape}")
    return LinearVectorField(matrices=mats, offsets=offs)


def field_to_json(field: LinearVectorField, indent: int | None = 2) -> str:
    return json.dumps(field_to_dict(field), allow_nan=False, sort_keys=True, indent=indent)


def field_from_json(text: str) -> LinearVectorField:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid field JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError("field JSON must be an object")
    return field_from_dict(data)
