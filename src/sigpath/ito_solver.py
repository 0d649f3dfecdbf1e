"""Controlled ODEs driven by piecewise-linear paths, solved two ways.

For an affine vector field the solution of

    dy_t = A(dx_t) y_t + b(dx_t),    A(v) = sum_j v^j A_j,  b(v) = sum_j v^j b_j

is a series in the signature of the driving path: the level-k term pairs
each word coefficient S_k[i_1..i_k] with the vector

    A_{i_k} ... A_{i_2} (A_{i_1} y0 + b_{i_1})

(first letter innermost).  ito_series evaluates the truncated series and
certifies it with the factorial remainder bound; oracle_solve integrates
the same equation by classical means (matrix exponentials when b = 0, a
refined fixed-step Runge-Kutta scheme otherwise) so the two can be checked
against each other.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np
from scipy.linalg import expm

from .path_core import PiecewiseLinearPath
from .signature_engine import _check_budget, signature

__all__ = [
    "LinearVectorField",
    "SeriesSolution",
    "IntegratorError",
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

# Refinement ladder for the fixed-step oracle: steps per segment.
_REFINE_STEPS = tuple(8 * 2**i for i in range(14))


class IntegratorError(RuntimeError):
    """Raised when successive oracle refinements fail to stabilise."""


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
        """Recorded constant C for the remainder bound (C L)^{N+1}/(N+1)!.

        For a unit-speed direction v, ||A(v)||_op <= sqrt(d) max_j ||A_j||_op
        and |b(v)| <= sqrt(d) max_j |b_j|.  The remainder of the N-term
        series is at most (c L)^{N+1}/(N+1)! * e^{cL} * (1 + |y0|) with c
        that raw bound; folding a factor e into the recorded constant
        absorbs the trailing factors whenever N + 1 >= cL + log(1 + |y0|),
        so the certificate is a plain factorial bound at every truncation
        level used in practice.
        """
        d = self.input_dim
        max_op = max(
            (float(np.linalg.norm(a, ord=2)) for a in self.matrices), default=0.0
        )
        max_off = max(
            (float(np.linalg.norm(b)) for b in self.offsets), default=0.0
        )
        raw = math.sqrt(d) * max_op + math.sqrt(d) * max_off
        return math.e * raw

    def drift(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Matrix A(v) and offset b(v) for one segment increment v."""
        v = np.asarray(v, dtype=float)
        return np.einsum("j,jab->ab", v, self.matrices), v @ self.offsets


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


def series_error_bound(field: LinearVectorField, path_length: float, truncation: int) -> float:
    """Factorial remainder certificate (C L)^{N+1}/(N+1)!."""
    if truncation < 0:
        raise ValueError(f"truncation must be nonnegative, got {truncation}")
    c = field.growth_constant * path_length
    return c ** (truncation + 1) / math.factorial(truncation + 1)


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
    excursions.  error_bound is the factorial certificate for the recorded
    growth constant and the 1-variation length of the path as given.
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
        error_bound=series_error_bound(field, path.length, truncation),
    )


def _rk4_transition(M: np.ndarray, c: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    # One classical RK4 step for y' = M y + c is the affine map
    #   y -> R y + r,  R = sum_{i<=4} (hM)^i/i!,  r = h sum_{i<=3} (hM)^i/(i+1)! c
    w = M.shape[0]
    P = h * M
    eye = np.eye(w)
    R = eye + P @ (eye + P @ (eye / 2 + P @ (eye / 6 + P / 24)))
    r = h * ((eye + P @ (eye / 2 + P @ (eye / 6 + P / 24))) @ c)
    return R, r


def _fixed_step_solve(
    field: LinearVectorField, path: PiecewiseLinearPath, y0: np.ndarray, steps: int
) -> np.ndarray:
    y = y0
    for v in path.segments:
        M, c = field.drift(v)
        R, r = _rk4_transition(M, c, 1.0 / steps)
        n = steps
        # compose the n identical steps by repeated squaring
        while n > 1:
            if n % 2:
                y = R @ y + r
                n -= 1
            R, r = R @ R, R @ r + r
            n //= 2
        y = R @ y + r
    return y


def oracle_solve(
    field: LinearVectorField,
    path: PiecewiseLinearPath,
    y0,
    refine_tol: float = 1e-10,
) -> np.ndarray:
    """Independent reference solution of the controlled ODE.

    Linear fields (all offsets zero) use the exact segment flows
    exp(A(v_m)) ... exp(A(v_1)) y0.  Affine fields run a fixed-step
    fourth-order scheme, doubling the step count until two successive
    refinements agree to refine_tol; failure to stabilise raises
    IntegratorError rather than returning a doubtful value.
    """
    if path.dim != field.input_dim:
        raise ValueError(
            f"path dim {path.dim} does not match field input dim {field.input_dim}"
        )
    y0 = _check_y0(field, y0)
    if field.is_linear:
        y = y0
        for v in path.segments:
            M, _ = field.drift(v)
            y = expm(M) @ y
        return y
    prev = None
    for steps in _REFINE_STEPS:
        y = _fixed_step_solve(field, path, y0, steps)
        if prev is not None and np.linalg.norm(y - prev) <= refine_tol * max(
            1.0, float(np.linalg.norm(y))
        ):
            return y
        prev = y
    raise IntegratorError(
        f"no stabilisation to {refine_tol} within {_REFINE_STEPS[-1]} steps per segment"
    )


def solve_and_certify(
    field: LinearVectorField,
    path: PiecewiseLinearPath,
    y0,
    truncation: int,
    refine_tol: float = 1e-10,
) -> SeriesSolution:
    """Series solution with the oracle value and discrepancy filled in."""
    sol = ito_series(field, path, y0, truncation)
    oracle = oracle_solve(field, path, y0, refine_tol=refine_tol)
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
