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
from dataclasses import dataclass, replace

import numpy as np

from .path_core import PiecewiseLinearPath
from .signature_engine import LinearFunctional, signature
from .tensor_algebra import (
    _MALFORMED, _MAX_COEFFICIENTS, _check_budget, _count, _finite, _in_range, _json_floats, _readonly, _real,
)

__all__ = [
    "LinearVectorField",
    "SeriesSolution",
    "word_coefficients",
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


@dataclass(frozen=True, eq=False)
class LinearVectorField:
    """Affine-in-state vector field: d driving matrices A_j with offsets b_j.

    matrices has shape (d, w, w) and offsets shape (d, w), with d, w >= 1.
    growth_constant is a recorded upper bound used in remainder
    certificates, see below.
    """

    matrices: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        mats = _finite("field matrices", self.matrices)
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2] or not mats.size:
            raise ValueError(f"matrices must have shape (d, w, w) with d, w >= 1, got {mats.shape}")
        offs = _finite("field offsets", self.offsets)
        if offs.shape != mats.shape[:2]:
            raise ValueError(
                f"offsets shape {offs.shape} does not match matrices {mats.shape}"
            )
        object.__setattr__(self, "matrices", mats)
        object.__setattr__(self, "offsets", offs)

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
        max_op = max(float(np.linalg.norm(a, ord=2)) for a in self.matrices)
        max_off = max(float(np.linalg.norm(b)) for b in self.offsets)
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
    y0 = _finite("y0", y0)
    if y0.shape != (field.state_dim,):
        raise ValueError(
            f"y0 must have shape ({field.state_dim},), got {y0.shape}"
        )
    return y0


def _check_drive(field: LinearVectorField, path: PiecewiseLinearPath, y0) -> np.ndarray:
    # a path and start point the field can take; returns y0 as _check_y0 does
    if path.dim != field.input_dim:
        raise ValueError(
            f"path dim {path.dim} does not match field input dim {field.input_dim}"
        )
    return _check_y0(field, y0)


def word_coefficients(field: LinearVectorField, y0, depth: int) -> list[np.ndarray]:
    """Per-level coefficient arrays c_k of shape (d**k, w).

    Row w of c_k is the word operator for the length-k word with row-major
    index w applied to y0, so the truncated series is
    sum_k signature_level_k @ c_k (the k = 0 row is y0 itself).  A level
    beyond float range raises FloatingPointError that names it.
    """
    y0 = _check_y0(field, y0)
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
    return [_in_range(f"word coefficient level {k}", c) for k, c in enumerate(coeffs)]


def series_error_bound(
    field: LinearVectorField, path_length: float, truncation: int, state_norm: float
) -> float:
    """Remainder certificate (c L)^{N+1}/(N+1)! * e^{cL} * (1 + |y0|).

    c is the raw growth constant (growth_constant / e) and state_norm is
    |y0|.  On z = (y, 1) the affine equation is linear, dz = M(dx) z with
    ||M(v)||_op <= c |v|, so the level-k term of the series has norm at
    most (cL)^k/k! |z0| and the tail past level N sums to at most the
    bound, for every field, path and start point.  path_length and
    state_norm are finite nonnegative reals (else ValueError); a bound
    beyond float range raises FloatingPointError.
    """
    truncation = _count("truncation", truncation, 0)
    path_length = _real("path_length", path_length, "nonnegative")
    state_norm = _real("state_norm", state_norm, "nonnegative")
    cl = field._raw_growth * path_length
    if cl == 0.0:
        return 0.0
    n = truncation + 1
    log_bound = n * math.log(cl) - math.lgamma(n + 1) + cl + math.log1p(state_norm)
    if not log_bound < math.log(sys.float_info.max):
        raise FloatingPointError(f"remainder bound exp({log_bound:.6g}) is beyond float range")
    return math.exp(log_bound)


def ito_series(
    field: LinearVectorField, path: PiecewiseLinearPath, y0, truncation: int
) -> SeriesSolution:
    """Truncated signature series for the controlled ODE.

    The value depends on the driving path only through its signature, so it
    is unchanged by reparameterisation and by inserting out-and-back
    excursions.  The series is evaluated by the functional
    truncated_functional_LN(field, y0, truncation) on signature(path,
    truncation).  error_bound is series_error_bound for the 1-variation
    length of the path as given and |y0|.
    """
    y0 = _check_drive(field, path, y0)
    functional = truncated_functional_LN(field, y0, truncation)
    return SeriesSolution(
        value=functional.evaluate(signature(path, truncation)),
        terms_used=truncation,
        error_bound=series_error_bound(field, path.length, truncation, math.hypot(*y0)),
    )


# The [13/13] Pade approximant of exp and the largest 1-norm at which it
# meets double precision, from Higham, "The scaling and squaring method for
# the matrix exponential revisited", SIAM J. Matrix Anal. Appl. 26(4), 2005.
# The numerator coefficients b_j are integers, exact in double precision.
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152
# matrix-sized arrays alive at once in _expm, its input included
_EXPM_TEMPORARIES = 8


def _scaling_powers(norms: np.ndarray) -> np.ndarray:
    """The smallest integers s >= 0 with 2**-s * norm <= theta13, per norm.

    A non-finite norm raises FloatingPointError, so that no inf or NaN is
    ever cast to an integer.
    """
    _in_range("the norm of a segment's flow matrix", norms)
    # frexp's exponent e of the rounded quotient norm / theta13 has
    # norm <= theta13 * 2**e, as rounding is monotone and 2**e a double; e
    # is one too large when the quotient rounded up to a power of two
    s = np.maximum(np.frexp(norms / _THETA13)[1], 0)
    s -= (s > 0) & (np.ldexp(norms, 1 - s) <= _THETA13)
    return s


def _pade_half(c, a2, a4, a6, ident) -> np.ndarray:
    # a6 (c0 a6 + c1 a4 + c2 a2) + c3 a6 + c4 a4 + c5 a2 + c6 I, one half
    # of the [13/13] Pade approximant: U = a _pade_half(b13, b11, ..., b1)
    # and V = _pade_half(b12, b10, ..., b0), in Higham's order of operations
    inner = c[0] * a6
    for coef, power in zip(c[1:3], (a4, a2)):
        inner += coef * power
    out = a6 @ inner
    for coef, power in zip(c[3:], (a6, a4, a2, ident)):
        out += coef * power
    return out


def _expm(mats: np.ndarray) -> np.ndarray:
    """Exponentials of a stack of square matrices, shape (K, n, n).

    Scaling and squaring with one fixed [13/13] Pade approximant (Higham
    2005): matrix k is scaled by 2**-s_k, s_k the smallest integer >= 0 with
    ||2**-s_k M_k||_1 <= theta13, exactly (by np.ldexp); r13 = (V - U)^-1
    (V + U) is formed from A**2, A**4 and A**6 and one batched solve, as
    I + 2 (V - U)^-1 U; then each result is squared exactly s_k times.
    Every step acts on each matrix on its own, so a matrix's result does
    not depend on the rest of the stack.
    A non-finite norm raises FloatingPointError; overflow in the squarings
    is left for the caller to detect.
    """
    s = _scaling_powers(np.abs(mats).sum(axis=1).max(axis=1, initial=0.0))
    a = np.ldexp(mats, -s[:, None, None])
    b = _PADE13
    ident = np.eye(mats.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ _pade_half(b[13::-2], a2, a4, a6, ident)
    del a
    v = _pade_half(b[12::-2], a2, a4, a6, ident)
    del a2, a4, a6
    # (V - U)^-1 (V + U) = I + 2 (V - U)^-1 U: the identity is added
    # exactly, so small matrices keep their last bits and zero gives I
    flows = np.linalg.solve(v - u, u)
    flows *= 2.0
    flows += ident
    for k in range(int(s.max(initial=0))):
        live = s > k
        square = flows[live]
        flows[live] = square @ square
    return flows


def _flow_end_states(
    segments: np.ndarray, field: LinearVectorField, y0: np.ndarray
) -> np.ndarray:
    """Exact end states, shape (N, w), of N paths of m segments, shape (N, m, d).

    Along a segment v the state (y, 1) moves by exp([[A(v), b(v)], [0, 0]]).
    The augmented matrices of whole segment columns are formed and
    exponentiated together by _expm, scaling and squaring with Higham's
    (2005) [13/13] Pade approximant at theta13 = 5.371920351148152, and
    composed in segment order.  A block holds at most _MAX_COEFFICIENTS
    coefficients counted over _expm's _EXPM_TEMPORARIES live matrix arrays
    (paths are split too when one column alone is over).  Each matrix gets
    its own scaling power and its own number of squarings, the solve and
    products act matrix by matrix, and each row is composed on its own, so
    every row is bit-identical to a one-path call and the result does not
    depend on the blocking.  A non-finite flow matrix or end state raises
    FloatingPointError.
    """
    n, m, _ = segments.shape
    w = field.state_dim
    aug_field = np.zeros((field.input_dim, w + 1, w + 1))
    aug_field[:, :w, :w] = field.matrices
    aug_field[:, :w, w] = field.offsets
    per_matrix = _EXPM_TEMPORARIES * (w + 1) ** 2
    rows = max(1, min(n, _MAX_COEFFICIENTS // per_matrix))
    cols = max(1, _MAX_COEFFICIENTS // (rows * per_matrix))
    z = np.tile(np.append(y0, 1.0), (n, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(0, m, cols):
            for i in range(0, n, rows):
                block = segments[i : i + rows, j : j + cols]
                mats = np.einsum("rsj,jab->rsab", block, aug_field)
                flows = _expm(mats.reshape(-1, w + 1, w + 1)).reshape(mats.shape)
                for s in range(flows.shape[1]):
                    z[i : i + rows] = (flows[:, s] @ z[i : i + rows, :, None])[..., 0]
                # freed before the next block's matrices are formed
                del mats, flows
    return _in_range("the exact flow", z)[:, :w]


def oracle_solve(field: LinearVectorField, path: PiecewiseLinearPath, y0) -> np.ndarray:
    """Independent reference solution of the controlled ODE.

    The affine equation is linear on (y, 1), so its solution is the exact
    product of segment flows exp([[A(v_m), b(v_m)], [0, 0]]) ...
    exp([[A(v_1), b(v_1)], [0, 0]]) applied to (y0, 1), for linear and
    affine fields alike.  Each exponential is scaling and squaring with one
    [13/13] Pade approximant (Higham 2005, theta13 = 5.371920351148152),
    the scaling power chosen per matrix; the call is _flow_end_states on a
    batch of one, and since every matrix and row is computed on its own,
    the value is bit-identical to that path's row in any batch
    (generate_dataset's responses included).  It shares no code with the
    signature series.  A solution beyond float range, or a segment whose
    flow matrix is not finite, raises FloatingPointError.
    """
    y0 = _check_drive(field, path, y0)
    return _flow_end_states(path.segments[None], field, y0)[0]


def solve_and_certify(
    field: LinearVectorField, path: PiecewiseLinearPath, y0, truncation: int
) -> SeriesSolution:
    """Series solution with the oracle value and discrepancy filled in."""
    sol = ito_series(field, path, y0, truncation)
    oracle = oracle_solve(field, path, y0)
    return replace(sol, oracle_value=oracle, discrepancy=float(np.linalg.norm(sol.value - oracle)))


def truncated_functional_LN(field: LinearVectorField, y0, truncation: int) -> LinearFunctional:
    """The truncated solution map as an explicit functional on signatures.

    Its weights are the word coefficients, level by level; ito_series
    evaluates the series as this functional applied to signature(path,
    truncation), so the two agree bit for bit.
    """
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
        d, w = (_count(key, data[key], 1) for key in ("d", "w"))
        mats = _json_floats("field key 'A'", data["A"])
        offs = _json_floats("field key 'b'", data["b"])
    except _MALFORMED as exc:
        raise ValueError(f"malformed field specification: {exc}") from None
    field = LinearVectorField(matrices=mats, offsets=offs)
    if (field.input_dim, field.state_dim) != (d, w):
        raise ValueError(f"A and b are for d={field.input_dim}, w={field.state_dim}, not d={d}, w={w}")
    return field


def field_to_json(field: LinearVectorField) -> str:
    return json.dumps(field_to_dict(field), allow_nan=False, sort_keys=True, indent=2)


def field_from_json(text: str) -> LinearVectorField:
    return field_from_dict(json.loads(text))
