"""Dense truncated free tensor algebra over R^d.

Elements carry one flat coefficient array per level: level k holds the d**k
coefficients of words of length k over the letters 1..d, stored in row-major
multi-index order, so the word (i1, ..., ik) sits at flat index
(i1-1)*d**(k-1) + ... + (ik-1).  Level 0 is a single scalar.

The truncated product keeps levels 0..depth and discards the rest.  The
exponential, logarithm and geometric-series inverse are exact in the
truncated algebra because their arguments have no level-0 part, so every
series below terminates after `depth` multiplications.

Values are immutable after construction (the level arrays are marked
read-only) and all operations are pure functions, which makes sharing
tensors across threads safe.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TruncatedTensor",
    "GroupTensor",
    "unit",
    "zero",
    "add",
    "sub",
    "scale",
    "mul",
    "exp",
    "log",
    "inverse_psi",
    "project",
    "level_norm",
    "product_metric",
    "phi_contraction",
    "max_coefficient_difference",
    "word_index",
    "shuffle_words",
    "shuffle_pairing",
    "tensor_to_dict",
    "tensor_from_dict",
    "tensor_to_json",
    "tensor_from_json",
]


def _readonly(arr: np.ndarray) -> np.ndarray:
    # a float copy that the frozen value types can hand out safely
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


def _finite(what, value) -> np.ndarray:
    # _readonly of an input array, refused by name where it is complex (the
    # float cast would drop the imaginary part), holds what is no number (a
    # dict, a word) or has a NaN or inf entry
    try:
        arr = np.asarray(value)
        if np.iscomplexobj(arr):
            raise TypeError(f"got the complex dtype {arr.dtype}")
        out = _readonly(arr)
    except (TypeError, ValueError) as err:
        raise ValueError(f"{what} must be real numbers: {err}") from None
    if not np.isfinite(out).all():
        raise ValueError(f"{what} must be finite, got non-finite entries")
    return out


def _in_range(what, x):
    # a computed array x, refused by name where an entry left float range:
    # _finite's twin on the output side, and the one place that raises a
    # numerical failure for a result; the arithmetic silences numpy's
    # overflow warnings where it runs, as this check reports them
    if not np.isfinite(x).all():
        raise FloatingPointError(f"{what} is beyond float range")
    return x


# Limit on the coefficients a call counts (2**25 float64 values, 256 MiB),
# checked before anything is allocated: 2 * N * ceil(m / 8) *
# feature_count(d, depth) for the batched signature kernel (its chunk
# signatures and one set of temporaries of their size), w *
# feature_count(d, depth) for word_coefficients; the stages of path_core's
# axis paths and the n_max of topology_lab's experiments are bounded by it
# too.  The count is not the kernel's peak: on the long-path and batched
# regression shapes its traced peak measured 1.27-1.32 times the counted
# bytes, and 2.0 times on a long path at d = 1, where the factors of a
# Horner step are as large as the chunk signatures.
_MAX_COEFFICIENTS = 2**25

# Coefficients a blocked loop holds per temporary (2**17 float64 values,
# 1 MiB): p_variation's blocks of vertices and the family experiments'
# blocks of rows.  Blocks save per-call overhead on small inputs, and larger
# ones would only raise the peak memory of large ones.
_BLOCK_COEFFICIENTS = 2**17


def feature_count(dim: int, depth: int) -> int:
    """Number of tensor coefficients across levels 0..depth."""
    dim, depth = _count("dim", dim, 1), _count("depth", depth, 0)
    if dim == 1:
        return depth + 1
    return (dim ** (depth + 1) - 1) // (dim - 1)


def _check_budget(copies: int, d: int, depth: int, what: str) -> None:
    # the depth is taken here, before anything is counted; for d >= 2,
    # d**26 alone is over budget: the count stops there, so any depth is quick
    depth = _count("depth", depth, 0)
    per_copy = feature_count(d, depth if d == 1 else min(depth, 26))
    if copies * per_copy > _MAX_COEFFICIENTS:
        raise ValueError(
            f"depth {depth} over {what} exceeds the limit of {_MAX_COEFFICIENTS} coefficients"
        )


# what every *_from_dict turns into its ValueError: a missing key or entry,
# a value of the wrong JSON type, or an integer beyond float range
_MALFORMED = (KeyError, IndexError, TypeError, AttributeError, OverflowError)


def _count(what, value, low, high=None) -> int:
    # an integer argument or JSON key (a size, depth, seed, letter or
    # index): an integer through operator.index (numpy's too, no bool) in
    # low..high, or at least low when high is None
    try:
        n = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        n = None
    if n is None or n < low or (high is not None and n > high):
        bounds = f"{what} >= {low}" if high is None else f"{low} <= {what} <= {high}"
        raise ValueError(f"need an integer {bounds}, got {value!r}")
    return n


# what a real argument may be (bool, an int, is refused by name), and the
# conditions it can carry, each spelled as the refusal says it
_REAL_TYPES = (int, float, np.integer, np.floating)
_REAL_CONDITIONS = {
    "nonnegative": lambda x: x >= 0.0, "positive": lambda x: x > 0.0,
    "at least 1": lambda x: x >= 1.0, "in [0, 1]": lambda x: 0.0 <= x <= 1.0,
}


def _real(what, value, condition="") -> float:
    # a real argument, JSON numbers included: a Python or numpy integer or
    # float, finite and meeting the condition, as a float; math.isfinite of
    # an integer beyond float range raises OverflowError
    real = isinstance(value, _REAL_TYPES) and not isinstance(value, bool) and math.isfinite(value)
    if not real or (condition and not _REAL_CONDITIONS[condition](value)):
        if condition:
            raise ValueError(f"{what} must be finite and {condition}, got {value!r}")
        raise ValueError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _json_floats(what, value) -> np.ndarray:
    # nested JSON lists of finite numbers, as a float array: _real takes
    # each entry, so no boolean, string or null gets through
    stack = [value]
    while stack:
        node = stack.pop()
        if isinstance(node, list):
            stack.extend(node)
        else:
            _real(what, node)
    return np.array(value, dtype=float)


def _json_bool(what, value) -> bool:
    # a JSON boolean: no number, string or null
    if not isinstance(value, bool):
        raise ValueError(f"{what} must be a boolean, got {value!r}")
    return value


def _json_str(what, value) -> str:
    # a JSON string: no number, boolean or null
    if not isinstance(value, str):
        raise ValueError(f"{what} must be a string, got {value!r}")
    return value


def _frozen_levels(dim, depth, levels):
    # (dim, depth, levels) as a tensor holds them: the sizes as ints, each
    # level a finite read-only copy
    dim, depth = _count("dim", dim, 1), _count("depth", depth, 0)
    if len(levels) != depth + 1:
        raise ValueError(f"expected {depth + 1} levels, got {len(levels)}")
    out = []
    for k, lvl in enumerate(levels):
        arr = _finite(f"level {k}", lvl).reshape(-1)
        if arr.size != dim**k:
            raise ValueError(f"level {k} must hold {dim**k} coefficients, got {arr.size}")
        out.append(arr)
    return dim, depth, tuple(out)


@dataclass(frozen=True, eq=False)
class TruncatedTensor:
    """Tensor-algebra element truncated at `depth` over R^dim."""

    dim: int
    depth: int
    levels: tuple

    def __post_init__(self):
        for name, value in zip(("dim", "depth", "levels"), _frozen_levels(self.dim, self.depth, self.levels)):
            object.__setattr__(self, name, value)

    @property
    def scalar(self) -> float:
        """Level-0 coefficient."""
        return float(self.levels[0][0])

    def level(self, k: int) -> np.ndarray:
        return self.levels[_count("level", k, 0, self.depth)]

    def coefficient(self, word) -> float:
        """Coefficient of a word, given as an iterable of letters in 1..dim."""
        word = _word(word)
        if len(word) > self.depth:
            raise ValueError(f"word of length {len(word)} exceeds depth {self.depth}")
        return float(self.levels[len(word)][word_index(word, self.dim)])


@dataclass(frozen=True, eq=False)
class GroupTensor(TruncatedTensor):
    """Truncated tensor whose level-0 coefficient is exactly 1.

    Signatures and segment exponentials are constructed as GroupTensor.
    Full group-likeness (log x is a Lie element; equivalently, the shuffle
    relations hold) is a property of the values, verified on demand by
    signature_engine.check_group_like.
    """

    def __post_init__(self):
        super().__post_init__()
        if self.levels[0][0] != 1.0:
            raise ValueError("group tensor requires level-0 coefficient exactly 1")


def _unit_levels(dim, depth):
    return [np.ones(1)] + [np.zeros(dim**k) for k in range(1, depth + 1)]


def unit(dim: int, depth: int) -> GroupTensor:
    """Multiplicative unit: 1 at level 0, zero elsewhere."""
    dim, depth = _count("dim", dim, 1), _count("depth", depth, 0)
    _check_budget(1, dim, depth, f"one tensor of dimension {dim}")
    return GroupTensor(dim, depth, _unit_levels(dim, depth))


def zero(dim: int, depth: int) -> TruncatedTensor:
    dim, depth = _count("dim", dim, 1), _count("depth", depth, 0)
    _check_budget(1, dim, depth, f"one tensor of dimension {dim}")
    return TruncatedTensor(dim, depth, [np.zeros(dim**k) for k in range(depth + 1)])


def _check_match(x, y):
    if x.dim != y.dim or x.depth != y.depth:
        raise ValueError(
            f"shape mismatch: ({x.dim}, depth {x.depth}) vs ({y.dim}, depth {y.depth})"
        )


def _result(x, levels) -> TruncatedTensor:
    # an operation's levels as a tensor of x's dim and depth: a level that
    # overflowed is a numerical failure, refused here before the constructor
    # would call it a bad input
    return TruncatedTensor(x.dim, x.depth, [_in_range(f"level {k}", lvl) for k, lvl in enumerate(levels)])


@np.errstate(over="ignore", invalid="ignore")
def add(x: TruncatedTensor, y: TruncatedTensor) -> TruncatedTensor:
    _check_match(x, y)
    return _result(x, [a + b for a, b in zip(x.levels, y.levels)])


@np.errstate(over="ignore", invalid="ignore")
def sub(x: TruncatedTensor, y: TruncatedTensor) -> TruncatedTensor:
    _check_match(x, y)
    return _result(x, [a - b for a, b in zip(x.levels, y.levels)])


@np.errstate(over="ignore", invalid="ignore")
def scale(x: TruncatedTensor, c: float) -> TruncatedTensor:
    c = _real("scale factor c", c)
    return _result(x, [c * a for a in x.levels])


def _mul_levels(x, y):
    """Truncated product on plain level arrays of shape (..., d**k).

    Leading axes are a batch: every entry is multiplied with its partner in
    one call.  Level k accumulates x_i tensor y_(k-i) for i = 0..k in that
    order, starting from zero, so a product gives the same bits whatever
    the batch it is computed in.
    """
    out = []
    for k in range(len(x)):
        acc = np.zeros(x[k].shape)
        for i in range(k + 1):
            acc += (x[i][..., :, None] * y[k - i][..., None, :]).reshape(acc.shape)
        out.append(acc)
    return out


@np.errstate(over="ignore", invalid="ignore")
def mul(x: TruncatedTensor, y: TruncatedTensor) -> TruncatedTensor:
    """Truncated tensor product: level k of the result is sum over i+j=k of
    x_i tensor y_j; levels above the common depth are discarded."""
    _check_match(x, y)
    return _result(x, _mul_levels(x.levels, y.levels))


@np.errstate(over="ignore", invalid="ignore")
def exp(x: TruncatedTensor) -> TruncatedTensor:
    """Truncated exponential series; requires a vanishing level-0 part."""
    if x.scalar != 0.0:
        raise ValueError("exp requires level-0 coefficient exactly 0")
    one = _unit_levels(x.dim, x.depth)
    acc = one
    # Horner form of sum_{n=0}^{depth} x^n / n!
    for n in range(x.depth, 0, -1):
        acc = [e + (1.0 / n) * a for e, a in zip(one, _mul_levels(x.levels, acc))]
    return _result(x, acc)


def _power_sum(start, z, coefficients):
    """start + c_1 start z + c_2 start z**2 + ..., one term per coefficient,
    each power one _mul_levels further along than the last."""
    acc = p = start
    for c in coefficients:
        p = _mul_levels(p, z)
        acc = [a + c * b for a, b in zip(acc, p)]
    return acc


def _log_levels(x, dim):
    """Truncated logarithm series on plain level arrays whose level 0 is 1."""
    z = [a - e for a, e in zip(x, _unit_levels(dim, len(x) - 1))]
    return _power_sum(z, z, [(-1.0) ** (n + 1) / n for n in range(2, len(x))])


@np.errstate(over="ignore", invalid="ignore")
def log(x: TruncatedTensor) -> TruncatedTensor:
    """Truncated logarithm series; requires level-0 coefficient exactly 1."""
    if x.scalar != 1.0:
        raise ValueError("log requires level-0 coefficient exactly 1")
    return _result(x, _log_levels(x.levels, x.dim))


@np.errstate(over="ignore", invalid="ignore")
def inverse_psi(x: TruncatedTensor) -> TruncatedTensor:
    """Multiplicative inverse via the terminating geometric series.

    Writing x = 1 + a with a supported on levels >= 1, the inverse is
    1 + sum_{n>=1} (-a)^n, and (-a)^n vanishes below level n, so the sum
    stops at n = depth.  On signatures this realises reversal: applying it
    to the signature of a path gives the signature of the reversed path.
    """
    if x.scalar != 1.0:
        raise ValueError("inverse requires level-0 coefficient exactly 1")
    one = _unit_levels(x.dim, x.depth)
    z = [e - a for e, a in zip(one, x.levels)]
    # a + 1.0 * b is a + b bit for bit
    return _result(x, _power_sum(one, z, [1.0] * x.depth))


def project(x: TruncatedTensor, n: int):
    """Copy of x truncated at depth n (n at most x.depth)."""
    n = _count("projection depth", n, 0, x.depth)
    return type(x)(x.dim, n, x.levels[: n + 1])


def level_norm(x: TruncatedTensor, k: int) -> float:
    """Euclidean (Hilbert-Schmidt) norm of level k."""
    return float(np.linalg.norm(x.level(k)))


def product_metric(x: TruncatedTensor, y: TruncatedTensor) -> float:
    """Levelwise metric sum_k 2**-k * min(1, ||x_k - y_k||).

    Metrises levelwise (product-topology style) convergence on the truncated
    algebra; requires matching dim and depth.  The kernel, _product_metric,
    takes a batch of rows; here x is a batch of one.
    """
    _check_match(x, y)
    return float(_product_metric([lvl[None] for lvl in x.levels], y.levels)[0])


def _product_metric(xs, ys) -> np.ndarray:
    """product_metric on plain level arrays of shape (n, d**k), row by row:
    the rows of ys, or one unbatched tensor's levels, against those of xs.

    A row's norm is the square root of its dot product with itself, the
    sum np.linalg.norm forms for a 1-D row: numpy's stacked matmul of
    (n, 1, d**k) by (n, d**k, 1) reaches the same dot routine, so each row
    has the bits of the unbatched metric, whatever the batch.
    """
    diffs = ((x - y)[:, None, :] for x, y in zip(xs, ys))
    norms = (np.sqrt(np.matmul(v, v.transpose(0, 2, 1))[:, 0, 0]) for v in diffs)
    # level by level from 0, the order that fixes each row's bits
    return sum(0.5**k * np.minimum(1.0, norm) for k, norm in enumerate(norms))


def phi_contraction(x: TruncatedTensor, n: int) -> float:
    """Contract level 2n with Euclidean deltas on adjacent index pairs.

    Pairs (1,2), (3,4), ..., (2n-1, 2n) are each contracted with the identity
    matrix, i.e. the word coefficient at (i1, ..., i_2n) contributes when
    i1=i2, i3=i4, and so on.  Linear in x; requires 0 <= 2n <= depth.
    """
    n = _count("n", n, 0, x.depth // 2)
    arr = x.levels[2 * n]
    d = x.dim
    pair_trace = np.eye(d).reshape(-1)
    for _ in range(n):
        # leading index pair varies slowest in row-major order
        arr = pair_trace @ arr.reshape(d * d, -1)
    return float(arr[0])


def max_coefficient_difference(x: TruncatedTensor, y: TruncatedTensor) -> float:
    _check_match(x, y)
    return max(
        float(np.max(np.abs(a - b))) if a.size else 0.0 for a, b in zip(x.levels, y.levels)
    )


def _word(letters) -> tuple:
    # a word's letters as ints, each through _count: a float or bool letter
    # is refused, not truncated
    return tuple(_count("letter", a, 1) for a in letters)


def word_index(word, dim: int) -> int:
    """Row-major flat index of a word over letters 1..dim."""
    dim, idx = _count("dim", dim, 1), 0
    for letter in _word(word):
        if letter > dim:
            raise ValueError(f"letter {letter} outside 1..{dim}")
        idx = idx * dim + (letter - 1)
    return idx


def _shuffle(u: tuple, w: tuple) -> dict:
    # u shuffle w as word -> multiplicity, by the recurrence
    # (ua) sh (wb) = ((u sh wb) a) + ((ua sh w) b) over the prefixes of this
    # call only: row[j] holds u[:i] sh w[:j], so nothing outlives the call
    row = [{w[:j]: 1} for j in range(len(w) + 1)]
    for i in range(1, len(u) + 1):
        new = [{u[:i]: 1}]
        for j in range(1, len(w) + 1):
            out = {}
            for word, m in row[j].items():
                key = word + (u[i - 1],)
                out[key] = out.get(key, 0) + m
            for word, m in new[j - 1].items():
                key = word + (w[j - 1],)
                out[key] = out.get(key, 0) + m
            new.append(out)
        row = new
    return row[-1]


def shuffle_words(u, w) -> dict:
    """Shuffle product of two words as a dict word -> multiplicity."""
    return _shuffle(_word(u), _word(w))


def shuffle_pairing(x: TruncatedTensor, u, w):
    """Both sides of the shuffle identity for words u, w against x.

    Returns (<x, u shuffle w>, <x, u> * <x, w>).  The two agree, up to
    rounding, exactly when x behaves group-like on this pair.  Requires
    len(u) + len(w) <= depth.
    """
    u, w = _word(u), _word(w)
    if len(u) + len(w) > x.depth:
        raise ValueError(f"combined word length {len(u) + len(w)} exceeds depth {x.depth}")
    lhs = 0.0
    for word, m in _shuffle(u, w).items():
        lhs += m * x.coefficient(word)
    rhs = x.coefficient(u) * x.coefficient(w)
    return float(lhs), float(rhs)


def tensor_to_dict(x: TruncatedTensor) -> dict:
    return {"dim": x.dim, "depth": x.depth, "levels": [lvl.tolist() for lvl in x.levels]}


def tensor_from_dict(data: dict) -> TruncatedTensor:
    try:
        levels = [_json_floats("tensor levels", lvl) for lvl in data["levels"]]
        return TruncatedTensor(data["dim"], data["depth"], levels)
    except _MALFORMED as err:
        raise ValueError(f"malformed tensor record: {err}") from None


def tensor_to_json(x: TruncatedTensor) -> str:
    # repr-based float serialisation round-trips every double exactly
    return json.dumps(tensor_to_dict(x), allow_nan=False, sort_keys=True)


def tensor_from_json(text: str) -> TruncatedTensor:
    return tensor_from_dict(json.loads(text))
