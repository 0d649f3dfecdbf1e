"""Truncated signatures of piecewise-linear paths.

The signature of a single segment with displacement v is the exponential
exp(v): level n holds v tensor ... tensor v divided by n factorial.  The
signature of a concatenation is the tensor product of the signatures, so a
piecewise-linear path is handled by multiplying its segment exponentials in
order.  Both facts are exact in the truncated algebra, no quadrature is
involved.

One kernel does the float work for signature, exp_segment and the
regression features: it runs on plain per-level arrays with a batch axis,
in two stages.  First the segments are cut into chunks of _CHUNK: each
chunk starts as its first segment's exponential and takes the others in
by Horner steps that multiply by exp(v) without forming it ("fused
multiply-exponentiate", as in Signatory and iisignature), every chunk of
every path at once.  Then a balanced tree multiplies the chunk
signatures, one vectorised product per round.  Every factor's level 0 is
one, so the tree never forms the unit products: level k of a product
starts at the right factor's level k, adds the middle terms and ends with
the left factor's.  Products and an odd carried factor share one array per
level and round, and each outer product runs numpy's inner loop over its
longer factor.  Roundoff grows with _CHUNK + log2(m / _CHUNK) for m
segments.  The result is not the bits of a fold of tensor_algebra
products: it is the bits of the loop that takes the same Horner steps and
tree products one at a time.  exact_signature runs the same two stages on
integer-scaled steps, in int64 where an a-priori bound shows that every
value fits and on Python integers otherwise.

A LinearFunctional pairs truncated signatures with one weight per
coefficient; it is both the fitted regression model and the evaluator of
the signature series of a controlled ODE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .path_core import PiecewiseLinearPath, linear_path
from .tensor_algebra import (
    GroupTensor,
    TruncatedTensor,
    _MAX_COEFFICIENTS,
    _check_budget,
    _count,
    _finite,
    _in_range,
    _json_bool,
    _log_levels,
    _real,
    feature_count,
    log,
)

__all__ = [
    "exp_segment",
    "signature",
    "log_signature",
    "exact_signature",
    "feature_count",
    "LinearFunctional",
    "GroupLikeReport",
    "check_group_like",
]


def _outer(x, y, out):
    """x (x) y on the last axis into out, shape (..., x.shape[-1], y.shape[-1]).

    numpy's inner loop runs over the last axis it writes, so a short y
    would make it short: then the product is taken one column of y at a
    time, each one strided multiply over all of x, and otherwise in one
    broadcast.  Either way every coefficient is the one product x[a] y[b]."""
    if y.shape[-1] < x.shape[-1]:
        for c in range(y.shape[-1]):
            np.multiply(x, y[..., c : c + 1], out=out[..., c])
    else:
        np.multiply(x[..., :, None], y[..., None, :], out=out)
    return out


# segments per chunk: _segment_levels multiplies them in, one Horner step
# each, and _fold multiplies the chunks
_CHUNK = 8


def _segment_levels(v, depth: int) -> list:
    """Chunk signatures of the rows of v, shape (N, m, d), as levels
    0..depth: level 0 is one (N, 1, 1) array of ones that stands for every
    factor's unit, and level k has shape (N, c, d**k), one row per chunk of
    _CHUNK consecutive segments (the last chunk may be shorter), c =
    ceil(m / _CHUNK).  The chunks are cut from m alone, so a row does not
    depend on the batch.  A path with no segment (m = 0) runs as one zero
    segment, whose exponential is exactly the unit.

    Each chunk starts as its first segment's exponential: level 1 is a
    copy of that segment v, and level k is level k-1 (x) v, formed by
    _outer and divided by k.  Each later segment v is then multiplied in
    without forming exp(v), by one Horner step per level: U_1 = v/k,
    U_(j+1) = (U_j + S_j) (x) v/(k-j), and the new S_k = U_k + S_k.  The U
    of every level are stacked, so the step makes one sum and one outer
    product per degree j.

    Integer levels (int64, or Python ints in an object array) are
    exact_signature's T_k: a segment's are the powers v^(x)k, and the
    step weighs S_j by C(k, j) where floats divide v by k - j."""
    if not v.shape[1]:
        v = np.zeros((v.shape[0], 1, v.shape[2]), dtype=v.dtype)
    n, m, d = v.shape
    exact = v.dtype.kind != "f"
    heads = v[:, ::_CHUNK].copy()
    levels = [np.ones((n, 1, 1), dtype=v.dtype), heads][: depth + 1]
    for k in range(2, depth + 1):
        lvl = _outer(levels[-1], heads, np.empty(heads.shape[:2] + (d ** (k - 1), d), dtype=v.dtype))
        lvl = lvl.reshape(n, -1, d**k)
        if not exact:
            lvl /= k
        levels.append(lvl)
    # at degree j, row r of factors multiplies U_j + S_j into level k =
    # j + 1 + r: v/(r + 1) on floats, v itself on integers, where row r of
    # weights[j] first weighs S_j by C(k, j)
    if exact:
        factors = v[None]
        weights = [
            np.array([math.comb(k, j) for k in range(j + 1, depth + 1)], dtype=v.dtype) for j in range(depth)
        ]
    else:
        factors = v / np.arange(1.0, depth + 1)[:, None, None, None]
    for p in range(1, min(m, _CHUNK)):
        # the segments at place p of their chunks, in the first c chunks
        w = factors[:, :, p::_CHUNK]
        c = w.shape[2]
        # u[r] is U_j of level j + r; u[0] is complete
        u = np.broadcast_to(w, (depth,) + w.shape[1:])
        for j in range(1, depth):
            s = levels[j][:, :c]
            if exact:
                acc = weights[j][:, None, None, None] * s
                acc += u[1:]
            else:
                acc = u[1:] + s
            s += u[0]
            u = _outer(acc, w[: depth - j], np.empty(acc.shape + (d,), dtype=v.dtype))
            u = u.reshape(depth - j, n, c, d ** (j + 1))
        if depth:
            levels[depth][:, :c] += u[0]
    return levels


def _fold(levels) -> list:
    """Balanced-tree product of the m factors in levels[k], shape (N, m, d**k)
    for k >= 1; levels[0] is not read and comes back as levels[0][:, 0].
    Each round multiplies the pairs (0, 1), (2, 3), ... in one pass over
    the levels, and an odd last factor carries into the last slot of the
    round's arrays.  Returns levels of shape (N, d**k).

    The factors' level 0 is one, so the unit products x_0 y_k = y_k and
    x_k y_0 = x_k are not formed: level k of x y starts at y_k + 0, adds
    x_i (x) y_(k-i) for i = 1..k-1 in that order, each formed by _outer
    into one reused scratch array, and then adds x_k.  On floats these are
    the bits of _mul_levels, which sums the same terms from zero: adding 0
    turns -0.0 into +0.0 as 0 + y_k does.  Integer levels (int64 or Python
    ints) are exact_signature's T_k, and their term i is weighted by
    C(k, i); float levels are folded plainly.

    The levels go from the top down, and each round's array replaces the
    last round's in the list as soon as it is complete, so the caller's
    factors are freed as the first round goes.
    """
    n, count = levels[-1].shape[:2]
    depth = len(levels) - 1
    scratch_size = n * (count // 2) * levels[-1].shape[-1] if depth >= 2 else 0
    scratch = np.empty(scratch_size, dtype=levels[-1].dtype)
    while count > 1:
        pairs = count // 2
        for k in range(depth, 0, -1):
            out = np.empty((n, count - pairs, levels[k].shape[-1]), dtype=levels[k].dtype)
            acc = out[:, :pairs]
            np.add(levels[k][:, 1:count:2], 0, out=acc)
            for i in range(1, k):
                x, y = levels[i][:, 0 : count - 1 : 2], levels[k - i][:, 1:count:2]
                term = scratch[: acc.size].reshape(acc.shape[:2] + (x.shape[-1], y.shape[-1]))
                _outer(x, y, term)
                if term.dtype.kind != "f":
                    term *= math.comb(k, i)
                acc += term.reshape(acc.shape)
            acc += levels[k][:, 0 : count - 1 : 2]
            if count % 2:
                out[:, -1] = levels[k][:, -1]
            levels[k] = out
        count -= pairs
    return [lvl[:, 0] for lvl in levels]


def _signature_levels(segments, depth: int) -> list:
    """Signatures of a batch of paths as plain level arrays.

    segments has shape (N, m, d): N paths of m segments each.  Returns one
    array of shape (N, d**k) per level k = 0..depth.  _segment_levels
    forms the chunk signatures of all N paths in one pass, and _fold
    multiplies them.  Every row runs the same arithmetic in the same order
    as the one path alone, so the result does not depend on the batch.  A
    path with no segment has the unit as its signature.  Finiteness is
    checked once, on the result.
    """
    n, m, d = segments.shape
    _check_budget(n * max(m, 1), d, depth, f"{n} x {m} segments of dimension {d}")
    with np.errstate(over="ignore", invalid="ignore"):
        levels = _fold(_segment_levels(segments, depth))
    return [_in_range(f"signature level {k}", lvl) for k, lvl in enumerate(levels)]


def exp_segment(v, depth: int) -> GroupTensor:
    """Signature of the straight segment v truncated at `depth`."""
    return signature(linear_path(v), depth)


def signature(path: PiecewiseLinearPath, depth: int) -> GroupTensor:
    """Truncated signature: ordered product of segment exponentials.

    Each chunk of _CHUNK segments is multiplied left to right by Horner
    steps, and the chunks pairwise (balanced tree), so roundoff grows with
    _CHUNK + log2(m / _CHUNK) for m segments.  The result is the bits of
    the loop that takes the same steps and products one at a time, not of
    a fold of tensor_algebra products.  On paths of 1 to 400 steps in
    multiples of 1/16 (d 2-5, the deepest depth <= 8 that exact_signature
    takes), every level stays within 1e-13 of exact_signature, relative
    to max(1, the level's largest coefficient); at d = 1, where level k
    may cancel far below the products that any fold sums, relative to
    max(1, L**k / k!), L the path's length.
    """
    levels = _signature_levels(path.segments[None], depth)
    return GroupTensor(path.dim, depth, [lvl[0] for lvl in levels])


def log_signature(path: PiecewiseLinearPath, depth: int) -> TruncatedTensor:
    """Truncated logarithm of the signature."""
    return log(signature(path, depth))


def _check_feature_count(count: int, dim: int, depth: int, what: str) -> None:
    # feature_count(dim, depth) > depth, so a depth of at least count is
    # refused before dim**(depth + 1) is formed
    if depth >= count or count != feature_count(dim, depth):
        raise ValueError(f"{count} {what} do not fit dim {dim} depth {depth}")


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
        w = _finite("weights", self.weights)
        if w.ndim == 1:
            w = w[:, None]
        if w.ndim != 2:
            raise ValueError(f"weights must be 1- or 2-dimensional, got {w.ndim}")
        object.__setattr__(self, "dim", _count("dim", self.dim, 1))
        object.__setattr__(self, "depth", _count("depth", self.depth, 0))
        _check_feature_count(w.shape[0], self.dim, self.depth, "weight rows")
        object.__setattr__(self, "weights", w)
        _json_bool("rank_deficient", self.rank_deficient)

    def evaluate(self, tensor: TruncatedTensor) -> np.ndarray:
        """Pair with a truncated tensor, level by level in ascending order.

        This is the one series evaluator: ito_series sums the signature
        series of a controlled ODE by evaluating truncated_functional_LN.
        """
        if tensor.dim != self.dim:
            raise ValueError(f"tensor dim {tensor.dim} does not match {self.dim}")
        if tensor.depth < self.depth:
            raise ValueError(
                f"tensor depth {tensor.depth} is below functional depth {self.depth}"
            )
        acc = tensor.levels[0] @ self.weights[:1]
        for k in range(1, self.depth + 1):
            start = feature_count(self.dim, k - 1)
            acc = acc + tensor.levels[k] @ self.weights[start : start + self.dim**k]
        return acc

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Batched prediction from rows of flattened features.

        The rows must be features of this dim at this depth or deeper: a
        width feature_count(dim, D) for some D >= depth, whose leading
        columns are then the features at this depth."""
        features = np.asarray(features, dtype=float)
        if not features.ndim:
            raise ValueError(f"features must be rows of columns, got the 0-d value {features!r}")
        width, expected, depth = features.shape[-1], self.weights.shape[0], self.depth
        while feature_count(self.dim, depth) < width:
            depth += 1
        if feature_count(self.dim, depth) != width:
            raise ValueError(f"features have {width} columns, need {expected} or a deeper dim-{self.dim} count")
        return features[..., :expected] @ self.weights


def _dyadic(values) -> tuple:
    """(ints, q): the floats values written exactly as ints[i] / q over
    one power of two q, the largest of their denominators, which every
    other divides; q = 1 when there are no values."""
    ratios = [float(c).as_integer_ratio() for c in values]
    scale = max((q for _, q in ratios), default=1)
    return [p * (scale // q) for p, q in ratios], scale


def exact_signature(path: PiecewiseLinearPath, depth: int) -> GroupTensor:
    """Signature in exact integer arithmetic, rounded once at the end.

    Float coordinates are dyadic, so v * 2**s is an integer vector for one
    common s.  Level k is held as T_k = k! 2**(s k) S_k in integers: a
    segment gives T_k = w^(x)k with w = v 2**s, the Chen product T_k =
    sum_i C(k, i) X_i (x) Y_(k-i), computed like signature by the same
    _segment_levels and _fold, which read that arithmetic from the integer
    dtype.  The empty path has s = 0 and runs as one zero segment.  Each
    coefficient is divided by k! 2**(s k) once, as Python ints, which
    round correctly at any size (an int64 is never made a float64 first,
    which would round twice).  That gives the same bits as exact rational
    arithmetic, so the witness loops' cancellations are literal zeros; a
    coefficient beyond float range raises OverflowError.  Meant for small
    witness paths: dim**depth may be at most 5000 (depth 12 at dim 2), and
    depth at most 100 at dim 1, where the work per segment is comparable.

    Both stages run on int64 when L**max(depth, 1) < 2**63, L = max(2,
    sum of |w|_1 over the segments), and on Python ints otherwise (the
    steps are converted even at depth 0).  The bound holds the values: the
    product over segments S has T_k = sum over i_1 + ... + i_n = k of
    k! / (i_1! ... i_n!) w_1^(x)i_1 (x) ..., whose coefficients' absolute
    values sum to at most L_S**k, L_S the sum of |w|_1 over S.  So each
    entry of a chunk or tree factor, each binomial term C(k, i) X_i (x)
    Y_(k-i) and each partial sum of them is at most (L_X + L_Y)**k <=
    L**depth, and so is the weight C(k, i) <= 2**k.  A Horner step by w
    after X forms the partial sums U_j + C(k, j) X_j = sum_(i <= j)
    C(k, i) X_i (x) w^(x)(j-i); for w != 0, |w|_1 >= 1, so each is at most
    (L_X + L_w)**k <= L**depth too.  A zero step leaves C(k, j) X_j alone,
    which may exceed it, and then multiplies it by zero: int64 sums and
    products wrap without a warning but are exact modulo 2**64, so every
    value that fits comes out right, and this a-priori check is the only
    guard.  The witness loops of product-vs-metric stay within 2**36.
    """
    depth = _count("depth", depth, 0)
    # dim**13 > 5000 for every dim >= 2, so the power stays small
    too_deep = depth > 100 if path.dim == 1 else path.dim ** min(depth, 13) > 5000
    if too_deep:
        raise ValueError("exact arithmetic is limited to dim**depth <= 5000, or depth <= 100 at dim 1")
    ints, scale = _dyadic(path.segments.flat)
    fits = max(2, sum(map(abs, ints))) ** max(depth, 1) < 2**63
    v = np.array(ints, dtype=np.int64 if fits else object).reshape(1, *path.segments.shape)
    levels = _fold(_segment_levels(v, depth))
    for k, lvl in enumerate(levels):
        # Python ints divide with one correct rounding, at any size
        den = math.factorial(k) * scale**k
        levels[k] = np.array([c / den for c in lvl[0].tolist()], dtype=float)
    return GroupTensor(path.dim, depth, levels)


@dataclass(frozen=True)
class GroupLikeReport:
    passed: bool
    max_discrepancy: float
    tolerance: float
    pairs_checked: int
    worst_pair: tuple
    lie_residual: float
    lie_tolerance: float


def _right_bracketing(p, k: int, d: int):
    """The right-normed bracketing r on rows p of shape (N, d**k).

    r(a1 ... ak) = [..[[a1, a2], a3], .., ak], extended linearly.  Writing
    P = sum_a P_a a with P_a of degree j - 1 (column a of the row reshaped
    to (d**(j-1), d)), r(P) = sum_a r(P_a) a - a r(P_a).  So the rows are
    split into their columns down to degree 1, where r is the identity, and
    rebuilt one degree at a time: with R of shape (d, d**(j-1)) holding
    the r(P_a), r(P) is R.T.ravel() - R.ravel()."""
    for j in range(k, 1, -1):
        p = p.reshape(-1, d ** (j - 1), d).transpose(0, 2, 1)
    for j in range(2, k + 1):
        r = p.reshape(-1, d, d ** (j - 1))
        p = r.transpose(0, 2, 1).reshape(-1, d**j) - r.reshape(-1, d**j)
    return p.reshape(-1, d**k)


def _one_letter_series(z, term) -> np.ndarray:
    """z + sum_n term(z**n, n) over n = 2..len(z) - 1, for a power series z
    in one letter held as its coefficients; an overflow is left in place."""
    power, total = z, z.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(2, len(z)):
            power = np.convolve(power, z)[: len(z)]
            total += term(power, n)
    return total


def _lie_residual(levels, d: int) -> float:
    # max_k |r(l_k)/k - l_k| over the levels l_k of log x; zero at k <= 1
    with np.errstate(over="ignore", invalid="ignore"):
        if d == 1:
            # every bracket of degree >= 2 vanishes, so the residual is
            # max_k |l_k|, and log x is a power series in one letter
            z = np.array([0.0] + [float(lvl[0]) for lvl in levels[1:]])
            gaps = np.abs(_one_letter_series(z, lambda p, n: (-1.0) ** (n + 1) / n * p)[2:])
        else:
            logs = _log_levels(levels, d)
            gaps = [np.abs(_right_bracketing(logs[k], k, d)[0] / k - logs[k]).max() for k in range(2, len(logs))]
        gap = np.max(gaps, initial=0.0)
    # a level that overflows counts as an infinite residual
    return math.inf if np.isnan(gap) else float(gap)


def _log_majorant(levels) -> float:
    # max_k mu_k, mu = -log(1 - m) on the power series m(t) = sum_j max|x_j| t**j
    m = np.array([0.0] + [float(np.abs(lvl).max()) for lvl in levels[1:]])
    return float(_one_letter_series(m, lambda p, n: p / n).max())


@lru_cache(maxsize=64)
def _riffle_positions(a: int, b: int) -> np.ndarray:
    """Where the letters of a word uw (|u| = a, |w| = b) land in each of the
    C(a + b, a) riffle shuffles of u with w: shape (C, a + b), the same
    for every choice of letters.  Read-only, as the cache shares it; 64
    tables hold every (a, b) up to depth 11."""
    n = a + b
    out = np.empty((math.comb(n, a), n), dtype=np.int64)
    for row, slots in enumerate(combinations(range(n), a)):
        out[row, :a] = slots
        out[row, a:] = [i for i in range(n) if i not in slots]
    out.setflags(write=False)
    return out


def _pairs_per_block(n: int, a: int, d: int, letters: int) -> int:
    # pairs whose letter rows and riffle indices fit in _MAX_COEFFICIENTS;
    # over one letter every riffle gives the same word, so none is formed
    riffles = math.comb(n, a) if d > 1 else 1
    return max(1, _MAX_COEFFICIENTS // (riffles + letters))


def _pair_gaps(levels, d: int, a: int, b: int, digits) -> np.ndarray:
    """|<x, u shuffle w> - <x, u> <x, w>| for the word pairs whose
    concatenations uw have the letters 1 + digits (shape (P, a + b)).

    Each riffle puts letter j of uw at some position i, which adds
    digit_j * d**(n-1-i) to the flat index, so one integer product gives
    the index of every riffle of every pair and one gather sums them."""
    n = a + b
    place = d ** np.arange(n - 1, -1, -1, dtype=np.int64)
    flat = digits @ place
    with np.errstate(over="ignore", invalid="ignore"):
        if d == 1:
            lhs = np.full(len(digits), math.comb(n, a) * float(levels[n][0]))
        else:
            lhs = levels[n][digits @ place[_riffle_positions(a, b)].T].sum(axis=1)
        gaps = np.abs(lhs - levels[a][flat // d**b] * levels[b][flat % d**b])
    # a pair whose sides overflow counts as an infinite discrepancy
    return np.where(np.isnan(gaps), np.inf, gaps)


def check_group_like(
    x: TruncatedTensor,
    sample: int = 200,
    tolerance: float = 1e-9,
    seed: int = 0,
) -> GroupLikeReport:
    """Group-likeness test: an exact Lie residual plus the shuffle relations.

    Exact part (Ree's theorem): x is group-like iff l = log x is a Lie
    element, and a degree-k element P is Lie iff r(P) = k P, with r the
    right-normed bracketing [..[a1, a2], .., ak] (Dynkin-Specht-Wever).  The
    residual max_k |r(l_k)/k - l_k|, maximum over levels and words, is zero
    exactly on group-like x, so no defect can hide between sampled pairs.
    At d = 1 every bracket of degree >= 2 vanishes and the residual is
    max_k>=2 |l_k|, summed as a power series in one letter: depth numpy
    calls, where the tensor log makes O(depth**3) on one-coefficient levels.

    Its tolerance follows the rounding of log x.  With z = x - 1, level k
    of log x is sum_n (-1)**(n+1)/n (z**n)_k, and each coefficient of
    (z**n)_k is one product z_i1[.] ... z_in[.] per composition
    i1 + ... + in = k.  So every coefficient of l_k is a signed sum of
    terms whose magnitudes add up to at most

        mu_k = [t**k] -log(1 - sum_j m_j t**j),   m_j = max |x_j|,

    and rounding moves it by a few ulps of mu_k; r/k - 1 adds or subtracts
    at most 2**(k-1)/k + 1 such coefficients.  The residual must therefore
    be at most lie_tolerance = tolerance * max(1, max_k mu_k).  The floor
    1 keeps the absolute `tolerance` for tensors near the unit.  mu_k, not
    max |x_k|, is the right size: at d = 1 the terms are k! times larger
    than x_k itself.  On signatures of
    Gaussian paths that pass the shuffle pairs (steps of size 0.1-20, depth
    up to 20 at d = 1, 16 at d = 2, 8 at d = 3), the residual stayed below
    2e-12 * max(1, max_k mu_k).

    Shuffle part: <x, u shuffle w> = <x, u> <x, w> on every word pair with
    combined length at most min(depth, 4), then on `sample` random pairs:
    |u| uniform on 1..depth-1, |w| uniform on 1..depth-|u|, letters uniform.
    The draws come from numpy's default_rng(seed) as whole arrays, in
    blocks of pairs within _MAX_COEFFICIENTS (one block up to about 10**6
    pairs at depth 6).  max_discrepancy is the largest |lhs - rhs| (an
    overflowing pair counts as infinite), worst_pair the first pair that
    attains it in that order, or ((), ()) when every gap is zero.  The
    pairs of each length (|u|, |w|) are evaluated together: one gather
    over the C(|u| + |w|, |u|) riffle shuffles, in blocks of at most
    _MAX_COEFFICIENTS indices.

    The shuffle gaps are held to the same lie_tolerance: |<x, u><x, w>| <=
    m_|u| m_|w| <= 2 mu_(|u|+|w|), and on group-like x the riffle sum
    equals it, so both sides round on that scale.  The absolute `tolerance`
    failed genuine signatures of longer paths (a gap of 1.8e-9 at depth 6
    for 8 planar steps of size about 5).  On correctly rounded signatures
    (exact_signature) of 8-step Gaussian paths, d 1-3, depth 6-8 (6-7 at
    d = 3), steps 0.1-20, gaps and residual stayed below 5e-7 times
    lie_tolerance.  A majorant beyond float range leaves no bound to hold
    them to, so an infinite lie_tolerance fails.

    passed requires max(max_discrepancy, lie_residual) <= lie_tolerance <
    inf.  sample and seed must be integers >= 0, and tolerance a finite
    number >= 0.
    """
    if x.scalar != 1.0:
        raise ValueError("group-likeness requires level-0 coefficient exactly 1")
    sample = _count("sample", sample, 0)
    seed = _count("seed", seed, 0)
    tolerance = _real("tolerance", tolerance, "nonnegative")
    d, depth, levels = x.dim, x.depth, x.levels
    worst, worst_pair, count = 0.0, ((), ()), 0

    def scan(gaps, pair):
        # keep the first pair of the largest gap if it beats all earlier pairs
        nonlocal worst, worst_pair
        i = int(np.argmax(gaps))
        if gaps[i] > worst:
            worst = float(gaps[i])
            worst_pair = tuple(tuple((word + 1).tolist()) for word in pair(i))

    cap = min(depth, 4)
    for a in range(1, cap):
        for b in range(1, cap - a + 1):
            n = a + b
            place = d ** np.arange(n - 1, -1, -1, dtype=np.int64)
            block = _pairs_per_block(n, a, d, n)
            # the pairs (u, w) in word order are the words uw in word order
            for first in range(0, d**n, block):
                flat = np.arange(first, min(first + block, d**n), dtype=np.int64)
                digits = flat[:, None] // place % d
                scan(_pair_gaps(levels, d, a, b, digits), lambda i: (digits[i, :a], digits[i, a:]))
            count += d**n
    if depth >= 2 and sample > 0:
        rng = np.random.default_rng(seed)
        block = _pairs_per_block(depth, depth // 2, d, 2 * depth)
        for first in range(0, sample, block):
            m = min(block, sample - first)
            lu = rng.integers(1, depth, size=m)
            lw = rng.integers(1, depth - lu + 1)
            letters = rng.integers(0, d, size=(m, 2, depth - 1))
            gaps = np.empty(m)
            for a, b in set(zip(lu.tolist(), lw.tolist())):
                rows = np.flatnonzero((lu == a) & (lw == b))
                digits = np.concatenate([letters[rows, 0, :a], letters[rows, 1, :b]], axis=1)
                gaps[rows] = _pair_gaps(levels, d, a, b, digits)
            scan(gaps, lambda i: (letters[i, 0, : lu[i]], letters[i, 1, : lw[i]]))
        count += sample
    residual = _lie_residual(levels, d)
    lie_tolerance = tolerance * max(1.0, _log_majorant(levels))
    return GroupLikeReport(
        passed=max(worst, residual) <= lie_tolerance < math.inf,
        max_discrepancy=worst,
        tolerance=tolerance,
        pairs_checked=count,
        worst_pair=worst_pair,
        lie_residual=residual,
        lie_tolerance=lie_tolerance,
    )
