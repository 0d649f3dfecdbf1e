"""Piecewise-linear paths in R^d and their variation geometry.

A path is a finite list of segment displacement vectors started at the
origin.  The representation fixes the parameterisation implicitly: every
path is traversed at constant speed on [0, 1], so segment i occupies the
time window proportional to its length.  Zero-length segments occupy no
time and never affect evaluation or distances.

Reduction removes tree-like excursions in the piecewise-linear setting:
zero segments are dropped and adjacent collinear segments are merged until
neither occurs.  Two paths with the same reduced representative trace the
same unparameterised trajectory up to back-tracking, and share a signature.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass

import numpy as np

from .tensor_algebra import (
    _BLOCK_COEFFICIENTS, _MALFORMED, _MAX_COEFFICIENTS, _count, _finite, _in_range, _json_floats, _real,
)

__all__ = [
    "PiecewiseLinearPath",
    "PathFormatError",
    "linear_path",
    "constant_path",
    "concat",
    "reverse",
    "reduce",
    "constant_speed",
    "positions_at",
    "one_variation_distance",
    "sup_distance",
    "difference_path",
    "p_variation",
    "axis_rho_sigma",
    "gamma_loop",
    "read_csv",
    "write_csv",
    "path_to_dict",
    "path_from_dict",
]

# relative tolerance for the collinearity rejection test in reduce()
COLLINEAR_TOL = 1e-12

# the rows above which reduce runs its vectorised screen over all adjacent
# pairs: the screen pays for its numpy calls from about 7 rows on random
# planar paths, and below that the merge loop alone is faster
_SCREEN_ROWS = 8

# numpy reduces along a short last axis several times slower than it
# combines whole columns: below this many columns _across takes them one at
# a time (on 2000 rows, 7-24x faster at 2 columns, no faster from 16 to 64
# on), and from it on makes numpy's one call, whose cost does not grow by a
# call per column as a loop over 10**4 columns would
_FEW_COLUMNS = 8


class PathFormatError(ValueError):
    """Raised when a serialised path cannot be parsed."""


@dataclass(frozen=True, eq=False)
class PiecewiseLinearPath:
    """Piecewise-linear path given by segment displacements, from the origin.

    Whether a path is reduced is a property of its segments alone, which
    reduce() derives on every call; nothing on the path records it.
    """

    dim: int
    segments: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dim", _count("dim", self.dim, 1))
        segments = _finite("segments", self.segments)
        # one row per segment; an empty array is the trivial path
        if segments.size and segments.shape[1:] != (self.dim,):
            raise ValueError(f"segments must have shape (m, {self.dim}), got {segments.shape}")
        object.__setattr__(self, "segments", segments.reshape(-1, self.dim))

    @property
    def segment_count(self) -> int:
        return self.segments.shape[0]

    @property
    def segment_lengths(self) -> np.ndarray:
        return _row_norms(self.segments)

    @property
    def length(self) -> float:
        return float(np.sum(self.segment_lengths))

    @property
    def points(self) -> np.ndarray:
        """Vertices visited by the path, including the origin."""
        return np.concatenate(
            [np.zeros((1, self.dim)), np.cumsum(self.segments, axis=0)], axis=0
        )

    @property
    def endpoint(self) -> np.ndarray:
        return self.points[-1]

    @property
    # the vertices _grids forms beside the times go unread, and may overflow
    @np.errstate(over="ignore")
    def breakpoints(self) -> np.ndarray:
        """Constant-speed times of the vertices (repeats at zero segments),
        all 0 when no segment is nonzero."""
        if not self.segments.any():
            return np.zeros(self.segment_count + 1)
        [(times, _)] = _grids(self.segments[None])
        return times[0]

    def evaluate(self, t: float) -> np.ndarray:
        """Position at time t in [0, 1] under the constant-speed clock."""
        return positions_at(self, np.array([_real("time t", t, "in [0, 1]")]))[0]


def linear_path(v) -> PiecewiseLinearPath:
    """One-segment path along the displacement v."""
    v = np.reshape(v, (1, -1))
    return PiecewiseLinearPath(v.shape[1], v)


def constant_path(dim: int) -> PiecewiseLinearPath:
    """The trivial path that stays at the origin."""
    return PiecewiseLinearPath(dim, np.zeros((0, dim)))


def _check_dim(a: PiecewiseLinearPath, b: PiecewiseLinearPath):
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")


def concat(a: PiecewiseLinearPath, b: PiecewiseLinearPath) -> PiecewiseLinearPath:
    """Concatenation: run a, then b translated to start at a's endpoint."""
    _check_dim(a, b)
    return PiecewiseLinearPath(a.dim, np.concatenate([a.segments, b.segments], axis=0))


def reverse(a: PiecewiseLinearPath) -> PiecewiseLinearPath:
    """Time reversal: segments in opposite order with negated displacements."""
    return PiecewiseLinearPath(a.dim, -a.segments[::-1])


def _across(ufunc, rows: np.ndarray) -> np.ndarray:
    # ufunc.reduce(rows, axis=1), column by column on few columns, with its
    # bits: np.maximum and np.logical_or do not depend on the order, and
    # numpy sums fewer than 8 terms of a row in order, from 0, as the column
    # loop does (a sum from 0 differs only at -0.0, which no square is)
    return functools.reduce(ufunc, rows.T) if rows.shape[1] < _FEW_COLUMNS else ufunc.reduce(rows, axis=1)


def _scaled_rows(rows: np.ndarray) -> tuple:
    # (rows / 2**e, e) with e per row from np.frexp of its largest |component|
    exps = np.frexp(_across(np.maximum, np.abs(rows)))[1]
    return np.ldexp(rows, -exps[:, None]), exps


def _row_norms(rows: np.ndarray, terms: int = 0) -> np.ndarray:
    """Euclidean norms of the rows of a 2-D array, at any magnitude.

    Each row v is scaled to v / 2**e, e from np.frexp of its largest
    component, so no square under- or overflows, and its squares are
    summed as np.linalg.norm sums them.  The scaling is exact in the normal
    range, where the result is therefore bit-identical to np.linalg.norm.

    Given terms, the norms come scaled by 2**-s, s >= 0 the least shift
    that keeps a sum of that many of them below 2**1023: a norm is below
    sqrt(d) 2**e, so s is 0 unless the largest e is within
    log2(terms * d) of 1023.
    """
    scaled, exps = _scaled_rows(rows)
    if terms:
        exps = exps - max(0, int(exps.max()) + (terms * rows.shape[1]).bit_length() - 1023)
    return np.ldexp(np.sqrt(_across(np.add, scaled * scaled)), exps)


def _pair_tests(segs: np.ndarray) -> np.ndarray:
    """Whether each adjacent pair of the nonzero rows segs passes reduce()'s
    collinearity test, evaluated on all pairs at once.

    Each row v is first scaled to v / 2**e, e from np.frexp of its largest
    component; the scaling is exact in the normal range, so it changes no
    decision there, and no square under- or overflows.  A pair (u, w) =
    (segs[i], segs[i + 1]) passes when the part of w orthogonal to u is at
    most tol * |w|.  Rows are computed independently, coordinate by
    coordinate, so a pair's verdict is _merge_collinear's on that pair.
    """
    cols = _scaled_rows(segs)[0].T
    sq = _dot(cols, cols)
    u, w = cols[:, :-1], cols[:, 1:]
    resid = w - _dot(u, w) / sq[:-1] * u
    return np.sqrt(_dot(resid, resid)) <= COLLINEAR_TOL * np.sqrt(sq[1:])


def _dot(x, y):
    # inner product summed coordinate by coordinate, in order: of two rows
    # given as lists, or row by row of two (d, n) coordinate arrays, so that
    # a row's value does not depend on the other rows
    acc = x[0] * y[0]
    for i in range(1, len(x)):
        acc += x[i] * y[i]
    return acc


def _scaled_row(row: list) -> tuple:
    # (row, s, |s|**2, e) with s = row / 2**e, scaled as _scaled_rows
    # scales it
    exp = math.frexp(max(map(abs, row)))[1]
    scaled = [math.ldexp(c, -exp) for c in row]
    return row, scaled, _dot(scaled, scaled), exp


def reduce(a: PiecewiseLinearPath) -> PiecewiseLinearPath:
    """Drop zero segments and merge adjacent collinear segments to a fixpoint.

    Merging v then w with w = lam * v (either sign of lam) into v + w never
    changes the signature, because collinear segment exponentials commute.
    Exactly mirrored adjacent pairs are excised before any merging happens,
    so inserted out-and-back excursions collapse completely and without
    rounding.  For paths that do not interleave their back-tracking with
    rotation this yields the tree-reduced representative; for arbitrary
    inputs it is a best-effort normal form.

    A segment is zero only when all its components are.  Collinearity test:
    the component of w orthogonal to v must be at most tol * |w|, with
    tol = COLLINEAR_TOL = 1e-12.  Cancellation test: the merged v + w is
    dropped when |v + w| <= tol * (|v| + |w|), so rounding residue such as
    0.1 + 0.2 - 0.3 does not survive.  Both tests run on segments scaled by
    powers of two, so no norm under- or overflows at any magnitude, and the
    scaling, being exact, changes no decision in the normal range.

    The merge is one stack loop over Python floats that tests one pair at a
    time.  When the excision leaves more than _SCREEN_ROWS = 8 segments,
    the collinearity test first runs once over all adjacent pairs as numpy
    arrays (_pair_tests), and when none of them merges that list is the
    result.  A shorter list goes straight to the loop, since on a few rows
    numpy's per-call cost exceeds the arithmetic.  Both forms of the test
    sum coordinate by coordinate in order, so they agree on every pair and
    the two routes give the same bits.

    The work runs on the rows of a's checked segment array (_reduced_rows,
    which metric_d shares), and only the result is built and validated as
    a path.  Every call reduces its path afresh, except that a path with
    no segments, already reduced, is returned as it is.
    """
    if not a.segment_count:
        return a
    return PiecewiseLinearPath(a.dim, _reduced_rows(a.segments))


def _reduced_rows(segs: np.ndarray):
    # reduce's work on the segment array of a path: the rows of the reduced
    # representative, as the screened array or as the merge loop's list
    # pass 1: excise exactly mirrored adjacent pairs without any arithmetic,
    # so out-and-back insertions vanish bitwise even when every segment of
    # the path is collinear with its neighbours (d = 1); merging only after
    # this pass keeps [0.1], [0.2], [-0.2] at [0.1] rather than 0.1 + 0.2 - 0.2.
    # Rows and their negations are compared as the bytes of x + 0.0, which
    # turns -0.0 into 0.0, so two rows' bytes are equal exactly when their
    # finite entries are equal floats, and a zero row's bytes are all zero.
    # Unlike a list of floats per row, bytes give the cyclic garbage
    # collector nothing to track: thousands of lists per call made it run
    # several times per call, and every few calls collect every tracked
    # object (about 8 ms)
    count, width = segs.shape[0], segs.itemsize * segs.shape[1]
    keys = (np.concatenate((segs, -segs)) + 0.0).view(np.dtype((np.void, width))).ravel().tolist()
    rows, negated, zero = keys[:count], keys[count:], bytes(width)
    stack: list[int] = []
    for i, row in enumerate(rows):
        if row == zero:
            continue
        if stack and rows[stack[-1]] == negated[i]:
            stack.pop()
        else:
            stack.append(i)
    # pass 2: merge adjacent collinear segments to a fixpoint; pass 1 left no
    # mirrored neighbours, so a long path none of whose pairs is collinear is done
    kept = segs.take(stack, axis=0)
    if len(stack) > _SCREEN_ROWS and not _pair_tests(kept).any():
        return kept
    return _merge_collinear(kept.tolist())


def _merge_collinear(rows: list) -> list:
    # the stack loop over the top pair: a collinear pair is merged
    # (_pair_tests' arithmetic on that one pair) and the merge dropped if
    # |u + w| <= tol * (|u| + |w|), both at the larger scale of the pair.
    # reduce's pass 1 left no adjacent mirror, and one that a merge forms
    # has lam = -1 exactly and merges to an exact zero, which is dropped.  A
    # merge beyond float range is refused here, with a path's message,
    # since metric_d never builds the reduced rows into a path
    out: list[tuple] = []
    for v in rows:
        out.append(_scaled_row(v))
        while len(out) >= 2:
            (u, su, squ, eu), (w, sw, sqw, ew) = out[-2:]
            lam = _dot(su, sw) / squ
            resid = [q - lam * p for p, q in zip(su, sw)]
            if not math.sqrt(_dot(resid, resid)) <= COLLINEAR_TOL * math.sqrt(sqw):
                break
            merged = [p + q for p, q in zip(u, w)]
            del out[-2:]
            top = max(eu, ew)
            sm = [math.ldexp(c, -top) for c in merged]
            size = math.ldexp(math.sqrt(squ), eu - top) + math.ldexp(math.sqrt(sqw), ew - top)
            norm = math.sqrt(_dot(sm, sm))
            if norm == math.inf:
                _finite("segments", merged)
            if not norm <= COLLINEAR_TOL * size:
                out.append(_scaled_row(merged))
    return [entry[0] for entry in out]


def constant_speed(a: PiecewiseLinearPath) -> PiecewiseLinearPath:
    """Constant-speed representative of a.

    The segment-list representation already pins the constant-speed
    parameterisation (PiecewiseLinearPath.evaluate walks each segment over
    a time window proportional to its length), so this returns the path
    unchanged.  It exists so that callers can state the normalisation
    explicitly.
    """
    return a


def _grids(*stacks: np.ndarray) -> list:
    """Constant-speed knot times, shape (n, k + 1), and vertices, shape
    (n, k + 1, d), of each stack (n, k, d) of paths of k segments each; a
    path with no segment has the knots 0 and 1, both at the origin.  A zero
    segment repeats a knot, and a path of only zero segments has no times
    (0 / 0): the distances pass nonzero segments only.

    The times divide running sums of the segment lengths by the total.
    The lengths of all stacks come from one _row_norms call: scaled by one
    power of two where a total could overflow, which leaves every ratio as
    it was unless a length falls below the normal range.
    """
    d = stacks[0].shape[2]
    terms = max(stack.shape[1] for stack in stacks)
    if terms:
        norms = _row_norms(np.concatenate([stack.reshape(-1, d) for stack in stacks]), terms)
    grids, start = [], 0
    for stack in stacks:
        n, k, _ = stack.shape
        if not k:
            grids.append((np.tile([0.0, 1.0], (n, 1)), np.zeros((n, 2, d))))
            continue
        cum = np.cumsum(norms[start : start + n * k].reshape(n, k), axis=1)
        start += n * k
        times = np.zeros((n, k + 1))
        np.divide(cum, cum[:, -1:], out=times[:, 1:])
        pts = np.zeros((n, k + 1, d))
        np.cumsum(stack, axis=1, out=pts[:, 1:])
        grids.append((times, pts))
    return grids


def _nonzero(segs: np.ndarray) -> np.ndarray:
    # the nonzero segments of one path, as a stack of one; compress selects
    # the rows several times faster than a boolean row index
    return segs.compress(_across(np.logical_or, segs != 0.0), axis=0)[None]


# the slopes at knot times are discarded unread, and may divide by zero; a
# vertex or a position beyond float range is refused at the end
@np.errstate(all="ignore")
def positions_at(a: PiecewiseLinearPath, ts) -> np.ndarray:
    """Positions at an array of times in [0, 1] (constant-speed clock), one
    row per time, as a C-contiguous (k, d) array (k = 1 for a 0-d time).

    The distances' kernel on a stack of one: the clock of _grids, j the
    last knot at or before each time (np.searchsorted), and _at's values,
    which are np.interp's bit for bit.  A position beyond float range
    raises FloatingPointError, as every distance does.
    """
    ts = np.asarray(ts, dtype=float).ravel()
    if ts.size and not (ts.min() >= 0.0 and ts.max() <= 1.0):
        raise ValueError("times must lie in [0, 1]")
    [(times, pts)] = _grids(_nonzero(a.segments))
    j = np.searchsorted(times[0], ts, side="right") - 1
    return _in_range("a position of the path", np.ascontiguousarray(_at(ts, times[0], pts[0].T, j).T))


def _at(t, times, pts, j) -> np.ndarray:
    # np.interp's formula at the times t, with j the flat index of the last
    # knot whose time is at most t: the knot's value where t is its time.
    # pts holds one coordinate per row, shape (d, knots), so that every
    # operation runs along the knots.  A knot's successor is clipped to the
    # stack's last knot, which has none; the slope from a row's final knot,
    # into the next row or onto itself, goes unread, since its time is 1
    # and no t exceeds it
    t0, p0 = times.take(j), pts.take(j, axis=1)
    j = np.minimum(j + 1, times.size - 1)
    slope = (pts.take(j, axis=1) - p0) / (times.take(j) - t0)
    return np.where(t == t0, p0, slope * (t - t0) + p0)


# the slopes at knot times are discarded unread, and may overflow or divide
# by zero; a value beyond float range is refused at the end
@np.errstate(all="ignore")
def _differences(sa: np.ndarray, sb: np.ndarray):
    """Values of t -> a(t) - b(t) for the rows of two stacks of paths,
    (n, ka, d) and (n, kb, d), of nonzero segments, at the union of each
    pair's knot times: the difference is piecewise linear with vertices
    there, so these values determine it exactly.

    Each row's two grids are merged by a stable argsort, so the knots of a
    come first among equal times, and only the last knot of each run of
    equal times is kept.  All kept knots of the stack, row after row, form
    one flat array: the a-knots counted up to a kept knot index the last
    knot of a at or before its time, over the flattened grids of a, and
    the other knots so far index b's.  Each value is np.interp's at that
    time, so the result has the bits of np.interp on the union grid.
    Returns the values, shape (M, d), and each row's count of kept knots.
    """
    (ta, pa), (tb, pb) = _grids(sa, sb)
    n, ka = ta.shape
    d = pa.shape[2]
    times = np.concatenate([ta, tb], axis=1)
    width = times.shape[1]
    order = np.argsort(times, axis=1, kind="stable")
    from_a = order < ka
    order += np.arange(0, n * width, width)[:, None]
    ts = times.ravel()[order]
    # each row ends at time 1, so its last knot ends a run
    last = np.concatenate([ts[:, 1:] > ts[:, :-1], np.ones((n, 1), dtype=bool)], axis=1)
    at = np.flatnonzero(last)
    seen = np.cumsum(from_a.ravel())[at]
    t = ts.ravel()[at]
    values = _at(t, ta.ravel(), pa.reshape(-1, d).T, seen - 1) - _at(t, tb.ravel(), pb.reshape(-1, d).T, at - seen)
    return _in_range("the difference of the paths", np.ascontiguousarray(values.T)), last.sum(axis=1)


# a step norm or a sum beyond float range is refused at the end
@np.errstate(over="ignore")
def _distances(sa: np.ndarray, sb: np.ndarray) -> np.ndarray:
    """1-variation of t -> a(t) - b(t) for the rows of two stacks, as
    _differences takes them.

    Each row's step norms are summed by .sum(axis=1), which sums each row
    of a C-contiguous array pairwise as the 1-D .sum() does; rows with
    different counts of kept knots are summed in separate groups, so no
    row sums a step it does not have.
    """
    values, counts = _differences(sa, sb)
    d = values.shape[1]
    sums = np.empty(len(counts))
    for c in set(counts.tolist()):
        rows = counts == c
        v = values.compress(np.repeat(rows, counts), axis=0).reshape(-1, c, d)
        sums[rows] = _row_norms((v[:, 1:] - v[:, :-1]).reshape(-1, d)).reshape(-1, c - 1).sum(axis=1)
    return _in_range("the 1-variation distance", sums)


def one_variation_distance(a: PiecewiseLinearPath, b: PiecewiseLinearPath) -> float:
    """Exact 1-variation of t -> a(t) - b(t) on the constant-speed clock.

    The sum of the step norms between the values at the union of the two
    breakpoint grids (_distances on stacks of one).  A vertex, a value or
    the distance beyond float range raises FloatingPointError.
    """
    _check_dim(a, b)
    return float(_distances(_nonzero(a.segments), _nonzero(b.segments))[0])


# a norm beyond float range is refused at the end
@np.errstate(over="ignore")
def sup_distance(a: PiecewiseLinearPath, b: PiecewiseLinearPath) -> float:
    """Uniform distance sup_t |a(t) - b(t)| on the constant-speed clock."""
    # |a - b| is convex on each grid interval, so the sup sits at a vertex
    _check_dim(a, b)
    values = _differences(_nonzero(a.segments), _nonzero(b.segments))[0]
    return float(_in_range("the uniform distance", _row_norms(values).max()))


def difference_path(a: PiecewiseLinearPath, b: PiecewiseLinearPath) -> PiecewiseLinearPath:
    """The path t -> a(t) - b(t), as a segment list on the union grid."""
    _check_dim(a, b)
    values = _differences(_nonzero(a.segments), _nonzero(b.segments))[0]
    return PiecewiseLinearPath(a.dim, np.diff(values, axis=0))


# Vertices per block of p_variation, below that cap.  Smaller blocks have
# tighter boxes, so fewer candidates survive, and a shorter recurrence on
# Python floats, but more numpy calls per vertex.  On planar random walks of
# 2000 steps, blocks of 16, 24 and 32 were within 7% of each other, 24 the
# fastest, and 48 took 25% longer.
_PVAR_BLOCK = 24

# Slack on the bounds' p-th powers.  The distances are bounded exactly (see
# p_variation), but pow need not be monotone: its error is a few ulps
# (2**-50 relative) in the normal range and a few units of 2**-1074 below
# it, so 2**-40 and 2**-1060 cover it with a wide margin.
_PVAR_SLACK = 2.0**-40
_PVAR_TINY = 2.0**-1060


def _pvar_costs(steps, p: float, unit: float = 1.0) -> np.ndarray:
    # (|step| / unit)**p for per-coordinate step arrays, squares summed in
    # coordinate order, so that a cost and the bounds on it round alike
    steps = iter(steps)
    cost = next(steps) ** 2
    for step in steps:
        cost += step**2
    np.sqrt(cost, out=cost)
    if unit != 1.0:
        cost /= unit
    cost **= p
    return cost


# beyond float range a cost or a bound is inf and the total with it, which
# p_variation checks
@np.errstate(over="ignore")
def _pvar_total(coords, costs) -> float:
    """best[m] of p_variation's pruned programme on the vertices coords,
    shape (d, m + 1), with costs(steps) the p-th powers of the distances."""
    m = coords.shape[1] - 1
    block = max(1, min(_PVAR_BLOCK, _BLOCK_COEFFICIENTS // (m + 1)))
    starts = np.arange(0, m + 1, block)
    count = len(starts)
    lows = np.minimum.reduceat(coords, starts, axis=1)
    highs = np.maximum.reduceat(coords, starts, axis=1)
    # the smallest distance from a_(lo - 1) to each block, lo its first target
    before = coords[:, np.maximum(starts - 1, 0)]
    near = np.maximum(np.maximum(lows - before, before - highs), 0.0)
    floors = (costs(near) * (1.0 - _PVAR_SLACK) - _PVAR_TINY).tolist()
    vertices = np.arange(count * block).reshape(count, block)
    chunk = max(1, _BLOCK_COEFFICIENTS // count)
    best = np.zeros(m + 1)
    for t, first in enumerate(starts.tolist()):
        lo, hi = max(first, 1), min(first + block, m + 1)
        if t % chunk == 0:
            # the largest distance from every block to each of the next targets
            rows = slice(t, t + chunk)
            far = (np.maximum(h[rows, None] - l, h - l[rows, None]) for l, h in zip(lows, highs))
            reaches = costs(far) * (1.0 + _PVAR_SLACK) + _PVAR_TINY
        if t:
            reach = best[starts[1:t] - 1] + reaches[t % chunk, : t - 1]
            keep = np.flatnonzero(reach > best[lo - 1] + floors[t])
            cols = np.concatenate([vertices[keep].ravel(), np.arange(first - block, hi)])
        else:
            cols = np.arange(hi)
        k = len(cols) - (hi - lo)
        cost = costs(x[cols] - x[lo:hi, None] for x in coords)
        earlier = (best[cols[:k]] + cost[:, :k]).max(axis=1).tolist()
        run: list[float] = []
        for top, row in zip(earlier, cost[:, k:].tolist()):
            run.append(max([top, *map(operator.add, run, row)]))
        best[lo:hi] = run
    return float(best[m])


def p_variation(a: PiecewiseLinearPath, p: float) -> float:
    """Exact p-variation norm for p >= 1.

    For a piecewise-linear path the supremum over partitions is attained on
    a subset of the vertices (|a(t) - x|**p is convex in t along a segment),
    so a dynamic programme over the vertex list is exact:
    best[j] = max over i < j of best[i] + |a_j - a_i|**p.

    The vertices are split into blocks of B = 24 (fewer when B * (m + 1)
    would exceed _BLOCK_COEFFICIENTS, at least 1), each with its bounding
    box, and the programme runs one target block at a time.  As in Butkus
    and Norvaisa's pruning for 1-D paths, a candidate block is skipped when it
    cannot win: best never decreases, so no vertex i of a block beats
    best[last of the block] + (largest box-to-box distance)**p, and every
    best[j] of the target is at least best[lo - 1] + (smallest distance
    from a_(lo - 1) to the target box)**p.  The block ending at lo - 1 is
    always kept.  The distance bounds use the costs' own operations in the
    same order, and both bounds are the sums the programme forms, so
    rounding, which is monotone, keeps them bounds; only the p-th powers
    get a slack of 2**-40 relative and 2**-1060 absolute, against a pow
    that is not quite monotone.  A skipped candidate is then at most the
    kept one from lo - 1, so the max is the same double.  The kept
    candidates get the costs |a_j - a_i|**p of the unpruned programme,
    elementwise as one (B, i) array, and the recurrence inside the block
    runs on Python floats.  Each temporary holds at most about
    _BLOCK_COEFFICIENTS = 2**17 coefficients (1 MiB, tensor_algebra's one
    block size) whatever the segment count m, up to m = 2**17.

    Squared differences are summed coordinate by coordinate in order: for
    d <= 7 the result is bit-identical to summing each row with
    np.linalg.norm; above that numpy sums pairwise and the two differ by
    about 1 ulp.  A path whose largest coordinate is about 2**e with
    max(p, 2) |e| > 500 runs scaled by 2**-e, exactly, and the result is
    scaled back.  That keeps the costs of moderate p in range, but not
    every cost: at large p, or in many dimensions, one overflows (2.8**690
    does), or all of them underflow (0.625**1600 does).  The total best[m]
    is then inf, or below m 2**-1021, where the subnormal costs it sums,
    off by up to 2**-1075 each, could move it by more than 2**-54.  Such a
    path runs again on the costs (|a_j - a_i| / D)**p, D the largest
    distance between two vertices, formed as the costs are, so that the
    costs lie in [0, 1], one of them exactly 1, and best[m] in [1, m]:
    the result D best[m]**(1/p) is finite and correct for every p >= 1.
    A vertex beyond float range gives inf.
    """
    p = _real("p", p, "at least 1")
    m = a.segment_count
    # a vertex beyond float range is inf here, and gives inf below
    with np.errstate(over="ignore"):
        coords = np.ascontiguousarray(a.points.T)
    if not coords.any():
        return 0.0
    if not np.isfinite(coords).all():
        # the segments are finite, so a vertex overflowed: |a_j - a_0| > max float
        return math.inf
    # the norm is 1-homogeneous: where squares or p-th powers would leave
    # the normal range, the programme runs on the points scaled by 2**-e
    e = int(np.frexp(np.abs(coords).max())[1])
    shift = e if max(p, 2.0) * abs(e) > 500 else 0
    total = _pvar_total(np.ldexp(coords, -shift), lambda steps: _pvar_costs(steps, p))
    if m * 2.0**-1021 <= total < math.inf:
        return float(np.ldexp(total ** (1.0 / p), shift))
    coords = np.ldexp(coords, -e)
    # D a block of rows at a time, each distance formed as the costs form it
    rows = max(1, _BLOCK_COEFFICIENTS // (m + 1))
    unit = max(float(_pvar_costs((x[i : i + rows, None] - x for x in coords), 1.0).max()) for i in range(0, m + 1, rows))
    total = _pvar_total(coords, lambda steps: _pvar_costs(steps, p, unit))
    return float(np.ldexp(unit * total ** (1.0 / p), e))


def axis_rho_sigma(n: int):
    """Mirror pair of alternating axis paths of length 2**n in R^2.

    rho_1 walks e1 then e2, sigma_1 walks e2 then e1, and each later stage
    concatenates the two previous paths in opposite orders:
    rho_n = rho_{n-1} * sigma_{n-1} and sigma_n = sigma_{n-1} * rho_{n-1}.
    The two paths at stage n share all signature levels up to n while their
    level n+1 differs.  n is at most 21 (see gamma_loop).
    """
    # the lists doubled here, the pair and, in gamma_loop, reverse(rho) and
    # the loop hold under 16 float-sized values per step of rho (10 and 14.5
    # measured with tracemalloc), so 16 * 2**n <= _MAX_COEFFICIENTS
    n = _count("stage", n, 1, _MAX_COEFFICIENTS.bit_length() - 5)
    e1 = (1.0, 0.0)
    e2 = (0.0, 1.0)
    rho = [e1, e2]
    sigma = [e2, e1]
    for _ in range(n - 1):
        rho, sigma = rho + sigma, sigma + rho
    return (
        PiecewiseLinearPath(2, np.array(rho)),
        PiecewiseLinearPath(2, np.array(sigma)),
    )


def gamma_loop(k: int) -> PiecewiseLinearPath:
    """Loop sigma_k * reverse(rho_k) of length 2**(k+1).

    Its signature levels 1..k vanish while the signature itself stays away
    from the unit, which separates the levelwise topology from the
    1-variation metric on reduced paths.  k is at most 21: the loop and
    the pair it is built from stay within _MAX_COEFFICIENTS.
    """
    rho, sigma = axis_rho_sigma(k)
    return concat(sigma, reverse(rho))


_HEADER_RE = re.compile(r"#\s*dim\s*=\s*(\d+)\s*$")


def read_csv(source) -> PiecewiseLinearPath:
    """Parse a segment CSV: header '# dim=<d>', then one row per segment.

    Raises PathFormatError with a line number on any malformed content.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    dim = None
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if dim is None:
                m = _HEADER_RE.match(line)
                if not m:
                    raise PathFormatError(f"line {lineno}: expected header '# dim=<d>'")
                dim = int(m.group(1))
                if dim < 1:
                    raise PathFormatError(f"line {lineno}: dim must be at least 1")
            continue
        if dim is None:
            raise PathFormatError(f"line {lineno}: data before '# dim=<d>' header")
        parts = line.split(",")
        if len(parts) != dim:
            raise PathFormatError(
                f"line {lineno}: expected {dim} components, got {len(parts)}"
            )
        try:
            row = [float(p) for p in parts]
        except ValueError:
            raise PathFormatError(f"line {lineno}: non-numeric component") from None
        if not all(math.isfinite(c) for c in row):
            raise PathFormatError(f"line {lineno}: non-finite component")
        rows.append(row)
    if dim is None:
        raise PathFormatError("missing '# dim=<d>' header")
    segs = np.array(rows, dtype=float).reshape(len(rows), dim)
    return PiecewiseLinearPath(dim, segs)


def write_csv(a: PiecewiseLinearPath, dest) -> None:
    lines = [f"# dim={a.dim}"]
    for row in a.segments:
        lines.append(",".join(repr(float(c)) for c in row))
    text = "\n".join(lines) + "\n"
    if hasattr(dest, "write"):
        dest.write(text)
    else:
        with open(dest, "w", encoding="utf-8") as fh:
            fh.write(text)


def path_to_dict(a: PiecewiseLinearPath) -> dict:
    return {"dim": a.dim, "segments": a.segments.tolist()}


def path_from_dict(data: dict) -> PiecewiseLinearPath:
    # every failure, a bad value included, is re-typed as PathFormatError
    try:
        return PiecewiseLinearPath(data["dim"], _json_floats("path segments", data["segments"]))
    except (ValueError, *_MALFORMED) as err:
        raise PathFormatError(f"malformed path record: {err}") from None
