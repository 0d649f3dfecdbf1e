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

import math
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PiecewiseLinearPath",
    "PathFormatError",
    "linear_path",
    "constant_path",
    "concat",
    "reverse",
    "reduce",
    "constant_speed",
    "evaluate",
    "positions_at",
    "one_variation",
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


class PathFormatError(ValueError):
    """Raised when a serialised path cannot be parsed."""


@dataclass(frozen=True, eq=False)
class PiecewiseLinearPath:
    """Piecewise-linear path given by segment displacements, from the origin.

    `reduced` marks a path already put through reduce(): no zero segment and
    no adjacent collinear pair remains.
    """

    dim: int
    segments: np.ndarray
    reduced: bool = False

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be at least 1, got {self.dim}")
        segs = np.array(self.segments, dtype=float).reshape(-1, self.dim)
        if not np.all(np.isfinite(segs)):
            raise ValueError("segments contain non-finite entries")
        segs.setflags(write=False)
        object.__setattr__(self, "segments", segs)

    @property
    def segment_count(self) -> int:
        return self.segments.shape[0]

    @property
    def segment_lengths(self) -> np.ndarray:
        if self.segment_count == 0:
            return np.zeros(0)
        return np.linalg.norm(self.segments, axis=1)

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
    def breakpoints(self) -> np.ndarray:
        """Constant-speed times of the vertices (repeats at zero segments)."""
        lens = self.segment_lengths
        cum = np.cumsum(lens) if lens.size else np.zeros(0)
        total = cum[-1] if cum.size else 0.0
        if total == 0.0:
            return np.zeros(self.segment_count + 1)
        return np.concatenate([[0.0], cum / total])

    def evaluate(self, t: float) -> np.ndarray:
        return evaluate(self, t)


def linear_path(v) -> PiecewiseLinearPath:
    """One-segment path along the displacement v."""
    v = np.asarray(v, dtype=float).reshape(-1)
    return PiecewiseLinearPath(v.size, v.reshape(1, -1))


def constant_path(dim: int) -> PiecewiseLinearPath:
    """The trivial path that stays at the origin."""
    return PiecewiseLinearPath(dim, np.zeros((0, dim)), reduced=True)


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


def reduce(a: PiecewiseLinearPath, tol: float = COLLINEAR_TOL) -> PiecewiseLinearPath:
    """Drop zero segments and merge adjacent collinear segments to a fixpoint.

    Merging v then w with w = lam * v (either sign of lam) into v + w never
    changes the signature, because collinear segment exponentials commute.
    Exactly mirrored adjacent pairs are excised before any merging happens,
    so inserted out-and-back excursions collapse completely and without
    rounding.  For paths that do not interleave their back-tracking with
    rotation this yields the tree-reduced representative; for arbitrary
    inputs it is a best-effort normal form.

    Collinearity test: the component of w orthogonal to v must be at most
    tol * |w|.  Cancellation test: the merged v + w is dropped when
    |v + w| <= tol * (|v| + |w|), so rounding residue such as 0.1 + 0.2 - 0.3
    does not survive.  tol defaults to COLLINEAR_TOL = 1e-12.
    """
    if a.reduced:
        return a
    # pass 1: excise exactly mirrored adjacent pairs without any arithmetic,
    # so out-and-back insertions vanish bitwise even when every segment of
    # the path is collinear with its neighbours (d = 1)
    stack: list[np.ndarray] = []
    for v in a.segments:
        if np.linalg.norm(v) == 0.0:
            continue
        if stack and np.array_equal(stack[-1], -v):
            stack.pop()
        else:
            stack.append(v)
    # pass 2: merge adjacent collinear segments to a fixpoint
    out: list[np.ndarray] = []
    for v in stack:
        out.append(v)
        while len(out) >= 2:
            u, w = out[-2], out[-1]
            if np.array_equal(w, -u):
                out.pop()
                out.pop()
                continue
            uu = np.dot(u, u)
            lam = float(np.dot(u, w) / uu)
            norm_w = np.linalg.norm(w)
            if np.linalg.norm(w - lam * u) > tol * norm_w:
                break
            merged = u + w
            out.pop()
            out.pop()
            if np.linalg.norm(merged) > tol * (math.sqrt(uu) + norm_w):
                out.append(merged)
    segs = np.array(out) if out else np.zeros((0, a.dim))
    return PiecewiseLinearPath(a.dim, segs, reduced=True)


def constant_speed(a: PiecewiseLinearPath) -> PiecewiseLinearPath:
    """Constant-speed representative of a.

    The segment-list representation already pins the constant-speed
    parameterisation (evaluate() walks each segment over a time window
    proportional to its length), so this returns the path unchanged.  It
    exists so that callers can state the normalisation explicitly.
    """
    return a


def _grid(a: PiecewiseLinearPath):
    """Strictly increasing constant-speed times with vertex positions."""
    lens = a.segment_lengths
    mask = lens > 0.0
    if not mask.any():
        return np.array([0.0, 1.0]), np.zeros((2, a.dim))
    segs = a.segments[mask]
    cum = np.cumsum(lens[mask])
    times = np.concatenate([[0.0], cum / cum[-1]])
    pts = np.concatenate([np.zeros((1, a.dim)), np.cumsum(segs, axis=0)], axis=0)
    return times, pts


def positions_at(a: PiecewiseLinearPath, ts) -> np.ndarray:
    """Positions at an array of times in [0, 1] (constant-speed clock)."""
    ts = np.asarray(ts, dtype=float)
    if ts.size and (ts.min() < 0.0 or ts.max() > 1.0):
        raise ValueError("times must lie in [0, 1]")
    times, pts = _grid(a)
    return np.column_stack([np.interp(ts, times, pts[:, j]) for j in range(a.dim)])


def evaluate(a: PiecewiseLinearPath, t: float) -> np.ndarray:
    """Position at time t in [0, 1] under the constant-speed clock."""
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"time {t} outside [0, 1]")
    return positions_at(a, np.array([t]))[0]


def one_variation(a: PiecewiseLinearPath) -> float:
    """Total variation, i.e. the length: sum of segment lengths."""
    return a.length


def one_variation_distance(a: PiecewiseLinearPath, b: PiecewiseLinearPath) -> float:
    """Exact 1-variation of t -> a(t) - b(t) on the constant-speed clock.

    The difference is piecewise linear with vertices on the union of the two
    breakpoint grids, so summing increment norms over that grid is exact.
    """
    _check_dim(a, b)
    ta, _ = _grid(a)
    tb, _ = _grid(b)
    times = np.union1d(ta, tb)
    diff = positions_at(a, times) - positions_at(b, times)
    steps = np.diff(diff, axis=0)
    return float(np.sum(np.linalg.norm(steps, axis=1)))


def sup_distance(a: PiecewiseLinearPath, b: PiecewiseLinearPath) -> float:
    """Uniform distance sup_t |a(t) - b(t)| on the constant-speed clock."""
    _check_dim(a, b)
    ta, _ = _grid(a)
    tb, _ = _grid(b)
    times = np.union1d(ta, tb)
    diff = positions_at(a, times) - positions_at(b, times)
    # |a - b| is convex on each grid interval, so the sup sits at a vertex
    return float(np.max(np.linalg.norm(diff, axis=1)))


def difference_path(a: PiecewiseLinearPath, b: PiecewiseLinearPath) -> PiecewiseLinearPath:
    """The path t -> a(t) - b(t), as a segment list on the union grid."""
    _check_dim(a, b)
    ta, _ = _grid(a)
    tb, _ = _grid(b)
    times = np.union1d(ta, tb)
    diff = positions_at(a, times) - positions_at(b, times)
    return PiecewiseLinearPath(a.dim, np.diff(diff, axis=0))


def p_variation(a: PiecewiseLinearPath, p: float) -> float:
    """Exact p-variation norm for p >= 1.

    For a piecewise-linear path the supremum over partitions is attained on
    a subset of the vertices (|a(t) - x|**p is convex in t along a segment),
    so a quadratic dynamic programme over the vertex list is exact:
    best[j] = max over i < j of best[i] + |a_j - a_i|**p.
    """
    p = float(p)
    if p < 1.0:
        raise ValueError(f"p must be at least 1, got {p}")
    pts = a.points
    m = len(pts) - 1
    if m == 0:
        return 0.0
    best = np.zeros(m + 1)
    for j in range(1, m + 1):
        dist = np.linalg.norm(pts[:j] - pts[j], axis=1)
        best[j] = np.max(best[:j] + dist**p)
    return float(best[m] ** (1.0 / p))


def axis_rho_sigma(n: int):
    """Mirror pair of alternating axis paths of length 2**n in R^2.

    rho_1 walks e1 then e2, sigma_1 walks e2 then e1, and each later stage
    concatenates the two previous paths in opposite orders:
    rho_n = rho_{n-1} * sigma_{n-1} and sigma_n = sigma_{n-1} * rho_{n-1}.
    The two paths at stage n share all signature levels up to n while their
    level n+1 differs.
    """
    if n < 1:
        raise ValueError(f"stage must be at least 1, got {n}")
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
    1-variation metric on reduced paths.
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
    try:
        dim = int(data["dim"])
        segments = data["segments"]
    except (KeyError, TypeError, ValueError) as err:
        raise PathFormatError(f"malformed path record: {err}") from None
    return PiecewiseLinearPath(dim, np.array(segments, dtype=float).reshape(-1, dim))
