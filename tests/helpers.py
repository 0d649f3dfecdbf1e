"""Shared corpus builders and independent oracles for the test suite."""

import itertools
import json
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

from sigpath import LinearVectorField, PiecewiseLinearPath, GroupTensor
from sigpath import TruncatedTensor, add, mul, scale, shuffle_pairing, signature, sub, unit
from sigpath.ito_solver import _flow_end_states, word_coefficients
from sigpath.sig_regression import RegressionDataset
from sigpath.signature_engine import _CHUNK, _signature_levels
from sigpath.path_core import COLLINEAR_TOL, PathFormatError


def random_path(rng, dim=None, max_segments=6, scale=0.5):
    d = int(rng.integers(1, 4)) if dim is None else dim
    m = int(rng.integers(1, max_segments + 1))
    return PiecewiseLinearPath(d, rng.normal(size=(m, d)) * scale)


def random_affine_system(rng, low=0.8, high=2.0):
    """Random affine field, path, and start point with C * length in [low, high].

    The growth constant scales linearly with the field, so one rescale pins
    the product exactly.
    """
    d = int(rng.integers(1, 4))
    w = int(rng.integers(1, 4))
    A = rng.normal(size=(d, w, w))
    b = rng.normal(size=(d, w)) if rng.random() < 0.6 else np.zeros((d, w))
    nseg = int(rng.integers(1, 5))
    path = PiecewiseLinearPath(d, rng.normal(size=(nseg, d)) * 0.7)
    base = LinearVectorField(matrices=A, offsets=b)
    s = rng.uniform(low, high) / (base.growth_constant * path.length)
    field = LinearVectorField(matrices=s * A, offsets=s * b)
    y0 = rng.uniform(-1.0, 1.0, size=w)
    return field, path, y0


def _rk4_transition(M, c, h):
    # One classical RK4 step for y' = M y + c is the affine map
    #   y -> R y + r,  R = sum_{i<=4} (hM)^i/i!,  r = h sum_{i<=3} (hM)^i/(i+1)! c
    eye = np.eye(M.shape[0])
    P = h * M
    R = eye + P @ (eye + P @ (eye / 2 + P @ (eye / 6 + P / 24)))
    r = h * ((eye + P @ (eye / 2 + P @ (eye / 6 + P / 24))) @ c)
    return R, r


def _fixed_step_solve(field, path, y0, steps):
    y = y0
    for v in path.segments:
        M = np.einsum("j,jab->ab", v, field.matrices)
        R, r = _rk4_transition(M, v @ field.offsets, 1.0 / steps)
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


def reference_rk4_oracle(field, path, y0, refine_tol=1e-10):
    """Independent integrator for the controlled ODE: fixed-step RK4 on
    every segment, doubling the steps (8 up to 65536 per segment) until two
    successive refinements agree to refine_tol relative to max(1, |y|)."""
    y0 = np.asarray(y0, dtype=float)
    prev = None
    for steps in (8 * 2**i for i in range(14)):
        y = _fixed_step_solve(field, path, y0, steps)
        if prev is not None and np.linalg.norm(y - prev) <= refine_tol * max(
            1.0, float(np.linalg.norm(y))
        ):
            return y
        prev = y
    raise RuntimeError(f"RK4 reference did not stabilise to {refine_tol}")


def mixed_path_corpus(rng, count, max_dim=5, max_segments=40):
    """Paths that exercise every branch of reduce: Gaussian steps, quarter
    steps full of zeros, runs of collinear and mirrored segments, inserted
    excursions, and axis runs of +-0.1/0.2/0.3 whose sums leave rounding
    residue.  Empty, one-segment and d = 1 paths come up along the way."""
    paths = []
    for i in range(count):
        d = int(rng.integers(1, max_dim + 1))
        m = int(rng.integers(0, max_segments + 1))
        kind = i % 5
        if kind == 0:
            segs = rng.normal(size=(m, d))
        elif kind == 1:
            segs = rng.integers(-4, 5, size=(m, d)) / 4.0
        elif kind == 2:
            segs = [
                v * float(rng.choice([-2.0, -1.0, 0.5, 1.0, 3.0]))
                for v in rng.normal(size=(max(m // 3, 1), d))
                for _ in range(int(rng.integers(1, 4)))
            ]
        elif kind == 3:
            segs = list(rng.normal(size=(m, d)))
            for _ in range(int(rng.integers(0, 6))):
                pos = int(rng.integers(0, len(segs) + 1))
                v = rng.normal(size=d)
                segs[pos:pos] = [v, -v] if rng.random() < 0.7 else [v, 2 * v, -3 * v]
        else:
            axis = np.eye(d)[int(rng.integers(0, d))]
            segs = []
            for _ in range(m):
                segs.append(axis * float(rng.choice([0.1, 0.2, 0.3, -0.1, -0.2, -0.3])))
                if rng.random() < 0.3:
                    segs.append(rng.normal(size=d))
        paths.append(PiecewiseLinearPath(d, np.array(segs, dtype=float).reshape(-1, d)))
    return paths


def rotated_orthogonal_path(rng, d, m):
    """m segments along the columns of a random rotation, no two neighbours
    on the same axis, with random lengths and signs."""
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    axes = [int(rng.integers(0, d))]
    for _ in range(m - 1):
        axes.append((axes[-1] + int(rng.integers(1, d))) % d)
    lengths = rng.uniform(0.2, 2.0, size=m) * rng.choice([-1.0, 1.0], size=m)
    return PiecewiseLinearPath(d, q[:, axes].T * lengths[:, None])


def resplit(path, rng, max_pieces=3):
    """Same trajectory, segments subdivided at random interior cut points."""
    segs = []
    for v in path.segments:
        pieces = int(rng.integers(1, max_pieces + 1))
        cuts = np.concatenate([[0.0], np.sort(rng.uniform(0, 1, size=pieces - 1)), [1.0]])
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            segs.append(v * (hi - lo))
    return PiecewiseLinearPath(path.dim, np.array(segs).reshape(len(segs), path.dim))


def _shift(levels, v):
    # right tensor-multiply by the vector v: level k feeds level k+1
    out = [np.zeros_like(lvl) for lvl in levels]
    for k in range(1, len(levels)):
        out[k] = np.multiply.outer(levels[k - 1], v).reshape(-1)
    return out


def quadrature_signature(path, depth, steps_per_segment=64):
    """Independent signature oracle: RK4 on dS = S tensor dgamma.

    Shares no code with the Chen-product construction.  Fourth-order in the
    step, so 64 steps per segment lands well below 1e-8 for unit-scale
    segments at depth <= 5.
    """
    d = path.dim
    levels = [np.zeros(d**k) for k in range(depth + 1)]
    levels[0][0] = 1.0
    for v in path.segments:
        h = 1.0 / steps_per_segment
        for _ in range(steps_per_segment):
            k1 = _shift(levels, v)
            k2 = _shift([a + 0.5 * h * b for a, b in zip(levels, k1)], v)
            k3 = _shift([a + 0.5 * h * b for a, b in zip(levels, k2)], v)
            k4 = _shift([a + h * b for a, b in zip(levels, k3)], v)
            levels = [
                a + (h / 6.0) * (b1 + 2 * b2 + 2 * b3 + b4)
                for a, b1, b2, b3, b4 in zip(levels, k1, k2, k3, k4)
            ]
    return GroupTensor(d, depth, levels)


def max_coeff_gap(x, y):
    return max(
        float(np.max(np.abs(a - b))) for a, b in zip(x.levels, y.levels)
    )


def reference_product_metric(x, y):
    """sum_k 2**-k min(1, ||x_k - y_k||), one np.linalg.norm per level."""
    total = 0.0
    for k in range(x.depth + 1):
        total += 0.5**k * min(1.0, float(np.linalg.norm(x.levels[k] - y.levels[k])))
    return total


def reference_mul(x, y):
    """Truncated product of two level lists, one outer product at a time."""
    depth = len(x) - 1
    out = [np.zeros(a.size) for a in x]
    for i in range(depth + 1):
        for j in range(depth + 1 - i):
            out[i + j] = out[i + j] + np.multiply.outer(x[i], y[j]).reshape(-1)
    return out


def reference_signature(segments, depth):
    """Loop reference for the batched kernel: each chunk of _CHUNK segments
    starts as its first segment's exponential and takes every later one in
    by Horner steps, U = v/k, U = (U + S_j) (x) v/(k-j) for j = 1..k-1, new
    S_k = U + S_k, one np.multiply.outer at a time; the chunk signatures
    are then multiplied pairwise (balanced tree), one product at a time."""
    d = segments.shape[1]
    factors = []
    for start in range(0, len(segments), _CHUNK):
        chunk = segments[start : start + _CHUNK]
        levels = [np.ones(1)]
        for n in range(1, depth + 1):
            levels.append(np.multiply.outer(levels[-1], chunk[0]).reshape(-1) / n)
        for v in chunk[1:]:
            stepped = [levels[0]]
            for k in range(1, depth + 1):
                u = v / k
                for j in range(1, k):
                    u = np.multiply.outer(u + levels[j], v / (k - j)).reshape(-1)
                stepped.append(u + levels[k])
            levels = stepped
        factors.append(levels)
    if not factors:
        return [np.ones(1)] + [np.zeros(d**k) for k in range(1, depth + 1)]
    while len(factors) > 1:
        paired = [
            reference_mul(factors[i], factors[i + 1])
            for i in range(0, len(factors) - 1, 2)
        ]
        if len(factors) % 2:
            paired.append(factors[-1])
        factors = paired
    return factors[0]


def same_bits(xs, ys):
    """Level lists hold the same doubles, signed zeros included."""
    return len(xs) == len(ys) and all(
        a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(xs, ys)
    )


def _fraction_exp_segment(v, depth):
    v = [Fraction(float(c)) for c in v]
    levels = [[Fraction(1)]]
    for n in range(1, depth + 1):
        inv = Fraction(1, n)
        levels.append([a * c * inv for a in levels[-1] for c in v])
    return levels


def _fraction_mul(x, y, dim, depth):
    out = []
    for k in range(depth + 1):
        level = [Fraction(0)] * dim**k
        for j in range(k + 1):
            block = dim ** (k - j)
            for u, xu in enumerate(x[j]):
                if not xu:
                    continue
                base = u * block
                for w, yw in enumerate(y[k - j]):
                    level[base + w] += xu * yw
        out.append(level)
    return out


def reference_exact_signature(path, depth):
    """Rational reference for exact_signature: Fraction segment exponentials
    multiplied pairwise (balanced tree), each coefficient rounded once."""
    factors = [_fraction_exp_segment(v, depth) for v in path.segments]
    if not factors:
        return [np.ones(1)] + [np.zeros(path.dim**k) for k in range(1, depth + 1)]
    while len(factors) > 1:
        paired = [
            _fraction_mul(factors[i], factors[i + 1], path.dim, depth)
            for i in range(0, len(factors) - 1, 2)
        ]
        if len(factors) % 2:
            paired.append(factors[-1])
        factors = paired
    return [np.array([float(c) for c in lvl]) for lvl in factors[0]]


def reference_read_csv(text):
    """Line-by-line reference for read_csv: (dim, segments), or raises
    PathFormatError at the first malformed line, each row converted and
    checked for finiteness as it is read."""
    dim, rows = None, []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if dim is None:
                m = re.fullmatch(r"#\s*dim\s*=\s*(\d+)\s*", line)
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
            raise PathFormatError(f"line {lineno}: expected {dim} components, got {len(parts)}")
        try:
            row = [float(p) for p in parts]
        except ValueError:
            raise PathFormatError(f"line {lineno}: non-numeric component") from None
        if not all(math.isfinite(c) for c in row):
            raise PathFormatError(f"line {lineno}: non-finite component")
        rows.append(row)
    if dim is None:
        raise PathFormatError("missing '# dim=<d>' header")
    return dim, np.array(rows, dtype=float).reshape(len(rows), dim)


def reference_reduce(a, tol=COLLINEAR_TOL):
    """Loop reference for reduce: one numpy call per segment and per pair."""
    stack = []
    for v in a.segments:
        if np.linalg.norm(v) == 0.0:
            continue
        if stack and np.array_equal(stack[-1], -v):
            stack.pop()
        else:
            stack.append(v)
    out = []
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
    return PiecewiseLinearPath(a.dim, segs)


def _reference_grid_times(a):
    lens = a.segment_lengths
    mask = lens > 0.0
    if not mask.any():
        return np.array([0.0, 1.0])
    cum = np.cumsum(lens[mask])
    return np.concatenate([[0.0], cum / cum[-1]])


def reference_positions_at(a, ts):
    """Positions at the times ts, one np.interp per coordinate through the
    vertices of a's nonzero segments at their constant-speed times."""
    segs = a.segments[a.segment_lengths > 0.0]
    pts = np.zeros((max(len(segs), 1) + 1, a.dim))
    np.cumsum(segs, axis=0, out=pts[1 : len(segs) + 1])
    times = _reference_grid_times(a)
    return np.column_stack([np.interp(ts, times, pts[:, j]) for j in range(a.dim)])


def _reference_difference(a, b):
    times = np.union1d(_reference_grid_times(a), _reference_grid_times(b))
    return reference_positions_at(a, times) - reference_positions_at(b, times)


def reference_one_variation_distance(a, b):
    steps = np.diff(_reference_difference(a, b), axis=0)
    return float(np.sum(np.linalg.norm(steps, axis=1)))


def reference_sup_distance(a, b):
    return float(np.max(np.linalg.norm(_reference_difference(a, b), axis=1)))


def reference_difference_path(a, b):
    return PiecewiseLinearPath(a.dim, np.diff(_reference_difference(a, b), axis=0))


def reference_p_variation(a, p):
    """Quadratic DP over the vertices, one row of candidates per vertex."""
    pts = a.points
    m = len(pts) - 1
    if m == 0:
        return 0.0
    best = np.zeros(m + 1)
    for j in range(1, m + 1):
        dist = np.linalg.norm(pts[:j] - pts[j], axis=1)
        best[j] = np.max(best[:j] + dist**p)
    return float(best[m] ** (1.0 / p))


def reference_blocked_p_variation(a, p):
    """Unpruned blocked reference for p_variation, which must give its
    bits: every candidate of a block of B = max(1, 2**17 // (m + 1))
    vertices as one (B, i) array of costs, squares summed in coordinate
    order, and the block's own recurrence one numpy call per vertex."""
    p = float(p)
    m = a.segment_count
    if m == 0:
        return 0.0
    coords = np.ascontiguousarray(a.points.T)
    e = int(np.frexp(np.abs(coords).max())[1])
    e = e if max(p, 2.0) * abs(e) > 500 else 0
    coords = np.ldexp(coords, -e)
    best = np.zeros(m + 1)
    block = max(1, 2**17 // (m + 1))
    for lo in range(1, m + 1, block):
        hi = min(lo + block, m + 1)
        steps = (x[:hi] - x[lo:hi, None] for x in coords)
        cost = next(steps) ** 2
        for step in steps:
            cost += step**2
        np.sqrt(cost, out=cost)
        cost **= p
        earlier = (best[:lo] + cost[:, :lo]).max(axis=1)
        best[lo] = earlier[0]
        for j in range(lo + 1, hi):
            best[j] = max(earlier[j - lo], (best[lo:j] + cost[j - lo, lo:j]).max())
    return float(np.ldexp(best[m] ** (1.0 / p), e))


def reference_exp(x):
    """Exponential series on TruncatedTensor values, one validated tensor per step."""
    one = TruncatedTensor(x.dim, x.depth, unit(x.dim, x.depth).levels)
    acc = one
    for n in range(x.depth, 0, -1):
        acc = add(one, scale(mul(x, acc), 1.0 / n))
    return acc


def reference_log(x):
    """Logarithm series on TruncatedTensor values, one validated tensor per step."""
    one = TruncatedTensor(x.dim, x.depth, unit(x.dim, x.depth).levels)
    z = sub(x, one)
    acc = z
    p = z
    for n in range(2, x.depth + 1):
        p = mul(p, z)
        acc = add(acc, scale(p, (-1.0) ** (n + 1) / n))
    return acc


def reference_inverse_psi(x):
    """Geometric-series inverse on TruncatedTensor values, one validated tensor per step."""
    one = TruncatedTensor(x.dim, x.depth, unit(x.dim, x.depth).levels)
    z = sub(one, x)
    acc = one
    p = one
    for _ in range(x.depth):
        p = mul(p, z)
        acc = add(acc, p)
    return acc


def reference_shuffle_words(u, w):
    """u shuffle w by listing every interleaving: each choice of the slots
    that u's letters take among len(u) + len(w) gives one word."""
    n = len(u) + len(w)
    out = {}
    for slots in itertools.combinations(range(n), len(u)):
        from_u, from_w = iter(u), iter(w)
        word = tuple(next(from_u) if k in slots else next(from_w) for k in range(n))
        out[word] = out.get(word, 0) + 1
    return out


def reference_pairs(dim, depth, sample=200, seed=0):
    """Word pairs for the shuffle relations, drawn one scalar rng call at a
    time: every pair of combined length at most min(depth, 4) in word order,
    then `sample` pairs with |u| uniform on 1..depth-1, |w| uniform on
    1..depth-|u| and uniform letters."""
    letters = range(1, dim + 1)
    pairs = []
    cap = min(depth, 4)
    for lu in range(1, cap):
        for lw in range(1, cap - lu + 1):
            for u in itertools.product(letters, repeat=lu):
                for w in itertools.product(letters, repeat=lw):
                    pairs.append((u, w))
    if depth >= 2 and sample > 0:
        rng = np.random.default_rng(seed)
        for _ in range(sample):
            lu = int(rng.integers(1, depth))
            lw = int(rng.integers(1, depth - lu + 1))
            u = tuple(int(a) for a in rng.integers(1, dim + 1, size=lu))
            w = tuple(int(a) for a in rng.integers(1, dim + 1, size=lw))
            pairs.append((u, w))
    return pairs


def reference_check_group_like(x, sample=200, tolerance=1e-9, seed=0, pairs=None):
    """Per-pair loop for the shuffle relations: shuffle_pairing on one pair
    at a time, over `pairs` or else reference_pairs.  Returns (passed,
    max_discrepancy, pairs_checked, worst_pair) with the first pair of the
    largest gap."""
    if x.scalar != 1.0:
        raise ValueError("group-likeness requires level-0 coefficient exactly 1")
    if pairs is None:
        pairs = reference_pairs(x.dim, x.depth, sample, seed)
    worst = 0.0
    worst_pair = ((), ())
    for u, w in pairs:
        lhs, rhs = shuffle_pairing(x, u, w)
        gap = abs(lhs - rhs)
        if gap > worst:
            worst = gap
            worst_pair = (u, w)
    return worst <= tolerance, worst, len(pairs), worst_pair


def reference_right_bracketing(coeffs, dim, k):
    """r(P) = sum_w P_w [..[w1, w2], .., wk], expanded word by word."""
    out = np.zeros(dim**k)
    for flat, word in enumerate(itertools.product(range(dim), repeat=k)):
        terms = {word[:1]: 1}
        for letter in word[1:]:
            nxt = {}
            for t, c in terms.items():
                nxt[t + (letter,)] = nxt.get(t + (letter,), 0) + c
                nxt[(letter,) + t] = nxt.get((letter,) + t, 0) - c
            terms = nxt
        for t, c in terms.items():
            out[sum(a * dim ** (k - 1 - i) for i, a in enumerate(t))] += c * coeffs[flat]
    return out


def reference_sign_dots(pfrac):
    """<eps, pfrac> for all 2**m sign vectors in one (2**m, m) array, as
    length_lower_bound once enumerated them for P(all counts even)."""
    m = len(pfrac)
    ints = np.arange(2**m)
    signs = (((ints[:, None] >> np.arange(m)) & 1) * 2 - 1).astype(np.int8)
    return signs @ pfrac


def traced_peak_bytes(fn, *args, **kwargs):
    """Peak bytes that numpy and Python allocate while fn(*args) runs."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def reference_series_value(field, path, y0, truncation):
    """The signature series summed level by level from word_coefficients:
    sum_k S_k @ c_k, the k = 0 term first."""
    levels = signature(path, truncation).levels
    coeffs = word_coefficients(field, y0, truncation)
    acc = levels[0] @ coeffs[0]
    for k in range(1, truncation + 1):
        acc = acc + levels[k] @ coeffs[k]
    return acc


def reference_flow_end_states(segments, field, y0):
    """Exact end states of N paths of m segments, shape (N, m, d), as
    _flow_end_states defines them, composed one scipy.linalg.expm of
    [[A(v), b(v)], [0, 0]] at a time."""
    w = field.state_dim
    rows = []
    for path in segments:
        z = np.append(y0, 1.0)
        for v in path:
            aug = np.zeros((w + 1, w + 1))
            aug[:w, :w] = np.einsum("j,jab->ab", v, field.matrices)
            aug[:w, w] = v @ field.offsets
            z = expm(aug) @ z
        rows.append(z[:w])
    return np.array(rows)


def reference_generate_dataset(field, y0, n_paths, segment_count, r, noise_scale, seed, depth=4):
    """Per-path loop for generate_dataset: each path drawn, normalised,
    scaled and validated on its own, then the validated segments stacked
    for the batched signature and exact flow."""
    rng = np.random.default_rng(seed)
    paths = []
    for _ in range(n_paths):
        dirs = rng.normal(size=(segment_count, field.input_dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        lengths = rng.random(segment_count)
        lengths *= r * rng.uniform(0.25, 1.0) / lengths.sum()
        paths.append(PiecewiseLinearPath(field.input_dim, dirs * lengths[:, None]))
    segments = np.stack([p.segments for p in paths])
    features = np.concatenate(_signature_levels(segments, depth), axis=1)
    responses = _flow_end_states(segments, field, np.asarray(y0, dtype=float))
    if noise_scale > 0:
        responses = responses + noise_scale * rng.standard_normal(responses.shape)
    return RegressionDataset(
        segments=segments,
        features=features,
        responses=responses,
        depth=depth,
        noise_scale=float(noise_scale),
        seed=seed,
    )


# Bad values for a record's integer keys, as JSON text: 1e400 reads as
# float infinity, the 400-digit integer is beyond float range.
BIG_INT = "9" * 400
BAD_INTEGERS = ("1e400", BIG_INT, "2.5", "true", '"2"')
# JSON texts that are no object at all
NOT_OBJECTS = ("[1, 2]", "null", "3", '"record"')


def with_value(record, key, text):
    """JSON text of record with key set to the raw JSON text given."""
    return json.dumps({**record, key: "@"}).replace('"@"', text)


# Bad entries for a record's number arrays, as JSON text: a number beyond
# float range, a string and a boolean
BAD_ENTRIES = (BIG_INT, '"2"', "true")


def with_entry(record, where, text):
    """JSON text of record with the first number of the array at the key
    path `where` replaced by the raw JSON text given."""
    doc = json.loads(json.dumps(record))
    node = doc
    for step in where:
        node = node[step]
    while isinstance(node[0], list):
        node = node[0]
    node[0] = "@"
    return json.dumps(doc).replace('"@"', text)


def bad_value_params(record, key, bads=BAD_INTEGERS):
    """pytest params: record with key set to each raw JSON text in bads."""
    return [
        pytest.param(with_value(record, key, bad), id=f"{key}={'400-digit' if bad == BIG_INT else bad}")
        for bad in bads
    ]


def malformed_record_params(record, int_keys, arrays):
    """One JSON text per defect, as pytest params: each integer key given
    each of BAD_INTEGERS, each of BAD_ENTRIES in each array, and every
    NOT_OBJECTS text in place of the record."""
    params = [param for key in int_keys for param in bad_value_params(record, key)]
    params += [
        pytest.param(
            with_entry(record, where, bad),
            id=f"{'400-digit' if bad == BIG_INT else bad}-in-{'/'.join(map(str, where))}",
        )
        for where in arrays
        for bad in BAD_ENTRIES
    ]
    return params + [pytest.param(text, id=f"record={text}") for text in NOT_OBJECTS]
