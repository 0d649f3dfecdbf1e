"""Shared corpus builders and independent oracles for the test suite."""

import numpy as np

from sigpath import LinearVectorField, PiecewiseLinearPath, GroupTensor


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


def reference_mul(x, y):
    """Truncated product of two level lists, one outer product at a time."""
    depth = len(x) - 1
    out = [np.zeros(a.size) for a in x]
    for i in range(depth + 1):
        for j in range(depth + 1 - i):
            out[i + j] = out[i + j] + np.multiply.outer(x[i], y[j]).reshape(-1)
    return out


def reference_signature(segments, depth):
    """Loop reference for the batched kernel: per-segment exponentials
    multiplied pairwise (balanced tree), one product at a time."""
    d = segments.shape[1]
    factors = []
    for v in segments:
        levels = [np.ones(1)]
        for n in range(1, depth + 1):
            levels.append(np.multiply.outer(levels[-1], v).reshape(-1) / n)
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
