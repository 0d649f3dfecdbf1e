"""Truncated signatures of piecewise-linear paths.

The signature of a single segment with displacement v is the exponential
exp(v): level n holds v tensor ... tensor v divided by n factorial.  The
signature of a concatenation is the tensor product of the signatures, so a
piecewise-linear path is handled by multiplying its segment exponentials in
order.  Both facts are exact in the truncated algebra, no quadrature is
involved.

One kernel does the float work for signature, exp_segment and the
regression features: it runs on plain per-level arrays with a batch axis,
forms every segment exponential in one pass and folds them in a balanced
tree, one vectorised product per round.  Its output is bit-identical to
folding the same pairs one product at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as _words

import numpy as np

from .path_core import PiecewiseLinearPath
from .tensor_algebra import (
    GroupTensor,
    TruncatedTensor,
    _mul_levels,
    log,
    shuffle_pairing,
    unit,
)

__all__ = [
    "exp_segment",
    "signature",
    "log_signature",
    "exact_signature",
    "GroupLikeReport",
    "check_group_like",
]


# Coefficients the batched kernel may hold at once (2**25 float64 values,
# 256 MiB), checked before anything is allocated.
_MAX_COEFFICIENTS = 2**25


def _signature_levels(segments, depth: int) -> list:
    """Signatures of a batch of paths as plain level arrays.

    segments has shape (N, m, d): N paths of m segments each.  Returns one
    array of shape (N, d**k) per level k = 0..depth.  All N*m segment
    exponentials are formed in one pass, then multiplied in a balanced
    tree: at each round the pairs (0, 1), (2, 3), ... go through one
    batched product and an odd last factor carries over.  Every product
    runs the same arithmetic in the same order as a pairwise fold of single
    paths, so the result does not depend on the batch.  Finiteness is
    checked once, on the result.
    """
    if depth < 0:
        raise ValueError(f"depth must be nonnegative, got {depth}")
    n, m, d = segments.shape
    coefficients = n * max(m, 1) * sum(d**k for k in range(depth + 1))
    if coefficients > _MAX_COEFFICIENTS:
        raise ValueError(
            f"depth {depth} over {n} x {m} segments of dimension {d} needs "
            f"{coefficients} coefficients, above the limit of {_MAX_COEFFICIENTS}"
        )
    if m == 0:
        # the exponential of a zero segment is exactly the unit
        segments = np.zeros((n, 1, d))
    with np.errstate(over="ignore", invalid="ignore"):
        levels = [np.ones(segments.shape[:2] + (1,))]
        for k in range(1, depth + 1):
            outer = levels[-1][..., :, None] * segments[..., None, :]
            levels.append(outer.reshape(segments.shape[:2] + (d**k,)) / k)
        while levels[0].shape[1] > 1:
            count = levels[0].shape[1]
            paired = _mul_levels(
                [lvl[:, 0 : count - 1 : 2] for lvl in levels],
                [lvl[:, 1:count:2] for lvl in levels],
            )
            if count % 2:
                paired = [
                    np.concatenate([p, lvl[:, -1:]], axis=1)
                    for p, lvl in zip(paired, levels)
                ]
            levels = paired
    levels = [lvl[:, 0] for lvl in levels]
    for k, lvl in enumerate(levels):
        if not np.all(np.isfinite(lvl)):
            raise FloatingPointError(f"signature level {k} overflowed to non-finite values")
    return levels


def exp_segment(v, depth: int) -> GroupTensor:
    """Signature of the straight segment v truncated at `depth`."""
    v = np.asarray(v, dtype=float).reshape(-1)
    if not np.all(np.isfinite(v)):
        raise ValueError("segment contains non-finite entries")
    levels = _signature_levels(v.reshape(1, 1, -1), depth)
    return GroupTensor(v.size, depth, [lvl[0] for lvl in levels])


def signature(path: PiecewiseLinearPath, depth: int) -> GroupTensor:
    """Truncated signature: ordered product of segment exponentials.

    The product is folded pairwise (balanced tree) rather than left to
    right, so roundoff grows with the logarithm of the segment count.  The
    fold runs vectorised over each round of the tree and gives the same
    bits as multiplying the pairs one at a time.  On a 128-segment path
    with steps in multiples of 1/16, every level at depth 6 stays within
    1e-13 of exact_signature, relative to the level's largest coefficient.
    """
    levels = _signature_levels(path.segments[None], depth)
    return GroupTensor(path.dim, depth, [lvl[0] for lvl in levels])


def log_signature(path: PiecewiseLinearPath, depth: int) -> TruncatedTensor:
    """Truncated logarithm of the signature."""
    return log(signature(path, depth))


def _exact_exp_segment(v, depth: int):
    v = [Fraction(float(c)) for c in v]
    levels = [[Fraction(1)]]
    for n in range(1, depth + 1):
        inv = Fraction(1, n)
        levels.append([a * c * inv for a in levels[-1] for c in v])
    return levels


def _exact_mul(x, y, dim: int, depth: int):
    out = []
    for k in range(depth + 1):
        size = dim**k
        level = [Fraction(0)] * size
        for j in range(k + 1):
            block = dim ** (k - j)
            yj = y[k - j]
            for u, xu in enumerate(x[j]):
                if not xu:
                    continue
                base = u * block
                for w, yw in enumerate(yj):
                    level[base + w] += xu * yw
        out.append(level)
    return out


def exact_signature(path: PiecewiseLinearPath, depth: int) -> GroupTensor:
    """Signature via exact rational arithmetic, rounded once at the end.

    Segment coordinates are taken at their exact binary values, so for
    integer-step paths the cancellations that define the witness loop
    families come out as literal zeros instead of 1e-12-scale float noise.
    Cost grows quickly with dim and depth; meant for small witness paths.
    """
    if depth < 0:
        raise ValueError(f"depth must be nonnegative, got {depth}")
    if path.dim**depth > 5000:
        raise ValueError("exact arithmetic is limited to small dim**depth")
    factors = [_exact_exp_segment(v, depth) for v in path.segments]
    if not factors:
        return unit(path.dim, depth)
    while len(factors) > 1:
        paired = [
            _exact_mul(factors[i], factors[i + 1], path.dim, depth)
            for i in range(0, len(factors) - 1, 2)
        ]
        if len(factors) % 2:
            paired.append(factors[-1])
        factors = paired
    levels = [np.array([float(c) for c in lvl]) for lvl in factors[0]]
    return GroupTensor(path.dim, depth, levels)


@dataclass(frozen=True)
class GroupLikeReport:
    passed: bool
    max_discrepancy: float
    tolerance: float
    pairs_checked: int
    worst_pair: tuple


def check_group_like(
    x: TruncatedTensor,
    sample: int = 200,
    tolerance: float = 1e-9,
    seed: int = 0,
) -> GroupLikeReport:
    """Operational group-likeness test through the shuffle relations.

    Checks <x, u shuffle w> = <x, u> <x, w> on every word pair with combined
    length at most min(depth, 4), plus `sample` random pairs of combined
    length up to the depth.  A genuine signature passes at tolerance; a
    perturbed tensor fails.
    """
    if x.scalar != 1.0:
        raise ValueError("group-likeness requires level-0 coefficient exactly 1")
    letters = range(1, x.dim + 1)
    pairs = []
    cap = min(x.depth, 4)
    for lu in range(1, cap):
        for lw in range(1, cap - lu + 1):
            for u in _words(letters, repeat=lu):
                for w in _words(letters, repeat=lw):
                    pairs.append((u, w))
    if x.depth >= 2 and sample > 0:
        rng = np.random.default_rng(seed)
        for _ in range(sample):
            lu = int(rng.integers(1, x.depth))
            lw = int(rng.integers(1, x.depth - lu + 1))
            u = tuple(int(a) for a in rng.integers(1, x.dim + 1, size=lu))
            w = tuple(int(a) for a in rng.integers(1, x.dim + 1, size=lw))
            pairs.append((u, w))
    worst = 0.0
    worst_pair: tuple = ((), ())
    for u, w in pairs:
        lhs, rhs = shuffle_pairing(x, u, w)
        gap = abs(lhs - rhs)
        if gap > worst:
            worst = gap
            worst_pair = (u, w)
    return GroupLikeReport(
        passed=worst <= tolerance,
        max_discrepancy=worst,
        tolerance=tolerance,
        pairs_checked=len(pairs),
        worst_pair=worst_pair,
    )
