"""Experiments separating three topologies on unparameterised paths.

The three candidates compared here are the levelwise (product) topology on
signatures, the quotient of the 1-variation topology under tree-like
equivalence, and the 1-variation metric between constant-speed reduced
representatives:

    metric_d(a, b) = || a* - b* ||_1-var

with a*, b* the constant-speed parameterisations of reduce(a), reduce(b).

Each experiment returns an ExperimentReport whose verdict is a pure
function of the emitted series, so a stored report can be re-audited
without re-running anything (recheck_verdict).  Random seeds only enter
the Monte Carlo series of the length lower-bound experiment; every other
series is deterministic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .path_core import (
    PiecewiseLinearPath,
    _check_dim,
    _distances,
    _reduced_rows,
    constant_path,
    gamma_loop,
    reduce,
)
from .signature_engine import _dyadic, _signature_levels, exact_signature, feature_count, signature
from .tensor_algebra import (
    _BLOCK_COEFFICIENTS,
    _MALFORMED,
    _MAX_COEFFICIENTS,
    _count,
    _in_range,
    _json_bool,
    _json_str,
    _product_metric,
    _real,
    phi_contraction,
    product_metric,
    unit,
)

__all__ = [
    "ExperimentReport",
    "metric_d",
    "ball_br_membership",
    "experiment_product_vs_metric",
    "experiment_quotient_vs_metric",
    "experiment_incompleteness",
    "experiment_group_discontinuity",
    "length_lower_bound",
    "recheck_verdict",
    "EXPERIMENT_NAMES",
]

_EXACT_SLACK = 1e-12
_MC_SLACK = 1e-9


def _one_value_per_index(report):
    # the report's series, which stay lists that can be appended to after
    # construction, each hold one value per index
    if any(len(vals) != len(report.indices) for vals in report.series.values()):
        raise ValueError("every report series must hold one value per index")
    return report.series


@dataclass(frozen=True)
class ExperimentReport:
    """Named numeric series over an index list, with a re-checkable verdict."""

    name: str
    indices: list
    series: dict
    verdict: bool
    seed: int | None = None

    def __post_init__(self):
        # built or decoded, a report holds only what from_dict accepts; its
        # series values are left to serialisation, which reports a computed
        # non-finite value as a numerical failure
        _json_str("report key 'name'", self.name)
        _json_bool("report key 'verdict'", self.verdict)
        object.__setattr__(self, "indices", [_count("report index", i, 1) for i in self.indices])
        object.__setattr__(self, "seed", None if self.seed is None else _count("seed", self.seed, 0))
        _one_value_per_index(self)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "indices": list(self.indices),
            "series": {k: [float(v) for v in vals] for k, vals in _one_value_per_index(self).items()},
            "verdict": self.verdict,
            "seed": self.seed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), allow_nan=False, sort_keys=True, indent=2)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentReport":
        try:
            if not isinstance(data["indices"], list):
                raise ValueError(f"report key 'indices' must be a list, got {data['indices']!r}")
            return cls(
                name=data["name"],
                indices=data["indices"],
                series={
                    k: [_real(f"report series {k!r}", v) for v in vals]
                    for k, vals in data["series"].items()
                },
                verdict=data["verdict"],
                seed=data.get("seed"),
            )
        except (ValueError, *_MALFORMED) as exc:
            raise ValueError(f"malformed experiment report: {exc}") from None

    @classmethod
    def from_json(cls, text: str) -> "ExperimentReport":
        return cls.from_dict(json.loads(text))

    def render_text(self) -> str:
        labels = list(self.series)
        width = max([5] + [len(lbl) for lbl in labels]) + 2
        lines = [f"experiment: {self.name}  (seed {self.seed})"]
        lines.append("index".rjust(7) + "".join(lbl.rjust(width) for lbl in labels))
        for row, idx in enumerate(self.indices):
            cells = "".join(f"{self.series[lbl][row]:.6g}".rjust(width) for lbl in labels)
            lines.append(f"{idx}".rjust(7) + cells)
        lines.append(f"verdict: {'PASS' if self.verdict else 'FAIL'}")
        return "\n".join(lines)


def metric_d(a: PiecewiseLinearPath, b: PiecewiseLinearPath) -> float:
    """1-variation distance between constant-speed reduced representatives.

    A segment list is its own constant-speed representative.  Zero exactly
    when the two paths reduce to the same segment list, which is how
    tree-like insertions are quotiented away.

    Validation happens once, on a and b.  The reduced representatives stay
    rows (path_core's cores of reduce and one_variation_distance, with the
    same bits) and are never built as paths.
    """
    _check_dim(a, b)
    stacks = [np.reshape(_reduced_rows(p.segments), (1, -1, a.dim)) for p in (a, b)]
    return float(_distances(*stacks)[0])


def ball_br_membership(a: PiecewiseLinearPath, r: float) -> bool:
    """Whether the reduced representative has length at most r (no slack)."""
    return reduce(a).length <= _real("radius", r, "positive")


# ---------------------------------------------------------------------------
# verdict re-checks: pure functions of (indices, series)

def _strictly_decreasing(xs) -> bool:
    return all(b < a for a, b in zip(xs, xs[1:]))


def _nonincreasing(xs) -> bool:
    return all(b <= a + 1e-15 for a, b in zip(xs, xs[1:]))


def _nondecreasing(xs) -> bool:
    return all(b >= a - _MC_SLACK for a, b in zip(xs, xs[1:]))


def _check_product_vs_metric(indices, series) -> bool:
    pm = series["product_metric_to_unit"]
    dm = series["metric_d_to_origin"]
    low = series["max_low_level_coeff"]
    ok = all(v <= _EXACT_SLACK for v in low)
    ok = ok and _strictly_decreasing(pm)
    ok = ok and all(dm[row] == 2.0 ** (k + 1) for row, k in enumerate(indices))
    return ok


def _check_quotient_vs_metric(indices, series) -> bool:
    eps = series["epsilon"]
    var = series["variation_distance"]
    dm = series["metric_d"]
    ok = all(v <= 6.0 * e for v, e in zip(var, eps))
    for d, e in zip(dm, eps):
        if e == 0.0:
            ok = ok and d == 0.0
        else:
            ok = ok and abs(d - (2.0 + 2.0 * e)) <= _EXACT_SLACK and d >= 2.0 - _EXACT_SLACK
    return ok


def _check_incompleteness(indices, series) -> bool:
    ok = all(d >= 2.0 - _EXACT_SLACK for d in series["d_to_origin"])
    scaled = series["scaled_d_to_double"]
    c = series["fitted_c"][0]
    ok = ok and math.isfinite(c) and c > 0.0
    ok = ok and all(s <= c + _EXACT_SLACK for s in scaled)
    pm = series["product_metric_to_unit"]
    ok = ok and _nonincreasing(pm) and pm[-1] < pm[0]
    ok = ok and all(v <= _EXACT_SLACK for v in series["sig_max_level_1"])
    for k in (2, 3, 4):
        vals = series[f"sig_max_level_{k}"]
        ok = ok and _nonincreasing(vals) and vals[-1] < vals[0]
    return ok


def _check_group_discontinuity(indices, series) -> bool:
    ok = all(
        d <= 3.0 / n + _EXACT_SLACK
        for key in ("d_rho_to_limit", "d_sigma_to_limit")
        for d, n in zip(series[key], indices)
    )
    ok = ok and all(d >= 2.0 - _EXACT_SLACK for d in series["d_product_to_origin"])
    return ok


def _check_length_bound(indices, series) -> bool:
    L = series["length"][0]
    phi = series["phi_exact"]
    lower = series["lower_bound"]
    growth = series["growth_root"]
    mc = series["mc_mean"]
    se = series["mc_se"]
    ok = True
    for row in range(len(indices)):
        slack = _MC_SLACK * max(1.0, abs(phi[row]))
        if lower[row] > 0.0:
            ok = ok and phi[row] >= lower[row] - slack
        ok = ok and growth[row] <= L + _MC_SLACK
        ok = ok and abs(mc[row] - phi[row]) <= 3.0 * se[row] + slack
    ok = ok and _nondecreasing(growth)
    return ok


_CHECKS = {
    "product-vs-metric": _check_product_vs_metric,
    "quotient-vs-metric": _check_quotient_vs_metric,
    "incompleteness": _check_incompleteness,
    "group-discontinuity": _check_group_discontinuity,
    "length-bound": _check_length_bound,
}

EXPERIMENT_NAMES = tuple(_CHECKS)


def recheck_verdict(report: ExperimentReport) -> bool:
    """Recompute the verdict from the stored series alone.

    A report that lacks a series its check reads, whose series are
    shorter than the check reads (empty, say), or one of whose series no
    longer holds one value per index (appended to after construction), is
    malformed: ValueError, as from_dict raises for the records it refuses."""
    try:
        check = _CHECKS[report.name]
    except KeyError:
        raise ValueError(f"unknown experiment name: {report.name}") from None
    try:
        return check(report.indices, _one_value_per_index(report))
    except KeyError as exc:
        raise ValueError(f"malformed experiment report: {report.name} needs series {exc}") from None
    except IndexError:
        raise ValueError(f"malformed experiment report: a {report.name} series is too short") from None
    except ArithmeticError as exc:
        raise ValueError(f"malformed experiment report: {report.name} index or value out of range ({exc})") from None
    except ValueError as exc:
        raise ValueError(f"malformed experiment report: {exc}") from None


def _report(name: str, indices: list, series: dict, seed: int | None = None) -> ExperimentReport:
    # every experiment's report, its verdict from the _CHECKS registry
    return ExperimentReport(name, indices, series, _CHECKS[name](indices, series), seed=seed)


# ---------------------------------------------------------------------------
# experiments


def experiment_product_vs_metric(k_max: int = 5, depth: int | None = None) -> ExperimentReport:
    """Loops whose signatures converge levelwise while metric_d diverges.

    For the stage-k loop Gamma_k, every signature level up to k vanishes, so
    product_metric(S(Gamma_k), 1) decreases toward 0, while the loops are
    reduced and of length 2**(k+1), so metric_d to the trivial path grows
    without bound.  Depth defaults to k_max + 1 so the last loop still shows
    a nonzero level.

    The loops take integer steps, so their signatures are computed in exact
    integer arithmetic: the vanishing of the low levels is then literal
    rather than obscured by float cancellation noise.
    """
    k_max = _count("k_max", k_max, 1, 6)
    if depth is None:
        depth = k_max + 1
    origin = constant_path(2)
    indices = list(range(1, k_max + 1))
    loops = [gamma_loop(k) for k in indices]
    # exact_signature refuses the depths it cannot afford (dim**depth over
    # 5000) before any loop is folded, and unit() checks its own budget
    sigs = [exact_signature(loop, depth) for loop in loops]
    one = unit(2, depth)
    pm, dm, low = [], [], []
    for k, loop, sig in zip(indices, loops, sigs):
        pm.append(product_metric(sig, one))
        dm.append(metric_d(origin, loop))
        low_levels = range(1, min(k, depth) + 1)
        low.append(max((float(np.max(np.abs(sig.levels[m]))) for m in low_levels), default=0.0))
    series = {
        "product_metric_to_unit": pm,
        "metric_d_to_origin": dm,
        "max_low_level_coeff": low,
    }
    return _report("product-vs-metric", indices, series)


def _thin_rectangles(eps) -> np.ndarray:
    # the segments of the rectangles of widths eps, shape (len(eps), 4, 2):
    # up eps, along e1, down eps, back
    eps = np.asarray(eps, dtype=float)
    zero, one = np.zeros_like(eps), np.ones_like(eps)
    return np.stack([zero, eps, one, zero, zero, -eps, -one, zero], axis=1).reshape(-1, 4, 2)


def _thin_rectangle(eps: float) -> PiecewiseLinearPath:
    return PiecewiseLinearPath(2, _thin_rectangles([eps])[0])


def experiment_quotient_vs_metric(eps_list=(1e-1, 1e-2, 1e-3)) -> ExperimentReport:
    """Thin rectangles close to a tree-like out-and-back in 1-variation.

    gamma_eps walks a rectangle of width eps around the out-and-back
    gamma_0 (e1 out, e1 back).  The parameterised 1-variation distance is
    at most 6 eps, yet both reduced representatives stay at metric_d
    distance exactly 2 + 2 eps, bounded away from zero: quotient-close but
    metric-far.
    """
    eps_list = [_real("epsilon", e, "nonnegative") for e in eps_list]
    if not eps_list:
        raise ValueError("eps_list must not be empty")
    indices = list(range(1, len(eps_list) + 1))
    # a rectangle of width 0 is gamma_0 itself, at distance 0 in both; the
    # others are their own reduced representatives (consecutive segments
    # nonzero and orthogonal), while gamma_0 reduces to the trivial path,
    # so all distances run as one stack each (_distances), with the bits of
    # one_variation_distance(rect, gamma_0) and metric_d(gamma_0, rect)
    eps = np.array(eps_list)
    wide = eps > 0.0
    var, dm = np.zeros(len(eps)), np.zeros(len(eps))
    if wide.any():
        rects = _thin_rectangles(eps[wide])
        base = np.tile([[1.0, 0.0], [-1.0, 0.0]], (len(rects), 1, 1))
        var[wide] = _distances(rects, base)
        dm[wide] = _distances(np.zeros((len(rects), 0, 2)), rects)
    series = {"epsilon": eps_list, "variation_distance": var.tolist(), "metric_d": dm.tolist()}
    return _report("quotient-vs-metric", indices, series)


def experiment_incompleteness(n_max: int = 10, depth: int = 4) -> ExperimentReport:
    """A metric_d-Cauchy sequence with no limit among reduced paths.

    rho_n walks a rectangle of width 1/n: consecutive terms are order 1/n
    apart in metric_d (reported through the n vs 2n pairs and the fitted
    constant c = max n * d(rho_n, rho_2n)), every signature level tends to
    zero, yet each rho_n keeps metric_d distance 2 + 2/n >= 2 from the
    trivial path, so no reduced limit can exist.  n_max is at most
    _MAX_COEFFICIENTS // 256 = 131072, a memory bound: untraced on a
    2-core Intel Xeon VM an index takes about 10 us at depth 4, so a run
    at the bound about 1.4 s.

    Each rectangle is its own reduced representative (its consecutive
    segments are nonzero and orthogonal, so reduce merges none), so the
    distances run on blocks of rectangles at once (_distances), with the
    bits of metric_d on each pair.  The product metric to the unit and the
    level maxima are read off each block's signature level arrays
    (_product_metric, one max per level), with the bits of product_metric
    and np.max on each rectangle's signature; no tensor is built per row.
    """
    # each index holds nine series values: about 34 float-sized values with
    # their Python objects (tracemalloc, from n_max = 4000 to 8000), under 256
    n_max = _count("n_max", n_max, 2, _MAX_COEFFICIENTS // 256)
    one = unit(2, depth)
    indices = list(range(1, n_max + 1))
    d_origin, d_double, pm = [], [], []
    level_max = {f"sig_max_level_{k}": [] for k in range(1, 5)}
    # blocks of rectangles for the batched kernels, whose rows are
    # bit-identical to signature(rect) and metric_d: a signature row holds
    # about 4 * feature_count(2, depth) float-sized values in its kernel and
    # a rectangle pair's distance about 170, counted as 256.  From depth 14
    # a block is one rectangle, so deep runs accept the depths
    # signature(rect) does and need no more memory
    per_call = max(1, _BLOCK_COEFFICIENTS // max(4 * feature_count(2, depth), 256))
    for start in range(1, n_max + 1, per_call):
        ns = np.arange(start, min(start + per_call, n_max + 1))
        rects = _thin_rectangles(1.0 / ns)
        d_origin += _distances(np.zeros((len(ns), 0, 2)), rects).tolist()
        d_double += _distances(rects, _thin_rectangles(1.0 / (2 * ns))).tolist()
        levels = _signature_levels(rects, depth)
        pm += _product_metric(levels, one.levels).tolist()
        for k, column in enumerate(level_max.values(), 1):
            column += np.abs(levels[k]).max(axis=1).tolist() if k <= depth else [0.0] * len(ns)
    scaled = [n * dd for n, dd in zip(indices, d_double)]
    series = {
        "d_to_origin": d_origin,
        "d_to_double": d_double,
        "scaled_d_to_double": scaled,
        "fitted_c": [max(scaled)] * n_max,
        "product_metric_to_unit": pm,
        **level_max,
    }
    return _report("incompleteness", indices, series)


def experiment_group_discontinuity(n_max: int = 10) -> ExperimentReport:
    """Concatenation is discontinuous at tree-like pairs under metric_d.

    rho_n (a 1/n step up then e1) converges to the straight segment e1, and
    sigma_n (a 1/n step down then -e1) converges to its reversal, both at
    rate at most 3/n.  The straight segment concatenated with its reversal
    reduces to the trivial path, yet rho_n * sigma_n is already reduced with
    length 2 + 2/n, so the product stays at metric_d distance at least 2
    from the trivial path.  n_max is at most _MAX_COEFFICIENTS // 32 =
    1048576, a memory bound: untraced on a 2-core Intel Xeon VM an index
    takes about 4 us, so a run at the bound about 4 s.

    rho_n * sigma_n is the rectangle of width 1/n, rho_n its first half and
    sigma_n its second.  Each of them is its own reduced representative
    (consecutive segments nonzero and orthogonal), so the distances run on
    blocks of them at once (_distances), with the bits of metric_d.
    """
    # each index holds four series values: about 17 float-sized values
    # with their Python objects (tracemalloc, from n_max = 4000 to 8000),
    # under 32
    n_max = _count("n_max", n_max, 1, _MAX_COEFFICIENTS // 32)
    indices = list(range(1, n_max + 1))
    d_rho, d_sigma, d_prod = [], [], []
    # a rectangle's distance to the origin holds about 120 float-sized
    # values per row in the kernel, counted as 128
    per_call = max(1, _BLOCK_COEFFICIENTS // 128)
    for start in range(1, n_max + 1, per_call):
        ns = np.arange(start, min(start + per_call, n_max + 1))
        rects = _thin_rectangles(1.0 / ns)
        d_rho += _distances(rects[:, :2], np.tile([1.0, 0.0], (len(ns), 1, 1))).tolist()
        d_sigma += _distances(rects[:, 2:], np.tile([-1.0, 0.0], (len(ns), 1, 1))).tolist()
        d_prod += _distances(rects, np.zeros((len(ns), 0, 2))).tolist()
    series = {
        "d_rho_to_limit": d_rho,
        "d_sigma_to_limit": d_sigma,
        "d_product_to_origin": d_prod,
        "bound_3_over_n": [3.0 / n for n in indices],
    }
    return _report("group-discontinuity", indices, series)


# length_lower_bound's Monte Carlo finds the segment of a time u in [0, 1)
# in a table of _MC_BUCKETS equal buckets (a power of two, so u * _MC_BUCKETS
# is exact) and draws its times _MC_BLOCK rows at a time.
_MC_BUCKETS = 4096
_MC_BLOCK = 16384


@lru_cache(maxsize=None)
def _sorting_network(k: int) -> tuple:
    """Batcher's merge-exchange network on k inputs (Knuth, TAOCP vol. 3,
    5.2.2, Algorithm M): the compare-exchange pairs (i, j), i < j, in order.
    31 pairs at k = 10, against 45 for odd-even transposition."""
    pairs = []
    t = (k - 1).bit_length()
    p = 1 << t >> 1
    while p > 0:
        q, r, d = 1 << t >> 1, 0, p
        while d > 0:
            pairs.extend((i, i + d) for i in range(k - d) if i & p == r)
            q, r, d = q >> 1, p, q - p
        p >>= 1
    return tuple(pairs)


def _pair_products(gram, edges, n: int, samples: int, rng) -> np.ndarray:
    """X_n on `samples` rows of 2n uniform times: the product over the
    adjacent pairs of each sorted row of gram[segment, segment]."""
    m = gram.shape[0]
    flat = gram.ravel()
    # edges below each bucket's two ends; a bucket whose counts differ
    # holds an edge, so its entry is -1 and its times are searched exactly
    below = np.searchsorted(edges, np.arange(_MC_BUCKETS + 1) / _MC_BUCKETS)
    table = below[:-1].astype(np.int16)
    table[below[1:] != below[:-1]] = -1
    network = _sorting_network(2 * n)
    x = np.empty(samples)
    for first in range(0, samples, _MC_BLOCK):
        u = rng.random((min(_MC_BLOCK, samples - first), 2 * n)).T
        seg = table.take((u * _MC_BUCKETS).astype(np.int16))
        hit = seg < 0
        if hit.any():
            seg[hit] = np.searchsorted(edges, u[hit])
        cols = list(seg)
        for i, j in network:
            cols[i], cols[j] = np.minimum(cols[i], cols[j]), np.maximum(cols[i], cols[j])
        prod = flat.take(cols[0] * m + cols[1])
        for i in range(2, 2 * n, 2):
            prod *= flat.take(cols[i] * m + cols[i + 1])
        x[first : first + prod.size] = prod
    return x


def _even_moments(pfrac, n_max: int) -> list:
    """E[(sum_i eps_i p_i)**2n] over independent fair signs eps_i, that is
    (2n)! [t**2n] prod_i cosh(p_i t), for n = 1..n_max.  With p_i = a_i / q,
    q a common power of two, e[j] = q**2j E[(...)**2j] is folded over the
    segments on Python ints and divided once, one correct rounding each."""
    ints, scale = _dyadic(pfrac)
    e = [1] + [0] * n_max
    for a in ints:
        a2 = a**2
        e = [sum(math.comb(2 * j, 2 * c) * a2**c * e[j - c] for c in range(j + 1)) for j in range(n_max + 1)]
    return [e[n] / scale ** (2 * n) for n in range(1, n_max + 1)]


# beyond float range the series turn inf or NaN quietly, and the check at
# the end refuses them
@np.errstate(over="ignore", invalid="ignore")
def length_lower_bound(
    path: PiecewiseLinearPath,
    n_max: int = 5,
    mc_samples: int = 100_000,
    seed: int = 0,
) -> ExperimentReport:
    """Length recovery from even signature levels for orthogonal axis paths.

    For a path with pairwise-orthogonal consecutive segments, contracting
    level 2n over adjacent index pairs and rescaling by (2n)! equals the
    expectation of X_n, the product of derivative inner products at 2n
    sorted uniform times.  Sorting and counting which segments the times
    land in gives

        (2n)! phi(S_2n)  >=  L**2n * (P(all counts even) - P(some segment empty))

    with P(all even) the Rademacher average E[(sum_i eps_i |v_i| / L)**2n]
    over independent fair signs eps_i, computed in exact dyadic arithmetic
    and rounded once (_even_moments), and the empty event bounded by
    m (1 - r)**2n, r the smallest segment time fraction.
    The report also carries the growth root ((2n)! phi)**(1/2n), which
    approaches the length L from below, plus a Monte Carlo estimate of
    E[X_n] with its standard error as an independent cross-check.  The Monte
    Carlo reads each adjacent pair's factor from an (m, m) Gram table of
    L**2 times the segments' direction inner products, so a sample costs two
    indices per pair rather than two d-vectors.

    The Monte Carlo gives the bits of sorting each row of draws and
    binary-searching the segment edges, without either:

    - Segment of a time u: the number of edges below u.  In a bucket
      [b, b + 1) / _MC_BUCKETS that holds no edge it is the same for every
      u, so it is read from a table; the times in the few buckets that hold
      an edge (or several) are searched exactly.
    - Sorting: the segment index is nondecreasing in u, so sorting a row's
      segment indices gives the segment indices of its sorted times.  The
      rows are sorted as (2n, rows) int16 columns by Batcher's network of
      compare-exchanges (np.minimum and np.maximum per comparator).
    - Pair factors: gram.ravel()[a * m + b] is gram[a, b], and a row's n
      factors are multiplied left to right, as .prod(axis=1) does.
    - Draws: rng.random fills blocks of _MC_BLOCK rows from the stream in
      order, so the times are those of one (mc_samples, 2n) draw; mean and
      standard error are taken over the whole array of X_n as before.

    The segment indices are int16, and so is the pair index a * m + b, so a
    path may have at most 181 nonzero segments (m * m <= 2**15).
    """
    # the contraction level 2n is capped at 10
    n_max = _count("n_max", n_max, 1, 5)
    # the Monte Carlo's x holds one float64 per sample (its draws come
    # _MC_BLOCK rows at a time), so the coefficient limit bounds the samples
    mc_samples = _count("mc_samples", mc_samples, 1, _MAX_COEFFICIENTS)
    seed = _count("seed", seed, 0)
    lens_all = path.segment_lengths
    mask = lens_all > 0.0
    segs = path.segments[mask]
    lens = lens_all[mask]
    m = segs.shape[0]
    if m == 0:
        raise ValueError("path has no nonzero segment")
    if m * m > 2**15:
        raise ValueError(f"the int16 pair index a * m + b caps the path at 181 segments, got {m}")
    for i in range(m - 1):
        inner = abs(float(np.dot(segs[i], segs[i + 1])))
        if inner > 1e-12 * lens[i] * lens[i + 1]:
            raise ValueError(f"segments {i} and {i + 1} are not orthogonal")
    L = float(np.sum(lens))
    pfrac = lens / L
    r = float(pfrac.min())
    sig = signature(path, 2 * n_max)
    p_evens = _even_moments(pfrac, n_max)

    unit_dirs = segs / lens[:, None]
    # L**2 <v_i, v_j> / (|v_i| |v_j|) for every pair of segments, by the same
    # einsum contraction a gathered pair of directions would get, so a Monte
    # Carlo sample's adjacent time pairs look up bit-identical products
    d = segs.shape[1]
    gram = np.einsum(
        "ijd,ijd->ij",
        np.broadcast_to(unit_dirs[:, None, :], (m, m, d)),
        np.broadcast_to(unit_dirs[None, :, :], (m, m, d)),
    ) * (L * L)
    edges = np.cumsum(pfrac)[:-1]
    rng = np.random.default_rng(seed)

    indices = list(range(1, n_max + 1))
    phi_vals, pa_vals, pb_vals, lower_vals = [], [], [], []
    growth_vals, mc_means, mc_ses = [], [], []
    for n in indices:
        phi = math.factorial(2 * n) * phi_contraction(sig, n)
        p_even = p_evens[n - 1]
        p_empty_bound = m * (1.0 - r) ** (2 * n)
        try:
            lower = L ** (2 * n) * (p_even - p_empty_bound)
        except OverflowError:
            lower = math.inf
        growth = phi ** (1.0 / (2 * n)) if phi > 0.0 else 0.0

        x = _pair_products(gram, edges, n, mc_samples, rng)
        mc_mean = float(x.mean())
        mc_se = float(x.std(ddof=1) / math.sqrt(mc_samples)) if mc_samples > 1 else 0.0

        phi_vals.append(float(phi))
        pa_vals.append(p_even)
        pb_vals.append(p_empty_bound)
        lower_vals.append(lower)
        growth_vals.append(growth)
        mc_means.append(mc_mean)
        mc_ses.append(mc_se)

    series = {
        "phi_exact": phi_vals,
        "p_all_even": pa_vals,
        "p_empty_bound": pb_vals,
        "lower_bound": lower_vals,
        "growth_root": growth_vals,
        "mc_mean": mc_means,
        "mc_se": mc_ses,
        "length": [L] * n_max,
    }
    _in_range("the length-bound series", list(series.values()))
    return _report("length-bound", indices, series, seed)
