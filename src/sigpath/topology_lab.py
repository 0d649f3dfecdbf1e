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
from dataclasses import dataclass, field

import numpy as np

from .path_core import (
    PiecewiseLinearPath,
    concat,
    constant_speed,
    gamma_loop,
    linear_path,
    one_variation_distance,
    reduce,
)
from .signature_engine import _check_budget, exact_signature, signature
from .tensor_algebra import phi_contraction, product_metric, unit

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


@dataclass
class ExperimentReport:
    """Named numeric series over an index list, with a re-checkable verdict."""

    name: str
    indices: list
    series: dict
    verdict: bool
    seed: int | None = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "indices": list(self.indices),
            "series": {k: [float(v) for v in vals] for k, vals in self.series.items()},
            "verdict": bool(self.verdict),
            "seed": self.seed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), allow_nan=False, sort_keys=True, indent=2)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentReport":
        return cls(
            name=str(data["name"]),
            indices=list(data["indices"]),
            series={k: list(v) for k, v in data["series"].items()},
            verdict=bool(data["verdict"]),
            seed=data.get("seed"),
        )

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

    Zero exactly when the two paths reduce to the same segment list, which
    is how tree-like insertions are quotiented away.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return one_variation_distance(constant_speed(reduce(a)), constant_speed(reduce(b)))


def ball_br_membership(a: PiecewiseLinearPath, r: float) -> bool:
    """Whether the reduced representative has length at most r (no slack)."""
    if r <= 0:
        raise ValueError(f"radius must be positive, got {r}")
    return reduce(a).length <= r


# ---------------------------------------------------------------------------
# verdict re-checks: pure functions of (indices, series)

def _strictly_decreasing(xs) -> bool:
    return all(b < a for a, b in zip(xs, xs[1:]))


def _nonincreasing(xs, slack=1e-15) -> bool:
    return all(b <= a + slack for a, b in zip(xs, xs[1:]))


def _nondecreasing(xs, slack=1e-9) -> bool:
    return all(b >= a - slack for a, b in zip(xs, xs[1:]))


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
        for d, n in zip(series["d_rho_to_limit"], indices)
    )
    ok = ok and all(
        d <= 3.0 / n + _EXACT_SLACK
        for d, n in zip(series["d_sigma_to_limit"], indices)
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
    """Recompute the verdict from the stored series alone."""
    try:
        check = _CHECKS[report.name]
    except KeyError:
        raise ValueError(f"unknown experiment name: {report.name}") from None
    return check(report.indices, report.series)


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
    if not 1 <= k_max <= 6:
        raise ValueError(f"k_max must be between 1 and 6, got {k_max}")
    if depth is None:
        depth = k_max + 1
    origin = PiecewiseLinearPath(2, np.zeros((0, 2)))
    _check_budget(1, 2, depth, "one tensor of dimension 2")
    one = unit(2, depth)
    indices = list(range(1, k_max + 1))
    pm, dm, low = [], [], []
    for k in indices:
        loop = gamma_loop(k)
        sig = exact_signature(loop, depth)
        pm.append(product_metric(sig, one))
        dm.append(metric_d(origin, loop))
        low.append(
            max(float(np.max(np.abs(sig.levels[m]))) for m in range(1, min(k, depth) + 1))
        )
    series = {
        "product_metric_to_unit": pm,
        "metric_d_to_origin": dm,
        "max_low_level_coeff": low,
    }
    verdict = _check_product_vs_metric(indices, series)
    return ExperimentReport("product-vs-metric", indices, series, verdict, seed=None)


def _thin_rectangle(eps: float) -> PiecewiseLinearPath:
    segs = np.array([[0.0, eps], [1.0, 0.0], [0.0, -eps], [-1.0, 0.0]])
    return PiecewiseLinearPath(2, segs)


def experiment_quotient_vs_metric(eps_list=(1e-1, 1e-2, 1e-3)) -> ExperimentReport:
    """Thin rectangles close to a tree-like out-and-back in 1-variation.

    gamma_eps walks a rectangle of width eps around the out-and-back
    gamma_0 (e1 out, e1 back).  The parameterised 1-variation distance is
    at most 6 eps, yet both reduced representatives stay at metric_d
    distance exactly 2 + 2 eps, bounded away from zero: quotient-close but
    metric-far.
    """
    eps_list = [float(e) for e in eps_list]
    if any(e < 0.0 for e in eps_list):
        raise ValueError("epsilon values must be nonnegative")
    base = concat(linear_path([1.0, 0.0]), linear_path([-1.0, 0.0]))
    indices = list(range(1, len(eps_list) + 1))
    var, dm = [], []
    for e in eps_list:
        rect = _thin_rectangle(e)
        var.append(one_variation_distance(rect, base))
        dm.append(metric_d(base, rect))
    series = {"epsilon": eps_list, "variation_distance": var, "metric_d": dm}
    verdict = _check_quotient_vs_metric(indices, series)
    return ExperimentReport("quotient-vs-metric", indices, series, verdict, seed=None)


def _shrinking_rectangle(n: int) -> PiecewiseLinearPath:
    return _thin_rectangle(1.0 / n)


def experiment_incompleteness(n_max: int = 10, depth: int = 4) -> ExperimentReport:
    """A metric_d-Cauchy sequence with no limit among reduced paths.

    rho_n walks a rectangle of width 1/n: consecutive terms are order 1/n
    apart in metric_d (reported through the n vs 2n pairs and the fitted
    constant c = max n * d(rho_n, rho_2n)), every signature level tends to
    zero, yet each rho_n keeps metric_d distance 2 + 2/n >= 2 from the
    trivial path, so no reduced limit can exist.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be at least 2, got {n_max}")
    origin = PiecewiseLinearPath(2, np.zeros((0, 2)))
    _check_budget(1, 2, depth, "one tensor of dimension 2")
    one = unit(2, depth)
    indices = list(range(1, n_max + 1))
    d_origin, d_double, scaled, pm = [], [], [], []
    level_max = {k: [] for k in range(1, 5)}
    for n in indices:
        rect = _shrinking_rectangle(n)
        double = _shrinking_rectangle(2 * n)
        d0 = metric_d(origin, rect)
        dd = metric_d(rect, double)
        d_origin.append(d0)
        d_double.append(dd)
        scaled.append(n * dd)
        sig = signature(rect, depth)
        pm.append(product_metric(sig, one))
        for k in range(1, 5):
            level_max[k].append(float(np.max(np.abs(sig.levels[k]))) if k <= depth else 0.0)
    fitted_c = max(scaled)
    series = {
        "d_to_origin": d_origin,
        "d_to_double": d_double,
        "scaled_d_to_double": scaled,
        "fitted_c": [fitted_c] * n_max,
        "product_metric_to_unit": pm,
    }
    for k in range(1, 5):
        series[f"sig_max_level_{k}"] = level_max[k]
    verdict = _check_incompleteness(indices, series)
    return ExperimentReport("incompleteness", indices, series, verdict, seed=None)


def experiment_group_discontinuity(n_max: int = 10) -> ExperimentReport:
    """Concatenation is discontinuous at tree-like pairs under metric_d.

    rho_n (a 1/n step up then e1) converges to the straight segment e1, and
    sigma_n (a 1/n step down then -e1) converges to its reversal, both at
    rate at most 3/n.  The straight segment concatenated with its reversal
    reduces to the trivial path, yet rho_n * sigma_n is already reduced with
    length 2 + 2/n, so the product stays at metric_d distance at least 2
    from the trivial path.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    origin = PiecewiseLinearPath(2, np.zeros((0, 2)))
    limit_rho = linear_path([1.0, 0.0])
    limit_sigma = linear_path([-1.0, 0.0])
    indices = list(range(1, n_max + 1))
    d_rho, d_sigma, d_prod = [], [], []
    for n in indices:
        rho = PiecewiseLinearPath(2, np.array([[0.0, 1.0 / n], [1.0, 0.0]]))
        sigma = PiecewiseLinearPath(2, np.array([[0.0, -1.0 / n], [-1.0, 0.0]]))
        d_rho.append(metric_d(rho, limit_rho))
        d_sigma.append(metric_d(sigma, limit_sigma))
        d_prod.append(metric_d(concat(rho, sigma), origin))
    series = {
        "d_rho_to_limit": d_rho,
        "d_sigma_to_limit": d_sigma,
        "d_product_to_origin": d_prod,
        "bound_3_over_n": [3.0 / n for n in indices],
    }
    verdict = _check_group_discontinuity(indices, series)
    return ExperimentReport("group-discontinuity", indices, series, verdict, seed=None)


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

    with P(all even) computed exactly as the Rademacher average
    E[(sum_i eps_i |v_i| / L)**2n] over all 2**m sign vectors, and the empty
    event bounded by m (1 - r)**2n, r the smallest segment time fraction.
    The report also carries the growth root ((2n)! phi)**(1/2n), which
    approaches the length L from below, plus a Monte Carlo estimate of
    E[X_n] with its standard error as an independent cross-check.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    if 2 * n_max > 10:
        raise ValueError("contraction level 2n is capped at 10")
    lens_all = path.segment_lengths
    mask = lens_all > 0.0
    segs = path.segments[mask]
    lens = lens_all[mask]
    m = segs.shape[0]
    if m == 0:
        raise ValueError("path has no nonzero segment")
    if m > 20:
        raise ValueError(f"sign-vector enumeration capped at 20 segments, got {m}")
    for i in range(m - 1):
        inner = abs(float(np.dot(segs[i], segs[i + 1])))
        if inner > 1e-12 * lens[i] * lens[i + 1]:
            raise ValueError(f"segments {i} and {i + 1} are not orthogonal")
    L = float(np.sum(lens))
    pfrac = lens / L
    r = float(pfrac.min())
    sig = signature(path, 2 * n_max)

    ints = np.arange(2**m)
    signs = (((ints[:, None] >> np.arange(m)) & 1) * 2 - 1).astype(np.int8)
    sdot = signs @ pfrac

    unit_dirs = segs / lens[:, None]
    edges = np.cumsum(pfrac)[:-1]
    rng = np.random.default_rng(seed)

    indices = list(range(1, n_max + 1))
    phi_vals, pa_vals, pb_vals, lower_vals = [], [], [], []
    growth_vals, mc_means, mc_ses = [], [], []
    for n in indices:
        phi = math.factorial(2 * n) * phi_contraction(sig, n)
        p_even = float(np.mean(sdot ** (2 * n)))
        p_empty_bound = m * (1.0 - r) ** (2 * n)
        lower = L ** (2 * n) * (p_even - p_empty_bound)
        growth = phi ** (1.0 / (2 * n)) if phi > 0.0 else 0.0

        u = rng.random((mc_samples, 2 * n))
        u.sort(axis=1)
        which = np.searchsorted(edges, u)
        dirs = unit_dirs[which]
        pair_dots = np.einsum("sjd,sjd->sj", dirs[:, 0::2, :], dirs[:, 1::2, :]) * (L * L)
        x = pair_dots.prod(axis=1)
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
    verdict = _check_length_bound(indices, series)
    return ExperimentReport("length-bound", indices, series, verdict, seed=seed)
