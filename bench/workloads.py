"""Workload definitions: seeded inputs, op lists, references and output checks.

Each workload function writes its input files into the run directory and
returns a list of Op.  An op's `spec` is all the worker sees (CLI argv, or
the name of a top-level library function and its input files); its `check`
runs in the parent process on the op's first output and raises CheckError
when the output is wrong.  References are computed here, once per seed, outside any
timed region and outside set-up time.

Sizes are chosen so that one op takes roughly 50 to 200 ms on a 2-core x86
machine, and op costs are spread so that the median and the 90th
percentile of the latency mix fall inside one op's cluster rather than on
the gap between two.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import expm

DYADIC = 16  # long-path steps are integers / DYADIC, so references are exact


class CheckError(Exception):
    """An op's output failed its check."""


@dataclass
class Op:
    label: str
    spec: dict
    check: Callable[[str], dict]


def _write_csv(path, segs):
    lines = [f"# dim={segs.shape[1]}"]
    lines += [",".join(repr(float(c)) for c in row) for row in segs]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _json_out(out):
    try:
        return json.loads(out)
    except json.JSONDecodeError as exc:
        raise CheckError(f"output is not JSON: {exc}") from None


# ---------------------------------------------------------------------------
# long-path


def _exact_scaled_signature(steps, depth):
    """Exact signature of integer steps, as k! * DYADIC**k * level k.

    With T_k = k! S_k the Chen product becomes T_k = sum_i C(k, i) X_i (x) Y_{k-i}
    and exp(v) becomes T_k = v^(x)k, so the whole balanced fold stays in
    Python integers (numpy object arrays).  Dividing by k! DYADIC**k once at
    the end rounds each coefficient correctly, as exact_signature does.
    """

    def exp(v):
        v = np.array([int(c) for c in v], dtype=object)
        levels = [np.array([1], dtype=object)]
        for _ in range(depth):
            levels.append(np.multiply.outer(levels[-1], v).reshape(-1))
        return levels

    def mul(x, y):
        return [
            sum(math.comb(k, i) * np.multiply.outer(x[i], y[k - i]).reshape(-1) for i in range(k + 1))
            for k in range(depth + 1)
        ]

    factors = [exp(v) for v in steps]
    while len(factors) > 1:
        paired = [mul(factors[i], factors[i + 1]) for i in range(0, len(factors) - 1, 2)]
        if len(factors) % 2:
            paired.append(factors[-1])
        factors = paired
    return factors[0]


def _round_levels(scaled):
    return [
        np.array([int(c) / (math.factorial(k) * DYADIC**k) for c in level], dtype=float)
        for k, level in enumerate(scaled)
    ]


def exact_reference(steps, depth, sigpath, prefix=6):
    """Exact signature levels of steps / DYADIC, tied to exact_signature.

    exact_signature costs seconds per path at these sizes, so the reference
    is the integer fold above; on the first `prefix` segments the two must
    agree bit for bit, else CheckError.
    """
    head = steps[:prefix]
    mine = _round_levels(_exact_scaled_signature(head, depth))
    theirs = sigpath.exact_signature(sigpath.PiecewiseLinearPath(steps.shape[1], head / DYADIC), depth)
    if not all(np.array_equal(a, b) for a, b in zip(mine, theirs.levels)):
        raise CheckError("integer reference disagrees with exact_signature on a prefix")
    return _round_levels(_exact_scaled_signature(steps, depth))


def _signature_check(ref, dim, depth, tol=1e-10):
    def check(out):
        data = _json_out(out)
        if data.get("dim") != dim or data.get("depth") != depth:
            raise CheckError(f"wrong shape: dim {data.get('dim')} depth {data.get('depth')}")
        worst = 0.0
        for k, (got, want) in enumerate(zip(data["levels"], ref)):
            got = np.asarray(got, dtype=float)
            if got.shape != want.shape:
                raise CheckError(f"level {k} has {got.size} coefficients, want {want.size}")
            scale = max(float(np.max(np.abs(want))), 1.0)
            worst = max(worst, float(np.max(np.abs(got - want))) / scale)
        if worst > tol:
            raise CheckError(f"relative error {worst:.3e} against the exact signature exceeds {tol}")
        return {"signature_engine.signature.max_rel_err": worst}

    return check


def exact_flow(matrices, offsets, segs, y0):
    """Exact solution of dy = A(dx) y + b(dx) along the path.

    Each segment's flow is exp of the augmented matrix [[A(v), b(v)], [0, 0]]
    acting on (y, 1); scipy evaluates all segments' exponentials in one call.
    """
    d, w, _ = matrices.shape
    aug = np.zeros((len(segs), w + 1, w + 1))
    aug[:, :w, :w] = np.einsum("mj,jab->mab", segs, matrices)
    aug[:, :w, w] = segs @ offsets
    y = np.append(y0, 1.0)
    for flow in expm(aug):
        y = flow @ y
    return y[:w]


def _solve_check(flow, truncation):
    def check(out):
        data = _json_out(out)
        if data.get("terms_used") != truncation:
            raise CheckError(f"terms_used {data.get('terms_used')} != {truncation}")
        gap = float(np.linalg.norm(np.asarray(data["value"], dtype=float) - flow))
        bound = float(data["error_bound"])
        if not gap <= bound:
            raise CheckError(f"|value - exact flow| = {gap:.3e} exceeds error_bound {bound:.3e}")
        return {"ito_solver.solve.bound_ratio_max": gap / bound}

    return check


def long_path(seed, run_dir, sigpath):
    rng = np.random.default_rng([seed, 1])
    ops = []
    for d, depth, m in ((5, 4, 400), (3, 6, 330), (2, 8, 340)):
        steps = rng.integers(-DYADIC, DYADIC + 1, size=(m, d))
        name = f"path_d{d}.csv"
        _write_csv(run_dir / name, steps / DYADIC)
        ops.append(
            Op(
                f"signature d={d} depth={depth} m={m}",
                {"cli": ["signature", str(run_dir / name), "--depth", str(depth), "--format", "json"]},
                _signature_check(exact_reference(steps, depth, sigpath), d, depth),
            )
        )
    d, w, truncation = 2, 3, 8
    for kind, m in (("linear", 390), ("affine", 400)):
        segs = rng.integers(-DYADIC, DYADIC + 1, size=(m, d)) / DYADIC
        _write_csv(run_dir / f"solve_{kind}.csv", segs)
        length = float(np.sum(np.linalg.norm(segs, axis=1)))
        matrices = rng.normal(size=(d, w, w))
        offsets = np.zeros((d, w)) if kind == "linear" else rng.normal(size=(d, w))
        # acceptance regime of the certificate: C * L in [0.8, 2] and |y0| <= 1
        base = sigpath.LinearVectorField(matrices=matrices, offsets=offsets)
        s = rng.uniform(0.8, 2.0) / (base.growth_constant * length)
        matrices, offsets = s * matrices, s * offsets
        y0 = rng.uniform(-1.0, 1.0, size=w)
        y0 *= rng.uniform(0.2, 1.0) / np.linalg.norm(y0)
        field = {"d": d, "w": w, "A": matrices.tolist(), "b": offsets.tolist()}
        (run_dir / f"field_{kind}.json").write_text(json.dumps(field), encoding="utf-8")
        argv = [
            "solve", str(run_dir / f"field_{kind}.json"), str(run_dir / f"solve_{kind}.csv"),
            "--y0=" + ",".join(repr(float(c)) for c in y0), "--N", str(truncation), "--format", "json",
        ]
        ops.append(
            Op(
                f"solve {kind} d={d} w={w} N={truncation} m={m}",
                {"cli": argv},
                _solve_check(exact_flow(matrices, offsets, segs, y0), truncation),
            )
        )
    return ops


# ---------------------------------------------------------------------------
# many-short

REGRESS_DEPTHS = [1, 2, 3, 4, 5]


def _regress_check(seed, affine):
    def check(out):
        data = _json_out(out)
        rows = data.get("metrics", [])
        if data.get("seed") != seed or [r.get("depth") for r in rows] != REGRESS_DEPTHS:
            raise CheckError("payload does not echo the seed and depths")
        for row in rows:
            if not all(math.isfinite(row[k]) for k in row if k.startswith(("rmse", "max", "uniform"))):
                raise CheckError(f"non-finite metric at depth {row['depth']}")
        train = [r["rmse_train"] for r in rows]
        # nested least-squares problems: more features never fit worse
        if any(b > a * (1 + 1e-6) + 1e-12 for a, b in zip(train, train[1:])):
            raise CheckError(f"training RMSE rises with depth: {train}")
        if affine and not rows[-1]["rmse_heldout"] < 1e-2 * rows[0]["rmse_heldout"]:
            raise CheckError("noise-free held-out error does not fall with depth")
        return {}

    return check


def many_short(seed, run_dir, sigpath):
    rng = np.random.default_rng([seed, 2])
    ops = []
    # configs A, B, A, B, A: five ops, each on its own dataset seed, with
    # batch sizes spread so that each op's latency forms its own cluster
    for i, n_paths in enumerate((64, 64, 80, 130, 110)):
        data_seed = int(rng.integers(0, 2**31))
        config = {
            "n_paths": n_paths,
            "heldout_paths": n_paths // 2,
            "segment_count": 4,
            "depths": REGRESS_DEPTHS,
            "seed": data_seed,
        }
        affine = i % 2 == 0
        if affine:
            config["noise_scale"] = 0.0  # default affine demo field
        else:
            matrices = rng.normal(size=(2, 2, 2))
            base = sigpath.LinearVectorField(matrices=matrices, offsets=np.zeros((2, 2)))
            s = rng.uniform(0.5, 1.0) / base.growth_constant
            config.update(
                field={"d": 2, "w": 2, "A": (s * matrices).tolist(), "b": [[0.0, 0.0], [0.0, 0.0]]},
                y0=rng.uniform(-1.0, 1.0, size=2).tolist(),
                noise_scale=0.01,
                ridge=1e-6,
            )
        name = f"regress_{i}.json"
        (run_dir / name).write_text(json.dumps(config), encoding="utf-8")
        ops.append(
            Op(
                f"regress {'A affine' if affine else 'B linear'} {n_paths}+{n_paths // 2} paths",
                {"cli": ["regress", "--config", str(run_dir / name), "--format", "json"]},
                _regress_check(data_seed, affine),
            )
        )
    return ops


# ---------------------------------------------------------------------------
# topology


def _verdict_check(out):
    if _json_out(out).get("verdict") is not True:
        raise CheckError("experiment verdict is not PASS")
    return {}


def _equals_check(want, what):
    def check(out):
        if float(out) != want:
            raise CheckError(f"{what}: got {out}, want {want!r}")
        return {}

    return check


def p_variation_reference(segs, p):
    """Independent p-variation: best[j] = max_i best[i] + |x_j - x_i|**p."""
    pts = np.concatenate([np.zeros((1, segs.shape[1])), np.cumsum(segs, axis=0)])
    best = np.zeros(len(pts))
    for j in range(1, len(pts)):
        best[j] = np.max(best[:j] + np.linalg.norm(pts[:j] - pts[j], axis=1) ** p)
    return float(best[-1] ** (1.0 / p))


def _close_check(want, what, rel=1e-12):
    def check(out):
        if not abs(float(out) - want) <= rel * abs(want):
            raise CheckError(f"{what}: got {out}, want {want!r}")
        return {}

    return check


def _group_like_check(out):
    rep = _json_out(out)
    if rep.get("passed") is not True:
        raise CheckError(f"signature not group-like: {rep}")
    return {}


def _with_excursions(rng, segs, count):
    """Insert `count` mirrored out-and-back pairs (v, -v) at random places."""
    out = list(segs)
    for pos in sorted(rng.integers(0, len(segs) + 1, size=count), reverse=True):
        v = rng.normal(size=segs.shape[1])
        out[pos:pos] = [v, -v]
    return np.array(out)


# Monotone 12-segment staircase for length-bound.  It and the Monte Carlo
# seed stay fixed: the experiment's Monte Carlo clause is a 3-standard-error
# test that fails by chance on about 1% of random staircase/seed pairs.
STAIRCASE = np.array([[1, 0], [0, 2], [3, 0], [0, 1], [2, 0], [0, 3]] * 2, dtype=float) / 4


def topology(seed, run_dir, sigpath):
    rng = np.random.default_rng([seed, 3])
    _write_csv(run_dir / "stair.csv", STAIRCASE)
    # product-vs-metric, the slowest op, runs twice per pass: with ten ops
    # the 90th percentile then falls inside its latency distribution rather
    # than on the gap below it, and the median inside the 50-70 ms cluster
    experiments = [
        ("product-vs-metric", ["--k-max", "5"]),
        ("quotient-vs-metric", []),
        ("incompleteness", ["--n-max", "80"]),
        ("group-discontinuity", ["--n-max", "120"]),
        ("length-bound", ["--path", str(run_dir / "stair.csv"), "--n-max", "5", "--seed", "0"]),
        ("product-vs-metric", ["--k-max", "5"]),
    ]
    ops = [
        Op(
            " ".join(["experiment", name, *flags]).replace(f"{run_dir}/", ""),
            {"cli": ["experiment", name, *flags, "--format", "json"]},
            _verdict_check,
        )
        for name, flags in experiments
    ]
    m = 2000
    a, b = rng.normal(size=(m, 2)), rng.normal(size=(m, 2))
    a_exc, b_exc = _with_excursions(rng, a, 200), _with_excursions(rng, b, 200)
    for name, segs in (("a", a), ("a_exc", a_exc), ("b_exc", b_exc)):
        np.save(run_dir / f"{name}.npy", segs)
    clean = sigpath.metric_d(sigpath.PiecewiseLinearPath(2, a), sigpath.PiecewiseLinearPath(2, b))
    for first, second in (("a", "b_exc"), ("a_exc", "b_exc")):
        ops.append(
            Op(
                f"metric_d {first} vs {second} m={m}",
                {"lib": "metric_d", "paths": [f"{first}.npy", f"{second}.npy"]},
                _equals_check(clean, "metric_d with excursions differs from without"),
            )
        )
    ops.append(
        Op(
            f"p_variation p=2 m={m}",
            {"lib": "p_variation", "paths": ["a.npy"], "p": 2.0},
            _close_check(p_variation_reference(a, 2.0), "p_variation"),
        )
    )
    sig = sigpath.signature(sigpath.PiecewiseLinearPath(3, 0.4 * rng.normal(size=(8, 3))), 6)
    np.savez(run_dir / "sig3.npz", **{f"level{k}": lvl for k, lvl in enumerate(sig.levels)})
    ops.append(
        Op(
            "check_group_like d=3 depth=6 sample=2000",
            {"lib": "check_group_like", "tensor": "sig3.npz", "dim": 3, "sample": 2000},
            _group_like_check,
        )
    )
    return ops


WORKLOADS = {"long-path": long_path, "many-short": many_short, "topology": topology}
