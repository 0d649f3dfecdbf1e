"""sigpath benchmark: one workload, one seed, one JSON result line.

Usage (from the root of a checkout):

    python3 bench/run.py --workload long-path --seed 1 --seconds 20 --trace 0

Workloads are defined in workloads.py.  The run builds the inputs and the
reference results from the seed, times set-up in fresh interpreters
(worker.py, mode "setup"), then runs the ops in a closed loop with one
client in one more fresh interpreter and checks every output.  With
--trace 0 the result carries the end-to-end metrics; with --trace 1 it
carries the per-layer metrics of a traced run (spans.py), timed against an
untraced loop in the same process.

Human-readable lines, including the run metadata, come first; the last
line of stdout is the JSON result.  Exits 2 without a result when the
checkout has no sigpath sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"

# BLAS threads are pinned to one: each op's matrices are tiny, and with
# OpenBLAS's default threads, least-squares fits in fresh processes were
# erratic on a 2-core machine (0.3 ms in some processes, 24 ms in others).
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROCESSES = 5  # set-up samples besides the measuring process's own
WORKER_TIMEOUT_S = 150

END_TO_END = [
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("success_rate", "fraction"),
]

# Per-layer figures are per pass over the op list, so a faster layer shows
# as a smaller number rather than as more passes in a fixed-length run.
PER_LAYER = [
    ("tensor_algebra.mul.calls", "count/pass"),
    ("tensor_algebra.mul.self_s", "s/pass"),
    ("tensor_algebra.mul.madds_computed", "count/pass"),
    ("tensor_algebra.mul.bytes_computed", "bytes/pass"),
    ("signature_engine.exp_segment.calls", "count/pass"),
    ("signature_engine.exp_segment.self_s", "s/pass"),
    ("signature_engine.signature.calls", "count/pass"),
    ("signature_engine.signature.self_s", "s/pass"),
    ("signature_engine.signature.segments", "count/pass"),
    ("tensor_algebra.TruncatedTensor.constructed", "count/pass"),
    ("sig_regression.featurize.calls", "count/pass"),
    ("sig_regression.featurize.self_s", "s/pass"),
    ("sig_regression.generate_dataset.self_s", "s/pass"),
    ("ito_solver.oracle_solve.calls", "count/pass"),
    ("ito_solver.oracle_solve_affine.self_s", "s/pass"),
    ("ito_solver.oracle_solve_linear.self_s", "s/pass"),
    ("ito_solver.expm.calls", "count/pass"),
    ("ito_solver.word_coefficients.self_s", "s/pass"),
    ("ito_solver.ito_series.self_s", "s/pass"),
    ("sig_regression.fit.calls", "count/pass"),
    ("sig_regression.fit.self_s", "s/pass"),
    ("sig_regression.evaluate.self_s", "s/pass"),
    ("path_core.reduce.calls", "count/pass"),
    ("path_core.reduce.self_s", "s/pass"),
    ("path_core.reduce.segments_in", "count/pass"),
    ("path_core.reduce.segments_out", "count/pass"),
    ("path_core.one_variation_distance.self_s", "s/pass"),
    ("path_core.p_variation.self_s", "s/pass"),
    ("path_core.read_csv.self_s", "s/pass"),
    ("path_core.PiecewiseLinearPath.constructed", "count/pass"),
    ("topology_lab.metric_d.calls", "count/pass"),
    ("topology_lab.metric_d.self_s", "s/pass"),
    ("signature_engine.exact_signature.self_s", "s/pass"),
    ("topology_lab.length_lower_bound.self_s", "s/pass"),
    ("topology_lab.experiment.self_s", "s/pass"),
    ("tensor_algebra.phi_contraction.self_s", "s/pass"),
    ("signature_engine.check_group_like.self_s", "s/pass"),
    ("cli.main.calls", "count/pass"),
    ("cli.main.self_s", "s/pass"),
    ("cli.main.stdout_bytes", "bytes/pass"),
    ("tensor_algebra.tensor_to_json.self_s", "s/pass"),
    ("signature_engine.signature.max_rel_err", "ratio"),
    ("ito_solver.solve.bound_ratio_max", "ratio"),
    ("trace.overhead_frac", "fraction"),
    ("trace.uncovered_frac", "fraction"),
]
ACCURACY = ("signature_engine.signature.max_rel_err", "ito_solver.solve.bound_ratio_max")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _metadata(args):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "nproc": len(os.sched_getaffinity(0)),
        "src_sigpath_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((SRC / "sigpath").glob("*.py"))
        ),
    }


def _run_worker(run_dir, tag, spec):
    spec = dict(spec, result=str(run_dir / f"{tag}.result.json"), spans=str(run_dir / f"{tag}.spans.json"))
    spec_path = run_dir / f"{tag}.spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(spec_path)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {tag} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(Path(spec["result"]).read_text(encoding="utf-8"))


def _check_outputs(ops, first):
    """Check each op's first output; returns (error per op, accuracy figures)."""
    from workloads import CheckError

    errors, accuracy = [], {}
    for op, got in zip(ops, first):
        if got["err"] is not None:
            errors.append(f"raised {got['err']}")
            continue
        if got["rc"] != 0:
            errors.append(f"exit code {got['rc']}")
            continue
        try:
            figures = op.check(got["out"])
        except (CheckError, ValueError, KeyError, TypeError) as exc:
            errors.append(f"{type(exc).__name__}: {exc}")
            continue
        errors.append(None)
        for key, value in figures.items():
            accuracy[key] = max(accuracy.get(key, 0.0), value)
    return errors, accuracy


def _failures(samples, errors):
    return sum(1 for i, _, ok, *_ in samples if not ok or errors[i] is not None)


# Shared machines change speed for seconds at a time, and every op slows
# alike.  The worker therefore runs a fixed probe (worker._probe, no sigpath
# code) after every op and after set-up.  Each latency is scaled by
# PROBE_REF_S over the median probe time of the ops around it, and each
# set-up time by PROBE_REF_S over the probe time in its own process, so times
# read as on a machine where the probe takes PROBE_REF_S.  The raw figures
# are printed alongside.
PROBE_REF_S = 0.0022
PROBE_WINDOW = 2  # ops on each side whose probe times give the local speed


def _normalised_latencies(samples):
    probe = [s[3] for s in samples]
    return [
        s[1] * PROBE_REF_S / statistics.median(probe[max(0, j - PROBE_WINDOW) : j + PROBE_WINDOW + 1])
        for j, s in enumerate(samples)
    ]


def _quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _end_to_end(samples, setups, maxrss_kib, failed):
    """The six end-to-end figures, probe-normalised, and their raw forms."""
    norm = [v * 1e3 for v in _normalised_latencies(samples)]
    raw = [s[1] * 1e3 for s in samples]
    setup_raw = statistics.median(r["setup_s"] for r in setups)
    setup_norm = statistics.median(r["setup_s"] * PROBE_REF_S / r["probe_s"] for r in setups)
    # closed loop with one client: ops per second of op time
    metrics = {
        "ops_per_s": len(norm) / sum(norm) * 1e3,
        "op_p50_ms": statistics.median(norm),
        "op_p90_ms": _quantile(norm, 90),
        "setup_s": setup_norm,
        "peak_rss_mb": maxrss_kib / 1024,
        "success_rate": (len(samples) - failed) / len(samples),
    }
    raw_metrics = {
        "ops_per_s": len(raw) / sum(raw) * 1e3,
        "op_p50_ms": statistics.median(raw),
        "op_p90_ms": _quantile(raw, 90),
        "setup_s": setup_raw,
    }
    return metrics, raw_metrics, norm


def _layer_metrics(spans_path, passes, overhead_frac, accuracy):
    data = json.loads(Path(spans_path).read_text(encoding="utf-8"))
    names = data["names"]
    spans = data["spans"]
    child = [0.0] * len(spans)
    for _, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    calls, self_s = {}, {}
    op_total = op_uncovered = 0.0
    for i, (code, t0, t1, _, _) in enumerate(spans):
        name = names[code]
        own = (t1 - t0) - child[i]
        if name == "op":
            op_total += t1 - t0
            op_uncovered += own
            continue
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
    calls["ito_solver.oracle_solve"] = calls.get("ito_solver.oracle_solve_linear", 0) + calls.get(
        "ito_solver.oracle_solve_affine", 0
    )
    counters = data["counters"]
    values = {}
    for name, _ in PER_LAYER:
        if name in ACCURACY:
            values[name] = accuracy.get(name, 0.0)
        elif name == "trace.overhead_frac":
            values[name] = overhead_frac
        elif name == "trace.uncovered_frac":
            values[name] = op_uncovered / op_total
        elif name.endswith(".calls"):
            values[name] = calls.get(name[: -len(".calls")], 0) / passes
        elif name.endswith(".self_s"):
            values[name] = self_s.get(name[: -len(".self_s")], 0.0) / passes
        else:
            values[name] = counters.get(name, 0) / passes
    return values


def main(argv=None):
    args = _parse_args(argv)
    if not (SRC / "sigpath" / "__init__.py").is_file():
        print(f"bench: no sigpath sources under {SRC}", file=sys.stderr)
        return 2
    for key, value in BLAS_ENV.items():
        os.environ.setdefault(key, value)
    sys.path.insert(0, str(SRC))
    import sigpath
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 3

    run_dir = ROOT / ".bench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        ops = WORKLOADS[args.workload](args.seed, run_dir, sigpath)
        spec = {
            "root": str(ROOT),
            "run_dir": str(run_dir),
            "ops": [op.spec for op in ops],
            "seconds": args.seconds,
            "trace": bool(args.trace),
        }
        setups = []
        if not args.trace:
            for k in range(SETUP_PROCESSES):
                setups.append(_run_worker(run_dir, f"setup{k}", dict(spec, mode="setup")))
        res = _run_worker(run_dir, "measure", dict(spec, mode="measure"))
        setups.append(res)
        errors, accuracy = _check_outputs(ops, res["first"])
        samples = res["samples"]
        failed = _failures(samples, errors)
        attempted = len(samples)
        metrics, raw, norm_ms = _end_to_end(samples, setups, res["maxrss_kib"], failed)
        lines = [f"workload {args.workload} seed {args.seed}: {attempted} ops in {res['elapsed']:.2f} s ({res['passes']} passes)"]
        for i, (op, err) in enumerate(zip(ops, errors)):
            op_ms = statistics.median(v for s, v in zip(samples, norm_ms) if s[0] == i)
            lines.append(f"  op {op.label}: median {op_ms:.1f} ms, {'ok' if err is None else 'FAILED ' + err}")
        if args.trace:
            traced = res["traced_samples"]
            failed += _failures(traced, errors)
            attempted += len(traced)
            per_pass = sum(norm_ms) / res["passes"]
            traced_per_pass = sum(_normalised_latencies(traced)) * 1e3 / res["traced_passes"]
            metrics = _layer_metrics(
                run_dir / "measure.spans.json", res["traced_passes"], traced_per_pass / per_pass - 1.0, accuracy
            )
            units = dict(PER_LAYER)
            ranked = sorted((v, k) for k, v in metrics.items() if units[k] == "s/pass")
            lines.append(f"traced: {res['traced_passes']} passes, largest self times per pass:")
            lines += [f"  {k:45s} {v * 1e3:9.3f} ms" for v, k in reversed(ranked[-8:])]
        else:
            units = dict(END_TO_END)
            probe_ms = statistics.median(s[3] for s in samples) * 1e3
            lines.append(f"p90 from {attempted} samples; {len(setups)} set-up samples; probe median {probe_ms:.3f} ms")
            for k, v in metrics.items():
                extra = f"  (raw {raw[k]:.4f})" if k in raw else ""
                lines.append(f"  {k:14s} {v:12.4f} {units[k]}{extra}")
            lines.append(f"  {'error_rate':14s} {failed / attempted:12.4f} fraction ({failed} of {attempted} failed)")
        print("\n".join(lines))
        print("meta " + json.dumps(_metadata(args), sort_keys=True))
        result = {
            "correct": failed == 0 and all(e is None for e in errors),
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            (ROOT / ".bench_run").rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
