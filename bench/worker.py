"""One fresh interpreter that imports sigpath and runs a benchmark op list.

Usage: python3 bench/worker.py SPEC_JSON

The spec (written by run.py) names the checkout root, the ops, the mode and
where to write results.  Mode "setup" times `import sigpath.cli` plus one
untimed warm-up pass over the ops and exits.  Mode "measure" does the same,
then runs the ops in a closed loop (one client, next op only after the last
one returned) in whole passes until `seconds` have elapsed.  With "trace"
set it splits the time: an untraced loop, then a loop with every public
sigpath function wrapped by spans.SpanRecorder, whose spans it writes out.

Only the standard library is imported before the clock starts, so the
import cost of numpy and scipy that sigpath pulls in counts as set-up.
After set-up and after every timed op the worker times `_probe`, which
run.py uses to correct for the machine's changing speed.
"""

import contextlib
import functools
import io
import json
import os
import resource
import statistics
import sys
import time


def _import_sigpath(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import sigpath.cli  # noqa: F401  (the timed import)
    import sigpath

    if not os.path.abspath(sigpath.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"sigpath was imported from {sigpath.__file__}, not from {src}")
    return sigpath


def _cli_runner(sigpath, argv):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            # looked up at call time so that a traced run sees the wrapper
            rc = sigpath.cli.main(argv)
        return rc, out.getvalue()

    return run


def _lib_runner(sigpath, spec, run_dir):
    import numpy as np

    def path(name):
        segs = np.load(os.path.join(run_dir, name))
        return sigpath.PiecewiseLinearPath(segs.shape[1], segs)

    fn = spec["lib"]
    if fn == "metric_d":
        a, b = (path(name) for name in spec["paths"])
        return lambda: (0, repr(sigpath.metric_d(a, b)))
    if fn == "p_variation":
        a = path(spec["paths"][0])
        p = spec["p"]
        return lambda: (0, repr(sigpath.p_variation(a, p)))
    if fn == "check_group_like":
        with np.load(os.path.join(run_dir, spec["tensor"])) as data:
            levels = [data[f"level{k}"] for k in range(len(data.files))]
        x = sigpath.GroupTensor(spec["dim"], len(levels) - 1, levels)
        sample = spec["sample"]

        def run():
            rep = sigpath.check_group_like(x, sample=sample)
            fields = {
                "passed": rep.passed,
                "max_discrepancy": rep.max_discrepancy,
                "tolerance": rep.tolerance,
                "pairs_checked": rep.pairs_checked,
            }
            return 0, json.dumps(fields, sort_keys=True)

        return run
    raise ValueError(f"unknown library op {fn!r}")


def _probe():
    """Seconds taken by a fixed machine-speed probe with sigpath's
    instruction mix but none of its code: a balanced fold of truncated
    tensor products (d=2, depth 5) over 32 short segments, on small numpy
    arrays in an interpreted loop."""
    import numpy as np

    start = time.perf_counter()
    depth = 5
    factors = []
    for i in range(32):
        v = np.array([np.cos(i), np.sin(i)]) * 0.1
        levels = [np.ones(1)]
        for n in range(1, depth + 1):
            levels.append(np.multiply.outer(levels[-1], v).reshape(-1) / n)
        factors.append(levels)
    while len(factors) > 1:
        paired = []
        for x, y in zip(factors[::2], factors[1::2]):
            out = [np.zeros(2**k) for k in range(depth + 1)]
            for i in range(depth + 1):
                for j in range(depth + 1 - i):
                    out[i + j] = out[i + j] + np.multiply.outer(x[i], y[j]).reshape(-1)
            paired.append(out)
        factors = paired
    return time.perf_counter() - start


def _execute(run):
    try:
        rc, out = run()
    except Exception as exc:  # a raising op is a failed op; the loop goes on
        return None, None, f"{type(exc).__name__}: {exc}"
    return rc, out, None


def _loop(ops, runners, first, seconds, rec=None):
    """Closed loop in whole passes; returns (samples, passes, elapsed).

    A sample is [op index, latency s, output ok, probe s]: the probe runs
    right after each op so that run.py can correct for machine speed."""
    samples = []
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        for i, run in enumerate(runners):
            if rec is not None:
                rec.op_id = len(samples)
                run = functools.partial(rec.span, "op", run, (), {})
            t0 = time.perf_counter()
            rc, out, _ = _execute(run)
            t1 = time.perf_counter()
            ok = rc == 0 and first[i]["err"] is None and out == first[i]["out"]
            samples.append([i, t1 - t0, ok, _probe()])
            if rec is not None and "cli" in ops[i] and out is not None:
                rec.count("cli.main.stdout_bytes", len(out.encode()))
        passes += 1
    return samples, passes, time.perf_counter() - start


def main(spec_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    # one CPU for the whole process, so that the probe timed after set-up
    # ran on the same CPU as the set-up it corrects
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    t0 = time.perf_counter()
    sigpath = _import_sigpath(spec["root"])
    t_import = time.perf_counter() - t0

    # input loading is the benchmark's own work, kept out of set-up time
    ops = spec["ops"]
    runners = [
        _cli_runner(sigpath, op["cli"]) if "cli" in op else _lib_runner(sigpath, op, spec["run_dir"])
        for op in ops
    ]

    t1 = time.perf_counter()
    first = []
    for run in runners:
        rc, out, err = _execute(run)
        first.append({"rc": rc, "out": out, "err": err})
    setup_s = t_import + time.perf_counter() - t1

    result = {"setup_s": setup_s, "probe_s": statistics.median(_probe() for _ in range(31))}
    if spec["mode"] == "measure":
        seconds = spec["seconds"] / 2 if spec["trace"] else spec["seconds"]
        samples, passes, elapsed = _loop(ops, runners, first, seconds)
        result.update(
            first=first,
            samples=samples,
            passes=passes,
            elapsed=elapsed,
            maxrss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        )
        if spec["trace"]:
            from spans import SpanRecorder, install

            rec = SpanRecorder()
            install(rec, sigpath)
            samples, passes, elapsed = _loop(ops, runners, first, seconds, rec)
            result.update(traced_samples=samples, traced_passes=passes, traced_elapsed=elapsed)
            rec.dump(spec["spans"])
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
