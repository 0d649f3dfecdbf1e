"""Span recorder that times sigpath's public functions from outside.

`install` replaces every public sigpath function at every module attribute
that binds it (the defining module, the modules that import it by name and
the top-level package) with one wrapper that records a span.  Spans are
named after the defining module, so `signature` called through `cli`,
`ito_solver`, `sig_regression` or `topology_lab` is one layer.  A few
bindings get extra counters computed from argument shapes: the Chen
product's multiply-adds and bytes, segment counts into `signature` and
`reduce`, and constructions of the two validated value types.

Spans stay in memory as tuples (name, start, end, parent, op) and are
written out once, by `dump`, when the run ends.  Nothing here runs unless
the benchmark asks for a traced run.
"""

from __future__ import annotations

import functools
import json
import time
import types

LAYERS = (
    "tensor_algebra",
    "path_core",
    "signature_engine",
    "topology_lab",
    "ito_solver",
    "sig_regression",
    "cli",
)


class SpanRecorder:
    def __init__(self):
        self.spans = []
        self.counters = {}
        self.op_id = -1
        self._stack = []

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def span(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op_id)

    def dump(self, path):
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        rows = [[code[n], t0, t1, p, op] for n, t0, t1, p, op in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names, "spans": rows, "counters": self.counters}, fh)


def _level_sizes(dim, depth):
    return [dim**k for k in range(depth + 1)]


def _mul_counters(rec, args, result):
    x = args[0]
    sizes = _level_sizes(x.dim, x.depth)
    # level k of the product sums d**i * d**(k-i) products for i = 0..k
    rec.count("tensor_algebra.mul.madds_computed", sum((k + 1) * n for k, n in enumerate(sizes)))
    rec.count("tensor_algebra.mul.bytes_computed", 8 * 3 * sum(sizes))


def _signature_counters(rec, args, result):
    rec.count("signature_engine.signature.segments", args[0].segment_count)


def _reduce_counters(rec, args, result):
    rec.count("path_core.reduce.segments_in", args[0].segment_count)
    rec.count("path_core.reduce.segments_out", result.segment_count)


_COUNTERS = {
    "tensor_algebra.mul": _mul_counters,
    "signature_engine.signature": _signature_counters,
    "path_core.reduce": _reduce_counters,
}


def _wrap(rec, name, fn):
    extra = _COUNTERS.get(name)
    if name == "ito_solver.oracle_solve":
        # one public function, two algorithms: split the layer by field kind
        @functools.wraps(fn)
        def oracle(field, *args, **kwargs):
            kind = "linear" if field.is_linear else "affine"
            return rec.span(f"ito_solver.oracle_solve_{kind}", fn, (field,) + args, kwargs)

        return oracle

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = rec.span(name, fn, args, kwargs)
        if extra is not None:
            extra(rec, args, result)
        return result

    return wrapper


def _count_constructions(rec, cls, key):
    post_init = cls.__post_init__

    @functools.wraps(post_init)
    def counted(self):
        rec.count(key)
        post_init(self)

    cls.__post_init__ = counted


def install(rec, sigpath):
    """Route every binding of a public sigpath function through `rec`.

    The worker process calls this once, after its untraced measurement, and
    never uninstalls.
    """
    from scipy.linalg import expm

    modules = [getattr(sigpath, layer) for layer in LAYERS] + [sigpath]
    wrappers = {}
    for module in modules:
        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or not isinstance(value, types.FunctionType):
                continue
            if value is expm and module is sigpath.ito_solver:
                name = "ito_solver.expm"
            elif value.__module__.startswith("sigpath."):
                name = f"{value.__module__.rsplit('.', 1)[1]}.{value.__name__}"
                if name.startswith("topology_lab.experiment_"):
                    name = "topology_lab.experiment"
            else:
                continue
            if id(value) not in wrappers:
                wrappers[id(value)] = _wrap(rec, name, value)
            setattr(module, attr, wrappers[id(value)])
    _count_constructions(rec, sigpath.tensor_algebra.TruncatedTensor, "tensor_algebra.TruncatedTensor.constructed")
    _count_constructions(rec, sigpath.path_core.PiecewiseLinearPath, "path_core.PiecewiseLinearPath.constructed")
