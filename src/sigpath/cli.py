"""Command line front end.

Subcommands: signature (CSV path to tensor JSON), experiment (the named
separation experiments), solve (signature-series ODE solution with its
certificate and oracle check), regress (seeded regression demo).

Exit codes are a contract so the whole suite can run under CI:
0 success / verdict pass, 1 experiment verdict failure, 2 malformed or
oversized input, 3 usage error (bad flags, unknown names), 4 numerical
failure.  The same flags and seed always produce byte-identical JSON output.

A numerical failure is a computed result beyond float range, reported on
stderr as "sigpath: numerical failure: <what> is beyond float range":
tensor_algebra._in_range refuses every such array, series_error_bound its
remainder bound and _emit a payload that JSON cannot hold.  A path's
.length, .points and .endpoint and p_variation return inf instead of
raising (solve on a path whose length overflows exits 2, as the remainder
bound refuses the inf length as an argument); ROADMAP item 9 holds that
policy question.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import topology_lab
from .ito_solver import field_from_dict, field_from_json, solve_and_certify
from .path_core import concat, linear_path, read_csv
from .signature_engine import signature
from .sig_regression import demo_field, evaluate, fit, generate_dataset
from .tensor_algebra import _MALFORMED, _count, _json_floats, _real, tensor_to_json

__all__ = ["main", "entry"]

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_INPUT = 2
EXIT_USAGE = 3
EXIT_NUMERIC = 4

# defaults of --depth and --N, of the seed, and of --format
_DEFAULT_DEPTH = 4
_DEFAULT_SEED = 0
_DEFAULT_FORMAT = "text"


class _Parser(argparse.ArgumentParser):
    # argparse defaults to exit status 2 on usage errors; the contract
    # reserves 2 for malformed input files, so route usage problems to 3.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_common(parser):
    parser.add_argument("--format", choices=("text", "json"), default=_DEFAULT_FORMAT)


# each experiment's topology_lab function and the flags it reads, with their
# defaults; an experiment's parser takes no other flag
_EXPERIMENTS = {
    "product-vs-metric": ("experiment_product_vs_metric", {"k_max": 5, "depth": None}),
    "quotient-vs-metric": ("experiment_quotient_vs_metric", {}),
    "incompleteness": ("experiment_incompleteness", {"n_max": 10, "depth": _DEFAULT_DEPTH}),
    "group-discontinuity": ("experiment_group_discontinuity", {"n_max": 10}),
    "length-bound": ("length_lower_bound", {"n_max": 4, "path": None, "seed": _DEFAULT_SEED}),
}


@functools.cache
def _build_parser() -> _Parser:
    # built once per process: parse_args leaves the parser unchanged and
    # returns a fresh namespace, so repeated main calls can share it
    parser = _Parser(prog="sigpath", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_sig = sub.add_parser("signature", help="signature of a CSV path")
    p_sig.add_argument("path_csv")
    p_sig.add_argument("--depth", type=int, default=_DEFAULT_DEPTH)
    _add_common(p_sig)

    p_exp = sub.add_parser("experiment", help="run a named experiment")
    experiments = p_exp.add_subparsers(dest="name", required=True, parser_class=_Parser)
    for name, (_, flags) in _EXPERIMENTS.items():
        p_name = experiments.add_parser(name)
        for flag, default in flags.items():
            if flag == "path":
                p_name.add_argument("--path", default=None, help="CSV path (default: a two-step staircase)")
            else:
                p_name.add_argument("--" + flag.replace("_", "-"), type=int, default=default)
        _add_common(p_name)

    p_solve = sub.add_parser("solve", help="signature-series ODE solve")
    p_solve.add_argument("field_json")
    p_solve.add_argument("path_csv")
    p_solve.add_argument("--y0", required=True, help="comma-separated initial state")
    p_solve.add_argument("--N", type=int, default=_DEFAULT_DEPTH, help="truncation level")
    _add_common(p_solve)

    p_reg = sub.add_parser("regress", help="seeded regression demo")
    p_reg.add_argument("--config", default=None, help="JSON config file")
    p_reg.add_argument("--seed", type=int, default=_DEFAULT_SEED, help="random seed (default: 0)")
    _add_common(p_reg)

    return parser


def _emit(args, text_render, payload) -> None:
    # serialise in both formats, so a non-finite figure is a numerical
    # failure whichever format was asked for
    try:
        doc = json.dumps(payload, allow_nan=False, sort_keys=True, indent=2)
    except ValueError as exc:
        raise FloatingPointError(f"the result is beyond float range ({exc})") from None
    print(doc if args.format == "json" else text_render())


def _cmd_signature(args) -> int:
    path = read_csv(args.path_csv)
    sig = signature(path, args.depth)
    if args.format == "json":
        print(tensor_to_json(sig))
    else:
        print(f"dim {sig.dim}  depth {sig.depth}")
        for k, level in enumerate(sig.levels):
            print(f"level {k}: {np.array2string(level, max_line_width=100000)}")
    return EXIT_OK


def _default_staircase():
    return concat(linear_path([1.0, 0.0]), linear_path([0.0, 1.0]))


def _cmd_experiment(args) -> int:
    function, flags = _EXPERIMENTS[args.name]
    kwargs = {flag: getattr(args, flag) for flag in flags}
    if args.name == "length-bound":
        kwargs["path"] = read_csv(args.path) if args.path else _default_staircase()
    # looked up per call, so a patched or wrapped module function is the one run
    report = getattr(topology_lab, function)(**kwargs)
    _emit(args, report.render_text, report.to_dict())
    return EXIT_OK if report.verdict else EXIT_VERDICT


def _cmd_solve(args) -> int:
    with open(args.field_json, "r", encoding="utf-8") as fh:
        field = field_from_json(fh.read())
    path = read_csv(args.path_csv)
    try:
        y0 = [float(tok) for tok in args.y0.split(",")]
    except ValueError:
        raise ValueError(f"--y0 must be comma-separated numbers, got {args.y0!r}") from None
    sol = solve_and_certify(field, path, y0, args.N)
    payload = sol.to_dict()

    def text():
        lines = [
            f"value: {np.array2string(sol.value, max_line_width=100000)}",
            f"terms_used: {sol.terms_used}",
            f"error_bound: {sol.error_bound:.6e}",
            f"oracle_value: {np.array2string(sol.oracle_value, max_line_width=100000)}",
            f"discrepancy: {sol.discrepancy:.6e}",
        ]
        return "\n".join(lines)

    _emit(args, text, payload)
    return EXIT_OK


_REGRESS_DEFAULTS = {
    "n_paths": 200,
    "heldout_paths": 100,
    "segment_count": 4,
    "r": 1.0,
    "noise_scale": 0.0,
    "depths": [1, 2, 3, 4],
    "ridge": 0.0,
    "field": None,
    "y0": None,
    "seed": None,
}


def _cmd_regress(args) -> int:
    config = dict(_REGRESS_DEFAULTS)
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            overrides = json.load(fh)
        if not isinstance(overrides, dict):
            raise ValueError("config JSON must be an object")
        if "depth" in overrides:
            raise ValueError("use 'depths': a list of truncation depths")
        unknown = set(overrides) - set(config)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        config.update(overrides)
    # check every value once, so a wrongly typed config is malformed input
    try:
        seed = args.seed if config["seed"] is None else _count("seed", config["seed"], 0)
        if config["field"] is not None:
            field = field_from_dict(config["field"])
            if config["y0"] is None:
                raise ValueError("config with an explicit field must also set y0")
            y0 = _json_floats("config key 'y0'", config["y0"])
        elif config["y0"] is not None:
            raise ValueError("config with an explicit y0 must also set field")
        else:
            field, y0 = demo_field()
        if not isinstance(config["depths"], list):
            raise ValueError(f"config key 'depths' must be a list of integers, got {config['depths']!r}")
        depths = [_count("depths", k, 0) for k in config["depths"]]
        # the check names the key: heldout_paths reaches generate_dataset as n_paths
        counts = ("n_paths", "heldout_paths", "segment_count")
        n_paths, heldout_paths, segment_count = (_count(key, config[key], 1) for key in counts)
        r, noise_scale, ridge = (_real(f"config key {key!r}", config[key]) for key in ("r", "noise_scale", "ridge"))
    except _MALFORMED as exc:
        raise ValueError(f"malformed config: {exc}") from None
    if not depths:
        raise ValueError(f"depths must be a nonempty list of nonnegative integers, got {config['depths']}")
    top = max(depths)
    train = generate_dataset(
        field, y0, n_paths, segment_count, r, noise_scale, seed, depth=top
    )
    heldout = generate_dataset(
        field, y0, heldout_paths, segment_count, r, noise_scale, seed + 1, depth=top
    )
    rows = []
    for depth in depths:
        functional = fit(train, depth, ridge=ridge)
        metrics = evaluate(functional, train, heldout)
        metrics["depth"] = depth
        metrics["rank_deficient"] = functional.rank_deficient
        rows.append(metrics)
    payload = {"seed": seed, "metrics": rows}

    def text():
        cols = ["depth", "rmse_train", "rmse_heldout", "max_abs_heldout", "uniform_gap_heldout"]
        lines = ["  ".join(c.rjust(20) for c in cols)]
        for row in rows:
            cells = [f"{row['depth']}".rjust(20)]
            cells += [f"{row[c]:.8e}".rjust(20) for c in cols[1:]]
            lines.append("  ".join(cells))
        return "\n".join(lines)

    _emit(args, text, payload)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse signals usage problems (and --help) by exiting; keep the
        # exit-code contract in main's return value
        return int(exc.code or 0)
    handler = {
        "signature": _cmd_signature,
        "experiment": _cmd_experiment,
        "solve": _cmd_solve,
        "regress": _cmd_regress,
    }[args.command]
    try:
        return handler(args)
    except FloatingPointError as exc:
        print(f"sigpath: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, ValueError, MemoryError) as exc:
        print(f"sigpath: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
