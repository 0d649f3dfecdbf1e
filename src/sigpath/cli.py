"""Command line front end.

Subcommands: signature (CSV path to tensor JSON), experiment (the named
separation experiments), solve (signature-series ODE solution with its
certificate and oracle check), regress (seeded regression demo).

Exit codes are a contract so the whole suite can run under CI:
0 success / verdict pass, 1 experiment verdict failure, 2 malformed or
oversized input, 3 usage error (bad flags, unknown names), 4 numerical
failure.  The same flags and seed always produce byte-identical JSON output.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import topology_lab
from .ito_solver import field_from_json, solve_and_certify
from .path_core import PathFormatError, concat, linear_path, read_csv
from .signature_engine import signature
from .sig_regression import demo_field, evaluate, fit, generate_dataset
from .tensor_algebra import tensor_to_json

__all__ = ["Config", "main", "entry"]

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_INPUT = 2
EXIT_USAGE = 3
EXIT_NUMERIC = 4


@dataclass
class Config:
    depth: int = 4
    seed: int = 0
    format: str = "text"


class _Parser(argparse.ArgumentParser):
    # argparse defaults to exit status 2 on usage errors; the contract
    # reserves 2 for malformed input files, so route usage problems to 3.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _resolve_seed(args, environ) -> int:
    if args.seed is not None:
        return args.seed
    raw = environ.get("SIGPATH_SEED")
    if raw is None:
        return Config.seed
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"SIGPATH_SEED must be an integer, got {raw!r}") from None


def _add_common(parser):
    parser.add_argument("--seed", type=int, default=None, help="random seed (default: SIGPATH_SEED or 0)")
    parser.add_argument("--format", choices=("text", "json"), default=Config.format)


def _build_parser() -> _Parser:
    parser = _Parser(prog="sigpath", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_sig = sub.add_parser("signature", help="signature of a CSV path")
    p_sig.add_argument("path_csv")
    p_sig.add_argument("--depth", type=int, default=Config.depth)
    _add_common(p_sig)

    p_exp = sub.add_parser("experiment", help="run a named experiment")
    p_exp.add_argument("name", choices=topology_lab.EXPERIMENT_NAMES)
    p_exp.add_argument("--k-max", type=int, default=5)
    p_exp.add_argument("--n-max", type=int, default=None)
    p_exp.add_argument("--depth", type=int, default=None)
    p_exp.add_argument("--path", default=None, help="CSV path for length-bound")
    _add_common(p_exp)

    p_solve = sub.add_parser("solve", help="signature-series ODE solve")
    p_solve.add_argument("field_json")
    p_solve.add_argument("path_csv")
    p_solve.add_argument("--y0", required=True, help="comma-separated initial state")
    p_solve.add_argument("--N", type=int, default=Config.depth, help="truncation level")
    _add_common(p_solve)

    p_reg = sub.add_parser("regress", help="seeded regression demo")
    p_reg.add_argument("--config", default=None, help="JSON config file")
    _add_common(p_reg)

    return parser


def _emit(args, text_render, payload) -> None:
    # serialise in both formats, so a non-finite figure is a numerical
    # failure whichever format was asked for
    try:
        doc = json.dumps(payload, allow_nan=False, sort_keys=True, indent=2)
    except ValueError as exc:
        raise FloatingPointError(f"result is not finite ({exc})") from None
    print(doc if args.format == "json" else text_render())


def _cmd_signature(args, seed) -> int:
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


def _cmd_experiment(args, seed) -> int:
    name = args.name
    if name == "product-vs-metric":
        report = topology_lab.experiment_product_vs_metric(args.k_max, depth=args.depth)
    elif name == "quotient-vs-metric":
        report = topology_lab.experiment_quotient_vs_metric()
    elif name == "incompleteness":
        report = topology_lab.experiment_incompleteness(
            args.n_max if args.n_max is not None else 10,
            depth=args.depth if args.depth is not None else Config.depth,
        )
    elif name == "group-discontinuity":
        report = topology_lab.experiment_group_discontinuity(
            args.n_max if args.n_max is not None else 10
        )
    else:
        path = read_csv(args.path) if args.path else _default_staircase()
        report = topology_lab.length_lower_bound(
            path, n_max=args.n_max if args.n_max is not None else 4, seed=seed
        )
    _emit(args, report.render_text, report.to_dict())
    return EXIT_OK if report.verdict else EXIT_VERDICT


def _cmd_solve(args, seed) -> int:
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


def _cmd_regress(args, seed) -> int:
    config = dict(_REGRESS_DEFAULTS)
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                overrides = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"invalid config JSON: {exc}") from None
        if not isinstance(overrides, dict):
            raise ValueError("config JSON must be an object")
        if "depth" in overrides:
            raise ValueError("use 'depths': a list of truncation depths")
        unknown = set(overrides) - set(config)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        config.update(overrides)
    if config["seed"] is not None:
        seed = int(config["seed"])
    if config["field"] is not None:
        from .ito_solver import field_from_dict

        field = field_from_dict(config["field"])
        if config["y0"] is None:
            raise ValueError("config with an explicit field must also set y0")
        y0 = np.asarray(config["y0"], dtype=float)
    else:
        field, y0 = demo_field()
    depths = [int(k) for k in config["depths"]]
    if not depths or any(k < 0 for k in depths):
        raise ValueError(f"depths must be nonnegative, got {config['depths']}")
    top = max(depths)
    train = generate_dataset(
        field, y0, int(config["n_paths"]), int(config["segment_count"]),
        float(config["r"]), float(config["noise_scale"]), seed, depth=top,
    )
    heldout = generate_dataset(
        field, y0, int(config["heldout_paths"]), int(config["segment_count"]),
        float(config["r"]), float(config["noise_scale"]), seed + 1, depth=top,
    )
    rows = []
    for depth in depths:
        functional = fit(train, depth, ridge=float(config["ridge"]))
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


def main(argv=None, environ=None) -> int:
    import os

    environ = os.environ if environ is None else environ
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
        seed = _resolve_seed(args, environ)
        return handler(args, seed)
    except FloatingPointError as exc:
        print(f"sigpath: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (PathFormatError, OSError, ValueError, MemoryError) as exc:
        print(f"sigpath: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
