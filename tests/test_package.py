import ast
import dataclasses
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import sigpath as sp
from sigpath import ito_solver, path_core, sig_regression, signature_engine, tensor_algebra, topology_lab

SUBMODULES = (tensor_algebra, path_core, signature_engine, topology_lab, ito_solver, sig_regression)
SOURCES = sorted(pathlib.Path(sp.__file__).parent.glob("*.py"))


def _relative_imports_in_functions(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for inner in ast.walk(node):
                if isinstance(inner, ast.ImportFrom) and inner.level > 0:
                    yield inner.lineno


@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.name)
def test_no_relative_import_inside_a_function(source):
    # module dependencies are visible in each header, with no cycle hidden
    # behind a call-time import
    tree = ast.parse(source.read_text(encoding="utf-8"))
    assert list(_relative_imports_in_functions(tree)) == []


def test_the_detector_sees_a_function_level_import():
    tree = ast.parse("def f():\n    from .sig_regression import LinearFunctional\n")
    assert list(_relative_imports_in_functions(tree)) == [2]


def test_the_top_level_names_are_the_submodules_lists():
    union = {name for module in SUBMODULES for name in module.__all__}
    assert set(sp.__all__) == union | {"__version__"}
    assert len(sp.__all__) == len(set(sp.__all__))
    for module in SUBMODULES:
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"
            assert getattr(sp, name) is getattr(module, name)


def test_each_name_is_listed_by_one_submodule():
    # signature_engine lists LinearFunctional, defined beside the signature
    # kernel, and feature_count, defined beside the coefficient budget in
    # tensor_algebra; sig_regression imports both without listing them again
    owners = {}
    for module in SUBMODULES:
        for name in module.__all__:
            owners.setdefault(name, []).append(module.__name__)
    shared = {name: mods for name, mods in owners.items() if len(mods) > 1}
    assert shared == {}
    assert sig_regression.LinearFunctional is signature_engine.LinearFunctional
    assert sig_regression.feature_count is signature_engine.feature_count


def test_regression_serialisers_are_top_level():
    for kind in ("functional", "dataset"):
        for direction in ("to_dict", "from_dict", "to_json", "from_json"):
            name = f"{kind}_{direction}"
            assert name in sp.__all__
            assert getattr(sp, name) is getattr(sig_regression, name)


def _scipy_imports(tree):
    # (enclosing function or None, line) of every import of scipy
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            names = []
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                names = [child.module or ""]
            if any(name.split(".")[0] == "scipy" for name in names):
                found.append((function, child.lineno))
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
            visit(child, inner)

    visit(tree, None)
    return found


def test_no_module_imports_scipy():
    # fit solves its least squares with numpy and the exact-flow oracle
    # has its own matrix exponential: the library runs on numpy alone
    found = {source.name: _scipy_imports(ast.parse(source.read_text(encoding="utf-8"))) for source in SOURCES}
    assert {name: imports for name, imports in found.items() if imports} == {}


def test_the_scipy_detector_sees_module_and_function_imports():
    tree = ast.parse("import scipy.linalg\nfrom scipy import linalg\ndef f():\n    from scipy.linalg import expm\n")
    assert _scipy_imports(tree) == [(None, 1), (None, 2), ("f", 4)]


def test_no_command_loads_scipy(tmp_path):
    # a fresh interpreter: import, signature, experiment, solve and
    # regress all leave scipy unloaded
    csv = tmp_path / "path.csv"
    csv.write_text("# dim=1\n0.5\n-0.25\n")
    field = tmp_path / "field.json"
    field.write_text(json.dumps({"d": 1, "w": 1, "A": [[[0.5]]], "b": [[0.1]]}))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n_paths": 12, "heldout_paths": 4, "depths": [1, 2]}))
    script = f"""
import contextlib, io, json, sys
import sigpath.cli
seen = ["scipy" in sys.modules]
runs = [
    ["signature", {str(csv)!r}, "--depth", "3"],
    ["experiment", "quotient-vs-metric"],
    ["solve", {str(field)!r}, {str(csv)!r}, "--y0", "1", "--N", "4"],
    ["regress", "--config", {str(config)!r}],
]
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        if sigpath.cli.main(argv) != 0:
            raise SystemExit(f"{{argv}} failed")
    seen.append("scipy" in sys.modules)
print(json.dumps(seen))
"""
    src = str(pathlib.Path(sp.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [False] * 5


# the shared decoding policy, and the cli helpers it replaced or retired
_POLICY = {"_real", "_json_floats", "_json_bool", "_json_str", "_MALFORMED"}
_RETIRED = {"_config_int", "_config_float", "_json_float", "_json_int", "_resolve_seed"}
# builtins that accept any JSON value and coerce it silently ("false" is truthy)
_COERCIONS = {"int", "bool", "str"}


def _is_decoder(node):
    return isinstance(node, ast.FunctionDef) and (node.name.endswith("from_dict") or node.name == "_cmd_regress")


def _decoder_faults(tree):
    # (function, line, fault) for a bare int(, bool( or str( call in a decoder, or a handler
    # there that catches anything but _MALFORMED; ValueError may stand
    # beside it, to re-type a bad value as PathFormatError
    faults = []
    for node in filter(_is_decoder, ast.walk(tree)):
        for inner in ast.walk(node):
            if isinstance(inner, ast.Call) and isinstance(inner.func, ast.Name) and inner.func.id in _COERCIONS:
                faults.append((node.name, inner.lineno, f"{inner.func.id}("))
            if isinstance(inner, ast.ExceptHandler):
                caught = [] if inner.type is None else getattr(inner.type, "elts", [inner.type])
                names = {ast.unparse(c) for c in caught}
                if not (names & {"_MALFORMED", "*_MALFORMED"}) or not names <= {"_MALFORMED", "*_MALFORMED", "ValueError"}:
                    faults.append((node.name, inner.lineno, ", ".join(sorted(names)) or "bare except"))
    return sorted(faults)


def test_every_decoder_reads_records_through_the_shared_policy():
    trees = {source.name: ast.parse(source.read_text(encoding="utf-8")) for source in SOURCES}
    decoders = sorted(node.name for tree in trees.values() for node in filter(_is_decoder, ast.walk(tree)))
    assert decoders == [
        "_cmd_regress", "dataset_from_dict", "field_from_dict", "from_dict",
        "functional_from_dict", "path_from_dict", "tensor_from_dict",
    ]
    assert {name: _decoder_faults(tree) for name, tree in trees.items() if _decoder_faults(tree)} == {}
    defined = {
        (name, target)
        for name, tree in trees.items()
        for node in ast.walk(tree)
        for target in (
            [node.name] if isinstance(node, ast.FunctionDef)
            else [t.id for t in node.targets if isinstance(t, ast.Name)] if isinstance(node, ast.Assign)
            else []
        )
        if target in _POLICY | _RETIRED
    }
    assert defined == {("tensor_algebra.py", name) for name in _POLICY}
    used = {node.id for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not used & _RETIRED


def test_the_decoder_detector_sees_int_calls_and_private_exception_lists():
    tree = ast.parse(
        "def x_from_dict(d):\n"
        "    try:\n"
        "        return int(d['a']), bool(d['b']), str(d['c'])\n"
        "    except (KeyError, TypeError):\n"
        "        pass\n"
        "    except _MALFORMED:\n"
        "        pass\n"
        "    except (ValueError, *_MALFORMED):\n"
        "        pass\n"
        "    except ValueError:\n"
        "        pass\n"
        "def other(d):\n"
        "    return int(d)\n"
    )
    assert _decoder_faults(tree) == [
        ("x_from_dict", 3, "bool("),
        ("x_from_dict", 3, "int("),
        ("x_from_dict", 3, "str("),
        ("x_from_dict", 4, "KeyError, TypeError"),
        ("x_from_dict", 10, "ValueError"),
    ]


def _sites(tree, hit):
    # (enclosing function, line) of each node that hit accepts, the
    # function "<module>" outside any
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if hit(child):
                found.append((where, child.lineno))
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where)

    visit(tree, "<module>")
    return found


def _report_constructors(tree):
    # each ExperimentReport(...) call
    return _sites(
        tree,
        lambda n: isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "ExperimentReport",
    )


def test_every_report_takes_its_verdict_from_the_registry():
    # an experiment that built its own ExperimentReport could pair its name
    # with a verdict other than _CHECKS[name]; _report is the one builder,
    # and from_dict decodes a stored verdict for recheck_verdict to audit
    where = {
        (source.name, function)
        for source in SOURCES
        for function, _ in _report_constructors(ast.parse(source.read_text(encoding="utf-8")))
    }
    assert ("topology_lab.py", "_report") in where
    assert where <= {("topology_lab.py", "_report"), ("topology_lab.py", "from_dict")}


def test_the_report_detector_sees_every_enclosing_function():
    tree = ast.parse(
        "r = ExperimentReport('a', [], {}, True)\n"
        "def outer():\n"
        "    def inner():\n"
        "        return ExperimentReport('b', [], {}, True)\n"
        "    return [ExperimentReport('c', [], {}, True)]\n"
        "def other(x):\n"
        "    return x.ExperimentReport('d')\n"
    )
    assert sorted(_report_constructors(tree)) == [("<module>", 1), ("inner", 4), ("outer", 5)]


def _calls(name):
    # a call of name, bare or as an attribute (np.convolve)
    return lambda n: isinstance(n, ast.Call) and getattr(n.func, "id", getattr(n.func, "attr", None)) == name


def _mentions(text):
    # a string literal, or a literal part of an f-string, that contains text
    return lambda n: isinstance(n, ast.Constant) and isinstance(n.value, str) and text in n.value


# each truncated series and each shared input check, with the one function
# that may hold it: the one-letter power series, the tensor products the
# power sums build on, the path-against-field check, and the one fold: the
# float kernel and exact_signature, on either integer type, form segment
# exponentials and fold them through the same two functions, and only those
# two form outer products; floats become integers over a common power of two
# (the exact dyadic arithmetic of exact_signature and the length bound's even
# moments) in one function; one function interpolates a path on a time grid,
# for positions and for the distances, and none calls np.interp;
# one function refuses an integer argument of the wrong type or range, one
# an input array with a NaN or inf entry, and one a real argument that is
# not a finite number meeting its condition; reduce and metric_d
# share the row-level reduction; every distance and difference of two paths
# runs on one stacked kernel, and the 1-variation distances, single or of a
# family, on its one sum; the product metric, of one pair or of a family's
# rows, has one kernel, and the coefficient budget one check, whose count
# for the signature kernel is written in one function that the kernel and
# the dataset draw call before they allocate; a computed
# result beyond float range is refused in one function, beside which only
# the remainder bound's log-domain test and the JSON payload's check raise
# a numerical failure
_OWNERS = {
    "np.convolve": (_calls("convolve"), {("signature_engine.py", "_one_letter_series")}),
    "_mul_levels": (_calls("_mul_levels"), {("tensor_algebra.py", f) for f in ("mul", "exp", "_power_sum")}),
    "path vs field": (_mentions("does not match field input dim"), {("ito_solver.py", "_check_drive")}),
    "_segment_levels": (
        _calls("_segment_levels"),
        {("signature_engine.py", f) for f in ("_signature_levels", "exact_signature")},
    ),
    "_fold": (_calls("_fold"), {("signature_engine.py", f) for f in ("_signature_levels", "exact_signature")}),
    "_outer": (_calls("_outer"), {("signature_engine.py", f) for f in ("_segment_levels", "_fold")}),
    "as_integer_ratio": (_calls("as_integer_ratio"), {("signature_engine.py", "_dyadic")}),
    "np.interp": (_calls("interp"), set()),
    "_at": (_calls("_at"), {("path_core.py", f) for f in ("_differences", "positions_at")}),
    "size argument": (_mentions("need an integer"), {("tensor_algebra.py", "_count")}),
    "finite argument": (_mentions("non-finite entries"), {("tensor_algebra.py", "_finite")}),
    "real argument": (
        lambda n: _mentions("must be finite and")(n) or _mentions("must be a finite number")(n),
        {("tensor_algebra.py", "_real")},
    ),
    "_reduced_rows": (_calls("_reduced_rows"), {("path_core.py", "reduce"), ("topology_lab.py", "metric_d")}),
    "_differences": (
        _calls("_differences"),
        {("path_core.py", f) for f in ("_distances", "sup_distance", "difference_path")},
    ),
    "_distances": (
        _calls("_distances"),
        {("path_core.py", "one_variation_distance")}
        | {
            ("topology_lab.py", f)
            for f in (
                "metric_d",
                "experiment_quotient_vs_metric",
                "experiment_incompleteness",
                "experiment_group_discontinuity",
            )
        },
    ),
    "_product_metric": (
        _calls("_product_metric"),
        {("tensor_algebra.py", "product_metric"), ("topology_lab.py", "experiment_incompleteness")},
    ),
    "coefficient budget": (_mentions("exceeds the limit of"), {("tensor_algebra.py", "_check_budget")}),
    "kernel budget": (
        _calls("_check_kernel_budget"),
        {("signature_engine.py", "_signature_levels"), ("sig_regression.py", "generate_dataset")},
    ),
    "numerical failure": (
        _calls("FloatingPointError"),
        {("tensor_algebra.py", "_in_range"), ("ito_solver.py", "series_error_bound"), ("cli.py", "_emit")},
    ),
}


@pytest.mark.parametrize("what", sorted(_OWNERS))
def test_each_series_and_input_check_has_one_owner(what):
    hit, owners = _OWNERS[what]
    where = {
        (source.name, function)
        for source in SOURCES
        for function, _ in _sites(ast.parse(source.read_text(encoding="utf-8")), hit)
    }
    assert where == owners


def test_the_experiments_build_no_tensor_record():
    # the experiments read signatures as plain level arrays, a family's rows
    # in one batch; a tensor record per row validates every level again
    tree = ast.parse(pathlib.Path(sp.topology_lab.__file__).read_text(encoding="utf-8"))
    assert _sites(tree, lambda n: _calls("GroupTensor")(n) or _calls("TruncatedTensor")(n)) == []


def test_exact_signature_folds_once_for_both_integer_types():
    # int64 and Python ints differ only in the array's dtype: one call of
    # _segment_levels and one of _fold serve both
    tree = ast.parse(pathlib.Path(sp.signature_engine.__file__).read_text(encoding="utf-8"))
    for name in ("_segment_levels", "_fold"):
        assert [f for f, _ in _sites(tree, _calls(name))].count("exact_signature") == 1


def test_the_owner_detector_sees_calls_and_messages_in_every_function():
    tree = ast.parse(
        "import numpy as np\n"
        "a = np.convolve([1], [1])\n"
        "def f(x):\n"
        "    g = lambda y: _mul_levels(x, y)\n"
        "    raise ValueError(f'path dim {x} does not match field input dim {x}')\n"
        "def h(x):\n"
        "    return x._mul_levels, 'field input dim'\n"
    )
    assert _sites(tree, _calls("convolve")) == [("<module>", 2)]
    assert _sites(tree, _calls("_mul_levels")) == [("f", 4)]
    assert _sites(tree, _mentions("does not match field input dim")) == [("f", 5)]


# the objects every boundary case below reaches: a planar path, its depth-4
# signature, the demo field and a depth-2 dataset of that field
_PATH = sp.linear_path([1.0, 0.5])
_SIG = sp.signature(_PATH, 4)
_FIELD, _Y0 = sig_regression.demo_field()
_DATA = sig_regression.generate_dataset(_FIELD, _Y0, 8, 3, 1.0, 0.0, 0, depth=2)
_NAN, _INF = float("nan"), float("inf")


# each real argument: a call that passes it, the name its refusal gives, its
# condition (empty for none) and a value that breaks the condition
_REALS = [
    ("scale", lambda v: sp.scale(_SIG, v), "scale factor c", "", None),
    (
        "tensor-level",
        lambda v: sp.tensor_from_dict({"dim": 1, "depth": 1, "levels": [[1.0], [v]]}),
        "tensor levels",
        "",
        None,
    ),
    (
        "report-series",
        lambda v: sp.ExperimentReport.from_dict(
            {"name": "quotient-vs-metric", "indices": [1], "series": {"x": [v]}, "verdict": True}
        ),
        "report series 'x'",
        "",
        None,
    ),
    (
        "dataset-record-noise_scale",
        lambda v: sp.dataset_from_dict(dict(sp.dataset_to_dict(_DATA), noise_scale=v)),
        "dataset key 'noise_scale'",
        "",
        None,
    ),
    ("tolerance", lambda v: sp.check_group_like(_SIG, tolerance=v), "tolerance", "nonnegative", -1.0),
    ("p", lambda v: sp.p_variation(_PATH, v), "p", "at least 1", 0.5),
    ("evaluate-t", lambda v: _PATH.evaluate(v), "time t", "in [0, 1]", 1.5),
    ("radius", lambda v: sp.ball_br_membership(_PATH, v), "radius", "positive", 0.0),
    ("epsilon", lambda v: sp.experiment_quotient_vs_metric([0.1, v]), "epsilon", "nonnegative", -0.1),
    ("path_length", lambda v: sp.series_error_bound(_FIELD, v, 3, 1.0), "path_length", "nonnegative", -1.0),
    ("state_norm", lambda v: sp.series_error_bound(_FIELD, 1.0, 3, v), "state_norm", "nonnegative", -1.0),
    (
        "generate_dataset-r",
        lambda v: sp.generate_dataset(_FIELD, _Y0, 8, 3, v, 0.0, 0, depth=2),
        "length budget r",
        "positive",
        0.0,
    ),
    (
        "generate_dataset-noise_scale",
        lambda v: sp.generate_dataset(_FIELD, _Y0, 8, 3, 1.0, v, 0, depth=2),
        "noise_scale",
        "nonnegative",
        -1.0,
    ),
    ("ridge", lambda v: sp.fit(_DATA, 1, ridge=v), "ridge", "nonnegative", -1.0),
    (
        "dataset-noise_scale",
        lambda v: sp.RegressionDataset(_DATA.segments, _DATA.features, _DATA.responses, 2, v),
        "noise_scale",
        "nonnegative",
        -1.0,
    ),
]


def _real_refusals():
    # str, bool, None, nan and inf for every real argument, and the value
    # that breaks its condition; the refusal gives the argument's name
    for label, call, name, condition, outside in _REALS:
        need = f"finite and {condition}" if condition else "a finite number"
        bad = {"str": "1", "bool": True, "None": None, "nan": _NAN, "inf": _INF}
        if outside is not None:
            bad["outside"] = outside
        for kind, value in bad.items():
            yield pytest.param(
                lambda call=call, value=value: call(value),
                re.escape(f"{name} must be {need}, got {value!r}"),
                id=f"real-{label}-{kind}",
            )


@pytest.mark.parametrize(
    "call, message",
    [
        # size arguments, each refused by _count with the argument's name
        pytest.param(lambda: sp.signature(_PATH, 2.5), "need an integer depth", id="signature-depth"),
        pytest.param(lambda: sig_regression.featurize(_PATH, 2.5), "need an integer depth", id="featurize-depth"),
        pytest.param(lambda: sp.experiment_incompleteness(3, depth=2.5), "need an integer depth", id="incompleteness-depth"),
        pytest.param(lambda: sp.word_coefficients(_FIELD, _Y0, 2.5), "need an integer depth", id="word_coefficients-depth"),
        pytest.param(
            lambda: sp.generate_dataset(_FIELD, _Y0, 8, 3, 1.0, 0.0, 0, depth=2.5),
            "need an integer depth",
            id="generate_dataset-depth",
        ),
        pytest.param(lambda: sp.fit(_DATA, 1.5), "need an integer 0 <= depth <= 2", id="fit-depth=1.5"),
        pytest.param(lambda: sp.fit(_DATA, 3), "need an integer 0 <= depth <= 2", id="fit-depth=3"),
        pytest.param(lambda: sp.LinearFunctional(2, 2.5, np.zeros(7)), "need an integer depth", id="functional-depth"),
        pytest.param(lambda: sp.unit(2, 2.5), "need an integer depth", id="unit-depth"),
        pytest.param(lambda: sp.unit(2.0, 2), "need an integer dim", id="unit-dim"),
        pytest.param(lambda: sp.zero(2, 2.5), "need an integer depth", id="zero-depth"),
        pytest.param(lambda: sp.project(_SIG, 1.5), "need an integer 0 <= projection depth <= 4", id="project"),
        pytest.param(lambda: sp.PiecewiseLinearPath(2.0, [[1.0, 2.0]]), "need an integer dim", id="path-dim"),
        pytest.param(lambda: sp.feature_count(2.0, 2), "need an integer dim", id="feature_count-dim"),
        pytest.param(lambda: sp.feature_count(2, 2.5), "need an integer depth", id="feature_count-depth"),
        pytest.param(
            lambda: sp.TruncatedTensor(2, 1.0, [np.ones(1), np.zeros(2)]), "need an integer depth", id="tensor-depth"
        ),
        pytest.param(lambda: _SIG.level(1.5), "need an integer 0 <= level <= 4", id="level"),
        pytest.param(lambda: sp.phi_contraction(_SIG, 1.5), "need an integer 0 <= n <= 2", id="phi_contraction"),
        pytest.param(lambda: sp.phi_contraction(_SIG, True), "need an integer 0 <= n <= 2", id="phi_contraction-True"),
        # word letters and the dim of word_index
        pytest.param(lambda: sp.word_index((1.5,), 2), "need an integer letter >= 1", id="word_index-letter=1.5"),
        pytest.param(lambda: sp.word_index((True,), 2), "need an integer letter >= 1", id="word_index-letter=True"),
        pytest.param(lambda: sp.word_index((1,), 2.5), "need an integer dim >= 1", id="word_index-dim=2.5"),
        # the Monte Carlo's sample count, bounded like the coefficients
        pytest.param(
            lambda: sp.length_lower_bound(_PATH, mc_samples=2**62), "need an integer 1 <= mc_samples", id="mc_samples=2**62"
        ),
        # a report index, from which recheck_verdict divides and raises powers
        pytest.param(
            lambda: sp.ExperimentReport.from_dict(
                {"name": "group-discontinuity", "indices": [0], "series": {}, "verdict": True}
            ),
            "need an integer report index >= 1, got 0",
            id="report-index=0",
        ),
        # seeds, refused before anything is drawn
        pytest.param(
            lambda: sp.generate_dataset(_FIELD, _Y0, 8, 3, 1.0, 0.0, 1.5), "need an integer seed", id="generate_dataset-seed"
        ),
        pytest.param(lambda: sp.length_lower_bound(_PATH, seed=1.5), "need an integer seed", id="length_lower_bound-seed"),
        pytest.param(lambda: sp.check_group_like(_SIG, seed=1.5), "need an integer seed", id="check_group_like-seed"),
        pytest.param(lambda: sp.check_group_like(_SIG, seed=-1), "need an integer seed", id="check_group_like-seed=-1"),
        *(
            pytest.param(
                lambda seed=seed: sp.RegressionDataset(_DATA.segments, _DATA.features, _DATA.responses, 2, 0.0, seed),
                "need an integer seed >= 0",
                id=f"dataset-seed={seed}",
            )
            for seed in (1.5, True, -1)
        ),
        # input arrays, each refused by _finite with the array's name
        pytest.param(lambda: sp.PiecewiseLinearPath(2, [[_NAN, 0.0]]), "segments must be finite", id="path-nan"),
        pytest.param(
            lambda: sp.TruncatedTensor(2, 1, [np.ones(1), [0.0, _INF]]), "level 1 must be finite", id="tensor-inf"
        ),
        pytest.param(
            lambda: sp.LinearVectorField(np.full((1, 2, 2), _NAN), np.zeros((1, 2))),
            "field matrices must be finite",
            id="field-matrices-nan",
        ),
        pytest.param(
            lambda: sp.LinearVectorField(np.zeros((1, 2, 2)), [[0.0, -_INF]]),
            "field offsets must be finite",
            id="field-offsets-inf",
        ),
        pytest.param(lambda: sp.oracle_solve(_FIELD, _PATH, [_NAN, 0.0]), "y0 must be finite", id="y0-nan"),
        pytest.param(lambda: sp.PiecewiseLinearPath(1, [["nan"]]), "segments must be finite", id="path-nan-word"),
        # ... and refused by name where it is complex or no number at all,
        # before a float cast could drop an imaginary part or raise a TypeError
        pytest.param(lambda: sp.linear_path(np.array([1 + 2j, 3.0])), "segments must be real", id="path-complex"),
        pytest.param(lambda: sp.exp_segment([1j, 0.0], 2), "segments must be real", id="exp_segment-complex"),
        pytest.param(lambda: sp.PiecewiseLinearPath(2, {"a": 1}), "segments must be real", id="path-dict"),
        pytest.param(lambda: sp.PiecewiseLinearPath(1, [["one"]]), "segments must be real", id="path-word"),
        pytest.param(lambda: sp.linear_path("one"), "segments must be real", id="linear_path-word"),
        pytest.param(
            lambda: sp.LinearVectorField(1j * np.ones((1, 2, 2)), np.zeros((1, 2))),
            "field matrices must be real",
            id="field-matrices-imaginary",
        ),
        pytest.param(lambda: sp.oracle_solve(_FIELD, _PATH, {"y": 0}), "y0 must be real", id="y0-dict"),
        pytest.param(
            lambda: sp.TruncatedTensor(1, 1, [[1.0], [2j]]), "level 1 must be real", id="tensor-complex"
        ),
        pytest.param(lambda: sp.LinearFunctional(1, 1, [1j, 1.0]), "weights must be real", id="functional-complex"),
        pytest.param(
            lambda: sp.RegressionDataset(_DATA.segments, {"x": 1}, _DATA.responses, 2, 0.0),
            "features must be real",
            id="dataset-features-dict",
        ),
        pytest.param(
            lambda: sp.RegressionDataset(np.full((1, 1, 2), _INF), np.ones((1, 1)), np.ones((1, 1)), 0, 0.0),
            "segments must be finite",
            id="dataset-segments-inf",
        ),
        # floats with a range of their own
        pytest.param(lambda: sp.experiment_quotient_vs_metric((_NAN,)), "epsilon", id="epsilon-nan"),
        pytest.param(lambda: sp.experiment_quotient_vs_metric((1e-2, _INF)), "epsilon", id="epsilon-inf"),
        pytest.param(lambda: sp.fit(_DATA, 1, ridge=_NAN), "ridge", id="ridge-nan"),
        pytest.param(lambda: sp.fit(_DATA, 1, ridge=_INF), "ridge", id="ridge-inf"),
        pytest.param(lambda: sp.check_group_like(_SIG, tolerance=_NAN), "tolerance", id="tolerance-nan"),
        pytest.param(lambda: sp.check_group_like(_SIG, tolerance=-1.0), "tolerance", id="tolerance-negative"),
        pytest.param(lambda: sp.check_group_like(_SIG, tolerance=_INF), "tolerance", id="tolerance-inf"),
        pytest.param(lambda: sp.scale(_SIG, _NAN), "scale factor c", id="scale-nan"),
        pytest.param(lambda: sp.scale(_SIG, -_INF), "scale factor c", id="scale-inf"),
        # a depth that is no number is refused by _count before any budget
        pytest.param(lambda: sp.signature(_PATH, None), "depth", id="signature-depth-None"),
        pytest.param(lambda: sp.log_signature(_PATH, None), "depth", id="log-signature-depth-None"),
        pytest.param(lambda: sp.featurize(_PATH, "2"), "depth", id="featurize-depth-str"),
        pytest.param(lambda: sp.word_coefficients(_FIELD, _Y0, None), "depth", id="word-coefficients-depth-None"),
        pytest.param(lambda: sp.ito_series(_FIELD, _PATH, _Y0, None), "depth", id="ito-series-depth-None"),
        pytest.param(lambda: sp.experiment_incompleteness(3, depth=None), "depth", id="incompleteness-depth-None"),
        # a 0-d value has no columns to read features from
        pytest.param(lambda: sp.LinearFunctional(1, 1, [1.0, 2.0]).predict(3.0), "features", id="predict-0-d"),
        # every real argument, each refused by _real with the argument's name
        *_real_refusals(),
    ],
)
def test_the_boundary_refuses_bad_arguments_by_name(call, message):
    # a ValueError that names the argument, not a TypeError or an overflow
    # from deep inside
    with pytest.raises(ValueError, match=message):
        call()


def test_the_boundary_takes_numpy_integer_sizes():
    two, three = np.int64(2), np.int32(3)
    assert sp.feature_count(two, three) == sp.feature_count(2, 3) == 15
    assert sp.signature(_PATH, three).levels[3].tolist() == sp.signature(_PATH, 3).levels[3].tolist()
    assert sp.project(_SIG, two).depth == 2 and sp.unit(two, three).depth == 3 and sp.zero(two, two).dim == 2
    assert _SIG.level(two) is _SIG.levels[2] and sp.phi_contraction(_SIG, np.int64(1)) == sp.phi_contraction(_SIG, 1)
    assert sp.PiecewiseLinearPath(two, [[1.0, 2.0]]).segments.shape == (1, 2)
    assert sp.fit(_DATA, np.int64(1)).weights.tolist() == sp.fit(_DATA, 1).weights.tolist()
    # the values hold the sizes as ints, so their records serialise
    assert sp.tensor_to_json(sp.signature(_PATH, three)) == sp.tensor_to_json(sp.signature(_PATH, 3))
    assert json.dumps(sp.path_to_dict(sp.PiecewiseLinearPath(two, [[1.0, 2.0]]))) == '{"dim": 2, "segments": [[1.0, 2.0]]}'
    assert type(sp.TruncatedTensor(two, np.int32(0), [[1.0]]).depth) is int
    functional = sp.LinearFunctional(two, np.int64(1), np.zeros(3))
    assert sp.functional_to_json(functional) == sp.functional_to_json(sp.LinearFunctional(2, 1, np.zeros(3)))
    data = sp.RegressionDataset(_DATA.segments, _DATA.features, _DATA.responses, two, 0.0, np.int64(0))
    assert sp.dataset_to_json(data) == sp.dataset_to_json(_DATA)


def test_the_boundary_takes_numpy_reals():
    # np.float32, np.float64 and np.int64 give what the equal Python float gives
    for kind in (np.float32, np.float64, np.int64):
        zero, one, two = kind(0), kind(1), kind(2)
        assert sp.p_variation(_PATH, two) == sp.p_variation(_PATH, 2.0)
        assert sp.tensor_to_json(sp.scale(_SIG, two)) == sp.tensor_to_json(sp.scale(_SIG, 2.0))
        assert _PATH.evaluate(one).tolist() == _PATH.evaluate(1.0).tolist()
        assert sp.check_group_like(_SIG, tolerance=one) == sp.check_group_like(_SIG, tolerance=1.0)
        assert sp.ball_br_membership(_PATH, one) is sp.ball_br_membership(_PATH, 1.0) is False
        report = sp.experiment_quotient_vs_metric([zero, two])
        assert report.to_dict() == sp.experiment_quotient_vs_metric([0.0, 2.0]).to_dict()
        assert sp.series_error_bound(_FIELD, two, 3, one) == sp.series_error_bound(_FIELD, 2.0, 3, 1.0)
        data = sp.generate_dataset(_FIELD, _Y0, 8, 3, two, one, 0, depth=2)
        want = sp.generate_dataset(_FIELD, _Y0, 8, 3, 2.0, 1.0, 0, depth=2)
        assert sp.dataset_to_json(data) == sp.dataset_to_json(want)
        assert type(data.noise_scale) is float
        assert sp.fit(_DATA, 1, ridge=one).weights.tolist() == sp.fit(_DATA, 1, ridge=1.0).weights.tolist()


def _unused_imports(tree):
    # (line, name) of each name an import binds that the module never reads,
    # __future__ imports aside
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, (alias.asname or alias.name).split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, alias.asname or alias.name) for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for line, name in bound if name not in read)


@pytest.mark.parametrize("source", [s for s in SOURCES if s.name != "__init__.py"], ids=lambda p: p.name)
def test_every_imported_name_is_used(source):
    assert _unused_imports(ast.parse(source.read_text(encoding="utf-8"))) == []


def test_the_import_detector_sees_unused_names():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os, numpy as np\n"
        "from dataclasses import dataclass, field\n"
        "@dataclass\n"
        "class A:\n"
        "    x: np.ndarray\n"
        "def f():\n"
        "    import scipy.linalg\n"
        "    return scipy.linalg.lstsq\n"
    )
    assert _unused_imports(tree) == [(2, "os"), (3, "field")]


_ENVIRONMENT_READERS = {"environ", "environb", "getenv", "getenvb"}


def _environment_reads(tree):
    # (line, name) of each os.environ, os.environb or os.getenv(b) the
    # module reads, or imports from os under any name
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in _ENVIRONMENT_READERS:
            if isinstance(node.value, ast.Name) and node.value.id == "os":
                found.append((node.lineno, f"os.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [(node.lineno, alias.name) for alias in node.names if alias.name in _ENVIRONMENT_READERS]
    return sorted(found)


@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.name)
def test_no_module_reads_the_environment(source):
    # what the library computes and the CLI prints depends only on the
    # arguments and the files they name
    assert _environment_reads(ast.parse(source.read_text(encoding="utf-8"))) == []


def test_the_environment_detector_sees_attributes_and_imports():
    tree = ast.parse(
        "import os\n"
        "from os import getenv as g, path\n"
        "a = os.environ.get('X')\n"
        "def f():\n"
        "    return os.getenv('Y'), os.environb, os.path.join('a')\n"
        "b = config.environ\n"
    )
    assert _environment_reads(tree) == [(2, "getenv"), (3, "os.environ"), (5, "os.environb"), (5, "os.getenv")]


def _mode_flags(tree):
    # (function, parameter) of each parameter, positional or keyword-only,
    # whose default is True or False
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            positional = args.posonlyargs + args.args
            pairs = list(zip(positional[len(positional) - len(args.defaults) :], args.defaults))
            pairs += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            name = getattr(node, "name", "<lambda>")
            found += [(name, a.arg) for a, d in pairs if isinstance(d, ast.Constant) and isinstance(d.value, bool)]
    return found


@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.name)
def test_no_function_takes_a_mode_flag(source):
    # a boolean default is a setting its caller's inputs usually decide
    # (the integer fold reads its arithmetic from the dtype, for one)
    assert _mode_flags(ast.parse(source.read_text(encoding="utf-8"))) == []


def test_the_mode_flag_detector_sees_every_parameter_kind():
    tree = ast.parse(
        "def f(a, b=True, c=1, *, d, e=False, g=None):\n"
        "    return lambda x=False: x\n"
        "def h(p=False, /, q=0):\n"
        "    pass\n"
        "class K:\n"
        "    flag: bool = False\n"
    )
    assert sorted(_mode_flags(tree)) == [("<lambda>", "x"), ("f", "b"), ("f", "e"), ("h", "p")]


def test_checked_arrays_stay_read_only_copies():
    rows = np.array([[1.0, 2.0], [3.0, -1.0]])
    path = sp.PiecewiseLinearPath(2, rows)
    rows[0, 0] = 9.0
    assert path.segments[0, 0] == 1.0
    y0 = np.array([0.5, -0.25])
    checked = ito_solver._check_y0(_FIELD, y0)
    for arr in (path.segments, _FIELD.matrices, _FIELD.offsets, checked, _DATA.segments, _SIG.levels[1]):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr.flat[0] = 0.0


# a boundary instance of each decodable record, built directly, with the
# to_dict and from_dict that serialise it
_BOUNDARY_RECORDS = [
    ("depth-0-tensor", sp.TruncatedTensor(3, 0, [[2.5]]), sp.tensor_to_dict, sp.tensor_from_dict),
    ("empty-path", sp.PiecewiseLinearPath(2, np.zeros((0, 2))), sp.path_to_dict, sp.path_from_dict),
    ("d1-w1-field", sp.LinearVectorField([[[0.5]]], [[0.25]]), sp.field_to_dict, sp.field_from_dict),
    (
        "zero-output-functional",
        sp.LinearFunctional(2, 1, np.zeros((3, 0))),
        sp.functional_to_dict,
        sp.functional_from_dict,
    ),
    (
        "one-path-no-segment-dataset",
        sp.RegressionDataset(np.zeros((1, 0, 2)), [[1.0, 0.0, 0.0]], [[0.5]], 1, 0.0, seed=3),
        sp.dataset_to_dict,
        sp.dataset_from_dict,
    ),
    (
        "empty-index-report",
        sp.ExperimentReport("group-discontinuity", [], {"d_product_to_origin": []}, False),
        sp.ExperimentReport.to_dict,
        sp.ExperimentReport.from_dict,
    ),
]


def _same_value(a, b):
    # arrays by shape and bits, tuples entry by entry, anything else by ==
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.shape == b.shape and np.array_equal(a, b)
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(_same_value, a, b))
    return type(a) is type(b) and a == b


@pytest.mark.parametrize(
    "record, to_dict, from_dict", [case[1:] for case in _BOUNDARY_RECORDS], ids=[case[0] for case in _BOUNDARY_RECORDS]
)
def test_a_record_built_directly_decodes_back_unchanged(record, to_dict, from_dict):
    # an object built directly never writes JSON its decoder refuses
    back = from_dict(json.loads(json.dumps(to_dict(record), allow_nan=False)))
    assert type(back) is type(record)
    for field in dataclasses.fields(record):
        assert _same_value(getattr(back, field.name), getattr(record, field.name)), field.name


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: sp.RegressionDataset(np.zeros((0, 1, 2)), np.zeros((0, 7)), np.zeros((0, 2)), 2, 0.0), "dataset is empty"),
        (lambda: sp.LinearVectorField(np.zeros((0, 2, 2)), np.zeros((0, 2))), r"d, w >= 1, got \(0, 2, 2\)"),
        (lambda: sp.LinearVectorField(np.zeros((2, 0, 0)), np.zeros((2, 0))), r"d, w >= 1, got \(2, 0, 0\)"),
        (lambda: sp.LinearFunctional(1, 1, [_NAN, 1.0]), "weights must be finite"),
        (lambda: sp.RegressionDataset(_DATA.segments, _DATA.features * _NAN, _DATA.responses, 2, 0.0), "features must be finite"),
        (lambda: sp.RegressionDataset(_DATA.segments, _DATA.features, _DATA.responses + _INF, 2, 0.0), "responses must be finite"),
    ],
    ids=["empty-dataset", "d0-field", "w0-field", "nan-weights", "nan-features", "inf-responses"],
)
def test_a_record_its_decoder_would_refuse_is_refused_when_built(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def _mutable_dataclasses(tree):
    # (line, class) of each class decorated with dataclass without frozen=True
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for deco in node.decorator_list:
            func = deco.func if isinstance(deco, ast.Call) else deco
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name != "dataclass":
                continue
            keywords = deco.keywords if isinstance(deco, ast.Call) else []
            if not any(k.arg == "frozen" and isinstance(k.value, ast.Constant) and k.value.value is True for k in keywords):
                found.append((node.lineno, node.name))
    return found


@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.name)
def test_every_dataclass_is_frozen(source):
    # a record checks its fields once, in __post_init__, so no field may be
    # reassigned after construction
    assert _mutable_dataclasses(ast.parse(source.read_text(encoding="utf-8"))) == []


def test_the_dataclass_detector_sees_bare_calls_and_attributes():
    tree = ast.parse(
        "import dataclasses\n"
        "@dataclass\n"
        "class A: pass\n"
        "@dataclass(eq=False)\n"
        "class B: pass\n"
        "@dataclasses.dataclass(frozen=False)\n"
        "class C: pass\n"
        "@dataclasses.dataclass\n"
        "class D: pass\n"
        "@dataclass(frozen=True, eq=False)\n"
        "class E: pass\n"
        "@functools.total_ordering\n"
        "class F: pass\n"
    )
    assert _mutable_dataclasses(tree) == [(3, "A"), (5, "B"), (7, "C"), (9, "D")]
