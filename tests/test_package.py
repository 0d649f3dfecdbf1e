import ast
import pathlib

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
    assert set(sp.__all__) == (union - {"evaluate"}) | {"__version__"}
    assert len(sp.__all__) == len(set(sp.__all__))
    for module in SUBMODULES:
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"
            if name != "evaluate":
                assert getattr(sp, name) is getattr(module, name)


def test_evaluate_stays_submodule_qualified():
    assert not hasattr(sp, "evaluate")
    assert path_core.evaluate is not sig_regression.evaluate


def test_each_name_is_listed_by_one_submodule():
    # LinearFunctional and feature_count live beside the signature kernel;
    # sig_regression imports them without listing them again
    owners = {}
    for module in SUBMODULES:
        for name in module.__all__:
            owners.setdefault(name, []).append(module.__name__)
    shared = {name: mods for name, mods in owners.items() if len(mods) > 1}
    assert shared == {"evaluate": ["sigpath.path_core", "sigpath.sig_regression"]}
    assert sig_regression.LinearFunctional is signature_engine.LinearFunctional
    assert sig_regression.feature_count is signature_engine.feature_count


def test_regression_serialisers_are_top_level():
    for kind in ("functional", "dataset"):
        for direction in ("to_dict", "from_dict", "to_json", "from_json"):
            name = f"{kind}_{direction}"
            assert name in sp.__all__
            assert getattr(sp, name) is getattr(sig_regression, name)
