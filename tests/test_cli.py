import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import sigpath as sp
from sigpath import cli, topology_lab
from sigpath.ito_solver import field_to_json
from sigpath.path_core import write_csv
from sigpath.tensor_algebra import tensor_from_json


@pytest.fixture
def staircase_csv(tmp_path):
    p = sp.concat(sp.linear_path([1.0, 0.0]), sp.linear_path([0.0, 1.0]))
    f = tmp_path / "stair.csv"
    write_csv(p, f)
    return str(f)


def run_main(capsys, argv, environ=None):
    code = cli.main(argv, environ=environ if environ is not None else {})
    out = capsys.readouterr()
    return code, out.out, out.err


def test_signature_json_matches_library(capsys, staircase_csv):
    code, out, _ = run_main(capsys, ["signature", staircase_csv, "--depth", "3", "--format", "json"])
    assert code == 0
    got = tensor_from_json(out)
    p = sp.concat(sp.linear_path([1.0, 0.0]), sp.linear_path([0.0, 1.0]))
    want = sp.signature(p, 3)
    for a, b in zip(got.levels, want.levels):
        assert np.array_equal(a, b)


def test_signature_text_format(capsys, staircase_csv):
    code, out, _ = run_main(capsys, ["signature", staircase_csv])
    assert code == 0
    assert "level 0" in out and "dim 2" in out


def test_byte_identical_json(capsys, staircase_csv):
    argv = ["experiment", "length-bound", "--path", staircase_csv, "--n-max", "2",
            "--seed", "3", "--format", "json"]
    _, out1, _ = run_main(capsys, argv)
    _, out2, _ = run_main(capsys, argv)
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["seed"] == 3 and doc["verdict"] is True


def test_experiment_exit_codes(capsys):
    code, out, _ = run_main(capsys, ["experiment", "quotient-vs-metric"])
    assert code == 0
    assert "PASS" in out

    code, _, _ = run_main(capsys, ["experiment", "no-such-name"])
    assert code == 3


def test_experiment_verdict_failure_maps_to_1(capsys, monkeypatch):
    real = topology_lab.experiment_quotient_vs_metric()
    failing = dataclasses.replace(real, verdict=False)
    monkeypatch.setattr(
        topology_lab, "experiment_quotient_vs_metric", lambda *a, **k: failing
    )
    code, out, _ = run_main(capsys, ["experiment", "quotient-vs-metric"])
    assert code == 1
    assert "FAIL" in out


def test_experiment_flags_reach_library(capsys):
    code, out, _ = run_main(
        capsys, ["experiment", "product-vs-metric", "--k-max", "3", "--format", "json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["indices"] == [1, 2, 3]


def test_usage_errors(capsys):
    assert run_main(capsys, [])[0] == 3
    assert run_main(capsys, ["frobnicate"])[0] == 3
    assert run_main(capsys, ["signature"])[0] == 3
    assert run_main(capsys, ["signature", "x.csv", "--format", "yaml"])[0] == 3


def test_malformed_csv_is_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("# dim=2\n1.0,oops\n")
    code, _, err = run_main(capsys, ["signature", str(bad)])
    assert code == 2
    assert "error" in err

    code, _, _ = run_main(capsys, ["signature", str(tmp_path / "missing.csv")])
    assert code == 2


def test_seed_resolution(capsys, staircase_csv):
    argv = ["experiment", "length-bound", "--path", staircase_csv, "--n-max", "1",
            "--format", "json"]
    _, out, _ = run_main(capsys, argv + ["--seed", "5"], environ={"SIGPATH_SEED": "9"})
    assert json.loads(out)["seed"] == 5
    _, out, _ = run_main(capsys, argv, environ={"SIGPATH_SEED": "9"})
    assert json.loads(out)["seed"] == 9
    _, out, _ = run_main(capsys, argv, environ={})
    assert json.loads(out)["seed"] == 0
    code, _, err = run_main(capsys, argv, environ={"SIGPATH_SEED": "pi"})
    assert code == 2
    assert "SIGPATH_SEED" in err


def test_solve_matches_library(capsys, tmp_path, staircase_csv):
    A = np.zeros((2, 2, 2))
    A[0] = [[0.0, 1.0], [0.0, 0.0]]
    A[1] = [[0.0, 0.0], [1.0, 0.0]]
    field = sp.LinearVectorField(matrices=A, offsets=np.zeros((2, 2)))
    fjson = tmp_path / "field.json"
    fjson.write_text(field_to_json(field))

    code, out, _ = run_main(
        capsys,
        ["solve", str(fjson), staircase_csv, "--y0", "1,2", "--N", "6", "--format", "json"],
    )
    assert code == 0
    doc = json.loads(out)
    p = sp.concat(sp.linear_path([1.0, 0.0]), sp.linear_path([0.0, 1.0]))
    sol = sp.solve_and_certify(field, p, np.array([1.0, 2.0]), 6)
    assert doc["value"] == [float(v) for v in sol.value]
    assert doc["discrepancy"] <= doc["error_bound"]

    code, out, _ = run_main(
        capsys, ["solve", str(fjson), staircase_csv, "--y0", "1,2", "--N", "6"]
    )
    assert code == 0 and "discrepancy" in out


def test_solve_bad_inputs(capsys, tmp_path, staircase_csv):
    fjson = tmp_path / "field.json"
    fjson.write_text("{\"d\": 2}")
    code, _, _ = run_main(capsys, ["solve", str(fjson), staircase_csv, "--y0", "1,2"])
    assert code == 2

    A = np.zeros((2, 1, 1))
    field = sp.LinearVectorField(matrices=A, offsets=np.zeros((2, 1)))
    fjson.write_text(field_to_json(field))
    code, _, err = run_main(
        capsys, ["solve", str(fjson), staircase_csv, "--y0", "1,up"]
    )
    assert code == 2
    assert "--y0" in err


def test_regress_demo(capsys, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"n_paths": 30, "heldout_paths": 15, "depths": [1, 2]}))
    code, out, _ = run_main(
        capsys, ["regress", "--config", str(cfg), "--seed", "0", "--format", "json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["seed"] == 0
    rows = doc["metrics"]
    assert [r["depth"] for r in rows] == [1, 2]
    assert rows[1]["rmse_heldout"] < rows[0]["rmse_heldout"]
    assert all("rank_deficient" in r for r in rows)

    code, out, _ = run_main(capsys, ["regress", "--config", str(cfg)])
    assert code == 0
    assert "rmse_heldout" in out


def test_regress_config_validation(capsys, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"depth": 3}))
    code, _, err = run_main(capsys, ["regress", "--config", str(cfg)])
    assert code == 2
    assert "depths" in err

    cfg.write_text(json.dumps({"paths": 10}))
    assert run_main(capsys, ["regress", "--config", str(cfg)])[0] == 2

    cfg.write_text("not json")
    assert run_main(capsys, ["regress", "--config", str(cfg)])[0] == 2

    cfg.write_text(json.dumps({"field": {"d": 1, "w": 1, "A": [[[0.5]]], "b": [[0.0]]}}))
    code, _, err = run_main(capsys, ["regress", "--config", str(cfg)])
    assert code == 2
    assert "y0" in err


def test_console_entry_point(staircase_csv):
    # the child imports the same sigpath as this process, installed or not
    src = os.path.dirname(os.path.dirname(sp.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "sigpath.cli", "signature", staircase_csv,
         "--depth", "2", "--format", "json"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    tensor_from_json(proc.stdout)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_signature_size_budget_and_overflow(capsys, tmp_path, staircase_csv, fmt):
    code, out, err = run_main(capsys, ["signature", staircase_csv, "--depth", "64", "--format", fmt])
    assert code == 2 and out == "" and "limit" in err

    big = tmp_path / "big.csv"
    big.write_text("# dim=2\n1e100,1e100\n-1e100,2e100\n")
    code, out, err = run_main(capsys, ["signature", str(big), "--depth", "4", "--format", fmt])
    assert code == 4 and out == "" and "numerical failure" in err


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("offset", [0.0, 1.0])
def test_solve_overflow_is_numerical_failure(capsys, tmp_path, fmt, offset):
    # exp(800) overflows the oracle; the affine variant overflows the discrepancy
    field = sp.LinearVectorField(matrices=[[[800.0]]], offsets=[[offset]])
    fjson = tmp_path / "field.json"
    fjson.write_text(field_to_json(field))
    path_csv = tmp_path / "one.csv"
    write_csv(sp.linear_path([1.0]), path_csv)
    with np.errstate(over="ignore"):
        code, out, err = run_main(
            capsys, ["solve", str(fjson), str(path_csv), "--y0", "1", "--N", "4", "--format", fmt]
        )
    assert code == 4 and out == "" and "numerical failure" in err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_solve_size_budget_is_input_error(capsys, tmp_path, fmt):
    field = sp.LinearVectorField(matrices=np.zeros((2, 64, 64)), offsets=np.zeros((2, 64)))
    fjson = tmp_path / "field.json"
    fjson.write_text(field_to_json(field))
    path_csv = tmp_path / "one.csv"
    write_csv(sp.linear_path([1.0, 0.0]), path_csv)
    y0 = ",".join(["0"] * 64)
    code, out, err = run_main(
        capsys, ["solve", str(fjson), str(path_csv), "--y0", y0, "--N", "20", "--format", fmt]
    )
    assert code == 2 and out == "" and "limit" in err


def test_memory_error_is_input_error(capsys, monkeypatch, staircase_csv):
    def exhausted(args, seed):
        raise MemoryError()

    monkeypatch.setattr(cli, "_cmd_signature", exhausted)
    code, out, err = run_main(capsys, ["signature", staircase_csv])
    assert code == 2 and out == ""
    assert err.startswith("sigpath: error:") and "MemoryError" in err


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("name", ["product-vs-metric", "incompleteness"])
def test_experiment_depth_budget_is_input_error(capsys, name, fmt):
    code, out, err = run_main(capsys, ["experiment", name, "--depth", "100000000", "--format", fmt])
    assert code == 2 and out == "" and "limit" in err
