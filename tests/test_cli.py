import dataclasses
import hashlib
import inspect
import json
import os
import subprocess
import sys
import time

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


def run_main(capsys, argv):
    code = cli.main(argv)
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


def test_the_experiment_table_lists_every_experiment_in_order():
    assert tuple(cli._EXPERIMENTS) == topology_lab.EXPERIMENT_NAMES


@pytest.mark.parametrize("name", topology_lab.EXPERIMENT_NAMES)
def test_every_table_flag_is_a_parameter_of_its_function(name):
    function, flags = cli._EXPERIMENTS[name]
    assert set(flags) <= set(inspect.signature(getattr(topology_lab, function)).parameters)


# a value for each experiment flag; a refused flag exits before it is read
_FLAG_VALUES = {"k_max": "3", "n_max": "2", "depth": "2", "path": "missing.csv", "seed": "1"}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "argv",
    [
        ["experiment", name, "--" + flag.replace("_", "-"), value]
        for name, (_, flags) in cli._EXPERIMENTS.items()
        for flag, value in _FLAG_VALUES.items()
        if flag not in flags
    ]
    + [["signature", "missing.csv", "--seed", "3"], ["solve", "f.json", "p.csv", "--y0", "1", "--seed", "3"]],
    ids=lambda argv: " ".join(argv[:2] + argv[-2:-1]),
)
def test_a_flag_its_command_does_not_read_is_a_usage_error(capsys, argv, fmt):
    code, out, err = run_main(capsys, argv + ["--format", fmt])
    assert code == 3 and out == ""
    assert f"unrecognized arguments: {argv[-2]}" in err


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


def test_seed_resolution(capsys, tmp_path, staircase_csv):
    # --seed, else 0; a regress config seed beats --seed
    argv = ["experiment", "length-bound", "--path", staircase_csv, "--n-max", "1",
            "--format", "json"]
    _, out, _ = run_main(capsys, argv + ["--seed", "5"])
    assert json.loads(out)["seed"] == 5
    _, out, _ = run_main(capsys, argv)
    assert json.loads(out)["seed"] == 0
    code, out, err = run_main(capsys, argv + ["--seed", "x"])
    assert code == 3 and out == ""
    assert "--seed" in err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_paths": 12, "heldout_paths": 6, "depths": [1, 2], "seed": 4}))
    code, out, _ = run_main(capsys, ["regress", "--config", str(cfg), "--seed", "5", "--format", "json"])
    assert code == 0 and json.loads(out)["seed"] == 4


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

    cfg.write_text(json.dumps({"depths": []}))
    code, _, err = run_main(capsys, ["regress", "--config", str(cfg)])
    assert code == 2
    assert "nonempty list of nonnegative integers" in err

    cfg.write_text("not json")
    assert run_main(capsys, ["regress", "--config", str(cfg)])[0] == 2

    cfg.write_text(json.dumps({"field": {"d": 1, "w": 1, "A": [[[0.5]]], "b": [[0.0]]}}))
    code, _, err = run_main(capsys, ["regress", "--config", str(cfg)])
    assert code == 2
    assert "y0" in err


@pytest.mark.parametrize(
    "config",
    [
        {"field": {"d": 1, "w": 2, "A": [[["0.5", 0.0], [0.1, -0.2]]], "b": [[0.1, 0.0]]}, "y0": [0.5, 0.1]},
        {"field": {"d": 1, "w": 2, "A": [[[0.5, 0.0], [0.1, -0.2]]], "b": [[0.1, 0.0]]}, "y0": ["0.5", True]},
    ],
    ids=["string-in-A", "string-and-boolean-in-y0"],
)
def test_regress_config_arrays_must_hold_numbers(capsys, tmp_path, config):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**config, "n_paths": 8, "heldout_paths": 4, "depths": [1]}))
    code, out, err = run_main(capsys, ["regress", "--config", str(cfg)])
    assert code == 2 and out == ""
    assert "must be a finite number" in err


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
    assert (code, out) == (4, "")
    assert err == "sigpath: numerical failure: signature level 4 is beyond float range\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "offset, log_bound", [pytest.param(0.0, "829.329", id="0.0"), pytest.param(1.0, "830.335", id="1.0")]
)
def test_solve_overflow_is_numerical_failure(capsys, tmp_path, fmt, offset, log_bound):
    # exp(800) would overflow the oracle, but the series' remainder bound,
    # formed first, is already beyond float range
    field = sp.LinearVectorField(matrices=[[[800.0]]], offsets=[[offset]])
    fjson = tmp_path / "field.json"
    fjson.write_text(field_to_json(field))
    path_csv = tmp_path / "one.csv"
    write_csv(sp.linear_path([1.0]), path_csv)
    with np.errstate(over="ignore"):
        code, out, err = run_main(
            capsys, ["solve", str(fjson), str(path_csv), "--y0", "1", "--N", "4", "--format", fmt]
        )
    assert (code, out) == (4, "")
    assert err == f"sigpath: numerical failure: remainder bound exp({log_bound}) is beyond float range\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_solve_word_coefficient_overflow_is_numerical_failure(capsys, tmp_path, fmt):
    # the series' level 4 is 1e400: word_coefficients refuses it, before the
    # remainder bound is formed
    fjson = tmp_path / "field.json"
    fjson.write_text(field_to_json(sp.LinearVectorField([[[1e100]]], [[0.0]])))
    path_csv = tmp_path / "one.csv"
    write_csv(sp.linear_path([1.0]), path_csv)
    code, out, err = run_main(capsys, ["solve", str(fjson), str(path_csv), "--y0", "1", "--N", "4", "--format", fmt])
    assert (code, out) == (4, "")
    assert err == "sigpath: numerical failure: word coefficient level 4 is beyond float range\n"


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


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "field_text",
    [
        '{"d": 1e400, "w": 1, "A": [[[0.5]]], "b": [[0.1]]}',
        '{"d": 1, "w": 1, "A": [[[' + "9" * 400 + ']]], "b": [[0.1]]}',
        '{"d": 1.0, "w": 1, "A": [[[0.5]]], "b": [[0.1]]}',
        "[1, 2]",
        "null",
        '{"d": 1,',
    ],
    ids=["d=1e400", "400-digit-in-A", "d=1.0", "list", "null", "syntax"],
)
def test_solve_malformed_field_is_input_error(capsys, tmp_path, field_text, fmt):
    # the first two exited 1 with an OverflowError traceback, and a float d
    # was truncated
    fjson = tmp_path / "field.json"
    fjson.write_text(field_text)
    path_csv = tmp_path / "one.csv"
    write_csv(sp.linear_path([0.5]), path_csv)
    code, out, err = run_main(
        capsys, ["solve", str(fjson), str(path_csv), "--y0", "1", "--N", "4", "--format", fmt]
    )
    assert code == 2 and out == ""
    assert err.startswith("sigpath: error: ") and "Traceback" not in err


def test_memory_error_is_input_error(capsys, monkeypatch, staircase_csv):
    def exhausted(args):
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


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("name, top", [("incompleteness", 131072), ("group-discontinuity", 1048576)])
def test_experiment_n_max_budget_is_input_error(capsys, name, top, fmt):
    code, out, err = run_main(capsys, ["experiment", name, "--n-max", str(top + 1), "--format", fmt])
    assert code == 2 and out == "" and f"n_max <= {top}, got {top + 1}" in err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_product_vs_metric_rejects_depth_before_the_unit_tensor(capsys, monkeypatch, fmt):
    # depths 13..24 pass the coefficient budget but not exact_signature
    def no_unit(dim, depth):
        raise AssertionError("unit tensor built for a rejected depth")

    monkeypatch.setattr(topology_lab, "unit", no_unit)
    code, out, err = run_main(capsys, ["experiment", "product-vs-metric", "--depth", "24", "--format", fmt])
    assert code == 2 and out == "" and err.startswith("sigpath: error:")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_product_vs_metric_at_depth_zero_reports_and_fails(capsys, fmt):
    code, out, err = run_main(capsys, ["experiment", "product-vs-metric", "--depth", "0", "--format", fmt])
    assert code == 1 and out and err == ""
    assert "FAIL" in out if fmt == "text" else json.loads(out)["verdict"] is False


def test_incompleteness_accepts_every_depth_one_rectangle_fits(capsys):
    # one rectangle's 4 segments at depth 19 take 4 * (2**20 - 1) coefficients,
    # within the budget; ten of them in one kernel call would not be
    code, out, err = run_main(capsys, ["experiment", "incompleteness", "--depth", "19", "--format", "json"])
    assert code == 0 and err == ""
    assert len(json.loads(out)["series"]["product_metric_to_unit"]) == 10


VALID_FIELD = {"d": 1, "w": 1, "A": [[[0.5]]], "b": [[0.0]]}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "config",
    [
        '{"depths": 5}',
        '{"ridge": null}',
        '{"n_paths": [3]}',
        '{"seed": [1]}',
        '{"depths": [[1]]}',
        '{"r": {"a": 1}}',
        '{"n_paths": 1e400}',
        '{"field": 3, "y0": [1]}',
        json.dumps({"field": VALID_FIELD, "y0": {"a": 1}}),
    ],
)
def test_regress_wrongly_typed_config_is_input_error(capsys, tmp_path, config, fmt):
    cfg = tmp_path / "config.json"
    cfg.write_text(config)
    code, out, err = run_main(capsys, ["regress", "--config", str(cfg), "--format", fmt])
    assert code == 2
    assert out == ""
    assert err.startswith("sigpath: error: ") and "Traceback" not in err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_regress_rejects_too_many_paths_before_drawing_them(capsys, tmp_path, fmt):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"n_paths": 10**9}))
    start = time.perf_counter()
    code, out, err = run_main(capsys, ["regress", "--config", str(cfg), "--format", fmt])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert "limit" in err


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "config, refusal",
    [
        pytest.param(config, refusal, id=config)
        for config, refusal in [
            ('{"depths": "12", "n_paths": 30.9}', "config key 'depths' must be a list of integers, got '12'"),
            ('{"depths": "12"}', "config key 'depths' must be a list of integers, got '12'"),
            ('{"depths": ["2"]}', "need an integer depths >= 0, got '2'"),
            ('{"depths": [true, 2]}', "need an integer depths >= 0, got True"),
            ('{"depths": [1.5]}', "need an integer depths >= 0, got 1.5"),
            ('{"depths": [2.0]}', "need an integer depths >= 0, got 2.0"),
            ('{"n_paths": 30.9}', "need an integer n_paths >= 1, got 30.9"),
            ('{"n_paths": 30.0}', "need an integer n_paths >= 1, got 30.0"),
            ('{"n_paths": "30"}', "need an integer n_paths >= 1, got '30'"),
            ('{"n_paths": true}', "need an integer n_paths >= 1, got True"),
            ('{"heldout_paths": "5"}', "need an integer heldout_paths >= 1, got '5'"),
            ('{"heldout_paths": false}', "need an integer heldout_paths >= 1, got False"),
            ('{"heldout_paths": 5.5}', "need an integer heldout_paths >= 1, got 5.5"),
            ('{"segment_count": "4"}', "need an integer segment_count >= 1, got '4'"),
            ('{"segment_count": true}', "need an integer segment_count >= 1, got True"),
            ('{"segment_count": 4.0}', "need an integer segment_count >= 1, got 4.0"),
            ('{"seed": "1"}', "need an integer seed >= 0, got '1'"),
            ('{"seed": true}', "need an integer seed >= 0, got True"),
            ('{"seed": 1.5}', "need an integer seed >= 0, got 1.5"),
            ('{"r": "1.0"}', "config key 'r' must be a finite number, got '1.0'"),
            ('{"r": true}', "config key 'r' must be a finite number, got True"),
            ('{"noise_scale": "0"}', "config key 'noise_scale' must be a finite number, got '0'"),
            ('{"noise_scale": false}', "config key 'noise_scale' must be a finite number, got False"),
            ('{"ridge": "0"}', "config key 'ridge' must be a finite number, got '0'"),
            ('{"ridge": true}', "config key 'ridge' must be a finite number, got True"),
            ('{"noise_scale": NaN}', "config key 'noise_scale' must be a finite number, got nan"),
            ('{"r": Infinity}', "config key 'r' must be a finite number, got inf"),
            ('{"ridge": -Infinity}', "config key 'ridge' must be a finite number, got -inf"),
        ]
    ],
)
def test_regress_config_numbers_are_json_numbers_of_the_key_type(capsys, tmp_path, config, refusal, fmt):
    # integer keys take JSON integers only, refused by the integer check
    # with the key's name; real keys take finite JSON numbers; nothing is
    # parsed from a string or truncated
    cfg = tmp_path / "config.json"
    cfg.write_text(config)
    code, out, err = run_main(capsys, ["regress", "--config", str(cfg), "--format", fmt])
    assert code == 2
    assert out == ""
    assert err == f"sigpath: error: {refusal}\n"


def test_regress_float_keys_accept_json_integers(capsys, tmp_path):
    base = {"n_paths": 20, "heldout_paths": 6, "depths": [1, 2], "seed": 5}
    outs = []
    for extra in ({"r": 1, "noise_scale": 0, "ridge": 0}, {"r": 1.0, "noise_scale": 0.0, "ridge": 0.0}):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({**base, **extra}))
        code, out, _ = run_main(capsys, ["regress", "--config", str(cfg), "--format", "json"])
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "A, r, what",
    [
        # A(v) overflows: the flow matrix has an infinite norm
        pytest.param(1e308, 100.0, "the norm of a segment's flow matrix", id="1e+308-100.0"),
        # a finite flow matrix whose exponential overflows
        pytest.param(800.0, 4.0, "the exact flow", id="800.0-4.0"),
    ],
)
def test_regress_flow_overflow_is_numerical_failure(capsys, tmp_path, fmt, A, r, what):
    config = {
        "field": {"d": 1, "w": 1, "A": [[[A]]], "b": [[0.0]]},
        "y0": [1.0],
        "r": r,
        "n_paths": 3,
        "heldout_paths": 2,
        "segment_count": 1,
        "depths": [1],
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run_main(capsys, ["regress", "--config", str(cfg), "--format", fmt])
    assert code == 4 and out == ""
    assert err == f"sigpath: numerical failure: {what} is beyond float range\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_regress_noise_overflow_is_numerical_failure(capsys, tmp_path, fmt):
    # noise draws that take a response beyond float range fail as arithmetic
    # (exit 4), with no numpy warning (warnings are errors here), and the
    # dataset never refuses them as a malformed input (exit 2)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"noise_scale": 1e308, "n_paths": 50, "heldout_paths": 2, "depths": [1]}))
    code, out, err = run_main(capsys, ["regress", "--config", str(cfg), "--format", fmt])
    assert (code, out) == (4, "")
    assert err == "sigpath: numerical failure: a noisy response is beyond float range\n"


def test_parser_is_built_once_per_process():
    assert cli._build_parser() is cli._build_parser()


def _small_regress_config(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"n_paths": 24, "heldout_paths": 12, "depths": [1, 2, 3]}))
    return str(cfg)


def test_cached_parser_output_matches_fresh_interpreters(capsys, monkeypatch, tmp_path, staircase_csv):
    # --help wraps to the terminal width; pin it for both sides
    monkeypatch.setenv("COLUMNS", "80")
    src = os.path.dirname(os.path.dirname(sp.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    cfg = _small_regress_config(tmp_path)
    commands = [
        (["regress", "--config", cfg, "--seed", "3", "--format", "json"], 0),
        (["regress", "--no-such-flag"], 3),
        (["--help"], 0),
        (["signature", staircase_csv, "--depth", "3", "--format", "json"], 0),
    ]
    for argv, want_code in commands:
        code, out, err = run_main(capsys, argv)
        assert code == want_code
        fresh = subprocess.run(
            [sys.executable, "-m", "sigpath.cli", *argv], capture_output=True, text=True, env=env
        )
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)


def test_cached_parser_honours_the_seed_per_call(capsys, tmp_path):
    cli._build_parser()
    argv = ["regress", "--config", _small_regress_config(tmp_path), "--format", "json"]
    outs = []
    for flags, want in ((["--seed", "5"], 5), (["--seed", "6"], 6), ([], 0)):
        code, out, _ = run_main(capsys, argv + flags)
        assert code == 0 and json.loads(out)["seed"] == want
        outs.append(out)
    assert len(set(outs)) == 3
    assert run_main(capsys, argv + ["--seed", "5"])[1] == outs[0]


GOLDEN_FIELD = {
    "d": 2,
    "w": 2,
    "A": [[[0.1, 0.4], [-0.3, 0.2]], [[0.0, -0.25], [0.35, 0.05]]],
    "b": [[0.0, 0.0], [0.0, 0.0]],
}


@pytest.mark.parametrize(
    "extra, digest",
    [
        # default affine demo field, noise-free
        ({}, "85ed382163b31e8097618424167554089eada7b94a4c9e4d5d0a3df8cfb6fb9a"),
        (
            {"field": GOLDEN_FIELD, "y0": [0.5, -0.75], "noise_scale": 0.01, "ridge": 1e-6},
            "0fbeb9103b69a3deec5e179eec8b0b816d6f367c4e44a091991e4c1c903fb0ba",
        ),
    ],
)
def test_regress_payload_is_pinned(capsys, tmp_path, extra, digest):
    # any change that moves a bit of the regress payload fails here
    config = {"n_paths": 64, "heldout_paths": 32, "segment_count": 4, "depths": [1, 2, 3, 4, 5]}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**config, **extra}))
    code, out, _ = run_main(capsys, ["regress", "--config", str(cfg), "--seed", "7", "--format", "json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# the benchmark's length-bound staircase: a monotone 12-segment path
STAIRCASE = np.array([[1, 0], [0, 2], [3, 0], [0, 1], [2, 0], [0, 3]] * 2, dtype=float) / 4


@pytest.mark.parametrize(
    "name, flags, digest",
    [
        ("product-vs-metric", ["--k-max", "5"], "fc9c0b5aecb563ea54960954f5ced02f887a7eb35303c11be4e56d9640ad5dc3"),
        ("quotient-vs-metric", [], "64de23ad65d7f5d127aae117b19b95f0f17dfae75994fdaf1c030dd57edae783"),
        ("incompleteness", ["--n-max", "80"], "d9f088c926fb4b3dc6a3293db43595ad73b72e881ad5a744e940813146f6eb7b"),
        ("group-discontinuity", ["--n-max", "120"], "931b00bd52135c1d9352c46bd5fb8a1daa78d2ddceacfccd00d9e0a029922ddc"),
        ("length-bound", ["--n-max", "5", "--seed", "0"], "460948e5b4bfbd71337869feeb5d957f8a62c2dcdb18783ddbc14ffebf49099b"),
    ],
)
def test_experiment_payload_is_pinned(capsys, tmp_path, name, flags, digest):
    # any change that moves a bit of an experiment payload fails here; the
    # flags are the benchmark's, and length-bound reads the staircase
    if name == "length-bound":
        stair = tmp_path / "stair.csv"
        write_csv(sp.PiecewiseLinearPath(2, STAIRCASE), stair)
        flags = ["--path", str(stair), *flags]
    code, out, _ = run_main(capsys, ["experiment", name, *flags, "--format", "json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_length_bound_over_181_segments_exits_2(capsys, tmp_path):
    # 182 alternating axis steps overflow the Monte Carlo's int16 pair index
    path = tmp_path / "long.csv"
    write_csv(sp.PiecewiseLinearPath(2, np.tile(np.eye(2), (91, 1))), path)
    code, _, err = run_main(capsys, ["experiment", "length-bound", "--path", str(path), "--n-max", "1"])
    assert code == 2
    assert "pair index" in err


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("scale", [2e29, 2e30])
def test_length_bound_overflow_exits_4(capsys, tmp_path, scale, fmt):
    # at 2e30 L**10 overflows a Python float (an OverflowError); at 2e29 the
    # Monte Carlo's variance overflows in numpy (a RuntimeWarning)
    path = tmp_path / "big.csv"
    write_csv(sp.PiecewiseLinearPath(2, STAIRCASE * scale), path)
    argv = ["experiment", "length-bound", "--path", str(path), "--n-max", "5", "--format", fmt]
    code, out, err = run_main(capsys, argv)
    assert code == 4 and out == ""
    assert err == "sigpath: numerical failure: the length-bound series is beyond float range\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_emit_refuses_a_non_finite_payload(capsys, fmt):
    args = cli._build_parser().parse_args(["regress", "--format", fmt])
    with pytest.raises(FloatingPointError, match=r"^the result is beyond float range \(Out of range float values"):
        cli._emit(args, lambda: "text", {"value": [1.0, float("inf")]})
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_length_bound_defaults_to_the_staircase(capsys, staircase_csv, fmt):
    flags = ["--n-max", "2", "--format", fmt]
    code, out, err = run_main(capsys, ["experiment", "length-bound", *flags])
    assert code == 0 and err == ""
    assert (code, out) == run_main(capsys, ["experiment", "length-bound", "--path", staircase_csv, *flags])[:2]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "config, message",
    [
        pytest.param("[1, 2]", "config JSON must be an object", id="not-an-object"),
        pytest.param('{"r": 1%s}' % ("0" * 400), "malformed config", id="400-digit-r"),
        pytest.param('{"y0": [100.0, 5.0]}', "explicit y0 must also set field", id="y0-without-field"),
        pytest.param('{"heldout_paths": 0}', "need an integer heldout_paths >= 1, got 0", id="heldout_paths=0"),
        pytest.param('{"n_paths": 0}', "need an integer n_paths >= 1, got 0", id="n_paths=0"),
        pytest.param('{"segment_count": 0}', "need an integer segment_count >= 1, got 0", id="segment_count=0"),
        pytest.param('{"depths": [1, -1]}', "need an integer depths >= 0, got -1", id="depths-negative"),
    ],
)
def test_regress_config_refusals_name_their_cause(capsys, tmp_path, config, message, fmt):
    cfg = tmp_path / "config.json"
    cfg.write_text(config)
    code, out, err = run_main(capsys, ["regress", "--config", str(cfg), "--format", fmt])
    assert code == 2 and out == ""
    assert err.startswith("sigpath: error: ") and message in err


def _dyadic_path_csv(tmp_path, seed, d, m):
    # a seeded path of m steps in multiples of 1/16, like the benchmark's
    steps = np.random.default_rng(seed).integers(-16, 17, size=(m, d)) / 16
    f = tmp_path / f"path_{seed}_{d}.csv"
    write_csv(sp.PiecewiseLinearPath(d, steps), f)
    return str(f)


@pytest.mark.parametrize(
    "d, depth, digest",
    [
        # the benchmark's long-path shapes, and one path in one letter
        (5, 4, "80f14b38449f754f0347225444517e0a8facac6273c982e509df0e99bea7040d"),
        (3, 6, "fb17cb2163b63688bd13f549070b0dbe797a5f4c6d0d8355055c503e4ea45f7d"),
        (2, 8, "1faad7f3fb550a1a3a76871169f893ee4f7fa847854676422951978428efc48f"),
        (1, 12, "cab4648660ef566a1bb38487c892b84b60fc80f852c9a4cf6fd9eab48066dde6"),
    ],
)
def test_signature_payload_is_pinned(capsys, tmp_path, d, depth, digest):
    # any change that moves a bit of the signature payload fails here
    path_csv = _dyadic_path_csv(tmp_path, 11 + d, d, 48)
    code, out, _ = run_main(capsys, ["signature", path_csv, "--depth", str(depth), "--format", "json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "offsets, truncation, digest",
    [
        (GOLDEN_FIELD["b"], 0, "b1b2e0f2f165404bc6023dd8b0644bc6055a2e14338615e3555ce6ec21467680"),
        (GOLDEN_FIELD["b"], 8, "7fdede40f15bc51fce779b18f95c8e331791508a0b959851c90e6102871aa0b1"),
        ([[0.125, -0.5], [0.25, 0.375]], 0, "10de04e3d59e8f29723aab92e803c88341d0c3c5a0f69cb0080156d47e71ceb7"),
        ([[0.125, -0.5], [0.25, 0.375]], 8, "7391c8d68ac819ca84aec6befce83d2c04b5e4f12af7df199988c88b59fb2c2b"),
    ],
)
def test_solve_payload_is_pinned(capsys, tmp_path, offsets, truncation, digest):
    # any change that moves a bit of the solve payload fails here; the
    # oracle's np.linalg.solve runs in LAPACK, so another LAPACK build may
    # round differently and need these digests re-recorded
    fjson = tmp_path / "field.json"
    fjson.write_text(json.dumps({**GOLDEN_FIELD, "b": offsets}))
    path_csv = _dyadic_path_csv(tmp_path, 5, 2, 40)
    argv = ["solve", str(fjson), path_csv, "--y0", "0.5,-0.75", "--N", str(truncation), "--format", "json"]
    code, out, _ = run_main(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
