"""Command-line interface: tables, suites, field checks, exit codes."""

import json
import subprocess
import sys

import numpy as np
import pytest

from gafields.blades import mask_of
from gafields.expr import CExpr, parse
from gafields.fields import FieldConfig, config_to_json
from gafields.manifold import Chart, FormField
from gafields.metric import metric_from_json, metric_to_json, new_metric
from gafields.multivector import (CLIFFORD, GRASSMANN, Multivector,
                                  basis_convert, build_product_table)
from gafields.cli import main
from conftest import random_metric


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def metric_file(tmp_path):
    path = tmp_path / "metric.json"
    path.write_text(metric_to_json(new_metric(np.array([[-1.0]]),
                                              convention="upper")))
    return str(path)


@pytest.fixture
def config_file(tmp_path):
    rows = [["-1", "0", "0", "0"], ["0", "-1", "0", "0"],
            ["0", "0", "-1", "0"], ["0", "0", "0", "1"]]
    chart = Chart([[parse(s, 4) for s in row] for row in rows],
                  [(-1.0, 1.0)] * 4)
    cfg = FieldConfig(chart, FormField(chart),
                      [FormField(chart) for _ in range(4)],
                      [FormField(chart) for _ in range(4)],
                      FormField(chart, {0b1000: CExpr.of(1.0)}), 1.0)
    path = tmp_path / "config.json"
    path.write_text(config_to_json(cfg))
    return str(path)


def test_mul_table_negative_line(metric_file, capsys):
    code, out, _ = run_cli(["mul-table", "--metric", metric_file,
                            "--basis", "clifford"], capsys)
    assert code == 0
    data = json.loads(out)
    squares = [e for e in data["entries"]
               if e["alpha"] == [1] and e["beta"] == [1]]
    assert squares == [{"alpha": [1], "beta": [1], "gamma": [],
                        "re": -1.0, "im": 0.0}]


def test_mul_table_quaternions(tmp_path, capsys):
    # Grassmann basis of the signature (-,-): 1, e1, e2, e12 behave as
    # 1, i, j, k
    path = tmp_path / "m.json"
    path.write_text(metric_to_json(new_metric(np.diag([-1.0, -1.0]))))
    code, out, _ = run_cli(["mul-table", "--metric", str(path)], capsys)
    assert code == 0
    entries = json.loads(out)["entries"]

    def product(a, b):
        return {tuple(e["gamma"]): e["re"] for e in entries
                if e["alpha"] == a and e["beta"] == b}

    assert product([1], [1]) == {(): -1.0}
    assert product([2], [2]) == {(): -1.0}
    assert product([1, 2], [1, 2]) == {(): -1.0}
    assert product([1], [2]) == {(1, 2): 1.0}
    assert product([2], [1]) == {(1, 2): -1.0}


def test_mul_table_csv(metric_file, tmp_path, capsys):
    out_file = tmp_path / "table.csv"
    code, _, _ = run_cli(["mul-table", "--metric", metric_file,
                          "--format", "csv", "--out", str(out_file)], capsys)
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "alpha,beta,gamma,re,im"
    assert len(lines) == 5  # header plus four products


@pytest.mark.parametrize("basis", [GRASSMANN, CLIFFORD])
def test_mul_table_matches_products(basis, tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(metric_to_json(random_metric(3, np.random.default_rng(5))))
    code, out, _ = run_cli(["mul-table", "--metric", str(path),
                            "--basis", basis], capsys)
    assert code == 0
    entries = json.loads(out)["entries"]
    emitted = {}
    for e in entries:
        key = (mask_of(e["alpha"]), mask_of(e["beta"]), mask_of(e["gamma"]))
        emitted[key] = complex(e["re"], e["im"])
    keys = list(emitted)
    assert keys == sorted(keys) and len(keys) == len(entries)

    # oracle: one product of two basis elements at a time
    m = metric_from_json(path.read_text())
    t = build_product_table(m)

    def element(mask):
        u = Multivector.from_dict(3, {mask: 1.0})
        return basis_convert(u, basis, GRASSMANN, m)

    for a in range(8):
        for b in range(8):
            prod = basis_convert(t.mul(element(a), element(b)),
                                 GRASSMANN, basis, m)
            for c in range(8):
                want = prod.coeffs[c]
                if (a, b, c) in emitted:
                    got = emitted.pop((a, b, c))
                    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
                else:
                    assert abs(want) < 2e-14  # under the 1e-14 cut
    assert not emitted


# input file contents: text, raw bytes, or None for a directory in place
# of the file
BAD_METRICS = {
    "nan": '{"g_upper": [[NaN]]}',
    "overflow": '{"g_upper": [[1e308, 0], [0, 1e308]]}',
    "ragged": '{"g_upper": [[1, 0], [0]]}',
    "singular": '{"g_upper": [[1, 1], [1, 1]]}',
    "non_numeric": '{"g_upper": [["a", 0], [0, 1]]}',
    "not_json": '{"g_upper": [[1, 0], [0, 1]]',
    "inverse_overflow": '{"g_upper": [[1e-155, 0], [0, 1e-155]]}',
    "directory": None,
    "not_utf8": b'{"g_upper": [[1.0]]} \xff\xfe',
}


def assert_usage_error(args, content, tmp_path):
    """Run the CLI on one input file; it must exit 2 with an error line
    and no traceback."""
    path = tmp_path / "input.json"
    if content is None:
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    proc = subprocess.run([sys.executable, "-m", "gafields.cli", *args,
                           str(path)], capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert any(line.startswith("error:")
               for line in proc.stderr.splitlines())
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("name", list(BAD_METRICS))
def test_mul_table_bad_metric_is_usage_error(name, tmp_path):
    assert_usage_error(["mul-table", "--metric"], BAD_METRICS[name], tmp_path)


def field_config(**changes) -> str:
    """A field config on the sphere-times-flat chart (x3 in [-1, 1]) with
    psi = 1 and H = dx^4; `changes` replace top-level entries."""
    empty = {"basis": "grassmann", "terms": []}
    data = {
        "chart": {"dim": 4,
                  "g_lower": [["1", "0", "0", "0"],
                              ["0", "sin(x1)^2", "0", "0"],
                              ["0", "0", "-1", "0"], ["0", "0", "0", "1"]],
                  "domain": [[0.5, 2.6], [0.1, 3.0], [-1.0, 1.0],
                             [-1.0, 1.0]]},
        "psi": {"basis": "grassmann",
                "terms": [{"indices": [], "re": "1", "im": "0"}]},
        "a": [empty] * 4, "b": [empty] * 4,
        "h": {"basis": "grassmann",
              "terms": [{"indices": [4], "re": "1", "im": "0"}]},
        "m": 1.0,
    }
    data.update(changes)
    return json.dumps(data)


def psi_term(re: str) -> dict:
    return {"basis": "grassmann",
            "terms": [{"indices": [1], "re": re, "im": "0"}]}


BAD_CONFIGS = {
    "log_of_negative": field_config(psi=psi_term("log(x3)")),
    "overflow": field_config(psi=psi_term("exp(400*x1)")),
    "psi_number": field_config(psi=5),
    "a_number": field_config(a=3),
    "g_lower_number": field_config(chart={"dim": 1, "g_lower": [1],
                                          "domain": [[0, 1]]}),
    "top_level_list": "[1, 2]",
    "directory": None,
}


@pytest.mark.parametrize("name", list(BAD_CONFIGS))
def test_field_check_bad_config_is_usage_error(name, tmp_path):
    assert_usage_error(["field-check", "--count", "20", "--config"],
                       BAD_CONFIGS[name], tmp_path)


def test_field_check_good_config_file(tmp_path, capsys):
    # the base of BAD_CONFIGS is valid, so each case above fails for its
    # one change
    path = tmp_path / "ok.json"
    path.write_text(field_config())
    code, out, _ = run_cli(["field-check", "--config", str(path),
                            "--count", "20"], capsys)
    assert code in (0, 1)
    assert len(json.loads(out)["cases"]) == 20 * 7


@pytest.mark.parametrize("suite", ["algebra", "hodge", "spin", "manifold",
                                   "field", "dirac"])
def test_verify_suites_pass(suite, capsys):
    code, out, err = run_cli(["verify", "--suite", suite,
                              "--seed", "11", "--count", "20"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["passed"]
    assert report["cases"] == sorted(report["cases"], key=lambda c: c["id"])
    assert all(c["status"] == "pass" for c in report["cases"])
    assert "suite" in err  # timing goes to stderr, not into the report


def test_verify_deterministic(capsys):
    _, out1, _ = run_cli(["verify", "--suite", "algebra", "--seed", "5"],
                         capsys)
    _, out2, _ = run_cli(["verify", "--suite", "algebra", "--seed", "5"],
                         capsys)
    assert out1 == out2


def test_verify_unknown_suite(capsys):
    code, _, err = run_cli(["verify", "--suite", "bogus"], capsys)
    assert code == 2
    assert "unknown suite" in err


def test_field_check_pass(config_file, capsys):
    code, out, _ = run_cli(["field-check", "--config", config_file,
                            "--count", "2"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["passed"]


def test_field_check_missing_file(capsys):
    code, _, err = run_cli(["field-check", "--config", "/nonexistent.json"],
                           capsys)
    assert code == 2


def test_field_check_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(["field-check", "--config", str(path)], capsys)
    assert code == 2
    assert "bad config" in err


def test_no_command_is_usage_error(capsys):
    code, _, _ = run_cli([], capsys)
    assert code == 2


def test_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "gafields.cli",
                           "verify", "--suite", "dirac", "--count", "10"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passed"]
