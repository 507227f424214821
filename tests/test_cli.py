"""Command-line interface: tables, suites, field checks, exit codes."""

import json
import subprocess
import sys

import numpy as np
import pytest

from gafields.blades import blade_indices, mask_of
from gafields.expr import CExpr, parse
from gafields.fields import FieldConfig, config_to_json
from gafields.manifold import Chart, FormField
from gafields.metric import metric_from_json, new_metric
from gafields.multivector import (CLIFFORD, GRASSMANN, MAX_TABLE_DIM,
                                  Multivector, ProductTable, basis_convert,
                                  build_product_table)
from gafields import checks, cli
from gafields.cli import main
from gafields.checks import random_metric
from helpers import line_config


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def metric_file(tmp_path):
    path = tmp_path / "metric.json"
    path.write_text(json.dumps({"g_upper": [[-1.0]]}))
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
    path.write_text(json.dumps({"g_upper": [[-1.0, 0.0], [0.0, -1.0]]}))
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
    metric = random_metric(3, np.random.default_rng(5))
    path.write_text(json.dumps({"g_upper": metric.g_upper.tolist()}))
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
        u = Multivector.blade(3, blade_indices(mask), 1.0)
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


def reference_table(metric, basis: str, fmt: str) -> str:
    """The emitter the streaming writer replaced: a list of entry dicts,
    then `json.dumps(indent=2)` or the joined CSV rows, plus a newline."""
    table = build_product_table(metric)
    size = 1 << metric.dim
    names = [blade_indices(mask) for mask in range(size)]
    entries = []
    for a in range(size):
        if basis == CLIFFORD:
            prod = table.clifford_left(a)
        else:
            prod = table.left[a]
        for b, c in zip(*np.nonzero(np.abs(prod.T) > 1e-14)):
            entries.append({"alpha": names[a], "beta": names[b],
                            "gamma": names[c], "re": float(prod[c, b]),
                            "im": 0.0})
    if fmt == "json":
        return json.dumps({"dim": metric.dim, "basis": basis,
                           "entries": entries}, indent=2) + "\n"
    rows = [("alpha", "beta", "gamma", "re", "im")] + [
        ("|".join(map(str, e["alpha"])), "|".join(map(str, e["beta"])),
         "|".join(map(str, e["gamma"])), e["re"], e["im"])
        for e in entries]
    return "\n".join(",".join(str(x) for x in row) for row in rows) + "\n"


def golden_metrics():
    rng = np.random.default_rng(17)
    metrics = [random_metric(n, rng) for n in (1, 3, 5)]
    # dense, with signature (1, 3)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    metrics.append(new_metric(q @ np.diag([-1.0, 0.7, 1.3, 2.0]) @ q.T,
                              convention="upper"))
    return metrics


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("basis", [GRASSMANN, CLIFFORD])
def test_mul_table_bytes_match_reference(basis, fmt, tmp_path, capsys):
    for idx, metric in enumerate(golden_metrics()):
        path = tmp_path / f"m{idx}.json"
        path.write_text(json.dumps({"g_upper": metric.g_upper.tolist()}))
        out_file = tmp_path / f"table{idx}.{fmt}"
        args = ["mul-table", "--metric", str(path), "--basis", basis,
                "--format", fmt]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        assert run_cli([*args, "--out", str(out_file)], capsys)[:2] == (0, "")
        # the metric as the CLI reads it back from the file
        want = reference_table(metric_from_json(path.read_text()), basis, fmt)
        assert out == want
        assert out_file.read_text() == want


@pytest.mark.parametrize("map_size", [cli.TEXT_MAP_SIZE, 3])
@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("basis", [GRASSMANN, CLIFFORD])
def test_mul_table_repeated_values_match_reference(basis, fmt, map_size,
                                                   tmp_path, capsys,
                                                   monkeypatch):
    # a diagonal metric repeats the same values from alpha to alpha, so
    # the writer reuses their texts; a map emptied every few values
    # writes the same bytes
    monkeypatch.setattr(cli, "TEXT_MAP_SIZE", map_size)
    path = tmp_path / "diag.json"
    path.write_text(json.dumps({"dim": 5,
                                "g_upper": np.diag([1.0, 2.0, -1.0, 0.5,
                                                    3.0]).tolist()}))
    code, out, _ = run_cli(["mul-table", "--metric", str(path), "--basis",
                            basis, "--format", fmt], capsys)
    assert code == 0
    assert out == reference_table(metric_from_json(path.read_text()),
                                  basis, fmt)


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
    # a declared dim is a JSON integer: 2.0 and true are not
    "dim_float": '{"dim": 2.0, "g_upper": [[1, 0], [0, 1]]}',
    "dim_true": '{"dim": true, "g_upper": [[1.0]]}',
    # past double range, and nested past the recursion limit
    "int_past_double": '{"g_upper": [[1%s]]}' % ("0" * 400),
    "deep_json": '{"g_upper": %s}' % ("[" * 100_000 + "]" * 100_000),
}


def assert_exits_2(args):
    """Run the CLI in a fresh process; it must exit 2 with an error line
    and no traceback."""
    proc = subprocess.run([sys.executable, "-m", "gafields.cli", *args],
                          capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert any(line.startswith("error:")
               for line in proc.stderr.splitlines())
    assert "Traceback" not in proc.stderr


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
    assert_exits_2([*args, str(path)])


@pytest.mark.parametrize("name", list(BAD_METRICS))
def test_mul_table_bad_metric_is_usage_error(name, tmp_path):
    assert_usage_error(["mul-table", "--metric"], BAD_METRICS[name], tmp_path)


@pytest.mark.parametrize("metric, basis", [
    (BAD_METRICS["singular"], GRASSMANN),
    (json.dumps({"g_upper": np.eye(MAX_TABLE_DIM + 1).tolist()}), GRASSMANN),
    (json.dumps({"g_upper": np.eye(2).tolist()}), "bogus"),
], ids=["bad_metric", "over_max_dim", "unknown_basis"])
def test_mul_table_usage_error_leaves_out_file(metric, basis, tmp_path):
    # --out is opened only once the table is built
    path = tmp_path / "metric.json"
    path.write_text(metric)
    out_file = tmp_path / "table.json"
    out_file.write_bytes(b"previous contents\n")
    proc = subprocess.run([sys.executable, "-m", "gafields.cli",
                           "mul-table", "--metric", str(path),
                           "--basis", basis, "--out", str(out_file)],
                          capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr
    assert out_file.read_bytes() == b"previous contents\n"


def test_mul_table_past_max_dim_is_a_bad_metric(tmp_path, capsys):
    # the table build's own size check rejects the metric
    path = tmp_path / "eye9.json"
    path.write_text(json.dumps({"g_upper": np.eye(MAX_TABLE_DIM + 1)
                                .tolist()}))
    code, out, err = run_cli(["mul-table", "--metric", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == (f"error: bad metric: product tables cover dimensions up "
                   f"to {MAX_TABLE_DIM}, got {MAX_TABLE_DIM + 1}\n")


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
    # nests 3000 levels deep, past Python's recursion limit
    "deep_sum": field_config(psi=psi_term(" + ".join(["x1"] * 3000))),
    # field terms are read in the Grassmann basis only
    "clifford_basis": field_config(psi={**psi_term("1"),
                                        "basis": "clifford"}),
    # JSON true is no blade index, though Python reads it as 1
    "bool_index": field_config(psi={"basis": "grassmann", "terms": [
        {"indices": [True, 2], "re": "1", "im": "0"}]}),
    # the chart's dim must be the integer size of its metric
    "chart_dim_3": field_config(chart={**json.loads(field_config())["chart"],
                                       "dim": 3}),
    "chart_dim_true": field_config(chart={
        **json.loads(field_config())["chart"], "dim": True}),
    # a chart of no coordinates has an empty metric
    "chart_dim_0": field_config(chart={"dim": 0, "g_lower": [],
                                       "domain": []}),
    # the mass is a finite JSON number
    "m_nan": field_config(m=float("nan")),
    "m_true": field_config(m=True),
    # a_1 is imaginary at the midpoint alone (x3 = 0 there)
    "a_real_off_midpoint": field_config(a=[
        {"basis": "grassmann", "terms": [{"indices": [], "re": "x3",
                                          "im": "1"}]},
        *[{"basis": "grassmann", "terms": []}] * 3]),
    # no constant is inf or NaN, not even under a zero factor
    "zero_times_inf": field_config(psi=psi_term("0*1e999")),
    # integers past double range, and JSON nested past the recursion limit
    "m_past_double": field_config(m=10 ** 400),
    "domain_past_double": field_config(chart={
        **json.loads(field_config())["chart"],
        "domain": [[0, 10 ** 400]] + [[-1.0, 1.0]] * 3}),
    "deep_json": "[" * 100_000 + "]" * 100_000,
}


@pytest.mark.parametrize("name", list(BAD_CONFIGS))
def test_field_check_bad_config_is_usage_error(name, tmp_path):
    assert_usage_error(["field-check", "--count", "20", "--config"],
                       BAD_CONFIGS[name], tmp_path)


@pytest.mark.parametrize("args", [["--seed", "-1"], ["--count", "-4"],
                                  ["--count", "0"],
                                  # past MAX_COUNT: arrays too big for memory
                                  ["--count", "1000000000000000000"]])
def test_verify_bad_seed_or_count_is_usage_error(args):
    assert_exits_2(["verify", "--suite", "dirac", *args])


def test_field_check_oversized_count_is_usage_error(tmp_path):
    # a count past MAX_COUNT would build points in a loop for hours
    assert_usage_error(["field-check", "--count", "1000000000000000000",
                        "--config"], field_config(), tmp_path)


def test_largest_count_is_accepted(capsys, monkeypatch):
    counts = []
    monkeypatch.setitem(checks.SUITES, "dirac",
                        lambda seed, count: counts.append(count) or [])
    code, _, _ = run_cli(["verify", "--suite", "dirac",
                          "--count", str(cli.MAX_COUNT)], capsys)
    assert code == 0 and counts == [cli.MAX_COUNT]
    code, _, err = run_cli(["verify", "--suite", "dirac",
                            "--count", str(cli.MAX_COUNT + 1)], capsys)
    assert code == 2 and err.startswith("error:") and counts == [cli.MAX_COUNT]


def test_out_of_memory_is_an_error_line(capsys, monkeypatch):
    def exhausted(seed, count):
        raise MemoryError("Unable to allocate 7.3 EiB")
    monkeypatch.setitem(checks.SUITES, "algebra", exhausted)
    code, out, err = run_cli(["verify", "--suite", "algebra"], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: out of memory: Unable to allocate 7.3 EiB\n"


def test_field_check_negative_seed_is_usage_error(tmp_path):
    assert_usage_error(["field-check", "--seed", "-1", "--config"],
                       field_config(), tmp_path)


def test_field_check_good_config_file(tmp_path, capsys):
    # the base of BAD_CONFIGS is valid, so each case above fails for its
    # one change
    path = tmp_path / "ok.json"
    path.write_text(field_config())
    code, out, _ = run_cli(["field-check", "--config", str(path),
                            "--count", "20"], capsys)
    assert code in (0, 1)
    assert len(json.loads(out)["cases"]) == 20 * 7


def test_field_check_on_a_1_chart_reports(tmp_path):
    # the curvature link has no index pairs there: it reduces over no
    # forms and must still give one defect, 0, per point
    path = tmp_path / "line.json"
    path.write_text(config_to_json(line_config()))
    proc = subprocess.run([sys.executable, "-m", "gafields.cli",
                           "field-check", "--config", str(path),
                           "--count", "3"], capture_output=True, text=True)
    assert proc.returncode in (0, 1), proc.stderr
    assert "Traceback" not in proc.stderr
    cases = {c["id"]: c["max_defect"]
             for c in json.loads(proc.stdout)["cases"]}
    assert len(cases) == 3 * 6
    assert [cases[f"point{i}_curvature_link"] for i in range(3)] == [0.0] * 3


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


def test_verify_field_builds_one_table(capsys, monkeypatch):
    # the field suite's chart is constant: every metric it asks for is the
    # same value, so one product table serves the whole suite
    real = ProductTable.__init__
    tables = []

    def counted(self, metric):
        tables.append(metric)
        real(self, metric)
    monkeypatch.setattr(ProductTable, "__init__", counted)
    code, _, _ = run_cli(["verify", "--suite", "field", "--seed", "0"],
                         capsys)
    assert code == 0
    assert len(tables) == 1


def test_verify_nan_defect_fails(capsys, monkeypatch):
    # a NaN defect in a sample other than the first fails its case: a
    # running max(worst, d) would drop it, since max(0.0, nan) is 0.0
    real = checks.hodge_star_components
    calls = []

    def planted(u, m):
        out = real(u, m)
        calls.append(m.dim)
        if len(calls) == 3:
            out[-1, 0] = np.nan  # the last row of the third block
        return out
    monkeypatch.setattr(checks, "hodge_star_components", planted)
    code, out, _ = run_cli(["verify", "--suite", "hodge", "--seed", "0"],
                           capsys)
    assert code == 1
    status = {c["id"]: c["status"] for c in json.loads(out)["cases"]}
    assert status.pop("component_vs_algebraic") == "fail"
    assert set(status.values()) == {"pass"}


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


@pytest.mark.parametrize("count", [0, -3])
def test_field_check_nonpositive_count_is_usage_error(count, config_file,
                                                      capsys):
    code, out, err = run_cli(["field-check", "--config", config_file,
                              "--count", str(count)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1e-8"])
def test_field_check_bad_tolerance_is_usage_error(tol, config_file, capsys):
    # NaN would be written as invalid JSON, inf would pass every case
    code, out, err = run_cli(["field-check", "--config", config_file,
                              f"--tolerance={tol}"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


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


# the usage lines of `gafields --help` and of each command's --help, at
# 80 columns
USAGE = {
    (): "usage: gafields [-h] {mul-table,verify,field-check} ...",
    ("mul-table",):
        "usage: gafields mul-table [-h] --metric METRIC "
        "[--basis {grassmann,clifford}]\n"
        "                          [--out OUT] [--format {json,csv}]",
    ("verify",):
        "usage: gafields verify [-h] --suite SUITE [--seed SEED] "
        "[--count COUNT]\n"
        "                       [--out OUT] [--format {json,csv}]",
    ("field-check",):
        "usage: gafields field-check [-h] --config CONFIG [--seed SEED] "
        "[--count COUNT]\n"
        "                            [--tolerance TOLERANCE] [--out OUT]\n"
        "                            [--format {json,csv}]",
}


@pytest.fixture
def columns_80(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


def test_no_command_is_usage_error(capsys, columns_80):
    code, _, err = run_cli([], capsys)
    assert code == 2
    assert err == USAGE[()] + "\n"


@pytest.mark.parametrize("command", USAGE)
def test_help_usage_lines(command, capsys, columns_80):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--help"])
    assert exc.value.code == 0
    out, _ = capsys.readouterr()
    assert out.split("\n\n")[0] == USAGE[command]


def test_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "gafields.cli",
                           "verify", "--suite", "dirac", "--count", "10"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passed"]
