"""The input boundary: every error gafields raises on an input is a
`GafieldsError`, and metrics, configs and command lines either work or
raise one (the CLI: exit 0, 1 or 2)."""

import contextlib
import importlib
import io
import json
import pkgutil

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import gafields
from gafields import cli
from gafields.checks import SUITES
from gafields.fields import FieldConfig, config_from_json
from gafields.metric import (ArgumentError, GafieldsError, Metric,
                             MetricError, new_metric)
from gafields.multivector import Multivector, clifford_via_star


def _error_classes() -> list:
    """Every exception class defined in a module of the package."""
    out = []
    for info in pkgutil.iter_modules(gafields.__path__):
        mod = importlib.import_module(f"gafields.{info.name}")
        out += [obj for obj in vars(mod).values()
                if isinstance(obj, type) and issubclass(obj, BaseException)
                and obj.__module__ == mod.__name__]
    return out


def test_every_error_derives_from_gafields_error():
    classes = _error_classes()
    assert GafieldsError in classes and len(classes) > 1
    assert [c.__name__ for c in classes
            if not issubclass(c, GafieldsError)] == []
    assert "GafieldsError" in gafields.__all__
    assert gafields.GafieldsError is GafieldsError


@pytest.mark.parametrize("make", [
    lambda: Multivector(2, [1.0, 2.0]),
    lambda: Multivector(1, [np.nan, 0.0]),
    lambda: Multivector.blade(2, [3]),
    lambda: Multivector.blade(2, [1, 1]),
    lambda: clifford_via_star(Multivector(2, [0.0, 1.0, 0.0, 1.0]),
                              Multivector.blade(2, [1]),
                              new_metric(np.eye(2))),
], ids=["coefficient_count", "nan_coefficient", "index_past_dim",
        "repeated_index", "inhomogeneous"])
def test_bad_multivector_input_is_argument_error(make):
    with pytest.raises(ArgumentError):
        make()


def _matrices(k: int):
    """k x k float matrices, inf and NaN entries allowed, half of them
    made symmetric so the checks past the symmetry test run too."""
    return st.tuples(arrays(float, (k, k), elements=st.floats()),
                     st.booleans()).map(
        lambda gs: np.where(np.triu(np.ones((k, k), bool)), gs[0], gs[0].T)
        if gs[1] else gs[0])


@given(st.integers(0, 4).flatmap(_matrices),
       st.sampled_from(["upper", "lower"]))
@example(np.zeros((0, 0)), "upper")
@example(np.zeros((0, 0)), "lower")
@settings(max_examples=200, deadline=None)
def test_new_metric_returns_a_metric_or_raises_metric_error(g, convention):
    try:
        m = new_metric(g, convention)
    except MetricError:
        return
    assert isinstance(m, Metric) and m.dim == len(g)


def _field(*terms) -> dict:
    return {"basis": "grassmann",
            "terms": [{"indices": idx, "re": re, "im": im}
                      for idx, re, im in terms]}


# a valid config on the flat 2-chart: Psi on two blades, a_1 = i x2,
# B_1 = x1 dx^1 ^ dx^2, H = dx^2
CONFIG = {
    "chart": {"dim": 2, "g_lower": [["1", "0"], ["0", "1"]],
              "domain": [[0.0, 1.0], [0.0, 1.0]]},
    "psi": _field(([], "1", "0"), ([1], "x1", "x2")),
    "a": [_field(([], "0", "x2")), _field()],
    "b": [_field(([1, 2], "x1", "0")), _field()],
    "h": _field(([2], "1", "0")),
    "m": 1.0,
}


def _paths(node, path=()):
    """The path of every node under `node`, itself excepted."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


PATHS = list(_paths(CONFIG))
SOURCES = ["x1", "x3", "log(x1 - 2)", "1/x1", "exp(1000*x1)", "0*1e999",
           "sqrt(-1)", "", "x1^-1", "1e308*1e308"]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from(SOURCES) | st.text(max_size=8),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=6), kids, max_size=3),
    max_leaves=6)


def _replaced(path, value) -> dict:
    data = json.loads(json.dumps(CONFIG))
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


def test_base_config_is_valid():
    assert isinstance(config_from_json(json.dumps(CONFIG)), FieldConfig)


@given(st.sampled_from(PATHS), JSON_VALUES)
@example(("m",), 10 ** 400)
@example(("chart", "domain", 0, 1), 10 ** 400)
@example(("chart",), {"dim": 0, "g_lower": [], "domain": []})
@example(("psi", "terms"), [[[[[]]]]])
@settings(max_examples=150, deadline=None)
def test_config_from_json_returns_a_config_or_raises(path, value):
    try:
        cfg = config_from_json(json.dumps(_replaced(path, value)))
    except GafieldsError:
        return
    assert isinstance(cfg, FieldConfig)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Paths of the config, a 2 x 2 metric and an output file."""
    root = tmp_path_factory.mktemp("boundary")
    config, metric = root / "config.json", root / "metric.json"
    config.write_text(json.dumps(CONFIG))
    metric.write_text(json.dumps({"g_upper": [[1.0, 0.5], [0.5, -2.0]]}))
    return {"config": str(config), "metric": str(metric),
            "out": str(root / "out.txt")}


FUZZ = st.text(max_size=6) | st.integers().map(str) | st.floats().map(str)


def _option(*valid):
    """A valid value of an option three times in four, else a fuzzed
    one."""
    return st.integers(0, 3).flatmap(
        lambda i: st.sampled_from(valid) if i else FUZZ)


@st.composite
def _argv(draw, paths):
    command = draw(st.sampled_from(["mul-table", "verify", "field-check"]))
    if command == "mul-table":
        argv = ["--metric", draw(st.sampled_from([paths["metric"],
                                                  paths["config"]])),
                "--basis", draw(_option("grassmann", "clifford"))]
    elif command == "verify":
        argv = ["--suite", draw(_option(*SUITES)),
                "--seed", draw(_option("0", "7")), "--count", "1"]
    else:
        argv = ["--config", draw(st.sampled_from([paths["config"],
                                                  paths["metric"]])),
                "--seed", draw(_option("0", "7")), "--count", "1",
                "--tolerance", draw(_option("1e-8", "0", "nan", "-1"))]
    argv += ["--format", draw(_option("json", "csv"))]
    if draw(st.booleans()):
        argv += ["--out", paths["out"]]
    return [command, *argv]


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_cli_exits_0_1_or_2(inputs, data):
    argv = data.draw(_argv(inputs))
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects an option value
            code = exc.code
    assert code in (0, 1, 2)
