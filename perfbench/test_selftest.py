"""Self-tests of the benchmark itself.

    python3 -m pytest -q perfbench
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _worker_report(argv, out: Path, trace: bool) -> bytes:
    res, _ = run.run_worker({"argv": argv, "trace": trace})
    assert res["error"] is None and res["code"] == 0, res
    return out.read_bytes()


@pytest.mark.parametrize("suite", workloads.SUITES)
def test_tracing_leaves_verify_report_unchanged(suite, tmp_path):
    out = tmp_path / "report.json"
    argv = ["verify", "--suite", suite, "--seed", "11", "--count", "10",
            "--out", str(out)]
    plain = _worker_report(argv, out, trace=False)
    traced = _worker_report(argv, out, trace=True)
    assert plain == traced


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {
        "end_to_end": [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        "per_layer": [(m["name"], m["unit"]) for m in spec["per_layer"]],
    }
    produced = {"end_to_end": list(run.END_TO_END),
                "per_layer": run.per_layer_metrics()}
    assert declared == produced
    names = [n for pairs in produced.values() for n, _ in pairs]
    assert len(names) == len(set(names))
    for name, unit in (p for pairs in produced.values() for p in pairs):
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), (name, unit)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_inputs_not_op_count(workload, tmp_path):
    a = workloads.build(workload, 0, tmp_path)
    b = workloads.build(workload, 1, tmp_path)
    assert len(a) == len(b) > 0
    assert [op.argv[0] for op in a] == [op.argv[0] for op in b]
    assert [len(op.argv) for op in a] == [len(op.argv) for op in b]
    again = workloads.build(workload, 0, tmp_path)
    assert [(op.argv, op.inputs) for op in a] == \
        [(op.argv, op.inputs) for op in again]
    assert [(op.argv, op.inputs) for op in a] != \
        [(op.argv, op.inputs) for op in b]


def test_table_check_rejects_a_wrong_entry(tmp_path):
    rng = np.random.default_rng(5)
    g = workloads.random_metric(3, rng, indefinite=True)
    metric, out = tmp_path / "m.json", tmp_path / "t.json"
    metric.write_text(json.dumps({"dim": 3, "g_upper": g.tolist()}))
    data = json.loads(_worker_report(
        ["mul-table", "--metric", str(metric), "--basis", "clifford",
         "--out", str(out)], out, trace=False))
    assert workloads.check_table(data, g, "clifford", rng) is None
    data["entries"][len(data["entries"]) // 2]["re"] += 1e-6
    assert workloads.check_table(data, g, "clifford", rng) is not None


def test_field_check_rejects_nan_and_unstable_ids():
    def case(cid, defect):
        return {"id": cid, "max_defect": defect}
    good = {"cases": [case(f"point{i}_{n}", 0.5) for i in range(2)
                      for n in workloads.SYSTEM_CASES]}
    assert workloads.check_field_report(good, 2, None) is None
    assert workloads.check_field_report(good, 2, 1e-10) is not None
    nan = json.loads(json.dumps(good))
    nan["cases"][3]["max_defect"] = float("nan")
    assert workloads.check_field_report(nan, 2, None) is not None
    short = {"cases": good["cases"][:-1]}
    assert workloads.check_field_report(short, 2, None) is not None


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "verify",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
