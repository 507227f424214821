"""gafields benchmark: drive the CLI the way a user runs it and report
end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload verify --seed 0 --seconds 30 --trace 0

Every op is one `gafields.cli.main(argv)` call in a fresh worker process
(perfbench/worker.py), run one after another (a closed loop with one
client), so each op pays its own imports, table builds and form builds.
The op list of a workload is one round; rounds repeat while the
`--seconds` budget lasts, and per-op times are medians over rounds.

--trace 0 reports the end-to-end metrics from untraced rounds.  --trace 1
alternates untraced and traced rounds and reports the per-layer metrics
of the traced ones (perfbench/tracer.py), plus the tracing overhead.
Every op's output is checked; the last stdout line is the result JSON,
and the line before it records the machine and the failures.
"""

from __future__ import annotations

import os

# pin BLAS before numpy loads, here and in every worker: on a small box
# default OpenBLAS threading makes one small dense product over 10x slower
BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PINS)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
WORK = ROOT / ".perfbench_work"
OP_TIMEOUT_S = 120

sys.path.insert(0, str(HERE))
sys.path.insert(1, str(SRC))

import tracer  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_ratio", "ratio"),
)


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for name in dict.fromkeys(s[0] for s in tracer.SPANS):
        if name.startswith("cli.suite."):
            out.append((f"{name}_s", "s"))
        elif name == "cli.emit":
            out += [("cli.emit.self_s", "s"), ("cli.emit.bytes", "bytes")]
        else:
            out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out += [(name, "count") for name, _, _ in tracer.COUNTERS]
    out += [("multivector.table_reuse", "ratio"),
            ("symbolic.build_s", "s"), ("symbolic.eval_s", "s"),
            ("trace.overhead_ratio", "ratio")]
    return out


class WorkerError(RuntimeError):
    pass


def run_worker(job: dict) -> tuple[dict, float]:
    """Run one worker; returns its result and its start-up seconds."""
    start = time.monotonic()
    proc = subprocess.run([sys.executable, str(WORKER)],
                          input=json.dumps(job), capture_output=True,
                          text=True, timeout=OP_TIMEOUT_S, cwd=ROOT,
                          env={**os.environ, **BLAS_PINS})
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    return result, result["ready"] - start


def run_op(op: workloads.Op, trace: bool) -> dict:
    """Run and check one op; `failure` is None when it passed."""
    op.out.unlink(missing_ok=True)
    try:
        res, setup = run_worker({"argv": op.argv, "trace": trace})
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        # a hung or crashed worker is charged the whole timeout
        return {"failure": f"{op.name}: {exc}", "setup_s": OP_TIMEOUT_S,
                "wall_s": OP_TIMEOUT_S, "cpu_s": OP_TIMEOUT_S,
                "maxrss_kb": 0, "trace": None}
    res["setup_s"] = setup
    if res["error"] is not None:
        failure = res["error"]
    elif res["code"] == 2:
        failure = f"exit code 2: {res['stderr'].strip()}"
    elif not op.out.exists():
        failure = "no output written"
    else:
        try:
            failure = op.check(op.out, res["code"])
        except (ValueError, KeyError, TypeError) as exc:
            failure = f"unreadable output: {type(exc).__name__}: {exc}"
    res["failure"] = None if failure is None else f"{op.name}: {failure}"
    return res


def run_rounds(ops, seconds: float, trace: bool) -> list[tuple[bool, list]]:
    """Untraced rounds (alternating with traced ones when `trace`) while
    the budget lasts; at least one round of each kind."""
    modes = (False, True) if trace else (False,)
    last: dict = {}
    rounds = []
    start = time.monotonic()
    while True:
        mode = modes[len(rounds) % len(modes)]
        t0 = time.monotonic()
        rounds.append((mode, [run_op(op, mode) for op in ops]))
        last[mode] = time.monotonic() - t0
        if len(rounds) < len(modes):
            continue
        nxt = modes[len(rounds) % len(modes)]
        if time.monotonic() - start + last[nxt] > seconds:
            return rounds


def _op_median(rounds, key: str) -> float:
    """Sum over ops of each op's median `key` across `rounds`."""
    return sum(statistics.median(r[key] for r in op_runs)
               for op_runs in zip(*rounds))


def end_to_end(plain) -> dict:
    runs = [r for results in plain for r in results]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "run_s": _op_median(plain, "wall_s"),
        "cpu_s": _op_median(plain, "cpu_s"),
        "peak_rss_mb": max(r["maxrss_kb"] for r in runs) / 1024.0,
        "pass_ratio": sum(r["failure"] is None for r in runs) / len(runs),
    }


def _trace_totals(results) -> dict:
    """Span and counter totals of one traced round, summed over its ops."""
    out: dict = defaultdict(int)
    for snap in (r["trace"] for r in results if r["trace"] is not None):
        for stat in ("calls", "self_s", "incl_s"):
            for name, value in snap[stat].items():
                out[f"{name}.{stat}"] += value
        for name, count in snap["counts"].items():
            out[name] += count
        for key in ("build_s", "eval_s", "emit_bytes"):
            out[key] += snap[key]
    return out


def per_layer(plain, traced) -> dict:
    rounds = [_trace_totals(res) for res in traced]
    med = {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
    metrics = {}
    for name, _ in per_layer_metrics():
        if name.startswith("cli.suite."):
            metrics[name] = med[f"{name[:-2]}.incl_s"]
        elif name == "cli.emit.bytes":
            metrics[name] = med["emit_bytes"]
        elif name in med:
            metrics[name] = med[name]
    builds = med["multivector.table_builds"]
    lookups = med["multivector.table_lookups"]
    metrics["multivector.table_reuse"] = 1.0 - builds / lookups \
        if lookups else 0.0
    metrics["symbolic.build_s"] = med["build_s"]
    metrics["symbolic.eval_s"] = med["eval_s"]
    metrics["trace.overhead_ratio"] = (_op_median(traced, "wall_s")
                                       / _op_median(plain, "wall_s"))
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        try:
            machine, _ = run_worker({"probe": True})
        except (WorkerError, subprocess.TimeoutExpired) as exc:
            print(f"error: cannot start a gafields worker from {SRC}: {exc}",
                  file=sys.stderr)
            return 2
        ops = workloads.build(args.workload, args.seed, WORK)
        for op in ops:
            op.write_inputs()
        rounds = run_rounds(ops, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    plain = [res for traced, res in rounds if not traced]
    traced = [res for is_traced, res in rounds if is_traced]
    every = [r for _, res in rounds for r in res]
    failures = [r["failure"] for r in every if r["failure"] is not None]
    if args.trace:
        values = per_layer(plain, traced)
        units = dict(per_layer_metrics())
        missing = sorted({m for res in traced for r in res if r["trace"]
                          for m in r["trace"]["missing"]})
    else:
        values = end_to_end(plain)
        units = dict(END_TO_END)
        missing = []
    machine.pop("ready", None)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "ops_per_round": len(ops),
        "rounds": {"untraced": len(plain), "traced": len(traced)},
        "fail_ratio": len(failures) / len(every), "failures": failures,
        "trace_missing": missing, "machine": machine}))
    print(json.dumps({
        "correct": not failures, "attempted": len(every),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
