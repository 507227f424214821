"""Write a fixed set of CLI reports into a directory, for checking that a
change leaves every report byte-identical.

    python tools/report_set.py DIR

Run it in a checkout of the parent commit and in one of the change, each
into its own directory, then `diff -r` the two directories: an empty
diff means no report moved.  The set:

- `verify` for all six suites at seeds 0-5 and counts 1 and 100;
- `field-check --count 20` on the linked, smooth, skew and line configs
  that CI checks, and on the exact plane wave;
- `mul-table` for dense metrics of n = 2..6, in both bases and both
  formats.

The configs and metrics are written into DIR too, and `exit_codes.txt`
lists every command with its exit code.  Everything comes from the `src`
and `tests` of the checkout this script sits in, each command in a fresh
process with BLAS pinned to one thread; stderr, which carries timings, is
dropped.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SUITES = ("algebra", "hodge", "spin", "manifold", "field", "dirac")
SEEDS = range(6)
COUNTS = (1, 100)
CONFIGS = ("linked", "smooth", "skew", "line", "plane")
DIMS = range(2, 7)


def write_inputs(out: Path) -> dict:
    """The field-check configs and the mul-table metrics, as paths."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import numpy as np
    import helpers
    from gafields.fields import config_to_json

    configs = {
        "linked": helpers.curvature_linked_config()[0],
        "smooth": helpers.smooth_config(np.random.default_rng(0)),
        "skew": helpers.skew_config(np.random.default_rng(0)),
        "line": helpers.line_config(),
        "plane": helpers.plane_wave_config(),
    }
    paths = {}
    for name in CONFIGS:
        paths[name] = out / "inputs" / f"{name}.json"
        paths[name].write_text(config_to_json(configs[name]) + "\n")
    for n in DIMS:
        # CI's dense metric: every structure constant is nonzero
        g = [[1 / (1 + i + j) + 2 * (i == j) for j in range(n)]
             for i in range(n)]
        paths[n] = out / "inputs" / f"dense{n}.json"
        paths[n].write_text(json.dumps({"dim": n, "g_upper": g}) + "\n")
    return paths


def commands(paths: dict):
    """(report name, CLI arguments) of every report of the set."""
    for suite in SUITES:
        for seed in SEEDS:
            for count in COUNTS:
                yield (f"verify_{suite}_seed{seed}_count{count}.json",
                       ["verify", "--suite", suite, "--seed", str(seed),
                        "--count", str(count)])
    for name in CONFIGS:
        yield (f"field_check_{name}.json",
               ["field-check", "--config", str(paths[name]),
                "--count", "20"])
    for n in DIMS:
        for basis in ("grassmann", "clifford"):
            for fmt in ("json", "csv"):
                yield (f"mul_table_n{n}_{basis}.{fmt}",
                       ["mul-table", "--metric", str(paths[n]),
                        "--basis", basis, "--format", fmt])


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: python tools/report_set.py DIR", file=sys.stderr)
        return 2
    out = Path(argv[0])
    (out / "inputs").mkdir(parents=True, exist_ok=True)
    paths = write_inputs(out)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OPENBLAS_NUM_THREADS="1")
    codes = []
    for name, args in commands(paths):
        proc = subprocess.run(
            [sys.executable, "-m", "gafields.cli", *args,
             "--out", str(out / name)],
            env=env, stderr=subprocess.DEVNULL)
        # name the inputs relative to DIR, so two runs list equal lines
        shown = [a.replace(str(out), "DIR") for a in args]
        codes.append(f"{proc.returncode} {' '.join(shown)}\n")
    (out / "exit_codes.txt").write_text("".join(codes))
    print(f"{len(codes)} reports in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
