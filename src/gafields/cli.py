"""Command-line driver: product tables, identity suites, field checks.
Exit 0 means every case passed, 1 a case failed, and 2 an input error:
any `GafieldsError`, an unreadable file or exhausted memory."""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import blades, checks
from .fields import config_from_json, residuals
from .metric import ArgumentError, GafieldsError, metric_from_json
from .multivector import CLIFFORD, GRASSMANN, build_product_table

EXIT_PASS, EXIT_FAIL, EXIT_USAGE = 0, 1, 2
TEXT_MAP_SIZE = 1 << 14  # value texts `mul-table` keeps between alphas
# the largest --count: a suite stacks its samples and field-check its
# points in arrays that grow with the count
MAX_COUNT = 10_000


def _case(cid: str, defect: float, tol: float) -> dict:
    return {"id": cid, "status": "pass" if defect <= tol else "fail",
            "max_defect": float(defect), "tolerance": tol}


# ---------------------------------------------------------------------------
# Commands.

def _output(args, write) -> None:
    """Run `write(fh)` on the --out file, or else on `sys.stdout` as it
    is at this call (a caller may have redirected it)."""
    if args.out:
        with open(args.out, "w") as fh:
            write(fh)
    else:
        write(sys.stdout)


def _emit(payload, args, csv_rows):
    if args.format == "csv":
        text = "\n".join(",".join(str(x) for x in row) for row in csv_rows)
    else:
        text = json.dumps(payload, indent=2)
    _output(args, lambda fh: fh.write(text + "\n"))


def _write_table(fh, fmt: str, basis: str, dim: int, prods) -> None:
    """Stream the nonzero structure constants, one alpha at a time, as
    `json.dumps(..., indent=2)` of {dim, basis, entries} or as CSV rows
    would write them; `prods[a][c, b]` is the coefficient of c in
    e_a e_b, real for a real metric.  Floats go out as `repr`, which is
    what json writes for a finite float."""
    names = [blades.blade_indices(mask) for mask in range(1 << dim)]
    if fmt == "csv":
        keys = ["|".join(map(str, idx)) for idx in names]
        fh.write("alpha,beta,gamma,re,im")
        # an entry reads: start alpha to_beta beta to_gamma gamma to_re
        # re end
        start, to_beta, to_gamma, to_re, end = "", ",", ",", ",", ",0.0"
        sep, tail = "\n", "\n"
    else:
        # an entry's names sit at the third indent level
        keys = [json.dumps(idx, indent=2).replace("\n", "\n      ")
                for idx in names]
        fh.write(f'{{\n  "dim": {dim},\n  "basis": {json.dumps(basis)},\n'
                 f'  "entries": [')
        start, to_beta, to_gamma, to_re, end = (
            '    {\n      "alpha": ', ',\n      "beta": ',
            ',\n      "gamma": ', ',\n      "re": ',
            ',\n      "im": 0.0\n    }')
        sep, tail = ",\n", "\n  ]\n}\n"
    # an entry is three texts: its alpha and beta, its gamma, its value
    gammas = np.array([k + to_re for k in keys], dtype=object)
    # a table repeats few values: format each distinct one once per
    # table; the map is emptied between alphas once it outgrows
    # TEXT_MAP_SIZE
    texts = {}
    lead = "\n"
    for a, prod in enumerate(prods):
        # walk b, then c; e_a e_0 = e_a, so there is at least one entry
        b, c = np.nonzero(np.abs(prod.T) > 1e-14)
        values, which = np.unique(prod.T[b, c], return_inverse=True)
        if len(texts) > TEXT_MAP_SIZE:
            texts.clear()
        get, add = texts.get, texts.setdefault
        res = np.array([get(v) or add(v, repr(v) + end)
                        for v in values.tolist()], dtype=object)
        head = start + keys[a] + to_beta
        betas = np.array([head + k + to_gamma for k in keys], dtype=object)
        # one row of pieces per entry, each led by its separator
        pieces = np.empty((len(b), 4), dtype=object)
        pieces[:, 0] = sep
        pieces[0, 0] = lead
        pieces[:, 1] = betas[b]
        pieces[:, 2] = gammas[c]
        pieces[:, 3] = res[which]
        fh.write("".join(pieces.ravel().tolist()))
        lead = sep
    fh.write(tail)


def cmd_mul_table(args) -> int:
    with open(args.metric) as fh:
        text = fh.read()
    try:  # the table build checks n before it allocates
        metric = metric_from_json(text)
        table = build_product_table(metric)
    except GafieldsError as exc:
        raise ArgumentError(f"bad metric: {exc}") from exc
    prods = table.left
    if args.basis == CLIFFORD:
        prods = map(table.clifford_left, range(1 << metric.dim))
    _output(args, lambda fh: _write_table(fh, args.format, args.basis,
                                          metric.dim, prods))
    return EXIT_PASS


def _report(args, suite: str, cases) -> int:
    """Emit the cases of one run sorted by id; exit 1 if any failed."""
    cases = sorted(cases, key=lambda c: c["id"])
    report = {"suite": suite, "seed": args.seed, "count": args.count,
              "cases": cases,
              "passed": all(c["status"] == "pass" for c in cases)}
    csv_rows = [("id", "status", "max_defect", "tolerance")] + [
        (c["id"], c["status"], c["max_defect"], c["tolerance"])
        for c in cases]
    _emit(report, args, csv_rows)
    return EXIT_PASS if report["passed"] else EXIT_FAIL


def cmd_verify(args) -> int:
    if args.suite not in checks.SUITES:
        raise ArgumentError(f"unknown suite {args.suite!r}; choose from "
                            f"{', '.join(checks.SUITES)}")
    start = time.monotonic()
    cases = checks.SUITES[args.suite](args.seed, args.count)
    elapsed = time.monotonic() - start
    print(f"suite {args.suite}: seed {args.seed}, {elapsed:.2f}s",
          file=sys.stderr)
    return _report(args, args.suite, [_case(*case) for case in cases])


def cmd_field_check(args) -> int:
    with open(args.config) as fh:
        text = fh.read()
    try:
        cfg = config_from_json(text)
    except GafieldsError as exc:
        raise ArgumentError(f"bad config: {exc}") from exc
    rng = np.random.default_rng(args.seed)
    points = [checks.random_point(cfg.chart, rng) for _ in range(args.count)]
    # build every residual form once, then evaluate them at all points
    # together; the conservation case appears where H passes its system
    try:
        per_point = residuals(cfg, points)
    except GafieldsError as exc:
        raise ArgumentError(f"cannot evaluate the field equations: "
                            f"{exc}") from exc
    tol = args.tolerance
    return _report(args, "field-check",
                   [_case(f"point{idx}_{name}", val, tol)
                    for idx, res in enumerate(per_point)
                    for name, val in res.items()])


def _check_args(args) -> None:
    """Reject the seeds, counts and tolerances no run can use."""
    if getattr(args, "seed", 0) < 0:
        raise ArgumentError(f"--seed must be non-negative, got {args.seed}")
    if not 1 <= getattr(args, "count", 1) <= MAX_COUNT:
        # at 0 no cases would pass vacuously
        raise ArgumentError(f"--count must be between 1 and {MAX_COUNT}, "
                            f"got {args.count}")
    if not 0.0 <= getattr(args, "tolerance", 0.0) < math.inf:
        raise ArgumentError(f"--tolerance must be finite and non-negative, "
                            f"got {args.tolerance}")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="gafields",
                                 description="geometric algebra and gauge "
                                             "field model toolkit")
    # prog given, argparse formats no usage to find it on every call
    sub = ap.add_subparsers(dest="command", prog="gafields")

    mt = sub.add_parser("mul-table", help="emit Clifford structure constants")
    mt.add_argument("--metric", required=True)
    mt.add_argument("--basis", default=GRASSMANN,
                    choices=(GRASSMANN, CLIFFORD))
    mt.add_argument("--out")
    mt.add_argument("--format", default="json", choices=("json", "csv"))
    mt.set_defaults(func=cmd_mul_table)

    vf = sub.add_parser("verify", help="run an identity suite")
    vf.add_argument("--suite", required=True)
    vf.add_argument("--seed", type=int, default=0)
    vf.add_argument("--count", type=int, default=100)
    vf.add_argument("--out")
    vf.add_argument("--format", default="json", choices=("json", "csv"))
    vf.set_defaults(func=cmd_verify)

    fc = sub.add_parser("field-check", help="evaluate field-model residuals")
    fc.add_argument("--config", required=True)
    fc.add_argument("--seed", type=int, default=0)
    fc.add_argument("--count", type=int, default=5)
    fc.add_argument("--tolerance", type=float, default=1e-8)
    fc.add_argument("--out")
    fc.add_argument("--format", default="json", choices=("json", "csv"))
    fc.set_defaults(func=cmd_field_check)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if not getattr(args, "func", None):
        ap.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        _check_args(args)
        return args.func(args)
    except GafieldsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, UnicodeDecodeError) as exc:
        # missing, unreadable or non-UTF-8 input files
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
