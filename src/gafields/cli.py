"""Command-line driver: product tables, identity suites, field checks."""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time

import numpy as np

from . import blades
from .expr import (CExpr, ExprError, ZERO, call as expr_call,
                   parse as expr_parse)
from .metric import (ArgumentError, Metric, MetricError, is_isometry,
                     metric_from_json, new_metric)
from .multivector import (
    CLIFFORD,
    GRASSMANN,
    MAX_TABLE_DIM,
    Multivector,
    basis_convert,
    build_product_table,
    clifford_mul,
    clifford_via_star,
    conjugate_star,
    exterior_metric_block,
    grade_masks,
    grade_project,
    hodge_star,
    hodge_star_components,
    scalar_product,
    star_inverse,
)
from .spin import (
    adjoint_action,
    factor_isometry,
    isometry_of,
    random_spin_element,
)

EXIT_PASS, EXIT_FAIL, EXIT_USAGE = 0, 1, 2

SUITES = ("algebra", "hodge", "spin", "manifold", "field", "dirac")


class _UsageError(Exception):
    pass


def _fmt(x: float) -> float:
    return float(f"{x:.17g}")


def _random_metric(n: int, rng: np.random.Generator) -> Metric:
    while True:
        a = rng.normal(size=(n, n))
        g = (a + a.T) / 2 + np.diag(rng.normal(size=n)) * 0.5
        if abs(np.linalg.det(g)) > 0.05:
            return new_metric(g, convention="upper")


def _random_mv(n: int, rng: np.random.Generator) -> Multivector:
    return Multivector(n, rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n))


def _random_kform(n: int, k: int, rng: np.random.Generator) -> Multivector:
    u = Multivector(n)
    for mask in grade_masks(n, k):
        u.coeffs[mask] = rng.normal() + 1j * rng.normal()
    return u


# ---------------------------------------------------------------------------
# Verification suites.  Each returns a list of case dicts.

def _case(cid: str, defect: float, tol: float) -> dict:
    return {"id": cid, "status": "pass" if defect <= tol else "fail",
            "max_defect": _fmt(defect), "tolerance": tol}


def suite_algebra(seed: int, count: int):
    rng = np.random.default_rng(seed)
    cases = []
    anti = assoc = round_trip = sp = 0.0
    for n in (2, 3, 4):
        m = _random_metric(n, rng)
        t = build_product_table(m)
        unit = Multivector.unit(n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                ei = Multivector.blade(n, [i])
                ej = Multivector.blade(n, [j])
                d = (t.mul(ei, ej) + t.mul(ej, ei)
                     - 2 * m.g_upper[i - 1, j - 1] * unit).norm()
                anti = max(anti, d)
        for _ in range(max(count // 3, 1)):
            u, v, w = (_random_mv(n, rng) for _ in range(3))
            scale = max(u.norm() * v.norm() * w.norm(), 1.0)
            assoc = max(assoc, (t.mul(t.mul(u, v), w)
                                - t.mul(u, t.mul(v, w))).norm() / scale)
            round_trip = max(round_trip, (basis_convert(
                basis_convert(u, GRASSMANN, CLIFFORD, m),
                CLIFFORD, GRASSMANN, m) - u).norm())
            sp = max(sp, abs(scalar_product(u, v, t)
                             - np.conj(scalar_product(v, u, t))))
    cases.append(_case("anticommutator", anti, 1e-10))
    cases.append(_case("associativity", assoc, 1e-9))
    cases.append(_case("basis_round_trip", round_trip, 1e-12))
    cases.append(_case("scalar_product_hermitian", sp, 1e-10))

    tab = 0.0
    for n in (2, 3, 4):
        m = _random_metric(n, rng)
        t = build_product_table(m)
        for r, s in itertools.product(range(n + 1), repeat=2):
            for _ in range(max(count // 20, 1)):
                u = _random_kform(n, r, rng)
                v = _random_kform(n, s, rng)
                tab = max(tab, (clifford_via_star(u, v, m)
                                - t.mul(u, v)).norm())
    cases.append(_case("product_via_star_tables", tab, 1e-10))
    return cases


def suite_hodge(seed: int, count: int):
    rng = np.random.default_rng(seed)
    comp = invol = inv = blocks = 0.0
    for n in (2, 3, 4, 5):
        m = _random_metric(n, rng)
        for k in range(n + 1):
            u = _random_kform(n, k, rng)
            comp = max(comp, (hodge_star(u, m)
                              - hodge_star_components(u, m)).norm())
            sign = m.sign * (-1 if (k * (n + 1)) % 2 else 1)
            invol = max(invol, (hodge_star(hodge_star(u, m), m)
                                - sign * u).norm())
            inv = max(inv, (star_inverse(hodge_star(u, m), m) - u).norm())
        for k in range(n + 1):
            masks = grade_masks(n, k)
            block = exterior_metric_block(m, k)
            for a, ma in enumerate(masks):
                for b, mb in enumerate(masks):
                    prod = build_product_table(m).mul(
                        Multivector.from_dict(n, {ma: 1.0}),
                        conjugate_star(Multivector.from_dict(n, {mb: 1.0})))
                    blocks = max(blocks, abs(prod.coeffs[0] - block[a, b]))
    return [
        _case("component_vs_algebraic", comp, 1e-12),
        _case("double_star", invol, 1e-12),
        _case("star_inverse", inv, 1e-12),
        _case("metric_blocks_vs_scalar_product", blocks, 1e-10),
    ]


def suite_spin(seed: int, count: int):
    rng = np.random.default_rng(seed)
    member = grades = isom = dets = rt = 0.0
    per_sig = max(count // 16, 2)
    for n in (2, 3, 4):
        for sig in itertools.product((1.0, -1.0), repeat=n):
            m = new_metric(np.diag(sig), convention="upper")
            t = build_product_table(m)
            for _ in range(per_sig):
                f = random_spin_element(m, rng, 0.6)
                ff = (t.mul(f, conjugate_star(f))
                      - Multivector.unit(n)).norm()
                member = max(member, ff)
                u = _random_mv(n, rng)
                img = adjoint_action(f, u, m)
                for k in range(n + 1):
                    grades = max(grades, (grade_project(img, k)
                                          - adjoint_action(
                                              f, grade_project(u, k), m)).norm())
                p = isometry_of(f, m)
                isom = max(isom, 0.0 if is_isometry(m, p) else 1.0)
                dets = max(dets, abs(np.linalg.det(p) - 1.0))
                g = factor_isometry(p, m)
                rt = max(rt, min((g - f).norm(), (g + f).norm()))
    return [
        _case("unit_norm", member, 1e-8),
        _case("grade_preservation", grades, 1e-8),
        _case("isometry_property", isom, 0.5),
        _case("determinant_one", dets, 1e-8),
        _case("factor_round_trip", rt, 1e-8),
    ]


def _sphere_chart():
    from .manifold import Chart
    return Chart([[expr_parse("1", 2), ZERO],
                  [ZERO, expr_parse("sin(x1)^2", 2)]],
                 [(0.4, 2.7), (0.0, 3.0)])


def _random_field(chart, rng, grades=None):
    from .manifold import FormField
    pool = ["x1*x2", "sin(x1)", "cos(x2)*x1", "x1^2 - x2", "exp(0.3*x2)",
            "x2^2", "1 + x1", "sin(x2)*cos(x1)"]
    coeffs = {}
    for mask in range(1 << chart.dim):
        if grades is not None and blades.popcount(mask) not in grades:
            continue
        re = expr_parse(pool[int(rng.integers(len(pool)))], chart.dim)
        im = expr_parse(pool[int(rng.integers(len(pool)))], chart.dim)
        coeffs[mask] = CExpr(re, im)
    return FormField(chart, coeffs)


def suite_manifold(seed: int, count: int):
    from .manifold import (Chart, d_op, delta_op, grade_project_field,
                           hodge_field, laplace, star_inverse_field,
                           upsilon_k, volume_field)
    rng = np.random.default_rng(seed)
    polar = Chart([[expr_parse("1", 2), ZERO],
                   [ZERO, expr_parse("x1^2", 2)]],
                  [(0.5, 2.0), (0.1, 1.0)])
    flat = 0.0
    for _ in range(10):
        p = tuple(lo + (hi - lo) * rng.random() for lo, hi in polar.domain)
        flat = max(flat, float(np.abs(polar.curvature(p).r_mixed).max()))

    sph = _sphere_chart()
    comm = 0.0
    p = tuple(lo + (hi - lo) * rng.random() for lo, hi in sph.domain)
    cd = sph.curvature(p)
    from .manifold import dx as dx_field
    for i in range(1, 3):
        for j in range(1, 3):
            for k in range(1, 3):
                f = dx_field(sph, k)
                lhs = (upsilon_k(upsilon_k(f, j), i)
                       - upsilon_k(upsilon_k(f, i), j)).eval_at(p)
                rhs = Multivector(2)
                for r in range(1, 3):
                    rhs.coeffs[1 << (r - 1)] = cd.r_mixed[i - 1, j - 1,
                                                          r - 1, k - 1]
                comm = max(comm, (lhs - rhs).norm())

    dd = ss = sds = vol = 0.0
    for _ in range(max(count // 10, 3)):
        u = _random_field(sph, rng)
        p = tuple(lo + (hi - lo) * rng.random() for lo, hi in sph.domain)
        dd = max(dd, d_op(d_op(u)).eval_at(p).norm())
        ss = max(ss, delta_op(delta_op(u)).eval_at(p).norm())
        for k in (0, 1, 2):
            w = grade_project_field(u, k)
            lhs = delta_op(w).eval_at(p)
            rhs = star_inverse_field(d_op(hodge_field(w))).eval_at(p)
            if k % 2 == 1:
                rhs = -rhs
            sds = max(sds, (lhs - rhs).norm())
        for j in (1, 2):
            vol = max(vol, upsilon_k(volume_field(sph), j).eval_at(p).norm())
    return [
        _case("flat_chart_curvature", flat, 1e-9),
        _case("curvature_commutator", comm, 1e-8),
        _case("d_squared", dd, 1e-8),
        _case("delta_squared", ss, 1e-8),
        _case("delta_via_star", sds, 1e-8),
        _case("volume_parallel", vol, 1e-8),
    ]


def _flat_minkowski_chart():
    from .manifold import Chart
    rows = [["-1", "0", "0", "0"], ["0", "-1", "0", "0"],
            ["0", "0", "-1", "0"], ["0", "0", "0", "1"]]
    return Chart([[expr_parse(s, 4) for s in row] for row in rows],
                 [(-1.0, 1.0)] * 4)


def _demo_config(rng):
    from .fields import FieldConfig
    from .manifold import FormField, scalar_field
    chart = _flat_minkowski_chart()
    psi = _random_field(chart, rng)
    a = [scalar_field(chart, CExpr(ZERO, expr_parse(src, 4)))
         for src in ("0.3*x2", "x1*x3", "0.1*x4", "x1")]
    b = [FormField(chart) for _ in range(4)]
    h = FormField(chart, {0b1000: CExpr.of(1.0)})
    return FieldConfig(chart, psi, a, b, h, 1.1)


def suite_field(seed: int, count: int):
    from .fields import (conservation_defect, gauge_transform,
                         lagrangian_l0, lagrangian_l1, main_form,
                         main_residual)
    from .manifold import FormField
    rng = np.random.default_rng(seed)
    cfg = _demo_config(rng)
    chart = cfg.chart
    pts = [tuple(rng.uniform(-0.8, 0.8, size=4)) for _ in range(5)]

    cons = max(conservation_defect(cfg, p) for p in pts)
    real = max(abs(lagrangian_l1(cfg, p).imag) for p in pts)

    mref = chart.metric_at(chart.midpoint())
    f = random_spin_element(mref, rng, 0.4)
    u_field = FormField(chart, {int(mk): CExpr.of(complex(f.coeffs[mk]))
                                for mk in np.nonzero(f.coeffs)[0]})
    chi = expr_parse("0.6*x1 - 0.3*x4", 4)
    v = CExpr(expr_call("cos", chi), expr_call("sin", chi))
    cfg2 = gauge_transform(cfg, u_field, v)
    table = build_product_table(mref)
    gauge = lag = 0.0
    base = main_form(cfg)
    for p in pts:
        r1 = base.eval_at(p)
        expect = table.mul(r1, f) * v.evaluate(p)
        gauge = max(gauge, (main_residual(cfg2, p) - expect).norm())
        lag = max(lag, abs(lagrangian_l1(cfg2, p) - lagrangian_l1(cfg, p)))
        lag = max(lag, abs(lagrangian_l0(cfg2, p, 0.8, 1.2)
                           - lagrangian_l0(cfg, p, 0.8, 1.2)))
    return [
        _case("conservation_identity", cons, 1e-7),
        _case("lagrangian_real", real, 1e-10),
        _case("gauge_main_residual", gauge, 1e-9),
        _case("gauge_lagrangians", lag, 1e-9),
    ]


def suite_dirac(seed: int, count: int):
    from .dirac import (gamma_matrices, minkowski_metric,
                        multivector_from_matrix, rep_map)
    rng = np.random.default_rng(seed)
    rep = gamma_matrices()
    g = np.diag([-1.0, -1.0, -1.0, 1.0])
    anti = 0.0
    for k in range(4):
        for l in range(4):
            anti = max(anti, float(np.abs(
                rep.gammas[k] @ rep.gammas[l] + rep.gammas[l] @ rep.gammas[k]
                - 2 * g[k, l] * np.eye(4)).max()))
    m = minkowski_metric()
    t = build_product_table(m)
    hom = inv = 0.0
    for _ in range(max(count, 50)):
        u = _random_mv(4, rng)
        v = _random_mv(4, rng)
        hom = max(hom, float(np.abs(
            rep_map(clifford_mul(u, v, t), rep)
            - rep_map(u, rep) @ rep_map(v, rep)).max()))
        inv = max(inv, (multivector_from_matrix(rep_map(u, rep), rep)
                        - u).norm())
    return [
        _case("anticommutators", anti, 1e-12),
        _case("representation_homomorphism", hom, 1e-12),
        _case("matrix_round_trip", inv, 1e-12),
    ]


_SUITE_FUNCS = {
    "algebra": suite_algebra,
    "hodge": suite_hodge,
    "spin": suite_spin,
    "manifold": suite_manifold,
    "field": suite_field,
    "dirac": suite_dirac,
}


# ---------------------------------------------------------------------------
# Commands.

def _emit(payload, args, csv_rows=None):
    if args.format == "csv":
        if csv_rows is None:
            raise _UsageError("csv format not available for this command")
        text = "\n".join(",".join(str(x) for x in row) for row in csv_rows)
    else:
        text = json.dumps(payload, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_mul_table(args) -> int:
    with open(args.metric) as fh:
        try:
            metric = metric_from_json(fh.read())
        except MetricError as exc:
            raise _UsageError(f"bad metric: {exc}") from exc
    if metric.dim > MAX_TABLE_DIM:
        raise _UsageError(f"dimension {metric.dim} exceeds the table "
                          f"limit of {MAX_TABLE_DIM}")
    basis = args.basis
    if basis not in (GRASSMANN, CLIFFORD):
        raise _UsageError(f"unknown basis {basis!r}")
    table = build_product_table(metric)
    size = 1 << metric.dim
    names = [blades.blade_indices(mask) for mask in range(size)]
    if basis == CLIFFORD:
        c2g = table.clifford_to_grassmann_matrix()
        g2c = table.grassmann_to_clifford_matrix()
    entries = []
    for a in range(size):
        if basis == CLIFFORD:
            # e_a e_b for Clifford monomials: the Grassmann-basis product
            # conjugated by the two basis-change matrices
            prod = g2c @ np.tensordot(c2g[:, a], table.left, 1) @ c2g
        else:
            prod = table.left[a]
        # prod[c, b] is the coefficient of c in e_a e_b, real for a real
        # metric; walk b, then c
        for b, c in zip(*np.nonzero(np.abs(prod.T) > 1e-14)):
            entries.append({"alpha": names[a], "beta": names[b],
                            "gamma": names[c], "re": _fmt(prod[c, b]),
                            "im": 0.0})
    payload = {"dim": metric.dim, "basis": basis, "entries": entries}
    csv_rows = [("alpha", "beta", "gamma", "re", "im")] + [
        ("|".join(map(str, e["alpha"])), "|".join(map(str, e["beta"])),
         "|".join(map(str, e["gamma"])), e["re"], e["im"]) for e in entries]
    _emit(payload, args, csv_rows)
    return EXIT_PASS


def _report(suite: str, seed: int, count: int, cases) -> dict:
    cases = sorted(cases, key=lambda c: c["id"])
    return {"suite": suite, "seed": seed, "count": count, "cases": cases,
            "passed": all(c["status"] == "pass" for c in cases)}


def cmd_verify(args) -> int:
    if args.suite not in _SUITE_FUNCS:
        raise _UsageError(f"unknown suite {args.suite!r}; choose from "
                          f"{', '.join(SUITES)}")
    start = time.monotonic()
    cases = _SUITE_FUNCS[args.suite](args.seed, args.count)
    elapsed = time.monotonic() - start
    report = _report(args.suite, args.seed, args.count, cases)
    print(f"suite {args.suite}: seed {args.seed}, {elapsed:.2f}s",
          file=sys.stderr)
    csv_rows = [("id", "status", "max_defect", "tolerance")] + [
        (c["id"], c["status"], c["max_defect"], c["tolerance"])
        for c in report["cases"]]
    _emit(report, args, csv_rows)
    return EXIT_PASS if report["passed"] else EXIT_FAIL


def cmd_field_check(args) -> int:
    from .fields import FieldConfigError, ResidualSystem, config_from_json
    from .manifold import ChartError
    input_errors = (ArgumentError, ChartError, ExprError, FieldConfigError,
                    MetricError)
    with open(args.config) as fh:
        text = fh.read()
    try:
        cfg = config_from_json(text)
    except input_errors as exc:
        raise _UsageError(f"bad config: {exc}") from exc
    rng = np.random.default_rng(args.seed)
    points = []
    for _ in range(args.count):
        points.append(tuple(lo + (hi - lo) * rng.random()
                            for lo, hi in cfg.chart.domain))
    # build every residual form once, then evaluate them at all points
    # together; the conservation case appears where H passes its system
    try:
        per_point = ResidualSystem(cfg).evaluate(points)
    except input_errors as exc:
        raise _UsageError(f"cannot evaluate the field equations: "
                          f"{exc}") from exc
    tol = args.tolerance
    cases = [_case(f"point{idx}_{name}", val, tol)
             for idx, res in enumerate(per_point) for name, val in res.items()]
    report = _report("field-check", args.seed, args.count, cases)
    csv_rows = [("id", "status", "max_defect", "tolerance")] + [
        (c["id"], c["status"], c["max_defect"], c["tolerance"])
        for c in report["cases"]]
    _emit(report, args, csv_rows)
    return EXIT_PASS if report["passed"] else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="gafields",
                                 description="geometric algebra and gauge "
                                             "field model toolkit")
    sub = ap.add_subparsers(dest="command")

    mt = sub.add_parser("mul-table", help="emit Clifford structure constants")
    mt.add_argument("--metric", required=True)
    mt.add_argument("--basis", default=GRASSMANN)
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
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, UnicodeDecodeError) as exc:
        # missing, unreadable or non-UTF-8 input files
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
