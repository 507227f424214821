"""Acceptance gate: ten identity criteria, one printed verdict line each."""

import itertools
import time

import numpy as np

from gafields.checks import (
    constant_field,
    curvature_commutator_defect,
    draw_samples,
    flat_minkowski_chart,
    form_calculus_defects,
    gamma_anticommutator_defect,
    gauge_defects,
    hodge_defects,
    kform_sample,
    mv_sample,
    polar_chart,
    random_form_field,
    random_metric,
    random_point,
    rep_defects,
    sphere_chart,
    spin_defects,
    worst,
)
from gafields.expr import CExpr, ZERO, call, parse
from gafields.metric import minor, new_metric
from gafields.multivector import (
    CLIFFORD,
    GRASSMANN,
    Multivector,
    basis_convert,
    build_product_table,
    clifford_via_star,
    exterior_metric_block,
    grade_masks,
    hodge_star,
    row_norm,
    scalar_product,
    volume_form,
    wedge,
)
from gafields.spin import adjoint_action, random_spin_element, spin_sample
from gafields.manifold import FormField, laplace, scalar_field
from gafields.fields import (
    FieldConfig,
    conservation_defect,
    current,
    curvature_link_check,
    gauge_transform,
    lagrangian_l1,
    lagrangian_total,
    main_residual,
)
from gafields.dirac import (
    dirac_residual,
    gamma_matrices,
    minkowski_metric,
    rep_map,
)
from gafields import blades
from conftest import random_metric_signed
from helpers import (
    curvature_linked_config,
    phase_cexpr,
    plane_wave_config,
    plane_wave_spinor,
    random_mv,
    sectors,
    smooth_config,
)

SEED = 741101


def verdict(num, label, defect, tol, elapsed=None):
    ok = defect < tol
    timing = f", {elapsed:.1f}s" if elapsed is not None else ""
    line = (f"criterion {num:2d} [{label}]: "
            f"{'PASS' if ok else 'FAIL'} "
            f"(max defect {defect:.3e}, tolerance {tol:.0e}{timing})")
    print(line)
    import conftest
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


def blade(n, idx):
    return Multivector.blade(n, idx)


def test_criterion_01_worked_examples():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED)
    defects = []
    for trial in range(100):
        n = 3 + trial % 2
        m = random_metric(n, rng)
        g = m.g_upper
        t = build_product_table(m)
        e = Multivector.unit(n)
        idx = list(rng.permutation(np.arange(1, n + 1)))

        def gen(i):
            return blade(n, [i])

        def cl(*js):
            out = e
            for j in js:
                out = t.mul(out, gen(j))
            return out

        def gij(i, j):
            return g[i - 1, j - 1]

        # pairwise wedge of generators expanded over Clifford products
        i1, i2, i3 = idx[0], idx[1], idx[2]
        want = cl(i1, i2) - gij(i1, i2) * e
        defects.append((wedge(gen(i1), gen(i2)) - want).norm())

        # triple wedge
        want = (cl(i1, i2, i3) - gij(i2, i3) * gen(i1)
                + gij(i1, i3) * gen(i2) - gij(i1, i2) * gen(i3))
        got = wedge(wedge(gen(i1), gen(i2)), gen(i3))
        defects.append((got - want).norm())

        # and the inverse expansions of Clifford monomials over wedges
        want = wedge(gen(i1), gen(i2)) + gij(i1, i2) * e
        defects.append((cl(i1, i2) - want).norm())
        want = (wedge(wedge(gen(i1), gen(i2)), gen(i3))
                + gij(i2, i3) * gen(i1) - gij(i1, i3) * gen(i2)
                + gij(i1, i2) * gen(i3))
        defects.append((cl(i1, i2, i3) - want).norm())

        if n == 4:
            i4 = idx[3]
            # quadruple wedge expansion
            want = (cl(i1, i2, i3, i4)
                    - gij(i3, i4) * cl(i1, i2) + gij(i2, i4) * cl(i1, i3)
                    - gij(i2, i3) * cl(i1, i4) - gij(i1, i4) * cl(i2, i3)
                    + gij(i1, i3) * cl(i2, i4) - gij(i1, i2) * cl(i3, i4)
                    + (gij(i1, i4) * gij(i2, i3) - gij(i1, i3) * gij(i2, i4)
                       + gij(i1, i2) * gij(i3, i4)) * e)
            got = wedge(wedge(wedge(gen(i1), gen(i2)), gen(i3)), gen(i4))
            defects.append((got - want).norm())
            # the quadruple Clifford monomial over wedges
            def wd(*js):
                out = e
                for j in js:
                    out = wedge(out, gen(j))
                return out
            want = (wd(i1, i2, i3, i4)
                    + gij(i3, i4) * wd(i1, i2) - gij(i2, i4) * wd(i1, i3)
                    + gij(i2, i3) * wd(i1, i4) + gij(i1, i4) * wd(i2, i3)
                    - gij(i1, i3) * wd(i2, i4) + gij(i1, i2) * wd(i3, i4)
                    + (gij(i1, i4) * gij(i2, i3) - gij(i1, i3) * gij(i2, i4)
                       + gij(i1, i2) * gij(i3, i4)) * e)
            defects.append((cl(i1, i2, i3, i4) - want).norm())

            # e^{13} e^{234} = -g^{33} e^{124} + 2 g^{23} e^{134}
            u = basis_convert(blade(4, [1, 3]), CLIFFORD, GRASSMANN, m)
            v = basis_convert(blade(4, [2, 3, 4]), CLIFFORD, GRASSMANN, m)
            prod = basis_convert(t.mul(u, v), GRASSMANN, CLIFFORD, m)
            want = (-g[2, 2] * blade(4, [1, 2, 4])
                    + 2 * g[1, 2] * blade(4, [1, 3, 4]))
            defects.append((prod - want).norm())

        if n == 3:
            # e^{13} ^ e^{23} = g^{23} e^{13} + g^{13} e^{23}
            #                   - g^{13} g^{23} e (Clifford basis)
            u = basis_convert(blade(3, [1, 3]), CLIFFORD, GRASSMANN, m)
            v = basis_convert(blade(3, [2, 3]), CLIFFORD, GRASSMANN, m)
            got = basis_convert(wedge(u, v), GRASSMANN, CLIFFORD, m)
            want = (g[1, 2] * blade(3, [1, 3]) + g[0, 2] * blade(3, [2, 3])
                    - g[0, 2] * g[1, 2] * e)
            defects.append((got - want).norm())

            # (e^1 ^ e^3)(e^2 ^ e^3) in the Grassmann basis
            got = t.mul(blade(3, [1, 3]), blade(3, [2, 3]))
            want = (-g[2, 2] * blade(3, [1, 2]) + g[1, 2] * blade(3, [1, 3])
                    - g[0, 2] * blade(3, [2, 3])
                    + (g[0, 2] * g[1, 2] - g[0, 1] * g[2, 2]) * e)
            defects.append((got - want).norm())
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"criterion 1 overran: {elapsed:.1f}s"
    verdict(1, "worked examples", worst(defects), 1e-10, elapsed)


def test_criterion_02_basis_round_trip():
    rng = np.random.default_rng(SEED + 2)
    defects = []
    for n in range(1, 7):
        m = random_metric(n, rng)
        for mask in range(1 << n):
            u = Multivector.blade(n, blades.blade_indices(mask), 1.0)
            fwd = basis_convert(u, CLIFFORD, GRASSMANN, m)
            defects.append((basis_convert(fwd, GRASSMANN, CLIFFORD, m)
                            - u).norm())
            fwd = basis_convert(u, GRASSMANN, CLIFFORD, m)
            defects.append((basis_convert(fwd, CLIFFORD, GRASSMANN, m)
                            - u).norm())
    verdict(2, "basis round trip", worst(defects), 1e-12)


def test_criterion_03_product_tables():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED + 3)
    defects = []
    for n in (2, 3, 4):
        for sign in (1, -1):
            m = random_metric_signed(n, rng, sign)
            t = build_product_table(m)
            for r, s in itertools.product(range(n + 1), repeat=2):
                # 1000 pairs (U, V) as one block, the stream of a loop
                # drawing random_kform(n, r) then random_kform(n, s)
                zu, zv = draw_samples(rng, 1000, 2 * len(grade_masks(n, r)),
                                      2 * len(grade_masks(n, s)))
                u, v = kform_sample(n, r, zu), kform_sample(n, s, zv)
                defects.append(row_norm(clifford_via_star(u, v, m)
                                        - t.mul(u, v)))
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"criterion 3 overran: {elapsed:.1f}s"
    verdict(3, "product via star tables", worst(defects), 1e-10, elapsed)


def test_criterion_04_hodge():
    rng = np.random.default_rng(SEED + 4)
    defects = []
    for n in range(1, 6):
        m = random_metric(n, rng)
        t = build_product_table(m)
        vol = volume_form(m)
        e = Multivector.unit(n)
        for mask in range(1 << n):
            # component formula and double star sign on each blade
            u = Multivector.blade(n, blades.blade_indices(mask), 1.0)
            defects += hodge_defects(u, m)
        # volume identities: *e = I, *I = sgn e, I I = (-1)^[n/2] sgn e
        defects += [(hodge_star(e, m) - vol).norm(),
                    (hodge_star(vol, m) - float(m.sign) * e).norm(),
                    (t.mul(vol, vol)
                     - float((-1) ** (n // 2) * m.sign) * e).norm()]
    verdict(4, "hodge identities", worst(defects), 1e-12)


def test_criterion_05_metric_blocks():
    rng = np.random.default_rng(SEED + 5)
    defects = []
    for trial in range(50):
        n = 2 + trial % 4
        m = random_metric(n, rng)
        for k in range(n + 1):
            masks = grade_masks(n, k)
            block = exterior_metric_block(m, k)
            for a, ma in enumerate(masks):
                for b, mb in enumerate(masks):
                    want = minor(m, blades.blade_indices(ma),
                                 blades.blade_indices(mb))
                    defects.append(abs(block[a, b] - want))
    verdict(5, "exterior metric blocks", worst(defects), 1e-10)


def test_criterion_06_spin_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED + 6)
    defects = []
    for n in (2, 3, 4):
        for sig in itertools.product((1.0, -1.0), repeat=n):
            m = new_metric(np.diag(sig), convention="upper")
            t = build_product_table(m)
            # 200 samples (F, U, V) as one block, the stream of a loop
            # drawing random_spin_element, then two random_mv
            zf, zu, zv = draw_samples(rng, 200, len(grade_masks(n, 2)),
                                      2 << n, 2 << n)
            f = spin_sample(m, zf, 0.5)
            u, v = mv_sample(n, zu), mv_sample(n, zv)
            fu, fv = adjoint_action(f, u, m), adjoint_action(f, v, m)
            defects += [*spin_defects(f, u, m),
                        np.abs(scalar_product(fu, fv, t)
                               - scalar_product(u, v, t))]
    verdict(6, "spin suite", worst(defects), 1e-8, time.monotonic() - t0)


# coefficient expressions of the random fields on the sphere
SPHERE_POOL = ("x1*x2", "sin(x1)", "cos(x2)", "x1^2 - x2", "x2 + 1",
               "sin(x2)*x1", "exp(0.3*x1)")


def test_criterion_07_manifold_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED + 7)

    polar = polar_chart([(0.5, 2.0), (0.2, 1.2)])
    flat = worst([np.abs(polar.curvature(random_point(polar, rng)))
                  for _ in range(20)])
    assert flat < 1e-9, f"flat-chart curvature defect {flat:.3e}"

    sphere = sphere_chart([(0.5, 2.6), (0.1, 3.0)])
    comm = curvature_commutator_defect(sphere, random_point(sphere, rng))
    assert comm < 1e-8, f"commutator-curvature defect {comm:.3e}"

    ops = []
    for _ in range(50):
        u = random_form_field(sphere, rng, SPHERE_POOL)
        p = random_point(sphere, rng)
        ops += form_calculus_defects(u, p)

    # scalar Laplace-Beltrami against the divergence form, finite differences
    from gafields.expr import diff, evaluate
    f = parse("sin(x1)*cos(x2) + x1*x2", 2)
    u = scalar_field(sphere, CExpr(f, ZERO))
    laps = []
    for _ in range(50):
        p = tuple(lo + 0.2 + (hi - lo - 0.4) * rng.random()
                  for lo, hi in sphere.domain)
        h = 1e-5
        total = 0.0
        for k in range(2):
            def flux(q, k=k):
                gl = np.array([[evaluate(sphere.g_lower_exprs[i][j], q)
                                for j in range(2)] for i in range(2)])
                gu = np.linalg.inv(gl)
                sg = np.sqrt(abs(np.linalg.det(gl)))
                return sg * sum(gu[k, l] * evaluate(diff(f, l + 1), q)
                                for l in range(2))
            q1, q2 = list(p), list(p)
            q1[k] += h
            q2[k] -= h
            total += (flux(q1) - flux(q2)) / (2 * h)
        gl = np.array([[evaluate(sphere.g_lower_exprs[i][j], p)
                        for j in range(2)] for i in range(2)])
        want = total / np.sqrt(abs(np.linalg.det(gl)))
        got = laplace(u).eval_at(p).coeffs[0].real
        laps.append(abs(got - want))
    lap = worst(laps)
    assert lap < 1e-4, f"scalar laplacian FD defect {lap:.3e}"

    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"criterion 7 overran: {elapsed:.1f}s"
    verdict(7, "manifold suite", worst([flat, comm, *ops]), 1e-8, elapsed)


def test_criterion_08_field_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED + 8)
    cfg = smooth_config(rng)
    chart = cfg.chart
    pts = [tuple(rng.uniform(-0.8, 0.8, size=4)) for _ in range(20)]

    # gauge invariance of the residual law and of the Lagrangians
    mref = chart.metric_at(chart.midpoint())
    t = build_product_table(mref)
    f = random_spin_element(mref, rng, 0.4)
    chi = parse("0.5*x1 - 0.2*x4 + 0.1*x2*x3", 4)
    v = CExpr(call("cos", chi), call("sin", chi))
    cfg2 = gauge_transform(cfg, constant_field(chart, f), v)
    gauge = worst([*gauge_defects(cfg, cfg2, f, v, t, pts, 0.7, 1.3),
                   *(abs(lagrangian_total(cfg2, p, 0.7, 1.3)
                         - lagrangian_total(cfg, p, 0.7, 1.3)) for p in pts)])
    assert gauge < 1e-9, f"gauge invariance defect {gauge:.3e}"

    # realness of L1
    real = worst([abs(lagrangian_l1(cfg, p).imag) for p in pts])
    assert real < 1e-10, f"L1 realness defect {real:.3e}"

    # conservation identity for arbitrary smooth psi (flat background B = 0)
    cfg_b0 = smooth_config(rng, with_b=False)
    cons = worst([conservation_defect(cfg_b0, p) for p in pts])
    assert cons < 1e-7, f"conservation defect {cons:.3e}"

    # divergence-free current on the plane-wave solution
    pw = plane_wave_config()
    divs = []
    h = 1e-5
    for p in pts[:5]:
        p = tuple(0.5 * x for x in p)
        d = 0.0
        for k in range(4):
            q1, q2 = list(p), list(p)
            q1[k] += h
            q2[k] -= h
            d += (current(pw, q1)[k] - current(pw, q2)[k]).real / (2 * h)
        divs.append(abs(d))
    div = worst(divs)
    assert div < 1e-7, f"plane-wave current divergence {div:.3e}"

    # curvature compatibility on the constructed single-point config
    link_cfg, p0 = curvature_linked_config()
    link = curvature_link_check(link_cfg, p0)
    assert link < 1e-8, f"curvature link defect {link:.3e}"

    overall = worst([gauge, real, cons, div, link])
    verdict(8, "field suite", overall, 1e-7, time.monotonic() - t0)


def test_criterion_09_dirac():
    rng = np.random.default_rng(SEED + 9)
    rep = gamma_matrices()
    anti = gamma_anticommutator_defect(rep)
    assert anti == 0.0, "gamma anticommutators must be exact"

    t = build_product_table(minkowski_metric())
    homs = []
    for _ in range(500):
        u, v = random_mv(4, rng), random_mv(4, rng)
        homs += rep_defects(u, v, t, rep)
    hom = worst(homs)
    assert hom < 1e-12, f"homomorphism defect {hom:.3e}"

    # column-embedded main residual vs the gamma-matrix Dirac residual
    k_vec = np.array([1.0, 0.0, 0.0, 2.0])
    mass = float(np.sqrt(3.0))
    spinor = plane_wave_spinor(k_vec, mass, rep)
    phase = phase_cexpr(k_vec)
    theta = [CExpr.of(complex(c)) * phase for c in spinor]
    a = [CExpr.of(0.0) for _ in range(4)]
    pw = plane_wave_config(k_vec)
    embs = []
    for p in [(0.2, -0.1, 0.5, -0.4), (0.0, 0.0, 0.0, 0.0),
              (0.3, 0.3, -0.3, 0.1)]:
        cols = dirac_residual(theta, a, mass, p)
        mat = rep_map(main_residual(pw, p), rep)
        embs += [np.abs(mat[:, 0] - cols), np.abs(mat[:, 1:])]
    verdict(9, "dirac correspondence", worst([hom, *embs]), 1e-12)


def test_criterion_10_variational():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED + 10)
    two_pi = 2.0 * np.pi
    chart = flat_minkowski_chart(0.0, two_pi)
    k_vec = (1.0, 0.0, 0.0, 2.0)
    cfg = plane_wave_config(k_vec, chart)

    # the configuration solves the main equation
    res = worst([main_residual(cfg, tuple(rng.uniform(0.5, 5.5, size=4)))
                 .norm() for _ in range(5)])
    assert res < 1e-10, f"plane-wave residual {res:.3e}"

    # trapezoidal action over one periodic cell is exact for these modes
    n_grid = 3
    grid = list(itertools.product(*[[i * two_pi / n_grid
                                     for i in range(n_grid)]] * 4))
    weight = (two_pi / n_grid) ** 4

    def action(psi, mass):
        c = FieldConfig(chart, psi, *sectors(cfg), cfg.h, mass)
        return lagrangian_l1(c, grid).real.sum() * weight

    phase = phase_cexpr(k_vec)
    eps = 0.5
    grads_on, grads_off = [], []
    for _ in range(3):
        phi = FormField(chart, {
            mask: CExpr.of(complex(rng.normal(), rng.normal())) * phase
            for mask in range(16)})
        up = action(cfg.psi + phi.scale(CExpr.of(eps)), cfg.m)
        dn = action(cfg.psi + phi.scale(CExpr.of(-eps)), cfg.m)
        grad_on = (up - dn) / (2 * eps)
        up = action(cfg.psi + phi.scale(CExpr.of(eps)), cfg.m * 1.2)
        dn = action(cfg.psi + phi.scale(CExpr.of(-eps)), cfg.m * 1.2)
        grad_off = (up - dn) / (2 * eps)
        grads_on.append(abs(grad_on))
        grads_off.append(abs(grad_off))
    scale = worst(grads_off)
    assert scale > 1.0, "off-shell reference gradient unexpectedly small"
    verdict(10, "variational spot check", worst(grads_on) / scale, 1e-5,
            time.monotonic() - t0)
