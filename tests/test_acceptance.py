"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single pass/fail line (visible with pytest -s) and then
asserts, so a red criterion is visible both ways.
"""

import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from pedalis import gallery, quadricpedal, ruledpedal, surfkit
from pedalis.gallery import get_entry, residual_report
from pedalis.hompoly import (
    HomPoly4,
    Space,
    degree_bookkeeping,
    inverse_pedal_pullback,
    parse_poly,
    pedal_pullback,
    strip_exceptional,
)
from pedalis.projmaps import (
    HPlane,
    HPoint,
    alpha_hom,
    alpha_star_hom,
    canonical,
    inversion_sigma,
    polarity_pi,
    polarity_pi_star,
)
from pedalis.surfkit import Chart, Domain, PointSurface, envelope_solve

SAMPLES = 10_000
SEED = 20240612


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion-{num:02d} {name}: {status} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def random_tuples(rng, count):
    out = []
    while len(out) < count:
        v = rng.uniform(-1.0, 1.0, size=4)
        if np.max(np.abs(v)) < 1e-3:
            continue
        w = canonical(v)
        if abs(w[0]) < 1e-6 or np.linalg.norm(w[1:]) < 1e-6:
            continue
        out.append(w)
    return out


def projdev(a, b):
    return float(np.max(np.abs(canonical(a.coords) - canonical(b.coords))))


def test_criterion_01_involution_round_trips():
    rng = np.random.default_rng(SEED)
    tuples = random_tuples(rng, SAMPLES)
    t0 = time.perf_counter()
    worst = 0.0
    for w in tuples:
        U = HPlane(w)
        worst = max(worst, projdev(alpha_star_hom(alpha_hom(U)), U))
        X = HPoint(w)
        worst = max(worst, projdev(alpha_hom(alpha_star_hom(X)), X))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 5.0
    report(1, "involution-round-trips", ok,
           f"max_dev={worst:.3e} elapsed={elapsed:.2f}s")


def test_criterion_02_factorization():
    rng = np.random.default_rng(SEED + 1)
    tuples = random_tuples(rng, SAMPLES)
    worst = 0.0
    for w in tuples:
        U = HPlane(w)
        worst = max(worst, projdev(alpha_hom(U), inversion_sigma(polarity_pi(U))))
        X = HPoint(w)
        worst = max(worst, projdev(alpha_star_hom(X),
                                   polarity_pi_star(inversion_sigma(X))))
    ok = worst < 1e-9
    report(2, "alpha-factorization", ok, f"max_dev={worst:.3e}")


def test_criterion_03_commuting_diagrams():
    t0 = time.perf_counter()
    worst = 0.0
    for name in ("plane-conchoid", "sphere-offset", "paraboloid-offset"):
        F = get_entry(name).dual
        for d in (-1.0, -0.3, 0.0, 0.5, 2.0):
            worst = max(worst, surfkit.commutation_check(F.n, F.e, d, grid=(50, 50)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 10.0
    report(3, "commuting-diagrams", ok,
           f"max_dev={worst:.3e} elapsed={elapsed:.2f}s")


def test_criterion_04_exact_pullback_identities():
    checks = []

    def pedal_of(poly):
        return strip_exceptional(pedal_pullback(poly)).reduced

    def invpedal_of(poly):
        return strip_exceptional(inverse_pedal_pullback(poly)).reduced

    d = Fraction(1, 2)
    # plane / paraboloid pair, both directions, plus the offset family
    pc = get_entry("plane-conchoid")
    checks.append(pedal_of(pc.dual_poly).equals_up_to_scale(pc.point_poly))
    checks.append(invpedal_of(pc.point_poly).equals_up_to_scale(pc.dual_poly))
    checks.append(pedal_of(pc.dual_family(d)).equals_up_to_scale(pc.point_family(d)))
    checks.append(invpedal_of(pc.point_family(d)).equals_up_to_scale(pc.dual_family(d)))
    # sphere pair including the degenerate bundle
    so = get_entry("sphere-offset")
    checks.append(pedal_of(so.dual_family(d)).equals_up_to_scale(so.point_family(d)))
    sb = get_entry("sphere-bundle")
    checks.append(pedal_of(sb.dual_poly).equals_up_to_scale(sb.point_poly))
    # Pluecker, both directions, including the conchoid/inverse-pedal family
    pl = get_entry("pluecker")
    checks.append(pedal_of(pl.dual_poly).equals_up_to_scale(pl.point_poly))
    checks.append(pedal_of(pl.dual_family(d)).equals_up_to_scale(pl.point_family(d)))
    checks.append(invpedal_of(pl.extras["conoid"]).equals_up_to_scale(
        pl.extras["bstar"]))
    checks.append(invpedal_of(pl.extras["conchoid_family"](d)).equals_up_to_scale(
        pl.extras["bdual_family"](d)))
    # parabola pair with offsets
    pb = get_entry("parabola-cyclide")
    checks.append(pedal_of(pb.dual_poly).equals_up_to_scale(pb.point_poly))
    checks.append(pedal_of(pb.dual_family(d)).equals_up_to_scale(pb.point_family(d)))
    # sphere inverse pedal
    sip = get_entry("sphere-inverse-pedal")
    checks.append(invpedal_of(sip.point_poly).equals_up_to_scale(sip.dual_poly))
    ok = all(checks)
    report(4, "exact-pullback-identities", ok, f"{sum(checks)}/{len(checks)} exact")


def test_criterion_05_degree_bookkeeping():
    expected = {
        "pluecker": (3, 2, 0, 4),
        "plane-conchoid": (2, 1, 1, 1),
        "paraboloid-offset": (2, 1, 1, 1),
        "sphere-offset": (2, 0, 0, 4),
    }
    ok = True
    for name, expect in expected.items():
        ok = ok and degree_bookkeeping(get_entry(name).pullback_pair[0]) == expect
    for name in gallery.list_entries():
        entry = get_entry(name)
        if entry.expected is not None:
            ok = ok and degree_bookkeeping(entry.pullback_pair[0]) == entry.expected
    report(5, "degree-bookkeeping", ok)


def test_criterion_06_residual_suites():
    worst = 0.0
    labels = 0
    for name in gallery.list_entries():
        for case in get_entry(name).residual_cases:
            rep = residual_report(case.surface, case.poly, 60, 60)
            worst = max(worst, rep.max)
            labels += 1
    # the suite must include the Pluecker offset duals and conchoids
    covered = {c.label for c in get_entry("pluecker").residual_cases}
    needed = {"dual d=1/2", "dual d=1", "conchoid d=1/2", "conchoid d=1"}
    ok = worst < 1e-8 and needed <= covered
    report(6, "gallery-residuals", ok, f"max={worst:.3e} over {labels} cases")


def test_criterion_07_envelope_solver():
    entry = get_entry("paraboloid-offset")
    rep = residual_report(surfkit.envelope_surface(surfkit.offset_map(entry.dual, 0.0)),
                          entry.point_poly, 40, 40)
    qc = get_entry("quadratic-cylinder")
    ruled, closed = qc.extras["ruled"], qc.extras["closed_form"]
    worst = 0.0
    for u in np.linspace(0.0, 2.0 * math.pi, 40):
        for v in np.linspace(-2.0, 2.0, 40):
            got = surfkit.construct(ruled.surface, "inverse-pedal").point(u, v)
            worst = max(worst, float(np.max(np.abs(got - closed(u, v)))))
    ok = rep.max < 1e-8 and worst < 1e-7
    report(7, "envelope-solver", ok,
           f"paraboloid={rep.max:.3e} cylinder={worst:.3e}")


def test_criterion_08_exact_degeneracies():
    pair = quadricpedal.focal_degeneracy_check(1, 1, Fraction(-1, 4))
    ok = pair is not None and pair[1].equals_up_to_scale(parse_poly("4*x3 + x0"))
    ok = ok and pair[0] == HomPoly4.quadform(Space.POINT)
    ok = ok and quadricpedal.focal_degeneracy_check(1, 1, 1) is None
    ok = ok and quadricpedal.is_parabola_dupin(1, Fraction(-1, 2))
    ok = ok and not quadricpedal.is_parabola_dupin(1, 1)
    kinds = (quadricpedal.sphere_inverse_pedal_affine(0, 1).kind,
             quadricpedal.sphere_inverse_pedal_affine(2, 1).kind,
             quadricpedal.sphere_inverse_pedal_affine(1, 1).kind)
    ok = ok and kinds == (
        quadricpedal.SphereInversePedalKind.ELLIPSOID,
        quadricpedal.SphereInversePedalKind.HYPERBOLOID_2SHEETS,
        quadricpedal.SphereInversePedalKind.DEGENERATE_POINT,
    )
    report(8, "exact-degeneracies", ok)


def test_criterion_09_pentaspherical_lift():
    cyclide = quadricpedal.pedal_of_quadric(quadricpedal.sphere_dual_quadric(2, 1))
    form = quadricpedal.pentaspherical_lift(cyclide)
    B = form.B
    shape_ok = (B[0][0] == B[4][4] == B[0][4] == -1
                and (B[1][1], B[2][2], B[3][3]) == (-3, 1, 1)
                and B[0][1] == B[4][1] == 2)
    rng = np.random.default_rng(SEED + 9)
    worst = 0.0
    for _ in range(1000):
        x = rng.uniform(-2.0, 2.0, size=3)
        y = quadricpedal.pentaspherical_point(x)
        lhs = float(form.eval(y))
        rhs = float(cyclide.eval(np.concatenate(([1.0], x))))
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    ok = shape_ok and worst < 1e-9
    report(9, "pentaspherical-lift", ok, f"round_trip={worst:.3e}")


def test_criterion_10_rational_norms():
    plu = ruledpedal.RuledChart(
        lambda u: surfkit.vector_rows(u, 0.0, 0.0, np.sin(2 * u)),
        lambda u: surfkit.vector_rows(u, np.cos(u), np.sin(u), 0.0),
        dc=lambda u: surfkit.vector_rows(u, 0.0, 0.0, 2 * np.cos(2 * u)),
        de=lambda u: surfkit.vector_rows(u, -np.sin(u), np.cos(u), 0.0),
        domain=Domain(0.1, 1.2, 0.15, 0.85),
    )
    F = ruledpedal.rational_offset_ruled(plu, 0.5)
    worst_ruled = 0.0
    for u in np.linspace(0.12, 1.18, 30):
        for t in np.linspace(0.2, 0.8, 30):
            _, n, (y0, y1, _) = F.assemble(u, t)
            worst_ruled = max(worst_ruled, abs(float(np.linalg.norm(n)) * y1 - y0))
    worst_closed = 0.0
    for u in np.linspace(0.0, 2.0 * math.pi, 40):
        for t in np.linspace(0.2, 1.4, 40):
            r = 2.0 * math.cos(2 * u) * math.cos(t) / math.sin(t)
            w = 2.0 * math.cos(2 * u) / math.sin(t)
            worst_closed = max(worst_closed,
                               abs(w * w - (4.0 * math.cos(2 * u) ** 2 + r * r)))
    ok = worst_ruled < 1e-9 and worst_closed < 1e-10
    report(10, "rational-norms", ok,
           f"ruled={worst_ruled:.3e} closed_form={worst_closed:.3e}")


def test_criterion_11_bisector():
    plane = PointSurface(Chart(
        lambda u, v: np.array([u, v, 1.0]),
        lambda u, v: np.array([1.0, 0.0, 0.0]),
        lambda u, v: np.array([0.0, 1.0, 0.0]),
        Domain(-2.0, 2.0, -2.0, 2.0),
    ))
    bis = quadricpedal.bisector_from_inverse_pedal(plane)
    worst = 0.0
    for u in np.linspace(-2.0, 2.0, 40):
        for v in np.linspace(-2.0, 2.0, 40):
            p = bis.point(u, v)
            worst = max(worst, abs(float(np.linalg.norm(p)) - abs(p[2] - 1.0)))
    ok = worst < 1e-7
    report(11, "bisector-scaling", ok, f"max_dev={worst:.3e}")


def test_verify_all_runtime():
    t0 = time.perf_counter()
    res = subprocess.run(
        [sys.executable, "-m", "pedalis", "verify", "--suite", "all", "--seed", "1"],
        capture_output=True, text=True, env=dict(os.environ))
    elapsed = time.perf_counter() - t0
    ok = res.returncode == 0 and elapsed < 60.0
    report(12, "verify-all-runtime", ok, f"elapsed={elapsed:.1f}s")
