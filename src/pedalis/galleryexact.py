"""Exact parts of the gallery entries: implicit polynomials, families, degree data.

One function per entry, named after it with "_" for "-", takes the entry's
parameters and the charts its builder made, and returns the names of
``gallery.EXACT`` that the entry has.  ``gallery`` imports this module on
the first read of any of them, so no ``sample`` of a gallery entry compiles
it or the exact algebra it needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .hompoly import (
    HomPoly4,
    Space,
    offset_dual_poly,
    parse_poly,
    pedal_pullback,
    strip_exceptional,
)
from .quadricpedal import (
    paraboloid_dual_quadric,
    sphere_inverse_pedal_affine,
    sphere_point_quadric,
)
from .sphereatlas import trig_s2
from .surfkit import (
    Chart,
    Domain,
    PolarSurface,
    conchoid_map,
    construct,
    envelope_surface,
    offset_map,
    point_to_dual,
    vector_rows,
)

X0, X1, X2, X3 = (HomPoly4.variable(Space.POINT, i) for i in range(4))
U0, U1, U2, U3 = (HomPoly4.variable(Space.DUAL, i) for i in range(4))
QPT, QDU = HomPoly4.quadform(Space.POINT), HomPoly4.quadform(Space.DUAL)


@dataclass(frozen=True)
class ResidualCase:
    label: str
    surface: object  # DualSurface | PolarSurface | PointSurface
    poly: HomPoly4


def _plane_paraboloid_polys():
    """Shared polynomials of the plane/paraboloid correspondence."""
    plane = parse_poly("x3 - x0")
    fstar = parse_poly("u1^2 + u2^2 + u3^2 + u0*u3")

    def point_family(d):
        d = Fraction(d)
        return (X0 * X3) ** 2 * d ** 2 - QPT * (X0 - X3) ** 2

    def dual_family(d):
        d = Fraction(d)
        base = QDU + U0 * U3
        return U3 ** 2 * QDU * d ** 2 - base ** 2

    return plane, fstar, point_family, dual_family


def plane_conchoid(polar):
    plane, fstar, point_family, dual_family = _plane_paraboloid_polys()
    cases = [ResidualCase("conchoid d=0 vs plane", polar, plane)]
    for d in (0.7, 0.5, -0.3):
        cases.append(ResidualCase(f"conchoid d={d}", conchoid_map(polar, d), point_family(d)))
    return dict(point_poly=plane, dual_poly=fstar, point_family=point_family,
                dual_family=dual_family, expected=(2, 1, 1, 1),
                residual_cases=tuple(cases), pullback_pair=(fstar, plane))


def paraboloid_offset(dual):
    plane, fstar, point_family, dual_family = _plane_paraboloid_polys()
    paraboloid = parse_poly("x1^2 + x2^2 + 4*x0*x3 - 4*x0^2")
    cases = [
        ResidualCase("dual d=0", dual, fstar),
        ResidualCase("dual d=1/2", offset_map(dual, 0.5), dual_family(Fraction(1, 2))),
        ResidualCase("dual d=1", offset_map(dual, 1.0), dual_family(1)),
        ResidualCase("envelope vs paraboloid", envelope_surface(dual), paraboloid),
    ]
    return dict(point_poly=paraboloid, dual_poly=fstar, point_family=point_family,
                dual_family=dual_family, expected=(2, 1, 1, 1),
                residual_cases=tuple(cases), pullback_pair=(fstar, plane))


def sphere_offset(m, R, dual, polar):
    mf, Rf = Fraction(m), Fraction(R)

    def dual_family(d):
        Rd = Rf + Fraction(d)
        return (U1 ** 2 * (Rd * Rd - mf * mf) + (U2 ** 2 + U3 ** 2) * (Rd * Rd)
                - U0 * U1 * (2 * mf) - U0 ** 2)

    def point_family(d):
        Rd = Rf + Fraction(d)
        return (X0 ** 2 * (X1 ** 2 * (Rd * Rd - mf * mf) + (X2 ** 2 + X3 ** 2) * (Rd * Rd))
                + X0 * X1 * QPT * (2 * mf) - QPT ** 2)

    fstar = dual_family(0)
    gbar = point_family(0)
    cases = [
        ResidualCase("dual d=0", dual, fstar),
        ResidualCase("dual d=1/2", offset_map(dual, 0.5), dual_family(Fraction(1, 2))),
        ResidualCase("dual d=-0.3", offset_map(dual, -0.3), dual_family(Fraction(-3, 10))),
        ResidualCase("conchoid d=0", polar, gbar),
        ResidualCase("conchoid d=1/2", conchoid_map(polar, 0.5), point_family(Fraction(1, 2))),
        ResidualCase("conchoid d=-0.3", conchoid_map(polar, -0.3),
                     point_family(Fraction(-3, 10))),
    ]
    return dict(point_poly=gbar, dual_poly=fstar, point_family=point_family,
                dual_family=dual_family, expected=(2, 0, 0, 4),
                residual_cases=tuple(cases), pullback_pair=(fstar, gbar))


def sphere_bundle(m, polar):
    mf = Fraction(m)
    fstar = U0 + U1 * mf
    gbar = QPT - X0 * X1 * mf
    return dict(point_poly=gbar, dual_poly=fstar, expected=(1, 0, 0, 2),
                residual_cases=(ResidualCase("OM-sphere polar chart", polar, gbar),),
                pullback_pair=(fstar, gbar))


def pluecker(point_chart, dual, polar):
    conoid = parse_poly("x3*x1^2 + x3*x2^2 - 2*x0*x1*x2")
    fstar = parse_poly("u0*u1^2 + u0*u2^2 - 2*u1*u2*u3")
    gbar = parse_poly("2*x0*x1*x2*x3 + (x1^2 + x2^2)*(x1^2 + x2^2 + x3^2)")
    bstar = parse_poly("u0*u3*(u1^2 + u2^2) + 2*u1*u2*(u1^2 + u2^2 + u3^2)")
    w2_du = parse_poly("u1^2 + u2^2")
    w2_pt = parse_poly("x1^2 + x2^2")

    def dual_family(d):
        d = Fraction(d)
        return w2_du ** 2 * QDU * d ** 2 - fstar ** 2

    def point_family(d):
        d = Fraction(d)
        return X0 ** 2 * w2_pt ** 2 * QPT * d ** 2 - gbar ** 2

    def conchoid_family(d):
        d = Fraction(d)
        return w2_pt ** 2 * (X0 * X3) ** 2 * d ** 2 - QPT * conoid ** 2

    def bdual_family(d):
        d = Fraction(d)
        return U3 ** 2 * w2_du ** 2 * QDU * d ** 2 - bstar ** 2

    # conchoid family of the conoid itself (rational polar chart): the
    # direction at azimuth u and polar angle pi/2 - v has radius sin 2u / sin v
    cdom = Domain(0.12, 1.43, math.pi / 2 - 1.25, math.pi / 2 + 1.25)
    conoid_polar = PolarSurface(trig_s2(cdom), Chart(
        lambda u, v: np.sin(2 * u) / np.sin(v), domain=cdom))
    conoid_half = conchoid_map(conoid_polar, 0.5)

    cases = [
        ResidualCase("point chart vs conoid", point_chart, conoid),
        ResidualCase("dual d=0", dual, fstar),
        ResidualCase("dual d=1/2", offset_map(dual, 0.5), dual_family(Fraction(1, 2))),
        ResidualCase("dual d=1", offset_map(dual, 1.0), dual_family(1)),
        ResidualCase("pedal d=0", polar, gbar),
        ResidualCase("pedal d=1/2", conchoid_map(polar, 0.5), point_family(Fraction(1, 2))),
        ResidualCase("pedal d=1", conchoid_map(polar, 1.0), point_family(1)),
        ResidualCase("pedal construct", construct(dual, "pedal"), gbar),
        ResidualCase("pedal of the point chart", construct(point_chart, "pedal"), gbar),
        ResidualCase("conchoid d=0", conoid_polar, conoid),
        ResidualCase("conchoid d=1/2", conoid_half, conchoid_family(Fraction(1, 2))),
        ResidualCase("conchoid d=1", conchoid_map(conoid_polar, 1.0), conchoid_family(1)),
        ResidualCase("inverse-pedal dual d=0", point_to_dual(conoid_polar), bstar),
        ResidualCase("inverse-pedal dual d=1/2", point_to_dual(conoid_half),
                     bdual_family(Fraction(1, 2))),
    ]
    extras = {"conoid": conoid, "conchoid_family": conchoid_family, "bstar": bstar,
              "bdual_family": bdual_family}
    return dict(point_poly=gbar, dual_poly=fstar, point_family=point_family,
                dual_family=dual_family, expected=(3, 2, 0, 4),
                residual_cases=tuple(cases), pullback_pair=(fstar, gbar), extras=extras)


def parabola_cyclide(a, c, dual, polar):
    af, cf = Fraction(a), Fraction(c)
    fstar = U1 ** 2 - U0 * U3 * (2 * af) - U3 ** 2 * (2 * af * cf)
    gbar = X0 * (X1 ** 2 - X3 ** 2 * (2 * af * cf)) + X3 * QPT * (2 * af)

    def dual_family(d):
        d = Fraction(d)
        return fstar ** 2 - U3 ** 2 * QDU * (4 * af * af * d * d)

    def point_family(d):
        d = Fraction(d)
        return gbar ** 2 - (X0 * X3) ** 2 * QPT * (4 * af * af * d * d)

    cases = [
        ResidualCase("dual d=0", dual, fstar),
        ResidualCase("dual d=1/2", offset_map(dual, 0.5), dual_family(Fraction(1, 2))),
        ResidualCase("pedal d=0", polar, gbar),
        ResidualCase("pedal d=1/2", conchoid_map(polar, 0.5), point_family(Fraction(1, 2))),
    ]
    return dict(point_poly=gbar, dual_poly=fstar, point_family=point_family,
                dual_family=dual_family, expected=(2, 1, 0, 3),
                residual_cases=tuple(cases), pullback_pair=(fstar, gbar))


def paraboloid_pedal(a, b, c, dual, polar, point_chart):
    # z = (a x^2 + b y^2)/2 + c; dual quadric via the halved parameters
    fstar = paraboloid_dual_quadric(Fraction(a, 2), Fraction(b, 2), Fraction(c))
    gbar = strip_exceptional(pedal_pullback(fstar)).reduced

    def dual_family(d):
        return offset_dual_poly(fstar, Fraction(d))

    def point_family(d):
        return strip_exceptional(pedal_pullback(dual_family(d))).reduced

    point_implicit = (X1 ** 2 * Fraction(a) + X2 ** 2 * Fraction(b)
                      + X0 ** 2 * (2 * Fraction(c)) - X0 * X3 * 2)
    cases = [
        ResidualCase("dual d=0", dual, fstar),
        ResidualCase("dual d=1/2", offset_map(dual, 0.5), dual_family(Fraction(1, 2))),
        ResidualCase("pedal d=0", polar, gbar),
        ResidualCase("pedal d=1/2", conchoid_map(polar, 0.5), point_family(Fraction(1, 2))),
        ResidualCase("point chart vs paraboloid", point_chart, point_implicit),
        ResidualCase("envelope vs paraboloid", envelope_surface(dual), point_implicit),
    ]
    return dict(point_poly=gbar, dual_poly=fstar, point_family=point_family,
                dual_family=dual_family, expected=(2, 1, 0, 3),
                residual_cases=tuple(cases), pullback_pair=(fstar, gbar),
                extras={"point_implicit": point_implicit})


def sphere_inverse_pedal(m, r, sphere_chart):
    mf, rf = Fraction(m), Fraction(r)
    gsphere = sphere_point_quadric(mf, rf)
    result = sphere_inverse_pedal_affine(mf, rf)
    planes = point_to_dual(sphere_chart)
    cases = [
        ResidualCase("sphere chart", sphere_chart, gsphere),
        ResidualCase("image planes", planes, result.dual),
        ResidualCase("image envelope", envelope_surface(planes), result.implicit),
    ]
    return dict(point_poly=gsphere, dual_poly=result.dual, expected=(2, 0, 1, 2),
                residual_cases=tuple(cases), pullback_pair=(gsphere, result.dual),
                extras={"result": result})


def quadratic_cylinder(a, b, ruled, ruled_points, polar):
    af, bf = Fraction(a), Fraction(b)
    afl, bfl = float(a), float(b)
    gcyl = X1 ** 2 * bf ** 2 + X2 ** 2 * af ** 2 - X0 ** 2 * (af * bf) ** 2
    fstar = (U0 * U1) ** 2 * bf ** 2 + (U0 * U2) ** 2 * af ** 2 - QDU ** 2 * (af * bf) ** 2
    planes = point_to_dual(ruled_points)
    cases = [
        ResidualCase("ruled chart vs cylinder", ruled_points, gcyl),
        ResidualCase("image planes vs quartic", planes, fstar),
        ResidualCase("rational polar chart", polar, gcyl),
    ]

    def closed_form(u, v):
        cu, su = np.cos(u), np.sin(u)
        return vector_rows(
            u,
            -(cu / afl) * ((afl ** 2 - bfl ** 2) * cu * cu + bfl ** 2 - 2 * afl ** 2 + v * v),
            -(su / bfl) * ((afl ** 2 - bfl ** 2) * cu * cu - bfl ** 2 + v * v),
            2.0 * v,
        )

    return dict(point_poly=gcyl, dual_poly=fstar, expected=(2, 0, 0, 4),
                residual_cases=tuple(cases), pullback_pair=(gcyl, fstar),
                extras={"ruled": ruled, "closed_form": closed_form})
