"""Named example registry: charts, implicit oracles and degree data.

Each entry binds parameterizations to the exact implicit polynomials they
must satisfy, plus the expected (n, r, k, deg) bookkeeping of the pullback
between the point and dual pictures.  The residual harness evaluates a
chart on a grid and reports the normalized residual

    |P(T)| / (|coeffs|_1 * |T|_inf^deg),

which is scale free in both the polynomial and the tuple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from .errors import EmptyGrid, NotFound
from .gallerynames import GALLERY_NAMES
from .projmaps import row_max
from .sphereatlas import trig_s2
from .surfkit import (
    Chart,
    Domain,
    DualSurface,
    PointSurface,
    PolarSurface,
    conchoid_map,
    construct,
    envelope_surface,
    offset_map,
    point_to_dual,
    sample_grid,
    vector_rows,
)

if TYPE_CHECKING:
    from .hompoly import HomPoly4


@dataclass(frozen=True)
class ResidualReport:
    max: float
    mean: float
    count: int


@dataclass(frozen=True)
class ResidualCase:
    label: str
    surface: object  # DualSurface | PolarSurface | PointSurface
    poly: HomPoly4


# The exact part of an entry: point_poly, dual_poly (HomPoly4); expected, the
# (n, r, k, deg) of expected_poly; residual_cases; pullback_pair, (source,
# expected stripped pullback image) aligned with the source space;
# point_family, dual_family (d -> HomPoly4) and extras, None when absent.
EXACT = ("point_poly", "dual_poly", "expected", "residual_cases", "pullback_pair",
         "point_family", "dual_family", "extras")


@dataclass(frozen=True)
class GalleryEntry:
    name: str
    summary: str
    build_exact: object  # () -> {name in EXACT: value}, called on first access
    # which chart family represents the entry's base surface
    primary: str = "point"
    dual: DualSurface | None = None  # tangent planes with unit normals, at d = 0
    polar: PolarSurface | None = None  # polar chart at d = 0
    point_chart: PointSurface | None = None

    def __getattr__(self, name):
        """The exact part, built by build_exact on first access and kept in the entry."""
        if name not in EXACT:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self.__dict__.update(dict.fromkeys(EXACT), **self.build_exact())
        return self.__dict__[name]

    @property
    def expected_poly(self) -> HomPoly4:
        """Polynomial the (n, r, k, deg) bookkeeping applies to."""
        return self.pullback_pair[0]

    def ne_charts(self) -> tuple[Chart, Chart]:
        """Unit normal and support charts of the base plane family."""
        return self.dual.n, self.dual.e

    def make_dual(self, d: float) -> DualSurface:
        """Plane family of the offset at distance d."""
        return offset_map(self.dual, d)

    def make_polar(self, d: float) -> PolarSurface:
        """Polar chart of the conchoid at distance d."""
        return conchoid_map(self.polar, d)

    def construct(self, name: str, d: float = 0.0) -> PointSurface:
        """``surfkit.construct`` on its member: ``self`` on the primary one,
        ``pedal`` on F (``dual``, else the point chart), ``inverse-pedal`` on
        the point chart (else ``polar``); ``offset`` and ``conchoid`` are
        ``self`` of ``make_dual(d)`` and ``make_polar(d)``."""
        base = None
        if name == "self":
            base = getattr(self, "point_chart" if self.primary == "point" else self.primary)
        elif name == "pedal":
            base = self.dual if self.dual is not None else self.point_chart
        elif name == "inverse-pedal":
            base = self.point_chart if self.point_chart is not None else self.polar
        elif name == "offset" and self.dual is not None:
            base, name = self.make_dual(d), "self"
        elif name == "conchoid" and self.polar is not None:
            base, name = self.make_polar(d), "self"
        if base is None:
            raise ValueError(f"gallery entry {self.name!r} does not support construct {name!r}")
        return construct(base, name, d)


def residual_report(surface, poly: HomPoly4, nu: int = 60, nv: int = 60) -> ResidualReport:
    """Normalized residuals of a chart against an implicit polynomial."""
    T, valid = sample_grid(surface.htuple, surface.domain, nu, nv)
    if not valid.any():
        raise EmptyGrid("no valid samples on the grid")
    vals = np.abs(poly.eval_grid(T))
    scale = poly.coeff_norm() * row_max(np.abs(T)) ** poly.degree
    res = vals / scale
    return ResidualReport(float(res.max()), float(res.mean()), len(T))


# -- entry builders ----------------------------------------------------------
# Each builder makes the charts and passes an ``exact`` closure that makes
# the exact part.  Only the closures import hompoly, and quadricpedal, which
# needs it, except for the paraboloid-pedal charts that come from there.


def _plane_paraboloid_charts():
    """Shared charts of the plane/paraboloid correspondence."""
    dom = Domain(0.0, 2.0 * math.pi, 0.2, 1.35)
    n = trig_s2(dom)
    e = Chart(
        lambda u, v: 1.0 / np.sin(v),
        lambda u, v: np.zeros(np.shape(u)),
        lambda u, v: -np.cos(v) / (np.sin(v) * np.sin(v)),
        dom,
    )
    return n, e


def _plane_paraboloid_polys():
    """Shared polynomials of the plane/paraboloid correspondence."""
    from .hompoly import HomPoly4, Space, parse_poly
    QPT, QDU = HomPoly4.quadform(Space.POINT), HomPoly4.quadform(Space.DUAL)
    plane = parse_poly("x3 - x0")
    fstar = parse_poly("u1^2 + u2^2 + u3^2 + u0*u3")

    def point_family(d):
        d = Fraction(d)
        x0 = HomPoly4.variable(Space.POINT, 0)
        x3 = HomPoly4.variable(Space.POINT, 3)
        return (x0 * x3) ** 2 * d ** 2 - QPT * (x0 - x3) ** 2

    def dual_family(d):
        d = Fraction(d)
        u3 = HomPoly4.variable(Space.DUAL, 3)
        base = QDU + HomPoly4.variable(Space.DUAL, 0) * u3
        return u3 ** 2 * QDU * d ** 2 - base ** 2

    return plane, fstar, point_family, dual_family


def _build_plane_conchoid() -> GalleryEntry:
    n, e = _plane_paraboloid_charts()
    polar = PolarSurface(n, e)

    def exact():
        plane, fstar, point_family, dual_family = _plane_paraboloid_polys()
        cases = [ResidualCase("conchoid d=0 vs plane", polar, plane)]
        for d in (0.7, 0.5, -0.3):
            cases.append(ResidualCase(f"conchoid d={d}", conchoid_map(polar, d), point_family(d)))
        return dict(point_poly=plane, dual_poly=fstar, point_family=point_family,
                    dual_family=dual_family, expected=(2, 1, 1, 1),
                    residual_cases=tuple(cases), pullback_pair=(fstar, plane))

    return GalleryEntry(
        name="plane-conchoid", primary="polar",
        summary="conchoid family of the plane z=1 about the origin",
        build_exact=exact, dual=DualSurface(n, e), polar=polar,
    )


def _build_paraboloid_offset() -> GalleryEntry:
    n, e = _plane_paraboloid_charts()
    dual = DualSurface(n, e)

    def exact():
        from .hompoly import parse_poly
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

    return GalleryEntry(
        name="paraboloid-offset", primary="dual",
        summary="offset family of the paraboloid x^2+y^2+4z=4 with focal point O",
        build_exact=exact, dual=dual, polar=PolarSurface(n, e),
    )


def _build_sphere_offset(m=2, R=1) -> GalleryEntry:
    dom = Domain(0.0, 2.0 * math.pi, -1.25, 1.25)
    n = trig_s2(dom)
    e = Chart(
        lambda u, v: float(m) * np.cos(u) * np.cos(v) + float(R),
        lambda u, v: -float(m) * np.sin(u) * np.cos(v),
        lambda u, v: -float(m) * np.cos(u) * np.sin(v),
        dom,
    )
    dual = DualSurface(n, e)
    polar = PolarSurface(n, e)

    def exact():
        from .hompoly import HomPoly4, Space
        mf, Rf = Fraction(m), Fraction(R)
        QPT = HomPoly4.quadform(Space.POINT)

        def dual_family(d):
            d = Fraction(d)
            u0, u1, u2, u3 = (HomPoly4.variable(Space.DUAL, i) for i in range(4))
            Rd = Rf + d
            return (u1 ** 2 * (Rd * Rd - mf * mf) + (u2 ** 2 + u3 ** 2) * (Rd * Rd)
                    - u0 * u1 * (2 * mf) - u0 ** 2)

        def point_family(d):
            d = Fraction(d)
            x0, x1, x2, x3 = (HomPoly4.variable(Space.POINT, i) for i in range(4))
            Rd = Rf + d
            return (x0 ** 2 * (x1 ** 2 * (Rd * Rd - mf * mf) + (x2 ** 2 + x3 ** 2) * (Rd * Rd))
                    + x0 * x1 * QPT * (2 * mf) - QPT ** 2)

        fstar = dual_family(0)
        gbar = point_family(0)
        cases = [
            ResidualCase("dual d=0", dual, fstar),
            ResidualCase("dual d=1/2", offset_map(dual, 0.5), dual_family(Fraction(1, 2))),
            ResidualCase("dual d=-0.3", offset_map(dual, -0.3), dual_family(Fraction(-3, 10))),
            ResidualCase("conchoid d=0", polar, gbar),
            ResidualCase("conchoid d=1/2", conchoid_map(polar, 0.5),
                         point_family(Fraction(1, 2))),
            ResidualCase("conchoid d=-0.3", conchoid_map(polar, -0.3),
                         point_family(Fraction(-3, 10))),
        ]
        return dict(point_poly=gbar, dual_poly=fstar, point_family=point_family,
                    dual_family=dual_family, expected=(2, 0, 0, 4),
                    residual_cases=tuple(cases), pullback_pair=(fstar, gbar))

    return GalleryEntry(
        name="sphere-offset", primary="dual",
        summary=f"offsets of the sphere center ({m},0,0) radius {R} and their conchoids",
        build_exact=exact, dual=dual, polar=polar,
    )


def _build_sphere_bundle(m=2) -> GalleryEntry:
    dom = Domain(0.0, 2.0 * math.pi, -1.25, 1.25)
    polar = PolarSurface(trig_s2(dom), Chart(
        lambda u, v: float(m) * np.cos(u) * np.cos(v),
        lambda u, v: -float(m) * np.sin(u) * np.cos(v),
        lambda u, v: -float(m) * np.cos(u) * np.sin(v),
        dom,
    ))

    def exact():
        from .hompoly import HomPoly4, Space
        mf = Fraction(m)
        u0, u1 = HomPoly4.variable(Space.DUAL, 0), HomPoly4.variable(Space.DUAL, 1)
        fstar = u0 + u1 * mf
        x0, x1 = HomPoly4.variable(Space.POINT, 0), HomPoly4.variable(Space.POINT, 1)
        gbar = HomPoly4.quadform(Space.POINT) - x0 * x1 * mf
        return dict(point_poly=gbar, dual_poly=fstar, expected=(1, 0, 0, 2),
                    residual_cases=(ResidualCase("OM-sphere polar chart", polar, gbar),),
                    pullback_pair=(fstar, gbar))

    return GalleryEntry(
        name="sphere-bundle", primary="polar",
        summary=f"degenerate bundle through ({m},0,0); image sphere with diameter OM",
        build_exact=exact, polar=polar,
    )


def _build_pluecker() -> GalleryEntry:
    # point chart of the conoid
    pdom = Domain(0.0, 2.0 * math.pi, -1.5, 1.5)
    point_chart = PointSurface(Chart(
        lambda u, v: np.stack((v * np.cos(u), v * np.sin(u), np.sin(2 * u)), axis=-1),
        lambda u, v: np.stack((-v * np.sin(u), v * np.cos(u), 2 * np.cos(2 * u)), axis=-1),
        lambda u, v: vector_rows(u, np.cos(u), np.sin(u), 0.0),
        pdom,
    ))

    # dual chart with already-rational unit normal
    ddom = Domain(0.0, 2.0 * math.pi, 0.15, 1.4)
    n = Chart(
        lambda u, t: np.stack((-np.sin(u) * np.sin(t),
                               np.cos(u) * np.sin(t), np.cos(t)), axis=-1),
        lambda u, t: vector_rows(u, -np.cos(u) * np.sin(t), -np.sin(u) * np.sin(t), 0.0),
        lambda u, t: np.stack((-np.sin(u) * np.cos(t),
                               np.cos(u) * np.cos(t), -np.sin(t)), axis=-1),
        ddom,
    )
    e = Chart(
        lambda u, t: np.cos(t) * np.sin(2 * u),
        lambda u, t: 2.0 * np.cos(t) * np.cos(2 * u),
        lambda u, t: -np.sin(t) * np.sin(2 * u),
        ddom,
    )
    dual = DualSurface(n, e)
    polar = PolarSurface(n, e)  # its conchoids are the pedals of the offsets

    def exact():
        from .hompoly import HomPoly4, Space, parse_poly
        QPT, QDU = HomPoly4.quadform(Space.POINT), HomPoly4.quadform(Space.DUAL)
        conoid = parse_poly("x3*x1^2 + x3*x2^2 - 2*x0*x1*x2")
        fstar = parse_poly("u0*u1^2 + u0*u2^2 - 2*u1*u2*u3")
        gbar = parse_poly("2*x0*x1*x2*x3 + (x1^2 + x2^2)*(x1^2 + x2^2 + x3^2)")
        bstar = parse_poly("u0*u3*(u1^2 + u2^2) + 2*u1*u2*(u1^2 + u2^2 + u3^2)")
        w2_du = parse_poly("u1^2 + u2^2")
        w2_pt = parse_poly("x1^2 + x2^2")
        x0 = HomPoly4.variable(Space.POINT, 0)
        x3 = HomPoly4.variable(Space.POINT, 3)
        u3 = HomPoly4.variable(Space.DUAL, 3)

        def dual_family(d):
            d = Fraction(d)
            return w2_du ** 2 * QDU * d ** 2 - fstar ** 2

        def point_family(d):
            d = Fraction(d)
            return x0 ** 2 * w2_pt ** 2 * QPT * d ** 2 - gbar ** 2

        def conchoid_family(d):
            d = Fraction(d)
            return w2_pt ** 2 * (x0 * x3) ** 2 * d ** 2 - QPT * conoid ** 2

        def bdual_family(d):
            d = Fraction(d)
            return u3 ** 2 * w2_du ** 2 * QDU * d ** 2 - bstar ** 2

        # conchoid family of the conoid itself (rational polar chart)
        cdom = Domain(-1.25, 1.25, 0.12, 1.43)
        s_a = Chart(
            lambda u, v: np.stack((np.sin(u) * np.cos(v),
                                   np.sin(u) * np.sin(v), np.cos(u)), axis=-1),
            lambda u, v: np.stack((np.cos(u) * np.cos(v),
                                   np.cos(u) * np.sin(v), -np.sin(u)), axis=-1),
            lambda u, v: vector_rows(u, -np.sin(u) * np.sin(v), np.sin(u) * np.cos(v), 0.0),
            cdom,
        )
        conoid_polar = PolarSurface(s_a, Chart(
            lambda u, v: np.sin(2 * v) / np.cos(u),
            lambda u, v: np.sin(2 * v) * np.sin(u) / (np.cos(u) * np.cos(u)),
            lambda u, v: 2.0 * np.cos(2 * v) / np.cos(u),
            cdom,
        ))
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

    return GalleryEntry(
        name="pluecker", primary="point",
        summary="Pluecker conoid: pedal, inverse pedal, offsets and conchoids",
        build_exact=exact, dual=dual, polar=polar,
        point_chart=point_chart,
    )


def _build_parabola_cyclide(a=1, c=1) -> GalleryEntry:
    dom = Domain(0.0, 2.0 * math.pi, 0.2, 1.35)
    n = trig_s2(dom)
    afl, cfl = float(a), float(c)

    def numer(s, t):
        cs, ct, st = np.cos(s), np.cos(t), np.sin(t)
        return (cs * cs) * (ct * ct) - 2 * afl * cfl * (st * st)

    def e(s, t):
        return -numer(s, t) / (2 * afl * np.sin(t))

    def e_ds(s, t):
        ct = np.cos(t)
        return np.sin(2 * s) * (ct * ct) / (2 * afl * np.sin(t))

    def e_dt(s, t):
        cs, st, ct = np.cos(s), np.sin(t), np.cos(t)
        dn = -2 * (cs * cs) * ct * st - 4 * afl * cfl * st * ct
        return -(dn * st - numer(s, t) * ct) / (2 * afl * st * st)

    e_chart = Chart(e, e_ds, e_dt, dom)
    dual = DualSurface(n, e_chart)
    polar = PolarSurface(n, e_chart)

    def exact():
        from .hompoly import HomPoly4, Space
        QPT, QDU = HomPoly4.quadform(Space.POINT), HomPoly4.quadform(Space.DUAL)
        af, cf = Fraction(a), Fraction(c)
        u0, u1, u3 = (HomPoly4.variable(Space.DUAL, i) for i in (0, 1, 3))
        x0, x1, x3 = (HomPoly4.variable(Space.POINT, i) for i in (0, 1, 3))
        fstar = u1 ** 2 - u0 * u3 * (2 * af) - u3 ** 2 * (2 * af * cf)
        gbar = x0 * (x1 ** 2 - x3 ** 2 * (2 * af * cf)) + x3 * QPT * (2 * af)

        def dual_family(d):
            d = Fraction(d)
            return fstar ** 2 - u3 ** 2 * QDU * (4 * af * af * d * d)

        def point_family(d):
            d = Fraction(d)
            return gbar ** 2 - (x0 * x3) ** 2 * QPT * (4 * af * af * d * d)

        cases = [
            ResidualCase("dual d=0", dual, fstar),
            ResidualCase("dual d=1/2", offset_map(dual, 0.5), dual_family(Fraction(1, 2))),
            ResidualCase("pedal d=0", polar, gbar),
            ResidualCase("pedal d=1/2", conchoid_map(polar, 0.5), point_family(Fraction(1, 2))),
        ]
        return dict(point_poly=gbar, dual_poly=fstar, point_family=point_family,
                    dual_family=dual_family, expected=(2, 1, 0, 3),
                    residual_cases=tuple(cases), pullback_pair=(fstar, gbar))

    return GalleryEntry(
        name="parabola-cyclide", primary="polar",
        summary=f"pedal of the parabola (u,0,{a}/2 u^2+{c}): a cubic cyclide",
        build_exact=exact, dual=dual, polar=polar,
    )


def _build_paraboloid_pedal(a=1, b=1, c=1) -> GalleryEntry:
    from .quadricpedal import paraboloid_offset_chart

    dual = paraboloid_offset_chart(a, b, c)
    polar = PolarSurface(dual.n, dual.e)
    pdom = Domain(-1.5, 1.5, -1.5, 1.5)
    afl, bfl, cfl = float(a), float(b), float(c)
    point_chart = PointSurface(Chart(
        lambda u, v: np.stack((u, v, (afl * u * u + bfl * v * v) / 2.0 + cfl), axis=-1),
        lambda u, v: vector_rows(u, 1.0, 0.0, afl * u),
        lambda u, v: vector_rows(u, 0.0, 1.0, bfl * v),
        pdom,
    ))

    def exact():
        from .hompoly import HomPoly4, Space, offset_dual_poly, pedal_pullback, strip_exceptional
        from .quadricpedal import paraboloid_dual_quadric

        # z = (a x^2 + b y^2)/2 + c; dual quadric via the halved parameters
        Q = paraboloid_dual_quadric(Fraction(a, 2), Fraction(b, 2), Fraction(c))
        fstar = Q.as_poly()
        gbar = strip_exceptional(pedal_pullback(fstar)).reduced

        def dual_family(d):
            return offset_dual_poly(fstar, Fraction(d))

        def point_family(d):
            return strip_exceptional(pedal_pullback(dual_family(d))).reduced

        x0, x1, x2, x3 = (HomPoly4.variable(Space.POINT, i) for i in range(4))
        point_implicit = (x1 ** 2 * Fraction(a) + x2 ** 2 * Fraction(b)
                          + x0 ** 2 * (2 * Fraction(c)) - x0 * x3 * 2)
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

    return GalleryEntry(
        name="paraboloid-pedal", primary="polar",
        summary=f"pedal family of the paraboloid z=({a}x^2+{b}y^2)/2+{c}",
        build_exact=exact, dual=dual, polar=polar,
        point_chart=point_chart,
    )


def _build_sphere_inverse_pedal(m=2, r=1) -> GalleryEntry:
    dom = Domain(0.0, 2.0 * math.pi, -1.25, 1.25)
    mfl, rfl = float(m), float(r)
    s = trig_s2(dom)
    sphere_chart = PointSurface(Chart(
        lambda u, v: rfl * s(u, v) + (mfl, 0.0, 0.0),
        lambda u, v: rfl * s.du(u, v),
        lambda u, v: rfl * s.dv(u, v),
        dom,
    ))

    def exact():
        from .quadricpedal import sphere_inverse_pedal_affine, sphere_point_quadric

        mf, rf = Fraction(m), Fraction(r)
        gsphere = sphere_point_quadric(mf, rf).as_poly()
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

    return GalleryEntry(
        name="sphere-inverse-pedal", primary="point",
        summary=f"inverse pedal of the sphere center ({m},0,0) radius {r}",
        build_exact=exact, point_chart=sphere_chart,
    )


def _build_quadratic_cylinder(a=2, b=1) -> GalleryEntry:
    from .ruledpedal import RuledChart

    afl, bfl = float(a), float(b)
    rdom = Domain(0.0, 2.0 * math.pi, -2.0, 2.0)
    ruled = RuledChart(
        lambda u: vector_rows(u, afl * np.cos(u), bfl * np.sin(u), 0.0),
        lambda u: vector_rows(u, 0.0, 0.0, 1.0),
        dc=lambda u: vector_rows(u, -afl * np.sin(u), bfl * np.cos(u), 0.0),
        de=lambda u: vector_rows(u, 0.0, 0.0, 0.0),
        domain=rdom,
    )
    ruled_points = PointSurface(Chart(
        lambda u, v: ruled.point(u, v),
        lambda u, v: vector_rows(u, -afl * np.sin(u), bfl * np.cos(u), 0.0),
        lambda u, v: vector_rows(u, 0.0, 0.0, 1.0),
        rdom,
    ))

    def closed_form(u, v):
        cu, su = np.cos(u), np.sin(u)
        return vector_rows(
            u,
            -(cu / afl) * ((afl ** 2 - bfl ** 2) * cu * cu + bfl ** 2 - 2 * afl ** 2 + v * v),
            -(su / bfl) * ((afl ** 2 - bfl ** 2) * cu * cu - bfl ** 2 + v * v),
            2.0 * v,
        )

    # rational polar chart of the cylinder: foot-point curve (a cos u, b sin u, 0)
    tdom = Domain(0.0, 2.0 * math.pi, 0.2, 1.4)

    def polar_parts(u, t):
        d1, d2 = afl * np.cos(u), bfl * np.sin(u)
        D2 = d1 * d1 + d2 * d2
        den = 1.0 + D2 * t * t
        vec = np.stack((2 * t * d1, 2 * t * d2, 1.0 - D2 * t * t), axis=-1) / den[..., None]
        w = den / (2.0 * t)
        return vec, w

    polar = PolarSurface(Chart(lambda u, t: polar_parts(u, t)[0], domain=tdom),
                         Chart(lambda u, t: polar_parts(u, t)[1], domain=tdom))

    def exact():
        from .hompoly import HomPoly4, Space
        af, bf = Fraction(a), Fraction(b)
        x0, x1, x2 = (HomPoly4.variable(Space.POINT, i) for i in (0, 1, 2))
        u0, u1, u2 = (HomPoly4.variable(Space.DUAL, i) for i in (0, 1, 2))
        gcyl = x1 ** 2 * bf ** 2 + x2 ** 2 * af ** 2 - x0 ** 2 * (af * bf) ** 2
        fstar = ((u0 * u1) ** 2 * bf ** 2 + (u0 * u2) ** 2 * af ** 2
                 - HomPoly4.quadform(Space.DUAL) ** 2 * (af * bf) ** 2)
        planes = point_to_dual(ruled_points)
        cases = [
            ResidualCase("ruled chart vs cylinder", ruled_points, gcyl),
            ResidualCase("image planes vs quartic", planes, fstar),
            ResidualCase("rational polar chart", polar, gcyl),
        ]
        return dict(point_poly=gcyl, dual_poly=fstar, expected=(2, 0, 0, 4),
                    residual_cases=tuple(cases), pullback_pair=(gcyl, fstar),
                    extras={"ruled": ruled, "closed_form": closed_form})

    return GalleryEntry(
        name="quadratic-cylinder", primary="point",
        summary=f"inverse pedal of the elliptic cylinder x^2/{a}^2+y^2/{b}^2=1",
        build_exact=exact, polar=polar,
        point_chart=ruled_points,
    )


# each name's builder is _build_ + the name with "_" for "-"
_BUILDERS = {name: globals()["_build_" + name.replace("-", "_")] for name in GALLERY_NAMES}

_CACHE: dict[str, GalleryEntry] = {}


def list_entries() -> list[str]:
    return sorted(_BUILDERS)


def get_entry(name: str) -> GalleryEntry:
    if name not in _BUILDERS:
        raise NotFound(name)
    if name not in _CACHE:
        _CACHE[name] = _BUILDERS[name]()
    return _CACHE[name]
