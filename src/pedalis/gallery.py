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
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from .cli import GALLERY_NAMES
from .errors import EmptyGrid, NotFound, PoleInDomain
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
    offset_map,
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


# The exact part of an entry: point_poly, dual_poly (HomPoly4); expected, the
# (n, r, k, deg) of pullback_pair[0]; residual_cases; pullback_pair, (source,
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

    def construct(self, name: str, d: float = 0.0) -> PointSurface:
        """``surfkit.construct`` on its member: ``self`` on the primary one,
        ``pedal`` on F (``dual``, else the point chart), ``inverse-pedal`` on
        the point chart (else ``polar``), ``conchoid`` on ``polar``; ``offset``
        is ``self`` of ``offset_map(dual, d)``, which keeps the unit normals."""
        base = None
        if name == "self":
            base = getattr(self, "point_chart" if self.primary == "point" else self.primary)
        elif name == "pedal":
            base = self.dual if self.dual is not None else self.point_chart
        elif name == "inverse-pedal":
            base = self.point_chart if self.point_chart is not None else self.polar
        elif name == "offset" and self.dual is not None:
            base, name = offset_map(self.dual, d), "self"
        elif name == "conchoid":
            base = self.polar
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
# Each builder makes the charts and passes build_exact = partial(_exact, name,
# parameters, charts), so only the first read of an EXACT name imports
# galleryexact and, through it, hompoly and quadricpedal.


def _exact(name, *args):
    """The exact part of entry ``name``, from its ``galleryexact`` function."""
    from . import galleryexact
    return getattr(galleryexact, name.replace("-", "_"))(*args)


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


def _build_plane_conchoid() -> GalleryEntry:
    n, e = _plane_paraboloid_charts()
    polar = PolarSurface(n, e)
    return GalleryEntry(
        name="plane-conchoid", primary="polar",
        summary="conchoid family of the plane z=1 about the origin",
        build_exact=partial(_exact, "plane-conchoid", polar), dual=DualSurface(n, e),
        polar=polar,
    )


def _build_paraboloid_offset() -> GalleryEntry:
    n, e = _plane_paraboloid_charts()
    dual = DualSurface(n, e)
    return GalleryEntry(
        name="paraboloid-offset", primary="dual",
        summary="offset family of the paraboloid x^2+y^2+4z=4 with focal point O",
        build_exact=partial(_exact, "paraboloid-offset", dual), dual=dual,
        polar=PolarSurface(n, e),
    )


def _om_sphere(m) -> PolarSurface:
    """Polar chart m cos u cos v * s of the sphere over OM, M = (m, 0, 0):
    the pedal of the point M."""
    dom = Domain(0.0, 2.0 * math.pi, -1.25, 1.25)
    return PolarSurface(trig_s2(dom), Chart(
        lambda u, v: float(m) * np.cos(u) * np.cos(v),
        lambda u, v: -float(m) * np.sin(u) * np.cos(v),
        lambda u, v: -float(m) * np.cos(u) * np.sin(v),
        dom,
    ))


def _build_sphere_offset(m=2, R=1) -> GalleryEntry:
    # the sphere about M is the offset at R of the point M, so its pedal is
    # the conchoid at R of the sphere over OM; its planes (n, e) are its (s, r)
    polar = conchoid_map(_om_sphere(m), float(R))
    dual = DualSurface(polar.s, polar.r)
    return GalleryEntry(
        name="sphere-offset", primary="dual",
        summary=f"offsets of the sphere center ({m},0,0) radius {R} and their conchoids",
        build_exact=partial(_exact, "sphere-offset", m, R, dual, polar), dual=dual,
        polar=polar,
    )


def _build_sphere_bundle(m=2) -> GalleryEntry:
    polar = _om_sphere(m)
    return GalleryEntry(
        name="sphere-bundle", primary="polar",
        summary=f"degenerate bundle through ({m},0,0); image sphere with diameter OM",
        build_exact=partial(_exact, "sphere-bundle", m, polar), polar=polar,
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
    return GalleryEntry(
        name="pluecker", primary="point",
        summary="Pluecker conoid: pedal, inverse pedal, offsets and conchoids",
        build_exact=partial(_exact, "pluecker", point_chart, dual, polar), dual=dual,
        polar=polar, point_chart=point_chart,
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
    return GalleryEntry(
        name="parabola-cyclide", primary="polar",
        summary=f"pedal of the parabola (u,0,{a}/2 u^2+{c}): a cubic cyclide",
        build_exact=partial(_exact, "parabola-cyclide", a, c, dual, polar), dual=dual,
        polar=polar,
    )


def paraboloid_offset_chart(a, b, c, domain: Domain | None = None) -> DualSurface:
    """Unit-normal dual chart of a paraboloid, the base of its offsets.

    The surface is z = (a x^2 + b y^2)/2 + c reparameterized so the normal
    direction is the sphere chart ``trig_s2``; ``PolarSurface(F.n, F.e)`` is
    its polar pedal chart.  Poles of the reparameterization sit at sin t = 0
    and must stay outside the domain.
    """
    if a * b * c == 0:
        raise ValueError("paraboloid parameters must all be nonzero")
    if domain is None:
        domain = Domain(0.0, 2.0 * math.pi, 0.2, 1.35)
    if not (0.0 < domain.vmin <= domain.vmax < math.pi):
        raise PoleInDomain("t-range must stay inside (0, pi)")
    if min(math.sin(domain.vmin), math.sin(domain.vmax)) <= 1e-6:
        raise PoleInDomain("domain touches the sin t = 0 pole")

    af, bf, cf = float(a), float(b), float(c)

    def _numer(s, t):
        cs, ss, ct, st = np.cos(s), np.sin(s), np.cos(t), np.sin(t)
        ct2 = ct * ct
        return bf * (cs * cs) * ct2 + af * (ss * ss) * ct2 - 2.0 * af * bf * cf * (st * st)

    def e(s, t):
        return -_numer(s, t) / (2.0 * af * bf * np.sin(t))

    def e_ds(s, t):
        ct = np.cos(t)
        dn = (af - bf) * np.sin(2.0 * s) * (ct * ct)
        return -dn / (2.0 * af * bf * np.sin(t))

    def e_dt(s, t):
        cs, ss, st, ct = np.cos(s), np.sin(s), np.sin(t), np.cos(t)
        dn = (-2.0 * ct * st * (bf * (cs * cs) + af * (ss * ss))
              - 4.0 * af * bf * cf * st * ct)
        return -(dn * st - _numer(s, t) * ct) / (2.0 * af * bf * st * st)

    n_chart = trig_s2(domain)
    e_chart = Chart(e, e_ds, e_dt, domain)
    return DualSurface(n_chart, e_chart)


def _build_paraboloid_pedal(a=1, b=1, c=1) -> GalleryEntry:
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
    return GalleryEntry(
        name="paraboloid-pedal", primary="polar",
        summary=f"pedal family of the paraboloid z=({a}x^2+{b}y^2)/2+{c}",
        build_exact=partial(_exact, "paraboloid-pedal", a, b, c, dual, polar, point_chart),
        dual=dual, polar=polar, point_chart=point_chart,
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
    return GalleryEntry(
        name="sphere-inverse-pedal", primary="point",
        summary=f"inverse pedal of the sphere center ({m},0,0) radius {r}",
        build_exact=partial(_exact, "sphere-inverse-pedal", m, r, sphere_chart),
        point_chart=sphere_chart,
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
    return GalleryEntry(
        name="quadratic-cylinder", primary="point",
        summary=f"inverse pedal of the elliptic cylinder x^2/{a}^2+y^2/{b}^2=1",
        build_exact=partial(_exact, "quadratic-cylinder", a, b, ruled, ruled_points, polar),
        polar=polar, point_chart=ruled_points,
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
