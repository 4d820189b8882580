"""Pedal and inverse pedal constructions for ruled surfaces.

A ruled chart f(u,v) = c(u) + v e(u) has normal n(u,v) = n1(u) + v n2(u)
with n1 = c' x e and n2 = e' x e.  Moving the directrix to the striction
curve makes n1 and n2 orthogonal, so |n|^2 = a1(u) + v^2 a2(u) is a family
of conics in (v, |n|); a rational point on each conic yields charts whose
normal length is rational in the curve parameter.  The same square-root
removal applied to |g|^2 = d(u)^2 + v^2 e(u)^2 gives polar charts of the
ruled surface itself, used for the inverse pedal direction.

Curve functions c(u), e(u) and the charts built here follow the array
protocol of ``surfkit``: a 1-D array of N parameters gives (N, 3) rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CylindricalRuling,
    DevelopableSurface,
    LineThroughOrigin,
    ZeroDirection,
)
from .projmaps import rowdot
from .surfkit import (
    Chart,
    Domain,
    DualSurface,
    PointSurface,
    PolarSurface,
    drop,
    vector_rows,
)

_EPS = 1e-12

# central-difference step for the curve derivatives of ruled charts
_H = 1e-6

# rulings on which rational_offset_ruled tests det(c', e, e') for skewness
_SKEW_PROBES = 100


def _derive(fn, u):
    return (np.asarray(fn(u + _H), float) - np.asarray(fn(u - _H), float)) / (2 * _H)


class RuledChart:
    """Ruling chart c(u) + v e(u) with derivative access.

    Analytic derivatives of the directrix and direction are used when
    given, otherwise central differences with step ``_H``.  ``surface``
    is the point chart with the partials g_u = c' + v e' and g_v = e.
    """

    def __init__(self, c, e, dc=None, de=None,
                 domain: Domain = Domain(0.0, 1.0, -1.0, 1.0)):
        self.c = c
        self.e = e
        self._dc = dc
        self._de = de
        self.domain = domain
        self.surface = PointSurface(Chart(
            self.point,
            lambda u, v: self.dc(u) + np.asarray(v, float)[..., None] * self.de(u),
            lambda u, v: self.direction(u),
            domain))

    def point(self, u, v) -> np.ndarray:
        v = np.asarray(v, float)[..., None]
        return np.asarray(self.c(u), float) + v * np.asarray(self.e(u), float)

    def direction(self, u) -> np.ndarray:
        e = np.asarray(self.e(u), float)
        return drop(np.sqrt(rowdot(e, e)) < _EPS, e, ZeroDirection,
                    "ruling direction vanishes", u)

    def dc(self, u) -> np.ndarray:
        if self._dc is not None:
            return np.asarray(self._dc(u), float)
        return _derive(self.c, u)

    def de(self, u) -> np.ndarray:
        if self._de is not None:
            return np.asarray(self._de(u), float)
        return _derive(self.e, u)


def footpoint_curve(R: RuledChart):
    """Curve u -> foot of O on the ruling line; satisfies d(u).e(u) = 0."""

    def d(u):
        c = np.asarray(R.c(u), float)
        e = R.direction(u)
        return c - (rowdot(c, e) / rowdot(e, e))[..., None] * e

    return d


def striction_frame(R: RuledChart, u: float):
    """(v_s, s, e, n_s, n2) at u: striction parameter and point, ruling
    direction and the orthogonal normal components n_s = s' x e, n2 = e' x e.

    Because e x e = 0, the striction-parameter derivative drops out of
    s' x e = c' x e + v_s (e' x e) with n1 = c' x e; only first derivatives
    of the chart enter, so the frame is analytic whenever dc and de are.
    """
    e = R.direction(u)
    de = R.de(u)
    n1 = np.cross(R.dc(u), e)
    n2 = np.cross(de, e)
    scale = np.maximum(rowdot(e, e) * rowdot(de, de), 1.0)
    n2 = drop(rowdot(n2, n2) < 1e-20 * scale, n2, CylindricalRuling, "e' x e vanishes", u)
    vs = -rowdot(n1, n2) / rowdot(n2, n2)
    w = vs[..., None]
    return vs, np.asarray(R.c(u), float) + w * e, e, n1 + w * n2, n2


def conic_point_param(a1: float, a2: float, t: float) -> tuple[float, float, float]:
    """Rational point (y0,y1,y2) of a1 y1^2 + a2 y2^2 - y0^2 = 0.

    Stereographic projection from the seed point (sqrt(a1), 1, 0):

        y(t) = (sqrt(a1) (a2 + t^2), a2 - t^2, 2 sqrt(a1) t),

    which satisfies the conic identically in t.  Arrays give one point per
    entry; NaN coefficients give NaN points.  A coefficient <= 0, as at a
    torsal ruling (s' x e = 0), gives a NaN point through ``drop``, and
    DevelopableSurface for a single sample.
    """
    a = drop((a1 <= 0) | (a2 <= 0), vector_rows(a1, a1, a2), DevelopableSurface,
             "conic coefficients (a1, a2) not positive", a1, a2)
    s, a2 = np.sqrt(a[..., 0]), a[..., 1]
    return s * (a2 + t * t), a2 - t * t, 2.0 * s * t


class RuledOffsetSurface(DualSurface):
    """Dual chart (u,t) of the offset family of a skew ruled surface.

    The t-parameter runs over the per-u conic that removes the square root
    from the normal length; ``assemble`` gives the witnesses (y0, y1, y2)
    with |n(u,t)| * y1 = y0 on the domain where y1 > 0.
    """

    def __init__(self, R: RuledChart, d: float, domain: Domain):
        self.ruled = R
        self.d = d

        def plane_normal(u, t):
            return self.assemble(u, t)[1]

        def support(u, t):
            f, n, (y0, y1, _) = self.assemble(u, t)
            return rowdot(f, n) + d * (y0 / y1)

        super().__init__(
            Chart(plane_normal, domain=domain),
            Chart(support, domain=domain),
        )

    def assemble(self, u, t):
        """(f, n, (y0, y1, y2)) at (u, t) from one striction frame: the
        contact point, the plane normal and the conic witnesses."""
        _, su, e, ns, n2 = striction_frame(self.ruled, u)
        y = conic_point_param(rowdot(ns, ns), rowdot(n2, n2), t)
        v = (y[2] / y[1])[..., None]
        return su + v * e, ns + v * n2, y


def _check_skew(R: RuledChart):
    u = np.linspace(R.domain.umin, R.domain.umax, _SKEW_PROBES)
    dc, e, de = R.dc(u), R.direction(u), R.de(u)
    for k in np.flatnonzero(np.isnan(e[:, 0])):
        R.direction(u[k])  # raises ZeroDirection where the direction vanishes
    # fmax skips NaN probes, as the scalar max over probes did
    worst = np.fmax.reduce(np.abs(np.linalg.det(np.stack((dc, e, de), axis=1))), initial=0.0)
    scale = np.fmax.reduce(np.sqrt(rowdot(dc, dc) * rowdot(e, e) * rowdot(de, de)), initial=1.0)
    if worst < 1e-10 * scale:
        raise DevelopableSurface("det(c', e, e') vanishes along the chart")


def rational_offset_ruled(R: RuledChart, d: float,
                          domain: Domain | None = None) -> RuledOffsetSurface:
    """Offset-family dual chart with rational-by-construction normal length.

    Requires a skew (non-developable) ruled surface; the default t-domain
    keeps the conic witness y1 = a2 - t^2 positive.
    """
    _check_skew(R)
    if domain is None:
        domain = Domain(R.domain.umin, R.domain.umax, 0.15, 0.85)
    return RuledOffsetSurface(R, d, domain)


def polar_pedal_of_ruled(R: RuledChart, domain: Domain | None = None) -> PolarSurface:
    """Polar chart of the pedal surface, the base of its conchoids.

    g(u,t) = (f.n/|n|) n/|n| with the rational normal length of
    ``rational_offset_ruled``; ``conchoid_map`` gives the conchoid g_d.
    The feet of the ruling at u lie on its pedal circle: in the plane
    x.e(u) = 0, at distance |d(u)|/2 from d(u)/2 (d = ``footpoint_curve``).
    """
    F = rational_offset_ruled(R, 0.0, domain)

    def s(u, t):
        _, n, (y0, y1, _) = F.assemble(u, t)
        return n / (y0 / y1)[..., None]

    def r(u, t):
        f, n, (y0, y1, _) = F.assemble(u, t)
        return rowdot(f, n) / (y0 / y1)

    return PolarSurface(Chart(s, domain=F.domain), Chart(r, domain=F.domain))


@dataclass(frozen=True)
class ParabolicCylinder:
    """Envelope of the image planes of one ruling line.

    Cross sections are parabolas with focal point O and vertex at the
    foot-point d; rulings run along a = d x e.
    """

    vertex: np.ndarray
    line_direction: np.ndarray
    axis: np.ndarray  # cylinder ruling direction d x e

    def cross_section(self, v: float) -> np.ndarray:
        d, e = self.vertex, self.line_direction
        return (1.0 - v * v * float(e @ e) / float(d @ d)) * d + 2.0 * v * e

    def point(self, v: float, lam: float) -> np.ndarray:
        return self.cross_section(v) + lam * self.axis


def parabolic_cylinder_of_line(d, e) -> ParabolicCylinder:
    """Parabolic cylinder enveloped by the plane images of a line's points."""
    d = np.asarray(d, float)
    e = np.asarray(e, float)
    if np.linalg.norm(d) < _EPS:
        raise LineThroughOrigin("line through O has no parabolic cylinder")
    return ParabolicCylinder(d, e, np.cross(d, e))


def polar_norm_reparam(R: RuledChart, domain: Domain | None = None) -> PolarSurface:
    """Polar chart (u,t) of a ruled surface with rational radius.

    Rewrites |g|^2 = d(u)^2 + v^2 e(u)^2 as the conic family
    y2^2 d^2 + y1^2 e^2 - y0^2 = 0 and parameterizes each conic through
    the seed point construction, giving |g(u,t)| = y0/y2 exactly.
    """
    dfun = footpoint_curve(R)
    if domain is None:
        domain = Domain(R.domain.umin, R.domain.umax, 0.2, 1.5)

    def parts(u, t):
        d = dfun(u)
        d = drop(np.sqrt(rowdot(d, d)) < _EPS, d, LineThroughOrigin, "ruling through O", u)
        e = R.direction(u)
        y0, y1, y2 = conic_point_param(rowdot(e, e), rowdot(d, d), t)
        v = y1 / y2
        w = y0 / y2
        return d + v[..., None] * e, w

    def s(u, t):
        g, w = parts(u, t)
        return g / w[..., None]

    def r(u, t):
        return parts(u, t)[1]

    return PolarSurface(Chart(s, domain=domain), Chart(r, domain=domain))
