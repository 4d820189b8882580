"""Surface charts, the envelope solver and the offset/conchoid pipelines.

A surface enters the kernel in one of three representations:

* ``DualSurface``   -- chart of tangent planes (n(u,v), e(u,v)),
* ``PointSurface``  -- plain point chart f(u,v),
* ``PolarSurface``  -- a point surface given as r(u,v)*s(u,v) with unit s.

The foot-point map exchanges dual and point/polar charts pointwise; the
envelope solver recovers point charts from plane charts by solving the
3x3 system {n.x=e, n_u.x=e_u, n_v.x=e_v}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import projmaps
from .errors import (
    DegenerateEnvelope,
    EmptyGrid,
    EmptyMesh,
    GeometryError,
    NonUnitNormal,
)
from .projmaps import AffPlane, alpha_affine

# 3x3 solves (envelope, inverse pedal of ruled charts) with an estimated
# condition number above this are treated as degenerate (developable /
# plane / point cases).
COND_LIMIT = 1e12

# Largest deviation of |n| from 1 that phi, gamma and offset_map accept.
UNIT_TOL = 1e-9


@dataclass(frozen=True)
class Domain:
    """Parameter rectangle [umin,umax] x [vmin,vmax]."""

    umin: float
    umax: float
    vmin: float
    vmax: float

    def grid(self, nu: int, nv: int) -> tuple[np.ndarray, np.ndarray]:
        """Flattened meshgrid of nu*nv samples including the boundary."""
        u = np.linspace(self.umin, self.umax, nu)
        v = np.linspace(self.vmin, self.vmax, nv)
        U, V = np.meshgrid(u, v, indexing="ij")
        return U.ravel(), V.ravel()

    @property
    def uspan(self) -> float:
        return self.umax - self.umin

    @property
    def vspan(self) -> float:
        return self.vmax - self.vmin


UNIT_SQUARE = Domain(0.0, 1.0, 0.0, 1.0)


class Chart:
    """Smooth map (u,v) -> scalar or vector with derivative access.

    Analytic partials are used when given; otherwise central differences
    with step ``fd_step`` (default 1e-6 times the domain span).
    """

    def __init__(self, f, du=None, dv=None, domain: Domain = UNIT_SQUARE,
                 fd_step: float | None = None):
        self._f = f
        self._du = du
        self._dv = dv
        self.domain = domain
        span = max(domain.uspan, domain.vspan, 1e-6)
        self._h = fd_step if fd_step is not None else 1e-6 * span

    def __call__(self, u: float, v: float):
        return self._f(u, v)

    @property
    def has_analytic_partials(self) -> bool:
        return self._du is not None and self._dv is not None

    def du(self, u: float, v: float):
        if self._du is not None:
            return self._du(u, v)
        h = self._h
        return (np.asarray(self._f(u + h, v)) - np.asarray(self._f(u - h, v))) / (2 * h)

    def dv(self, u: float, v: float):
        if self._dv is not None:
            return self._dv(u, v)
        h = self._h
        return (np.asarray(self._f(u, v + h)) - np.asarray(self._f(u, v - h))) / (2 * h)


def constant_chart(value, domain: Domain = UNIT_SQUARE) -> Chart:
    val = np.asarray(value, dtype=float) if np.ndim(value) else float(value)
    zero = np.zeros_like(val) if np.ndim(val) else 0.0
    return Chart(lambda u, v: val, lambda u, v: zero, lambda u, v: zero, domain)


def sample_grid(value, domain: Domain, nu: int, nv: int):
    """Evaluate ``value(u, v)`` over ``domain.grid(nu, nv)``; (rows, valid).

    The one drop rule of the kernel: a sample is dropped when ``value``
    raises a GeometryError or when any entry of its value is non-finite,
    and for no other reason.  Any other exception propagates.  ``rows``
    stacks the kept values in grid order and ``valid`` is the (nu*nv,)
    mask of kept samples.
    """
    U, V = domain.grid(nu, nv)
    rows, kept = [], []
    # non-finite samples are dropped by contract, so their warnings are noise
    with np.errstate(all="ignore"):
        for k, (u, v) in enumerate(zip(U, V)):
            try:
                rows.append(value(u, v))
            except GeometryError:
                continue
            kept.append(k)
    rows = np.array(rows, dtype=float)
    finite = np.isfinite(rows).all(axis=tuple(range(1, rows.ndim)))
    valid = np.zeros(U.size, dtype=bool)
    valid[np.array(kept, dtype=int)[finite]] = True
    return rows[finite], valid


def _probe_unit(n_chart: Chart, samples: int = 5):
    dom = n_chart.domain
    rows, valid = sample_grid(n_chart, dom, samples, samples)
    if not valid.any():
        raise EmptyGrid("no valid sample to probe the unit length on")
    norms = np.linalg.norm(rows, axis=1)
    bad = np.flatnonzero(np.abs(norms - 1.0) > UNIT_TOL)
    if bad.size:
        k = np.flatnonzero(valid)[bad[0]]
        U, V = dom.grid(samples, samples)
        raise NonUnitNormal(f"normal length {norms[bad[0]]:.6g} at ({U[k]:.3g},{V[k]:.3g})")


class DualSurface:
    """Two-parameter family of tangent planes n(u,v).x = e(u,v)."""

    def __init__(self, n: Chart, e: Chart):
        self.n = n
        self.e = e
        self.domain = n.domain

    def plane(self, u, v) -> AffPlane:
        return AffPlane(np.asarray(self.n(u, v), float), float(self.e(u, v)))

    def htuple(self, u, v) -> np.ndarray:
        n = np.asarray(self.n(u, v), float)
        return np.concatenate(([-float(self.e(u, v))], n))


class PointSurface:
    """Plain point chart f(u,v)."""

    def __init__(self, f: Chart):
        self.f = f
        self.domain = f.domain

    def point(self, u, v) -> np.ndarray:
        return np.asarray(self.f(u, v), dtype=float)

    def htuple(self, u, v) -> np.ndarray:
        return np.concatenate(([1.0], self.point(u, v)))


class PolarSurface(PointSurface):
    """Point surface r(u,v)*s(u,v) with s on the unit sphere.

    The point chart ``f`` has no analytic partials: it is differenced.
    """

    def __init__(self, s: Chart, r: Chart):
        self.s = s
        self.r = r
        super().__init__(Chart(self.point, domain=s.domain))

    def point(self, u, v) -> np.ndarray:
        return float(self.r(u, v)) * np.asarray(self.s(u, v), dtype=float)


# -- constructors and the offset / conchoid maps --------------------------


def phi(n_chart: Chart, e_chart: Chart) -> DualSurface:
    """Dual surface from a unit normal field and a support function."""
    _probe_unit(n_chart)
    return DualSurface(n_chart, e_chart)


def gamma(s_chart: Chart, r_chart: Chart) -> PolarSurface:
    """Polar surface from a unit direction field and a radius function."""
    _probe_unit(s_chart)
    return PolarSurface(s_chart, r_chart)


def _shift_chart(e: Chart, d: float) -> Chart:
    """The chart e + d; its partials are those of e."""
    f = e._f
    return Chart(lambda u, v: float(f(u, v)) + d, e.du, e.dv, e.domain)


def offset_map(F: DualSurface, d: float) -> DualSurface:
    """Offset at distance d: same unit normals, supports e + d."""
    _probe_unit(F.n)
    return DualSurface(F.n, _shift_chart(F.e, d))


def conchoid_map(G: PolarSurface, d: float) -> PolarSurface:
    """Conchoid at distance d: same directions, radii r + d."""
    return PolarSurface(G.s, _shift_chart(G.r, d))


# -- envelope -------------------------------------------------------------


def envelope_solve(F: DualSurface, u: float, v: float) -> np.ndarray:
    """Envelope point of the plane family at (u,v).

    Solves n.x = e, n_u.x = e_u, n_v.x = e_v; a singular or ill-conditioned
    matrix signals one of the degenerate cases (plane, developable, point),
    and so does a non-finite entry, as at a pole of the chart.
    """
    M = np.vstack([
        np.asarray(F.n(u, v), float),
        np.asarray(F.n.du(u, v), float),
        np.asarray(F.n.dv(u, v), float),
    ])
    rhs = np.array([float(F.e(u, v)), float(F.e.du(u, v)), float(F.e.dv(u, v))])
    return _guarded_solve(M, rhs, DegenerateEnvelope, "envelope")


def _guarded_solve(M: np.ndarray, rhs: np.ndarray, error: type[GeometryError],
                   what: str) -> np.ndarray:
    """Solve the 3x3 system M x = rhs, raising ``error`` when M has a
    non-finite entry or a condition number above COND_LIMIT."""
    if not np.isfinite(M).all():
        raise error(f"{what} system has a non-finite entry")
    cond = np.linalg.cond(M)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise error(f"{what} system condition {cond:.3g}")
    return np.linalg.solve(M, rhs)


def envelope_surface(F: DualSurface) -> PointSurface:
    """Point chart of the envelope of a dual surface."""
    return PointSurface(Chart(lambda u, v: envelope_solve(F, u, v), domain=F.domain))


# -- foot-point map on charts ----------------------------------------------


def dual_to_point(F: DualSurface) -> PointSurface:
    """Pedal chart: the foot-point map applied to each tangent plane."""
    def f(u, v):
        return alpha_affine(F.plane(u, v))
    return PointSurface(Chart(f, domain=F.domain))


def point_to_dual(G: PointSurface) -> DualSurface:
    """Inverse pedal chart: plane x.g = g.g through each point.

    The resulting plane chart has analytic partials whenever the point
    chart does (n = g, e = g.g need only first derivatives of g).
    """
    g = G.f

    def n(u, v):
        return g(u, v)

    def e(u, v):
        p = np.asarray(g(u, v), float)
        return float(p @ p)

    n_du = n_dv = e_du = e_dv = None
    if g.has_analytic_partials:
        n_du = g.du
        n_dv = g.dv
        e_du = lambda u, v: 2.0 * float(np.asarray(g(u, v), float) @ np.asarray(g.du(u, v), float))
        e_dv = lambda u, v: 2.0 * float(np.asarray(g(u, v), float) @ np.asarray(g.dv(u, v), float))
    return DualSurface(Chart(n, n_du, n_dv, g.domain), Chart(e, e_du, e_dv, g.domain))


def tangent_planes(G: PointSurface) -> DualSurface:
    """Tangent-plane chart n = g_u x g_v, e = g.n of a point chart.

    Derivatives of this chart are always finite differences; accuracy is
    best when the point chart has analytic partials.
    """
    g = G.f

    def n(u, v):
        return np.cross(np.asarray(g.du(u, v), float), np.asarray(g.dv(u, v), float))

    def e(u, v):
        return float(np.asarray(g(u, v), float) @ n(u, v))

    # second derivatives of g are not available: difference the n-chart,
    # with a larger step when g itself is differenced
    h = 1e-6 * max(g.domain.uspan, g.domain.vspan, 1e-6)
    if not g.has_analytic_partials:
        h = 5e-4 * max(g.domain.uspan, g.domain.vspan, 1e-6)
    return DualSurface(Chart(n, domain=g.domain, fd_step=h),
                       Chart(e, domain=g.domain, fd_step=h))


# -- commuting diagrams -----------------------------------------------------


def commutation_check(n_chart: Chart, e_chart: Chart, d: float,
                      grid: tuple[int, int] = (50, 50)) -> float:
    """Max deviation between the two paths of both foot-point diagrams.

    Primal: offset the plane family by d then map by the foot-point map,
    versus map first and push the radius by d.  Dual: map the shifted point
    back, versus offset the mapped plane family.  The charts are evaluated
    once per grid point by ``sample_grid`` and both diagrams run over all
    samples at once.  Samples dropped by either chart, or where a path hits
    an exceptional set, are masked out; EmptyGrid is raised when no sample
    reaches a comparison.
    """
    rows_n, valid_n = sample_grid(n_chart, n_chart.domain, *grid)
    rows_e, valid_e = sample_grid(e_chart, n_chart.domain, *grid)
    if not (valid_n & valid_e).any():
        raise EmptyGrid("no valid sample on the diagram grid")
    n = rows_n[valid_e[valid_n]]
    s = rows_e[valid_n[valid_e]] + d
    planes = np.column_stack((-s, n))
    # primal diagram: alpha(offset) vs conchoid(alpha), via the quadratic
    # homogeneous map on one side; ideal planes and ideal feet drop out
    X, valid = projmaps.alpha_rows(planes)
    keep = np.flatnonzero(valid)
    X = projmaps.canonical_rows(X[keep])
    affine = np.abs(X[:, 0]) >= projmaps.EPS_EXCEPTIONAL
    keep, X = keep[affine], X[affine]
    if not len(keep):
        raise EmptyGrid("no sample of the diagram grid reached a comparison")
    point = s[keep, None] * n[keep]
    worst = np.abs(X[:, 1:] / X[:, :1] - point).max()
    # dual diagram: alpha*(shifted point) vs shifted plane family, away from O
    far = np.linalg.norm(point, axis=1) >= 1e-9
    back, valid = projmaps.alpha_star_rows(
        np.column_stack((np.ones(np.count_nonzero(far)), point[far])))
    if valid.any():
        expect = planes[keep[far][valid]]
        dev = np.abs(projmaps.canonical_rows(back[valid]) - projmaps.canonical_rows(expect))
        worst = max(worst, dev.max())
    return float(worst)


# -- meshing ---------------------------------------------------------------


@dataclass
class Mesh:
    vertices: np.ndarray  # (N, 3)
    faces: np.ndarray  # (M, 3) int, 0-based triangles


def sample_mesh(S, nu: int, nv: int) -> Mesh:
    """Grid-sample a point or polar surface into a triangle mesh.

    Samples dropped by ``sample_grid`` are dropped together with their
    incident faces.  Each grid cell with four kept corners a, b, c, d
    (counter-clockwise from (i, j)) gives the faces (a, b, c), (a, c, d),
    cells ordered by i, then j.
    """
    if nu < 2 or nv < 2:
        raise ValueError("mesh grids need at least 2 samples per direction")
    verts, valid = sample_grid(S.point, S.domain, nu, nv)
    if not valid.any():
        raise EmptyMesh("no valid samples on the grid")
    index = np.full(nu * nv, -1)
    index[valid] = np.arange(len(verts))
    index = index.reshape(nu, nv)
    quads = np.stack((index[:-1, :-1], index[1:, :-1], index[1:, 1:], index[:-1, 1:]),
                     axis=-1).reshape(-1, 4)
    quads = quads[(quads >= 0).all(axis=1)]
    faces = np.stack((quads[:, [0, 1, 2]], quads[:, [0, 2, 3]]), axis=1).reshape(-1, 3)
    return Mesh(verts, faces)


# rows per str.format batch in write_obj: whole-mesh .tolist() copies cost
# memory, per-row numpy indexing costs time
_OBJ_BLOCK = 4096


def write_obj(mesh: Mesh, target) -> None:
    """Write a mesh as Wavefront OBJ (v/f records, 1-based, triangles)."""
    close = False
    if isinstance(target, (str, bytes)):
        fh = open(target, "w", encoding="ascii")
        close = True
    else:
        fh = target
    try:
        for k in range(0, len(mesh.vertices), _OBJ_BLOCK):
            fh.writelines(f"v {x:.12g} {y:.12g} {z:.12g}\n"
                          for x, y, z in mesh.vertices[k:k + _OBJ_BLOCK].tolist())
        for k in range(0, len(mesh.faces), _OBJ_BLOCK):
            fh.writelines(f"f {a} {b} {c}\n"
                          for a, b, c in (mesh.faces[k:k + _OBJ_BLOCK] + 1).tolist())
    finally:
        if close:
            fh.close()
