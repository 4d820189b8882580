"""Surface charts, the envelope solver and the offset/conchoid pipelines.

Every chart is evaluated on arrays: ``f(U, V)`` takes two 1-D arrays of N
parameters and returns (N,) or (N, 3) rows, and on two floats it returns
one sample.  A surface enters the kernel in one of three representations:

* ``DualSurface``   -- chart of tangent planes (n(u,v), e(u,v)),
* ``PointSurface``  -- plain point chart f(u,v),
* ``PolarSurface``  -- a point surface given as r(u,v)*s(u,v) with unit s.

The foot-point map exchanges dual and point/polar charts pointwise; the
envelope solver recovers point charts from plane charts by solving the
3x3 system {n.x=e, n_u.x=e_u, n_v.x=e_v}.
"""

from __future__ import annotations

import os
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from . import projmaps
from .errors import (
    DegenerateEnvelope,
    EmptyGrid,
    EmptyMesh,
    ExceptionalPlane,
    GeometryError,
    NonUnitNormal,
    OriginOnSurface,
)
from .projmaps import AffPlane, alpha_affine, exceptional_normal, row_max, rowdot

# Envelope solves with an estimated condition number above this are
# treated as degenerate (developable / plane / point cases).
COND_LIMIT = 1e12

# Largest deviation of |n| from 1 that phi and gamma accept.
UNIT_TOL = 1e-9
UNIT_PROBES = 5  # the unit length is probed on a UNIT_PROBES^2 grid

# Samples per chart call in sample_grid and rows per % format in
# write_obj: whole-grid arrays cost memory, small blocks cost calls.
BLOCK_ROWS = 4096


def vector_rows(u, *values):
    """(..., k) rows of k per-sample values; constants broadcast over u."""
    return np.stack(np.broadcast_arrays(*values, u)[:-1], axis=-1, dtype=float)


def drop(bad, values, error: type[GeometryError], what: str, *at):
    """``values`` with NaN rows where ``bad`` holds, so the grid drops them.

    This is the batched form of raising ``error``: for a single sample
    (0-d ``bad``) it raises ``error`` instead.  Callers pass the input of
    the step that would fail, so a dropped row stays NaN without warnings.
    """
    if np.ndim(bad) == 0:
        if bad:
            raise error(f"{what} at ({', '.join(f'{x:.6g}' for x in at)})")
        return values
    if not bad.any():
        return values
    return np.where(bad.reshape(bad.shape + (1,) * (np.ndim(values) - bad.ndim)),
                    np.nan, values)


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

    ``f``, ``du`` and ``dv`` follow the array protocol of the module.
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
    val = np.asarray(value, dtype=float)
    zero = np.zeros_like(val)

    def rows(of):
        return lambda u, v: np.broadcast_to(of, np.shape(u) + of.shape)

    return Chart(rows(val), rows(zero), rows(zero), domain)


def sample_grid(value, domain: Domain, nu: int, nv: int):
    """Evaluate ``value(U, V)`` over ``domain.grid(nu, nv)``; (rows, valid).

    ``value`` is called once per block of at most BLOCK_ROWS samples.  The
    one drop rule of the kernel: a sample is dropped when any entry of its
    row is non-finite, and for no other reason; exceptions propagate.
    ``rows`` stacks the kept rows in grid order and ``valid`` is the
    (nu*nv,) mask of kept samples.
    """
    u = np.linspace(domain.umin, domain.umax, nu)
    v = np.linspace(domain.vmin, domain.vmax, nv)
    size = nu * nv
    valid = np.empty(size, dtype=bool)
    rows = None
    # non-finite samples are dropped by contract, so their warnings are noise
    with np.errstate(all="ignore"):
        for k in range(0, size, BLOCK_ROWS):
            # the samples of domain.grid(nu, nv)[k:k + BLOCK_ROWS], float for float
            i, j = np.divmod(np.arange(k, min(k + BLOCK_ROWS, size)), nv)
            block = np.asarray(value(u[i], v[j]), dtype=float)
            if rows is None:
                rows = np.empty((size,) + block.shape[1:])
            if block.shape != i.shape + rows.shape[1:]:
                raise ValueError(f"chart gave rows of shape {block.shape} for {len(i)} samples")
            rows[k:k + len(i)] = block
            # max-abs is NaN or inf exactly when some entry is
            valid[k:k + len(i)] = np.isfinite(row_max(np.abs(block).reshape(len(i), -1)))
    return (rows if valid.all() else rows[valid]), valid


def _probe_unit(n_chart: Chart):
    dom = n_chart.domain
    rows, valid = sample_grid(n_chart, dom, UNIT_PROBES, UNIT_PROBES)
    if not valid.any():
        raise EmptyGrid("no valid sample to probe the unit length on")
    norms = np.linalg.norm(rows, axis=1)
    bad = np.flatnonzero(np.abs(norms - 1.0) > UNIT_TOL)
    if bad.size:
        k = np.flatnonzero(valid)[bad[0]]
        U, V = dom.grid(UNIT_PROBES, UNIT_PROBES)
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
        e = np.asarray(self.e(u, v), float)
        return np.concatenate((-e[..., None], np.asarray(self.n(u, v), float)), axis=-1)


class PointSurface:
    """Plain point chart f(u,v)."""

    def __init__(self, f: Chart):
        self.f = f
        self.domain = f.domain

    def point(self, u, v) -> np.ndarray:
        return np.asarray(self.f(u, v), dtype=float)

    def htuple(self, u, v) -> np.ndarray:
        p = self.point(u, v)
        return np.concatenate((np.ones(p.shape[:-1] + (1,)), p), axis=-1)


class PolarSurface(PointSurface):
    """Point surface r(u,v)*s(u,v) with s on the unit sphere.

    The point chart ``f`` has no analytic partials: it is differenced.
    """

    def __init__(self, s: Chart, r: Chart):
        self.s = s
        self.r = r
        super().__init__(Chart(self.point, domain=s.domain))

    def point(self, u, v) -> np.ndarray:
        r = np.asarray(self.r(u, v), dtype=float)
        return r[..., None] * np.asarray(self.s(u, v), dtype=float)


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
    return Chart(lambda u, v: np.asarray(e(u, v), float) + d, e.du, e.dv, e.domain)


def offset_map(F: DualSurface, d: float) -> DualSurface:
    """Offset at distance d: same unit normals, supports e + d."""
    return phi(F.n, _shift_chart(F.e, d))


def conchoid_map(G: PolarSurface, d: float) -> PolarSurface:
    """Conchoid at distance d: same unit directions, radii r + d."""
    return gamma(G.s, _shift_chart(G.r, d))


def point_conchoid(G: PointSurface, d: float) -> PointSurface:
    """Conchoid at distance d of a point chart: p*(1 + d/|p|)."""
    g = G.f

    def f(u, v):
        p = np.asarray(g(u, v), float)
        return p * (1.0 + d / np.sqrt(rowdot(p, p)))[..., None]

    return PointSurface(Chart(f, domain=G.domain))


def point_offset(G: PointSurface, F: DualSurface, d: float) -> PointSurface:
    """Offset at distance d along normals of any length: p + d*n/|n|."""
    def f(u, v):
        n = np.asarray(F.n(u, v), float)
        return G.point(u, v) + d * n / np.sqrt(rowdot(n, n))[..., None]

    return PointSurface(Chart(f, domain=F.domain))


# -- envelope -------------------------------------------------------------


def envelope_solve(F: DualSurface, u, v) -> np.ndarray:
    """Envelope points of the plane family at (u,v), NaN where degenerate.

    Solves n.x = e, n_u.x = e_u, n_v.x = e_v; a singular or ill-conditioned
    matrix signals one of the degenerate cases (plane, developable, point),
    and so does a non-finite entry, as at a pole of the chart.  A single
    sample raises DegenerateEnvelope there.
    """
    M = np.stack((F.n(u, v), F.n.du(u, v), F.n.dv(u, v)), axis=-2, dtype=float)
    rhs = np.stack((F.e(u, v), F.e.du(u, v), F.e.dv(u, v)), axis=-1, dtype=float)
    X, valid = _guarded_solve(M, rhs)
    return drop(~valid, X, DegenerateEnvelope, "degenerate envelope system", u, v)


def _guarded_solve(M: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve the 3x3 systems M x = rhs over the leading axes; (X, valid).

    A system with a non-finite entry or a condition number above
    COND_LIMIT is not solved: its row of X is NaN and ``valid`` is False.
    ``np.linalg.cond`` decides every finite system that _well_conditioned
    does not accept, so the decisions are those of ``np.linalg.cond``.
    """
    shape = rhs.shape[:-1]
    M, rhs = M.reshape(-1, 3, 3), rhs.reshape(-1, 3)
    valid = np.isfinite(row_max(np.abs(M).reshape(-1, 9)))
    unproven = valid.copy()
    unproven[valid] = ~_well_conditioned(M[valid])
    valid[unproven] = np.linalg.cond(M[unproven]) <= COND_LIMIT
    X = np.full(rhs.shape, np.nan)
    X[valid] = np.linalg.solve(M[valid], rhs[valid][..., None])[..., 0]
    return X.reshape(shape + (3,)), valid.reshape(shape)


# Bound on the rounding error of the adjugate (Frobenius norm) and of the
# determinant that _well_conditioned computes for a matrix with entries
# below 1 in magnitude: about 30 units of 2**-53 at most, with a margin.
_SCREEN_ERR = 1e-13


def _well_conditioned(M: np.ndarray) -> np.ndarray:
    """Mask of the finite (N, 3, 3) systems proven to have cond_2 <= COND_LIMIT/100.

    This is a cheap screen before the SVD of ``np.linalg.cond``: a system
    it does not accept is not ill-conditioned, only unproven.  Each matrix
    is scaled by a power of two, exactly, so its largest entry lies in
    [0.5, 1).  With rows r0, r1, r2 the adjugate has the columns r1 x r2,
    r2 x r0, r0 x r1, det = r0.(r1 x r2), and
    cond_2 <= |M|_F |adj|_F / |det|.  The bound adds _SCREEN_ERR to the
    computed |adj|_F and subtracts it from |det|: the computed determinant
    of a nearly rank-1 matrix is rounding noise and must never pass.
    """
    _, exponent = np.frexp(row_max(np.abs(M).reshape(-1, 9)))
    M = np.ldexp(M, -exponent[:, None, None])
    r0, r1, r2 = M[:, 0], M[:, 1], M[:, 2]
    adj = np.stack((np.cross(r1, r2), np.cross(r2, r0), np.cross(r0, r1)), axis=1)
    det = np.abs(rowdot(r0, adj[:, 0]))
    bound = np.linalg.norm(M, axis=(1, 2)) * (np.linalg.norm(adj, axis=(1, 2)) + _SCREEN_ERR)
    return bound <= (det - _SCREEN_ERR) * (COND_LIMIT / 100)


def envelope_surface(F: DualSurface) -> PointSurface:
    """Point chart of the envelope of a dual surface."""
    return PointSurface(Chart(lambda u, v: envelope_solve(F, u, v), domain=F.domain))


# -- foot-point map on charts and the constructs --------------------------


def dual_to_point(F: DualSurface) -> PointSurface:
    """Pedal chart: the foot point alpha_affine of each tangent plane.

    A plane whose normal is exceptional_normal is an ExceptionalPlane.
    """
    def f(u, v):
        n = np.asarray(F.n(u, v), float)
        e = drop(exceptional_normal(n), np.asarray(F.e(u, v), float), ExceptionalPlane,
                 "plane normal is (numerically) zero", u, v)
        return alpha_affine(n, e)
    return PointSurface(Chart(f, domain=F.domain))


def point_to_dual(G: PointSurface) -> DualSurface:
    """Inverse pedal chart: plane x.g = g.g through each point.

    A point at O (|g| < 1e-12) is an OriginOnSurface; e reads the guarded
    row.  The resulting plane chart has analytic partials whenever the
    point chart does (n = g, e = g.g need only first derivatives of g).
    """
    g = G.f

    def n(u, v):
        p = np.asarray(g(u, v), float)
        return drop(np.sqrt(rowdot(p, p)) < 1e-12, p, OriginOnSurface,
                    "chart passes through O", u, v)

    def e(u, v):
        p = n(u, v)
        return rowdot(p, p)

    n_du = n_dv = e_du = e_dv = None
    if g.has_analytic_partials:
        n_du = g.du
        n_dv = g.dv
        e_du = lambda u, v: 2.0 * rowdot(g(u, v), g.du(u, v))
        e_dv = lambda u, v: 2.0 * rowdot(g(u, v), g.dv(u, v))
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
        return rowdot(np.asarray(g(u, v), float), n(u, v))

    # second derivatives of g are not available: difference the n-chart,
    # with a larger step when g itself is differenced
    step = 1e-6 if g.has_analytic_partials else 5e-4
    h = step * max(g.domain.uspan, g.domain.vspan, 1e-6)
    return DualSurface(Chart(n, domain=g.domain, fd_step=h),
                       Chart(e, domain=g.domain, fd_step=h))


CONSTRUCTS = ("self", "pedal", "inverse-pedal", "offset", "conchoid")


def construct(S, name: str, d: float = 0.0) -> PointSurface:
    """Point surface of one of ``CONSTRUCTS`` on a dual, point or polar S.

    A dual S gives its envelope as points and its own normals to offsets;
    only a polar S takes ``conchoid_map``, other conchoids the point form.
    """
    points = envelope_surface(S) if isinstance(S, DualSurface) else S
    if name == "self":
        return points
    if name == "conchoid":
        if isinstance(points, PolarSurface):
            return conchoid_map(points, d)
        return point_conchoid(points, d)
    if name == "inverse-pedal":
        return envelope_surface(point_to_dual(points))
    planes = S if isinstance(S, DualSurface) else tangent_planes(points)
    if name == "pedal":
        return dual_to_point(planes)
    if name == "offset":
        return point_offset(points, planes, d)
    raise ValueError(f"unknown construct {name!r}")


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
    # vertex numbers of the kept samples; a dropped sample's number is never read
    index = np.cumsum(valid, dtype=np.int32 if nu * nv < 2**31 else np.int64).reshape(nu, nv)
    index -= 1
    ok = valid.reshape(nu, nv)
    cells = ok[:-1, :-1] & ok[1:, :-1] & ok[1:, 1:] & ok[:-1, 1:]
    faces = np.empty((np.count_nonzero(cells), 2, 3), dtype=index.dtype)
    faces[:, 0, 0] = faces[:, 1, 0] = index[:-1, :-1][cells]
    faces[:, 0, 1] = index[1:, :-1][cells]
    faces[:, 0, 2] = faces[:, 1, 1] = index[1:, 1:][cells]
    faces[:, 1, 2] = index[:-1, 1:][cells]
    faces = faces.reshape(-1, 3)
    return Mesh(verts, faces)


def write_obj(mesh: Mesh, target) -> None:
    """Write a mesh as Wavefront OBJ (v/f records, 1-based, triangles).

    ``target`` is a path (str, bytes or os.PathLike) or a text file object.
    """
    is_path = isinstance(target, (str, bytes, os.PathLike))
    with open(target, "w", encoding="ascii") if is_path else nullcontext(target) as fh:
        # one C-level % per block: '%.12g' % x is f"{x:.12g}" byte for byte;
        # only faces are shifted, as adding 0 would print a vertex -0 as 0
        for record, rows, base in (("v %.12g %.12g %.12g\n", mesh.vertices, 0),
                                   ("f %d %d %d\n", mesh.faces, 1)):
            for k in range(0, len(rows), BLOCK_ROWS):
                block = rows[k:k + BLOCK_ROWS] + base if base else rows[k:k + BLOCK_ROWS]
                fh.write(record * len(block) % tuple(block.ravel().tolist()))
