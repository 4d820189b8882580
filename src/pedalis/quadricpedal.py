"""Pedal and inverse pedal surfaces of quadrics and conics.

A quadric is an exact HomPoly4 of degree 2: X^T A X on the point side and
U^T A U on the dual side, A symmetric.  Pedal images of dual quadrics are
Darboux cyclides; for the normalized form

    a0 u0^2 + a1 u1^2 + a2 u2^2 + a3 u3^2 + u0 (b1 u1 + b2 u2 + b3 u3)

the image is the closed cyclide form below, which also lifts to a 5x5
quadratic form in pentaspherical coordinates.  All degeneracy checks
(focal paraboloid, Dupin parabola, spheres through O) are exact.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    NotCyclideShape,
    NotDivisible,
    OriginOnSurface,
    RankTooLow,
)
from .hompoly import (
    HomPoly4,
    Space,
    inverse_pedal_pullback,
    pedal_pullback,
    strip_exceptional,
)
from .projmaps import rowdot
from .surfkit import Chart, PointSurface, construct


def _exact_rank(rows) -> int:
    """Rank of an exact-rational matrix by Gaussian elimination."""
    m = [list(r) for r in rows]
    nrows, ncols = len(m), len(m[0])
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, nrows) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][col]
        for i in range(nrows):
            if i != rank and m[i][col] != 0:
                f = m[i][col] / pv
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def _symmetric_matrix(Q: HomPoly4) -> list[list[Fraction]]:
    """The symmetric A with Q = V^T A V: the coefficient of v_i^2 on the
    diagonal and half the coefficient of v_i*v_j off it."""
    if Q.degree != 2:
        raise ValueError(f"a quadric is a polynomial of degree 2, not {Q.degree}")
    return [[Q.coefficient(tuple((k == i) + (k == j) for k in range(4))) / (1 if i == j else 2)
             for j in range(4)] for i in range(4)]


def normalized_quadric(space: Space, a0, a1, a2, a3, b1=0, b2=0, b3=0) -> HomPoly4:
    """a0 v0^2 + v0 (b1 v1 + b2 v2 + b3 v3) + a1 v1^2 + a2 v2^2 + a3 v3^2,
    its terms in the order of the upper triangle of its matrix."""
    return HomPoly4(space, {(2, 0, 0, 0): a0, (1, 1, 0, 0): b1, (1, 0, 1, 0): b2,
                            (1, 0, 0, 1): b3, (0, 2, 0, 0): a1, (0, 0, 2, 0): a2,
                            (0, 0, 0, 2): a3})


# -- closed cyclide forms (oracles for the normalized shape) ----------------


def _cyclide_form(space: Space, a0, a1, a2, a3, b1, b2, b3) -> HomPoly4:
    """Cyclide quartic over the variables x0..x3 (or u0..u3) of ``space``:

        x0^2 (a1 x1^2 + a2 x2^2 + a3 x3^2) - x0 q (b1 x1 + b2 x2 + b3 x3) + a0 q^2

    with q = x1^2 + x2^2 + x3^2.
    """
    x0, *x = (HomPoly4.variable(space, i) for i in range(4))
    q = HomPoly4.quadform(space)
    diag = x[0] * x[0] * a1 + x[1] * x[1] * a2 + x[2] * x[2] * a3
    bee = x[0] * b1 + x[1] * b2 + x[2] * b3
    return x0 * x0 * diag - x0 * q * bee + q * q * a0


def cyclide_closed_form(a0, a1, a2, a3, b1, b2, b3) -> HomPoly4:
    """Pedal image of the normalized dual quadric, in point coordinates."""
    return _cyclide_form(Space.POINT, a0, a1, a2, a3, b1, b2, b3)


def dual_cyclide_closed_form(a0, a1, a2, a3, b1, b2, b3) -> HomPoly4:
    """Inverse pedal image of the normalized point quadric, dual coordinates."""
    return _cyclide_form(Space.DUAL, a0, a1, a2, a3, b1, b2, b3)


# -- pedal / inverse pedal of quadrics ---------------------------------------


def pedal_of_quadric(Q: HomPoly4) -> HomPoly4:
    """Stripped pedal image of a dual quadric: a Darboux cyclide.

    Rank-4 duals give quartic cyclides, rank-3 duals (conic tangent-plane
    families) canal-surface cyclides; lower rank is rejected.
    """
    if Q.space is not Space.DUAL:
        raise ValueError("pedal images are built from dual quadrics")
    rank = _exact_rank(_symmetric_matrix(Q))
    if rank < 3:
        raise RankTooLow(f"dual quadric of rank {rank}")
    return strip_exceptional(pedal_pullback(Q)).reduced


def inverse_pedal_quadric(G: HomPoly4) -> HomPoly4:
    """Stripped inverse pedal image of a point quadric, in dual coordinates.

    Rank >= 3 is handled through the exact pullback; a doubled plane
    (rank 1) is treated as the plane itself, whose image is a paraboloid
    of revolution with focal point O.  Spheres through O leave a dual
    0-variable factor behind, signalling the collapse to a plane bundle.
    """
    if G.space is not Space.POINT:
        raise ValueError("inverse pedal images are built from point quadrics")
    A = _symmetric_matrix(G)
    rank = _exact_rank(A)
    if rank >= 3:
        return strip_exceptional(inverse_pedal_pullback(G)).reduced
    if rank == 1:
        # A = +-c c^T: a row with a nonzero diagonal entry is a multiple of c
        row = next(row for i, row in enumerate(A) if row[i] != 0)
        plane = HomPoly4(Space.POINT, {tuple(int(k == i) for k in range(4)): c
                                       for i, c in enumerate(row)})
        if plane.coefficient((1, 0, 0, 0)) == 0:
            raise OriginOnSurface("plane through O has a degenerate image")
        return strip_exceptional(inverse_pedal_pullback(plane)).reduced
    raise RankTooLow(f"point quadric of rank {rank}")


# -- named quadric builders ---------------------------------------------------


def sphere_dual_quadric(m, R) -> HomPoly4:
    """Dual quadric of the sphere with center (m,0,0) and radius R."""
    m, R = Fraction(m), Fraction(R)
    return normalized_quadric(
        Space.DUAL, -1, R * R - m * m, R * R, R * R, b1=-2 * m)


def sphere_point_quadric(m, r) -> HomPoly4:
    """Point quadric of the sphere with center (m,0,0) and radius r."""
    m, r = Fraction(m), Fraction(r)
    return normalized_quadric(
        Space.POINT, m * m - r * r, 1, 1, 1, b1=-2 * m)


def paraboloid_dual_quadric(a, b, c) -> HomPoly4:
    """Dual quadric of the paraboloid z = a x^2 + b y^2 + c (abc != 0)."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if a * b * c == 0:
        raise ValueError("paraboloid parameters must all be nonzero")
    return normalized_quadric(
        Space.DUAL, 0, b, a, -4 * a * b * c, b3=-4 * a * b)


def parabola_dual_quadric(a, c) -> HomPoly4:
    """Rank-3 dual quadric of the parabola (u, 0, a u^2 / 2 + c)."""
    a, c = Fraction(a), Fraction(c)
    if a * c == 0:
        raise ValueError("parabola parameters must be nonzero")
    return normalized_quadric(
        Space.DUAL, 0, 1, 0, -2 * a * c, b3=-2 * a)


def is_parabola_dupin(a, c) -> bool:
    """True when O sits at the parabola's focal point (2ac = -1, exact)."""
    return 2 * Fraction(a) * Fraction(c) == -1


def focal_degeneracy_check(a, b, c):
    """Exact factorization of the paraboloid pedal at the focal position.

    For the paraboloid z = a x^2 + b y^2 + c the pedal cyclide factors as
    (x1^2+x2^2+x3^2) times a plane exactly when a = b and c = -1/(4a); the
    strip bookkeeping of the pullback then shows k >= 1 and the factor pair
    is returned, otherwise None.
    """
    Q = paraboloid_dual_quadric(a, b, c)
    stripped = strip_exceptional(pedal_pullback(Q))
    if stripped.k == 0:
        return None
    q = HomPoly4.quadform(Space.POINT)
    return q, q ** (stripped.k - 1) * stripped.reduced


# -- pentaspherical lift ------------------------------------------------------


@dataclass(frozen=True)
class PentasphericalForm:
    """Symmetric 5x5 exact-rational form over coordinates (y0..y4)."""

    B: tuple[tuple[Fraction, ...], ...]

    @property
    def rank(self) -> int:
        return _exact_rank(self.B)

    def eval(self, y):
        """The form at y: exact on rationals, one value per row of a float array."""
        y = np.asarray(y)
        B = [[float(b) for b in row] for row in self.B] if y.dtype.kind == "f" else self.B
        out = 0
        for i in range(5):
            for j in range(5):
                out += B[i][j] * y[..., i] * y[..., j]
        return out


def pentaspherical_point(x) -> np.ndarray:
    """Lift of affine points (rows of x) to the Moebius quadric y0^2 = y1^2+..+y4^2."""
    x = np.asarray(x, dtype=float)
    s = rowdot(x, x)
    return np.stack(((1.0 + s) / 2.0, x[..., 0], x[..., 1], x[..., 2], (s - 1.0) / 2.0),
                    axis=-1)


def _split_cyclide(G: HomPoly4):
    """Extract (a0, a1, a2, a3, b) from a cyclide-shaped quartic."""
    if G.space is not Space.POINT or G.degree != 4:
        raise NotCyclideShape("expected a quartic point polynomial")
    q = HomPoly4.quadform(Space.POINT)
    layers: dict[int, dict] = {}
    for (e0, e1, e2, e3), cf in G.terms.items():
        if e0 > 2:
            raise NotCyclideShape("reference point is not a double point")
        layers.setdefault(e0, {})[(0, e1, e2, e3)] = cf
    diag = layers.get(2, {})
    a = [Fraction(0)] * 4
    for exps, cf in diag.items():
        if sorted(exps) != [0, 0, 0, 2]:
            raise NotCyclideShape("x0^2 layer is not diagonal")
        a[exps.index(2)] = cf
    b = [Fraction(0)] * 4
    if layers.get(1):
        lin = HomPoly4(Space.POINT, layers[1])
        try:
            bee = -lin.exact_divide(q)
        except NotDivisible:
            raise NotCyclideShape("x0 layer is not a multiple of the quadric")
        if bee.degree != 1 or bee.coefficient((1, 0, 0, 0)) != 0:
            raise NotCyclideShape("x0 layer is not quadric times linear")
        for i in (1, 2, 3):
            b[i] = bee.coefficient(tuple(1 if k == i else 0 for k in range(4)))
    a0 = Fraction(0)
    if layers.get(0):
        const = HomPoly4(Space.POINT, layers[0])
        try:
            a0_poly = const.exact_divide(q).exact_divide(q)
        except NotDivisible:
            raise NotCyclideShape("x0-free layer is not a0 * quadric^2")
        if a0_poly.degree != 0:
            raise NotCyclideShape("x0-free layer is not a0 * quadric^2")
        a0 = a0_poly.coefficient((0, 0, 0, 0))
    return a0, a[1], a[2], a[3], b[1], b[2], b[3]


def pentaspherical_lift(G: HomPoly4) -> PentasphericalForm:
    """5x5 quadratic form representing a cyclide on the Moebius quadric.

    Substituting x0 = y0-y4, xi = yi and (y0-y4)(y0+y4) = y1^2+y2^2+y3^2
    into the cyclide form gives

        a0 (y0+y4)^2 - (y0+y4)(b1 y1 + b2 y2 + b3 y3) + sum ai yi^2.
    """
    a0, a1, a2, a3, b1, b2, b3 = _split_cyclide(G)
    B = [[Fraction(0)] * 5 for _ in range(5)]
    B[0][0] = B[4][4] = a0
    B[0][4] = B[4][0] = a0
    for i, (ai, bi) in enumerate(((a1, b1), (a2, b2), (a3, b3)), start=1):
        B[i][i] = ai
        B[0][i] = B[i][0] = -bi / 2
        B[4][i] = B[i][4] = -bi / 2
    return PentasphericalForm(tuple(tuple(row) for row in B))


# -- inverse pedal of spheres and the bisector --------------------------------


class SphereInversePedalKind(enum.Enum):
    ELLIPSOID = "ellipsoid"
    HYPERBOLOID_2SHEETS = "hyperboloid-two-sheets"
    DEGENERATE_POINT = "degenerate-point"


@dataclass(frozen=True)
class SphereInversePedal:
    kind: SphereInversePedalKind
    implicit: HomPoly4 | None  # point implicit of the image quadric
    dual: HomPoly4  # dual implicit of the image
    point: np.ndarray | None  # the single image point in the degenerate case


def sphere_inverse_pedal_affine(m, r) -> SphereInversePedal:
    """Classify the inverse pedal of the sphere center (m,0,0), radius r.

    O inside gives an ellipsoid, O outside a hyperboloid of two sheets,
    O on the sphere a single point (the antipode of O), all from
    a = m^2 - r^2 exactly.  The quadric implicit is

        r^2 (y^2+z^2)/a^2 - x^2/a + 2 m x / a = 1,

    homogenized and cleared of denominators.
    """
    m, r = Fraction(m), Fraction(r)
    a = m * m - r * r
    dual = inverse_pedal_quadric(sphere_point_quadric(m, r))
    if a == 0:
        return SphereInversePedal(
            SphereInversePedalKind.DEGENERATE_POINT, None, dual,
            np.array([2.0 * float(m), 0.0, 0.0]))
    kind = (SphereInversePedalKind.ELLIPSOID if a < 0
            else SphereInversePedalKind.HYPERBOLOID_2SHEETS)
    implicit = HomPoly4(Space.POINT, {
        (0, 0, 2, 0): r * r,
        (0, 0, 0, 2): r * r,
        (0, 2, 0, 0): -a,
        (1, 1, 0, 0): 2 * a * m,
        (2, 0, 0, 0): -a * a,
    })
    return SphereInversePedal(kind, implicit, dual, None)


def bisector_from_inverse_pedal(G: PointSurface) -> PointSurface:
    """Bisector surface of O and a point surface.

    The envelope of the inverse pedal planes, scaled by 1/2 about O, is
    equidistant from O and the surface.  A point of G at O is an
    OriginOnSurface, raised by ``point_to_dual``.
    """
    inverse = construct(G, "inverse-pedal").point
    return PointSurface(Chart(lambda u, v: 0.5 * inverse(u, v), domain=G.domain))
