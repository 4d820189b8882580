"""Pedal and inverse pedal surfaces of quadrics and conics.

Quadrics are symmetric 4x4 exact-rational forms, on the point side
X^T A X and on the dual side U^T A U.  Pedal images of dual quadrics are
Darboux cyclides; for the normalized form

    a0 u0^2 + a1 u1^2 + a2 u2^2 + a3 u3^2 + u0 (b1 u1 + b2 u2 + b3 u3)

the image is the closed cyclide form below, which also lifts to a 5x5
quadratic form in pentaspherical coordinates.  All degeneracy checks
(focal paraboloid, Dupin parabola, spheres through O) are exact.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    NotCyclideShape,
    NotDivisible,
    OriginOnSurface,
    PoleInDomain,
    RankMismatch,
    RankTooLow,
)
from .hompoly import (
    HomPoly4,
    Space,
    inverse_pedal_pullback,
    pedal_pullback,
    strip_exceptional,
)
from .sphereatlas import trig_s2
from .projmaps import rowdot
from .surfkit import (
    Chart,
    Domain,
    DualSurface,
    PointSurface,
    construct,
)


def _frac_matrix(rows) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


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


class QuadricForm:
    """Symmetric 4x4 exact-rational quadratic form with a space tag."""

    __slots__ = ("space", "A", "_rank")

    def __init__(self, space: Space, A):
        rows = _frac_matrix(A)
        if len(rows) != 4 or any(len(r) != 4 for r in rows):
            raise ValueError("quadric matrices are 4x4")
        if any(rows[i][j] != rows[j][i] for i in range(4) for j in range(i)):
            raise ValueError("quadric matrix must be symmetric")
        self.space = space
        self.A = rows
        self._rank = None

    @property
    def rank(self) -> int:
        if self._rank is None:
            self._rank = _exact_rank(self.A)
        return self._rank

    def as_poly(self) -> HomPoly4:
        terms: dict[tuple[int, int, int, int], Fraction] = {}
        for i in range(4):
            for j in range(i, 4):
                exps = [0, 0, 0, 0]
                exps[i] += 1
                exps[j] += 1
                # each pair i <= j is one monomial; HomPoly4 drops zeros
                terms[tuple(exps)] = self.A[i][j] if i == j else 2 * self.A[i][j]
        return HomPoly4(self.space, terms)

    @classmethod
    def from_normalized(cls, space: Space, a0, a1, a2, a3, b1=0, b2=0, b3=0):
        """Diagonal form plus couplings of the 0-variable row."""
        a0, a1, a2, a3 = Fraction(a0), Fraction(a1), Fraction(a2), Fraction(a3)
        b1, b2, b3 = Fraction(b1), Fraction(b2), Fraction(b3)
        return cls(space, [
            [a0, b1 / 2, b2 / 2, b3 / 2],
            [b1 / 2, a1, 0, 0],
            [b2 / 2, 0, a2, 0],
            [b3 / 2, 0, 0, a3],
        ])


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


def pedal_of_quadric(Q: QuadricForm, rank: int | None = None) -> HomPoly4:
    """Stripped pedal image of a dual quadric: a Darboux cyclide.

    Rank-4 duals give quartic cyclides, rank-3 duals (conic tangent-plane
    families) canal-surface cyclides; lower rank is rejected.  A given
    ``rank`` (3 or 4) must be the rank of Q, else RankMismatch.
    """
    if Q.space is not Space.DUAL:
        raise ValueError("pedal images are built from dual quadrics")
    if rank is not None and Q.rank != rank:
        kind = "conics" if rank == 3 else "quadric surfaces"
        raise RankMismatch(f"{kind} have dual rank {rank}, got {Q.rank}")
    if Q.rank < 3:
        raise RankTooLow(f"dual quadric of rank {Q.rank}")
    return strip_exceptional(pedal_pullback(Q.as_poly())).reduced


def pedal_of_conic(Q: QuadricForm) -> HomPoly4:
    """Pedal image of a conic given as a rank-3 dual quadric."""
    return pedal_of_quadric(Q, rank=3)


def _rank1_linear_factor(Q: QuadricForm) -> HomPoly4:
    """Linear form c with Q = +-c*c^T for a rank-1 symmetric matrix."""
    i0 = next((i for i in range(4) if Q.A[i][i] != 0), None)
    if i0 is None:
        raise RankTooLow("zero quadric")
    row = Q.A[i0]
    return HomPoly4(Q.space, {
        tuple(1 if k == i else 0 for k in range(4)): row[i]
        for i in range(4) if row[i] != 0
    })


def inverse_pedal_quadric(G: QuadricForm) -> HomPoly4:
    """Stripped inverse pedal image of a point quadric, in dual coordinates.

    Rank >= 3 is handled through the exact pullback; a doubled plane
    (rank 1) is treated as the plane itself, whose image is a paraboloid
    of revolution with focal point O.  Spheres through O leave a dual
    0-variable factor behind, signalling the collapse to a plane bundle.
    """
    if G.space is not Space.POINT:
        raise ValueError("inverse pedal images are built from point quadrics")
    if G.rank >= 3:
        return strip_exceptional(inverse_pedal_pullback(G.as_poly())).reduced
    if G.rank == 1:
        plane = _rank1_linear_factor(G)
        if plane.coefficient((1, 0, 0, 0)) == 0:
            raise OriginOnSurface("plane through O has a degenerate image")
        return strip_exceptional(inverse_pedal_pullback(plane)).reduced
    raise RankTooLow(f"point quadric of rank {G.rank}")


# -- named quadric builders ---------------------------------------------------


def sphere_dual_quadric(m, R) -> QuadricForm:
    """Dual quadric of the sphere with center (m,0,0) and radius R."""
    m, R = Fraction(m), Fraction(R)
    return QuadricForm.from_normalized(
        Space.DUAL, -1, R * R - m * m, R * R, R * R, b1=-2 * m)


def sphere_point_quadric(m, r) -> QuadricForm:
    """Point quadric of the sphere with center (m,0,0) and radius r."""
    m, r = Fraction(m), Fraction(r)
    return QuadricForm.from_normalized(
        Space.POINT, m * m - r * r, 1, 1, 1, b1=-2 * m)


def paraboloid_dual_quadric(a, b, c) -> QuadricForm:
    """Dual quadric of the paraboloid z = a x^2 + b y^2 + c (abc != 0)."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if a * b * c == 0:
        raise ValueError("paraboloid parameters must all be nonzero")
    return QuadricForm.from_normalized(
        Space.DUAL, 0, b, a, -4 * a * b * c, b3=-4 * a * b)


def parabola_dual_quadric(a, c) -> QuadricForm:
    """Rank-3 dual quadric of the parabola (u, 0, a u^2 / 2 + c)."""
    a, c = Fraction(a), Fraction(c)
    if a * c == 0:
        raise ValueError("parabola parameters must be nonzero")
    return QuadricForm.from_normalized(
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
    stripped = strip_exceptional(pedal_pullback(Q.as_poly()))
    if stripped.k == 0:
        return None
    q = HomPoly4.quadform(Space.POINT)
    return q, q ** (stripped.k - 1) * stripped.reduced


# -- rational offset charts of paraboloids -----------------------------------


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
