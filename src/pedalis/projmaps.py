"""Foot-point map, inversion and polarity in affine and homogeneous form.

Points of P^3 are written (x0,x1,x2,x3)R, planes as R(u0,u1,u2,u3); the
plane R(u0,...,u3) is the zero set of u0*x0 + ... + u3*x3, so the affine
plane n.x = e has homogeneous coordinates R(-e, n).  All maps here are
pure functions on immutable values; equality of projective tuples is up
to a nonzero scalar.

Two paths compute the maps, chosen by the input.  The row functions take
(N, 4) arrays and import numpy when called.  The single-tuple maps on
HPoint and HPlane run on plain floats, with the IEEE operations of the row
functions in the same order, so they give the row results bit for bit and
raise exactly where a row mask is False.  AffPlane and alpha_z stay numpy:
a 3-term numpy dot product rounds as a chain of fused multiply-adds.
"""

from __future__ import annotations

from math import copysign, isfinite

from .errors import (
    BasePoint,
    ExceptionalElement,
    ExceptionalPlane,
    OriginPoint,
)

# Exceptional-set detection threshold on max-abs-normalized tuples.
EPS_EXCEPTIONAL = 1e-12


def rowdot(a, b):
    """Dot products of the last axes of a and b, row by row.

    The stacked matmul rounds each row exactly as ``a @ b`` does on one
    pair of vectors; ``einsum`` and ``sum`` round differently.
    """
    import numpy as np
    return (np.asarray(a)[..., None, :] @ np.asarray(b)[..., :, None])[..., 0, 0]


def row_max(A) -> np.ndarray:
    """Max over the last axis of A, one np.maximum per column.

    Same values as ``np.maximum.reduce(A, axis=-1)``, NaN included: max is
    exact and order-free.  A reduction along a short row axis calls numpy's
    inner loop once per row; a column-wise maximum runs over all rows at once.
    """
    import numpy as np
    A = np.asarray(A)
    m = A[..., 0]
    for k in range(1, A.shape[-1]):
        m = np.maximum(m, A[..., k])
    return m


def exceptional_normal(n):
    """Whether the plane normal n is non-finite or numerically zero, row by row.

    A plane with such a normal has no affine form and no foot point.
    """
    import numpy as np
    n = np.asarray(n, dtype=float)
    return ~np.isfinite(row_max(np.abs(n))) | (np.sqrt(rowdot(n, n)) < EPS_EXCEPTIONAL)


def _scaled_rows(rows) -> np.ndarray:
    """The rows of an (N, 4) array, each divided by its max-abs component.

    Raises ValueError if any row is zero or not finite.
    """
    import numpy as np
    V = np.asarray(rows, dtype=float)
    if V.ndim != 2 or V.shape[1] != 4:
        raise ValueError("projective tuples have exactly 4 components")
    m = row_max(np.abs(V))
    if not np.logical_and.reduce((m > 0.0) & (m < np.inf), axis=None):
        raise ValueError("projective tuple must be nonzero and finite")
    return V / m[:, None]


def canonical_rows(rows) -> np.ndarray:
    """Canonical representatives of the rows of an (N, 4) array.

    Each row is scaled so its max-abs component is 1, then its sign is
    fixed so the first component with magnitude >= EPS_EXCEPTIONAL is
    positive.  Raises ValueError if any row is zero or not finite.
    """
    import numpy as np
    V = _scaled_rows(rows)
    # sign of the first component >= EPS_EXCEPTIONAL; the max-abs one scales
    # to exactly 1, so column 3 decides only when no earlier column does
    signs = np.copysign(1.0, V)
    lead = np.abs(V) >= EPS_EXCEPTIONAL
    sign = signs[:, 3]
    for k in (2, 1, 0):
        sign = np.where(lead[:, k], signs[:, k], sign)
    V *= sign[:, None]
    return V


def canonical(coords) -> np.ndarray:
    """Canonical representative of one projective tuple; see canonical_rows."""
    return canonical_rows([coords])[0]


class _HTuple:
    """Shared behaviour of homogeneous point/plane tuples."""

    __slots__ = ("coords",)

    def __init__(self, *coords):
        if len(coords) == 1:
            coords = coords[0]
        try:
            v = tuple(map(float, coords))
        except TypeError:  # not a sequence of reals
            v = ()
        if len(v) != 4 or isinstance(coords, str):
            raise ValueError(f"{type(self).__name__} needs 4 coordinates")
        # max would drop a NaN, so each component is tested
        if not (all(map(isfinite, v)) and any(v)):
            raise ValueError(f"{type(self).__name__} must be nonzero and finite")
        self.coords = v

    def canonical(self) -> tuple[float, ...]:
        """canonical_rows on the one row coords, in plain floats."""
        v = _scaled(self.coords)
        # the max-abs component scales to exactly 1, so some component leads
        for lead in v:
            if abs(lead) >= EPS_EXCEPTIONAL:
                break
        sign = copysign(1.0, lead)
        return tuple([c * sign for c in v])

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return projective_eq(self, other, 1e-9)

    def __hash__(self):
        raise TypeError(f"{type(self).__name__} is unhashable")

    def __repr__(self) -> str:
        vals = ",".join(f"{c:.12g}" for c in self.coords)
        return f"{type(self).__name__}({vals})"


class HPoint(_HTuple):
    """Point (x0,x1,x2,x3)R of P^3, equality up to nonzero scale."""

    def dehomogenize(self) -> tuple[float, float, float]:
        """Affine coordinates (x1/x0, x2/x0, x3/x0); error for ideal points."""
        x0, x1, x2, x3 = self.canonical()
        if abs(x0) < EPS_EXCEPTIONAL:
            raise ExceptionalElement("ideal point has no affine coordinates")
        return x1 / x0, x2 / x0, x3 / x0


class HPlane(_HTuple):
    """Plane R(u0,u1,u2,u3) of P^3, i.e. a point of the dual space."""

    def to_affine(self) -> "AffPlane":
        v = self.canonical()
        return AffPlane(v[1:], -v[0])


class AffPlane:
    """Affine plane n.x = e with a not necessarily unit normal n.

    (n, e) and (lam*n, lam*e) with lam != 0 denote the same non-oriented
    plane; both orientations are accepted.
    """

    __slots__ = ("normal", "offset")

    def __init__(self, normal, offset: float):
        import numpy as np
        n = np.asarray(normal, dtype=float)
        if n.shape != (3,):
            raise ValueError("plane normal needs 3 components")
        if exceptional_normal(n):
            raise ExceptionalPlane("plane normal is (numerically) zero")
        self.normal = n
        self.offset = float(offset)

    def hplane(self) -> HPlane:
        return HPlane(-self.offset, *self.normal)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AffPlane):
            return NotImplemented
        return projective_eq(self.hplane(), other.hplane(), 1e-9)

    def __hash__(self):
        raise TypeError("AffPlane is unhashable")

    def __repr__(self) -> str:
        n = ",".join(f"{c:.12g}" for c in self.normal)
        return f"AffPlane(n=({n}), e={self.offset:.12g})"


def projective_eq(a, b, tol: float = 1e-9) -> bool:
    """Projective equality of two tuples after canonical normalization.

    Accepts HPoint/HPlane (which must be the same kind) or raw 4-sequences.
    """
    if isinstance(a, _HTuple) or isinstance(b, _HTuple):
        if type(a) is not type(b):
            raise TypeError("cannot compare a point tuple with a plane tuple")
        a, b = a.coords, b.coords
    return bool(abs(canonical(a) - canonical(b)).max() <= tol)


def alpha_affine(n, e) -> np.ndarray:
    """Foot (e/(n.n)) n of the perpendicular from O onto the plane n.x = e.

    Takes one plane or rows of normals and offsets.  Planes through O
    legally map to O; a plane whose normal is exceptional_normal has no
    foot point (AffPlane rejects it, and callers drop or reject such rows).
    """
    import numpy as np
    n = np.asarray(n, dtype=float)
    return (np.asarray(e, dtype=float) / rowdot(n, n))[..., None] * n


def alpha_star_affine(p) -> AffPlane:
    """Inverse foot-point map: the plane through p with normal Op."""
    import numpy as np
    p = np.asarray(p, dtype=float)
    if np.linalg.norm(p) < EPS_EXCEPTIONAL:
        raise OriginPoint("the reference point O has no image plane")
    return AffPlane(p, p @ p)


def alpha_z(plane: AffPlane, z) -> np.ndarray:
    """Foot of the perpendicular from the point z onto the plane."""
    import numpy as np
    n, e = plane.normal, plane.offset
    z = np.asarray(z, dtype=float)
    return z + ((e - z @ n) / (n @ n)) * n


# -- homogeneous maps, row-wise over (N, 4) arrays ------------------------
#
# The quadratic maps are even, and (-a)*(-b) == a*b in IEEE arithmetic, signed
# zeros included, so they scale their input rows but fix no sign.  They return
# the image rows together with a boolean mask that is False where the image
# vanishes, i.e. where the input lies in the exceptional set or base locus.


def _quadratic_rows(rows, sign: float) -> tuple[np.ndarray, np.ndarray]:
    """(x0,x) -> (sign*(x.x), x0*x) on max-abs-scaled rows, with validity mask."""
    V = _scaled_rows(rows)
    img = V[:, :1] * V
    x1, x2, x3 = V[:, 1], V[:, 2], V[:, 3]
    # left to right, the order add.reduce takes on 3 elements
    img[:, 0] = sign * (x1 * x1 + x2 * x2 + x3 * x3)
    return img, row_max(abs(img)) >= EPS_EXCEPTIONAL


def alpha_rows(planes) -> tuple[np.ndarray, np.ndarray]:
    """Foot-point map R(u0,u) -> (-(u.u), u0*u)R; mask False on ideal planes."""
    return _quadratic_rows(planes, -1.0)


def alpha_star_rows(points) -> tuple[np.ndarray, np.ndarray]:
    """Inverse foot-point map (x0,x)R -> R(-(x.x), x0*x); mask False at O."""
    return _quadratic_rows(points, -1.0)


def sigma_rows(points) -> tuple[np.ndarray, np.ndarray]:
    """Inversion at the unit sphere (x0,x)R -> (x.x, x0*x)R; mask False on base points."""
    return _quadratic_rows(points, 1.0)


def pi_rows(planes) -> np.ndarray:
    """Poles of planes with respect to the unit sphere: negate component 0."""
    import numpy as np
    img = np.array(planes, dtype=float)
    img[:, 0] = -img[:, 0]
    return img


def pi_star_rows(points) -> np.ndarray:
    """Polar planes of points with respect to the unit sphere."""
    return pi_rows(points)


# -- the same maps on single HPoint / HPlane values, in plain floats -------------


def _scaled(v) -> tuple[float, ...]:
    """_scaled_rows on one valid row."""
    a, b, c, d = v
    m = max(abs(a), abs(b), abs(c), abs(d))
    return a / m, b / m, c / m, d / m


def _quadratic(tup: _HTuple, sign: float, result, error, message: str):
    """_quadratic_rows on one tuple; raises error where its mask is False."""
    x0, x1, x2, x3 = _scaled(tup.coords)
    img = (sign * (x1 * x1 + x2 * x2 + x3 * x3), x0 * x1, x0 * x2, x0 * x3)
    if not max(map(abs, img)) >= EPS_EXCEPTIONAL:
        raise error(message)
    out = object.__new__(result)  # img is finite and nonzero: no check to repeat
    out.coords = img
    return out


def alpha_hom(U: HPlane) -> HPoint:
    """Homogeneous foot-point map R(u0,u) -> (-(u.u), u0*u)R."""
    return _quadratic(U, -1.0, HPoint, ExceptionalElement, "ideal plane")


def alpha_star_hom(X: HPoint) -> HPlane:
    """Homogeneous inverse foot-point map (x0,x)R -> R(-(x.x), x0*x)."""
    return _quadratic(X, -1.0, HPlane, BasePoint, "base point: reference point O")


def inversion_sigma(X: HPoint) -> HPoint:
    """Inversion at the unit sphere, (x0,x)R -> (x.x, x0*x)R."""
    return _quadratic(X, 1.0, HPoint, BasePoint, "base point of the inversion")


def polarity_pi(U: HPlane) -> HPoint:
    """Pole of the plane U with respect to the unit sphere."""
    u0, u1, u2, u3 = U.coords
    return HPoint(-u0, u1, u2, u3)


def polarity_pi_star(X: HPoint) -> HPlane:
    """Polar plane of the point X with respect to the unit sphere."""
    x0, x1, x2, x3 = X.coords
    return HPlane(-x0, x1, x2, x3)
