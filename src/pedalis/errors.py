"""Typed errors raised by the geometry kernel.

Exceptional inputs raise instead of silently returning a base point or the
ideal plane, so callers can distinguish geometric degeneracies from bugs.
"""


class GeometryError(Exception):
    """Base class for all kernel errors."""


class ExceptionalPlane(GeometryError):
    """Plane whose normal vector (numerically) vanishes."""


class ExceptionalElement(GeometryError):
    """Input lies in the exceptional set of a projective map."""


class BasePoint(GeometryError):
    """Point lies in the base locus of a projective map."""


class OriginPoint(GeometryError):
    """The reference point O, where the point-to-plane map is undefined."""


class SpaceMismatch(GeometryError):
    """Point/dual space tags of the operands do not agree."""


class NotDivisible(GeometryError):
    """Exact polynomial division left a nonzero remainder."""


class NonUnitNormal(GeometryError):
    """Normal field is not unit length within tolerance."""


class DegenerateSystem(GeometryError):
    """A linear solve required by a construction is singular."""


class DegenerateEnvelope(DegenerateSystem):
    """Envelope system is singular (developable, plane or point case)."""


class EmptyMesh(GeometryError):
    """All samples of a chart were invalid; no mesh produced."""


class EmptyGrid(GeometryError):
    """No valid samples on the requested grid."""


class ZeroDirection(GeometryError):
    """Ruling direction vector vanishes."""


class CylindricalRuling(GeometryError):
    """Ruling direction has (numerically) constant direction."""


class LineThroughOrigin(GeometryError):
    """Generating line passes through the reference point O."""


class DevelopableSurface(GeometryError):
    """Ruled surface, or one ruling of it, is developable (torsal)."""


class OriginOnSurface(GeometryError):
    """Surface passes through the reference point O."""


class RankTooLow(GeometryError):
    """Quadric rank below what the construction supports."""


class NotCyclideShape(GeometryError):
    """Polynomial does not have the cyclide normal form."""


class PoleInDomain(GeometryError):
    """Requested parameter domain contains a pole of the chart."""


class CommonZero(GeometryError):
    """All four quadruple functions vanish at the sample."""


class NotFound(KeyError, GeometryError):
    """Unknown gallery entry name."""
