"""Geometry kernel for the foot-point correspondence between offset and
conchoid surfaces: projective maps, exact polynomial pullbacks, envelope
solving, rational sphere atlases and a verified example gallery."""

from .errors import GeometryError
from .hompoly import (
    HomPoly4,
    Space,
    StripResult,
    degree_bookkeeping,
    format_poly,
    inverse_pedal_pullback,
    offset_dual_poly,
    parse_poly,
    pedal_pullback,
    strip_exceptional,
)
from .projmaps import (
    AffPlane,
    HPlane,
    HPoint,
    alpha_affine,
    alpha_hom,
    alpha_star_affine,
    alpha_star_hom,
    alpha_z,
    inversion_sigma,
    polarity_pi,
    polarity_pi_star,
    projective_eq,
)
from .surfkit import (
    Chart,
    Domain,
    DualSurface,
    PointSurface,
    PolarSurface,
    commutation_check,
    conchoid_map,
    construct,
    dual_to_point,
    envelope_solve,
    envelope_surface,
    gamma,
    offset_map,
    phi,
    point_to_dual,
    sample_mesh,
    tangent_planes,
    write_obj,
)

__version__ = "0.1.0"
