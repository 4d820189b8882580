"""Geometry kernel for the foot-point correspondence between offset and
conchoid surfaces: projective maps, exact polynomial pullbacks, envelope
solving, rational sphere atlases and a verified example gallery."""

import importlib

# Public names by defining module.  Each is imported on first use (PEP 562),
# so ``import pedalis`` loads no submodule and no numpy.
_EXPORTS = {
    "errors": ("GeometryError",),
    "hompoly": (
        "HomPoly4", "Space", "StripResult", "degree_bookkeeping", "format_poly",
        "inverse_pedal_pullback", "offset_dual_poly", "parse_poly", "pedal_pullback",
        "strip_exceptional",
    ),
    "projmaps": (
        "AffPlane", "HPlane", "HPoint", "alpha_affine", "alpha_hom", "alpha_star_affine",
        "alpha_star_hom", "alpha_z", "inversion_sigma", "polarity_pi", "polarity_pi_star",
        "projective_eq",
    ),
    "surfkit": (
        "Chart", "Domain", "DualSurface", "PointSurface", "PolarSurface",
        "commutation_check", "conchoid_map", "construct", "dual_to_point",
        "envelope_solve", "envelope_surface", "gamma", "offset_map", "phi",
        "point_to_dual", "sample_mesh", "tangent_planes", "write_obj",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
