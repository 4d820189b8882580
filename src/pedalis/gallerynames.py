"""The names of the gallery entries, importable without building any of them."""

GALLERY_NAMES = ("plane-conchoid", "paraboloid-offset", "sphere-offset", "sphere-bundle",
                 "pluecker", "parabola-cyclide", "paraboloid-pedal", "sphere-inverse-pedal",
                 "quadratic-cylinder")
