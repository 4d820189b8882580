"""Command-line front end.

Subcommands:

* ``map``       -- apply one of the projective maps to a 4-tuple
* ``implicit``  -- pedal / inverse pedal pullback of a polynomial
* ``sample``    -- mesh a gallery or config surface to Wavefront OBJ
* ``verify``    -- run the verification suites, key=value report

Exit codes: 0 pass, 1 usage/parse errors or failed verification,
2 exceptional geometry, 3 empty output.  PEDALIS_SEED sets the default
seed of the verification suites.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
import time
from fractions import Fraction

# numpy and the other layers are imported by the commands that run them
from .errors import EmptyMesh, GeometryError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_EXCEPTIONAL = 2
EXIT_EMPTY = 3
# the verify suites, in report order, so that the parser needs no verify import;
# verify builds SUITES from them
SUITE_NAMES = ("involutions", "diagrams", "gallery", "degrees", "extras")
# the gallery entries, in order, so that sample tells a name from a path without
# importing gallery, which builds its table from them
GALLERY_NAMES = ("plane-conchoid", "paraboloid-offset", "sphere-offset", "sphere-bundle",
                 "pluecker", "parabola-cyclide", "paraboloid-pedal", "sphere-inverse-pedal",
                 "quadratic-cylinder")


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the CLI contract wants 1
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # let tuple values that start with a negative number, like -1,0,0,1,
        # -1/2,0,0,1 or -1e-3,0,0,1, pass as option arguments
        self._negative_number_matcher = re.compile(r"^-\.?\d.*$")

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(message)


def _rational(text: str, what: str) -> Fraction:
    """Number text such as 3/4, -2 or 1e-3; 1/0, 1e400 and digits or spaces
    that are not ASCII (which Fraction would read) are input errors."""
    if not text.isascii():
        raise ValueError(f"{what} {text!r} is not an ASCII number")
    try:
        value = Fraction(text)
        float(value)
    except (ZeroDivisionError, OverflowError):
        raise ValueError(f"{what} {text.strip()!r} is not a finite number") from None
    return value


# -- map subcommand --------------------------------------------------------------


def _parse_tuple(text, n):
    parts = text.split(",")
    if len(parts) != n or not all(p.strip() for p in parts):
        raise ValueError(f"expected {n} comma-separated numbers, got {text!r}")
    return [float(_rational(p, "coordinate")) for p in parts]


def _format_tuple(values):
    text = ",".join(f"{(x if x != 0 else 0.0):.12g}" for x in values)
    if not all(map(math.isfinite, values)):  # alpha-z of a z near the float range
        raise ValueError(f"result {text} is not finite")
    return text


def cmd_map(args) -> int:
    from . import projmaps
    from .projmaps import HPlane, HPoint
    fn, kind, option = {
        "alpha": (projmaps.alpha_hom, HPlane, "plane"),
        "alpha-star": (projmaps.alpha_star_hom, HPoint, "point"),
        "sigma": (projmaps.inversion_sigma, HPoint, "point"),
        "pi": (projmaps.polarity_pi, HPlane, "plane"),
        "pi-star": (projmaps.polarity_pi_star, HPoint, "point"),
        "alpha-z": (projmaps.alpha_z, HPlane, "plane"),
    }[args.op]
    text = getattr(args, option)
    if text is None:
        raise ValueError(f"--op {args.op} needs --{option}")
    tup = kind(_parse_tuple(text, 4))
    if args.op == "alpha-z":
        import numpy as np
        z = _parse_tuple(args.z, 3) if args.z else [0.0, 0.0, 0.0]
        with np.errstate(over="ignore", invalid="ignore"):  # _format_tuple reports them
            foot = fn(tup.to_affine(), z)
        print(_format_tuple(foot))
    elif not args.dehomogenize:
        print(_format_tuple(fn(tup).canonical()))
    else:
        out = fn(tup)
        if not isinstance(out, HPoint):
            raise ValueError("--dehomogenize applies to point results")
        print(_format_tuple([1.0, *out.dehomogenize()]))
    return EXIT_OK


# -- implicit subcommand -----------------------------------------------------------


def cmd_implicit(args) -> int:
    from . import hompoly
    if args.surface:
        from . import config
        kind, poly = config.load(args.surface)
        if kind != "quadric":
            raise ValueError("only quadric configs provide an input polynomial")
    elif args.poly:
        poly = hompoly.parse_poly(args.poly)
    elif args.infile:
        with open(args.infile, encoding="utf-8") as fh:
            poly = hompoly.parse_poly(fh.read())
    else:
        poly = hompoly.parse_poly(sys.stdin.read())
    if poly.degree < 1:
        raise ValueError("implicit needs a polynomial of degree at least 1, not a constant")
    if args.direction == "pedal":
        if poly.space is not hompoly.Space.DUAL:
            raise ValueError("pedal pullbacks start from a dual polynomial (u0..u3)")
        image = hompoly.pedal_pullback(poly)
    else:
        if poly.space is not hompoly.Space.POINT:
            raise ValueError("inverse-pedal pullbacks start from a point polynomial (x0..x3)")
        image = hompoly.inverse_pedal_pullback(poly)
    if args.strip:
        stripped = hompoly.strip_exceptional(image)
        print(hompoly.format_poly(stripped.reduced))
        print(f"r={stripped.r} k={stripped.k} n={poly.degree} deg={stripped.reduced.degree}")
    else:
        print(hompoly.format_poly(image))
    return EXIT_OK


# -- sample subcommand ---------------------------------------------------------------


def cmd_sample(args) -> int:
    from . import surfkit
    m = re.fullmatch(r"(\d+)x(\d+)", args.grid, re.ASCII)
    if not m:
        raise ValueError("--grid must look like 60x60")
    nu, nv = int(m.group(1)), int(m.group(2))
    if nu < 2 or nv < 2:
        raise ValueError("grid needs at least 2 samples per direction")
    construct, colon, dtxt = args.construct.partition(":")
    if construct not in surfkit.CONSTRUCTS:
        raise ValueError(f"unknown construct {args.construct!r}")
    if colon and construct not in ("offset", "conchoid"):
        raise ValueError(f"construct {construct!r} takes no distance")
    d = float(_rational(dtxt, "distance")) if colon else 0.0
    if args.surface in GALLERY_NAMES:
        from . import gallery
        surface = gallery.get_entry(args.surface).construct(construct, d)
    elif os.path.exists(args.surface):
        from . import config
        kind, surf = config.load(args.surface)
        if kind == "quadric":
            raise ValueError("quadric configs feed the implicit command, not sample")
        surface = surfkit.construct(surf, construct, d)
    else:
        raise ValueError(f"unknown surface {args.surface!r} (gallery name or config path)")
    try:
        mesh = surfkit.sample_mesh(surface, nu, nv)
    except EmptyMesh as exc:
        print(f"empty mesh: {exc}", file=sys.stderr)
        return EXIT_EMPTY
    surfkit.write_obj(mesh, args.out)
    print(f"vertices={len(mesh.vertices)} faces={len(mesh.faces)} out={args.out}")
    return EXIT_OK


# -- verify subcommand -----------------------------------------------------------------


def cmd_verify(args) -> int:
    seed = args.seed
    if seed is None:
        try:
            seed = _nonnegative_int(os.environ.get("PEDALIS_SEED", "0"))
        except argparse.ArgumentTypeError as exc:
            raise ValueError(f"PEDALIS_SEED {exc}") from None
    from . import verify
    samples = args.samples
    rng = verify.Sampler(seed)
    if args.suite == "all":
        checks = list(verify.SUITES.values())
    else:
        checks = [verify.SUITES[args.suite]]
    all_ok = True
    t0 = time.perf_counter()
    for fn in checks:
        for name, metrics, ok in fn(rng, samples):
            for key, val in metrics.items():
                print(f"{name}.{key}={val:.6g}" if isinstance(val, float)
                      else f"{name}.{key}={val}")
            print(f"{name}.pass={'true' if ok else 'false'}")
            status = "ok" if ok else "FAIL"
            print(f"  [{status}] {name}", file=sys.stderr)
            all_ok = all_ok and ok
    elapsed = time.perf_counter() - t0
    print(f"suite={args.suite} seed={seed} pass={'true' if all_ok else 'false'}")
    print(f"suite {args.suite}: {'pass' if all_ok else 'FAIL'} in {elapsed:.2f}s", file=sys.stderr)
    return EXIT_OK if all_ok else EXIT_USAGE


# -- entry point -------------------------------------------------------------------


def _int_at_least(text: str, low: int, what: str) -> int:
    # a ValueError would make argparse name the type function in its message
    if not re.fullmatch(r"\s*\+?\d+\s*", text, re.ASCII) or int(text) < low:
        raise argparse.ArgumentTypeError(f"must be a {what} integer, got {text!r}")
    return int(text)


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1, "positive")


def _nonnegative_int(text: str) -> int:
    return _int_at_least(text, 0, "non-negative")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pedalis",
                     description="offset/conchoid correspondence geometry kernel")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_map = sub.add_parser("map", help="apply a projective map to a tuple")
    p_map.add_argument("--op", required=True,
                       choices=["alpha", "alpha-star", "sigma", "pi", "pi-star", "alpha-z"])
    p_map.add_argument("--plane", help="homogeneous plane tuple u0,u1,u2,u3")
    p_map.add_argument("--point", help="homogeneous point tuple x0,x1,x2,x3")
    p_map.add_argument("--z", help="reference point for alpha-z as x,y,z")
    p_map.add_argument("--dehomogenize", action="store_true",
                       help="print point results in the affine chart x0=1")
    p_map.set_defaults(func=cmd_map)

    p_imp = sub.add_parser("implicit", help="pedal / inverse-pedal pullback")
    p_imp.add_argument("--direction", required=True, choices=["pedal", "inverse-pedal"])
    p_imp.add_argument("--poly", help="polynomial text (x0..x3 or u0..u3)")
    p_imp.add_argument("--in", dest="infile", help="read the polynomial from a file")
    p_imp.add_argument("--surface", help="quadric config file as polynomial source")
    p_imp.add_argument("--strip", action="store_true",
                       help="strip exceptional factors and report r,k,n,deg")
    p_imp.set_defaults(func=cmd_implicit)

    p_smp = sub.add_parser("sample", help="mesh a surface to Wavefront OBJ")
    p_smp.add_argument("--surface", required=True, help="gallery name or config file")
    p_smp.add_argument("--construct", default="self",
                       help="self | pedal | inverse-pedal | offset:d | conchoid:d")
    p_smp.add_argument("--grid", default="40x40", help="NUxNV sample counts")
    p_smp.add_argument("--out", required=True, help="output OBJ path")
    p_smp.set_defaults(func=cmd_sample)

    p_ver = sub.add_parser("verify", help="run verification suites")
    p_ver.add_argument("--suite", default="all", choices=[*SUITE_NAMES, "all"])
    p_ver.add_argument("--seed", type=_nonnegative_int, default=None,
                       help="random seed, at least 0 (default: PEDALIS_SEED or 0)")
    p_ver.add_argument("--samples", type=_positive_int, default=10000,
                       help="random tuples per involution check (at least 1)")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GeometryError as exc:
        print(f"exceptional: {exc}", file=sys.stderr)
        return EXIT_EXCEPTIONAL


if __name__ == "__main__":
    sys.exit(main())
