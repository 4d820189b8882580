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
import os
import re
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from . import gallery, hompoly, projmaps, quadricpedal, ruledpedal, surfkit, verify
from .errors import EmptyMesh, GeometryError
from .hompoly import Space, parse_poly, strip_exceptional
from .projmaps import HPlane, HPoint
from .surfkit import Chart, Domain, DualSurface, PointSurface, PolarSurface, vector_rows

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_EXCEPTIONAL = 2
EXIT_EMPTY = 3


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


# -- expression grammar for config charts -------------------------------------

# numpy scalars follow IEEE rules: a pole gives inf and sqrt of a negative
# NaN, non-finite samples that the samplers drop, instead of an exception
_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "sqrt": np.sqrt}
# ``^`` is numpy's scalar power, libm ``pow``, applied to each sample.  On
# arrays ``**`` squares as x * x and uses a vectorized pow otherwise, which
# round other last bits, so a sample would differ alone and in a grid.
_power = np.frompyfunc(lambda a, b: np.float64(a) ** np.float64(b), 2, 1)


def _constant(val):
    return lambda u, v: val


_NAMES = {"u": lambda u, v: u, "v": lambda u, v: v, "pi": _constant(np.float64(np.pi))}


def _chart_name(tok):
    if tok not in _NAMES:
        raise ValueError(f"{tok} needs parentheses" if tok in _FUNCTIONS
                         else f"unknown identifier {tok!r}")
    return _NAMES[tok]


def _chart_call(name, arg):
    if name not in _FUNCTIONS:
        raise ValueError(f"unknown function {name!r}")
    fn = _FUNCTIONS[name]
    return lambda u, v: fn(arg(u, v))


# hooks of hompoly._parse_text: each value is a closure over (u, v)
_CHART_HOOKS = SimpleNamespace(
    number=lambda tok: _constant(np.float64(tok)),
    name=_chart_name,
    call=_chart_call,
    add=lambda a, b: lambda u, v: a(u, v) + b(u, v),
    sub=lambda a, b: lambda u, v: a(u, v) - b(u, v),
    mul=lambda a, b: lambda u, v: a(u, v) * b(u, v),
    div=lambda a, b: lambda u, v: a(u, v) / b(u, v),
    neg=lambda a: lambda u, v: -a(u, v),
    power=lambda a, b: lambda u, v: _power(a(u, v), b(u, v)).astype(float),
)


def parse_expr(text):
    """Chart expression over u, v with sin, cos, sqrt and pi."""
    return hompoly._parse_text(text, _CHART_HOOKS)


def _rational(text: str, what: str) -> Fraction:
    """Number text such as 3/4, -2 or 1e-3; 1/0 and 1e400 are input errors."""
    try:
        value = Fraction(text)
        float(value)
    except (ZeroDivisionError, OverflowError):
        raise ValueError(f"{what} {text.strip()!r} is not a finite number") from None
    return value


# -- config files --------------------------------------------------------------


def parse_config(path: str) -> dict:
    """Read the [surface]/[domain] sections of a config file."""
    sections: dict[str, dict[str, str]] = {}
    current = None
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                current = line[1:-1].strip().lower()
                sections.setdefault(current, {})
                continue
            if "=" not in line or current is None:
                raise ValueError(f"{path}:{lineno}: expected key = value inside a section")
            key, value = line.split("=", 1)
            sections[current][key.strip().lower()] = value.strip()
    if "surface" not in sections:
        raise ValueError(f"{path}: missing [surface] section")
    return sections


_DOMAIN_DEFAULTS = {"umin": "0", "umax": "1", "vmin": "0", "vmax": "1"}


def _domain_bound(key: str, text: str) -> float:
    """Value of a constant [domain] expression; naming u or v is an input error."""
    def name(tok):
        if tok in ("u", "v"):
            raise ValueError(f"domain bound {key} = {text!r} names the parameter {tok}")
        return _chart_name(tok)

    hooks = SimpleNamespace(**{**vars(_CHART_HOOKS), "name": name})
    # a bound like 1/0 is an input error, reported below, not a warning
    with np.errstate(all="ignore"):
        value = hompoly._parse_text(text, hooks)(0.0, 0.0)
    if not np.isfinite(value):
        raise ValueError(f"domain bound {key} = {text!r} is not finite")
    return value


def _config_domain(sections) -> Domain:
    dom = {**_DOMAIN_DEFAULTS, **sections.get("domain", {})}
    unknown = [key for key in dom if key not in _DOMAIN_DEFAULTS]
    if unknown:
        raise ValueError(f"unknown [domain] key {unknown[0]!r}; "
                         f"allowed: {', '.join(_DOMAIN_DEFAULTS)}")
    return Domain(**{key: _domain_bound(key, text) for key, text in dom.items()})


def _surface_value(sections, key) -> str:
    """Text of one [surface] key; a missing key is an input error."""
    surf = sections["surface"]
    if key not in surf:
        raise ValueError(f"missing chart expression {key!r}")
    return surf[key]


# a constant expression gives a scalar; the charts broadcast it over the samples
def _vector_chart(sections, keys, domain) -> Chart:
    fx, fy, fz = (parse_expr(_surface_value(sections, key)) for key in keys)
    return Chart(lambda u, v: vector_rows(u, fx(u, v), fy(u, v), fz(u, v)), domain=domain)


def _scalar_config_chart(sections, key, domain) -> Chart:
    f = parse_expr(_surface_value(sections, key))
    return Chart(lambda u, v: np.broadcast_to(f(u, v), np.shape(u)), domain=domain)


def load_surface(sections):
    """Surface object of a parsed config; (kind, surface)."""
    kind = sections["surface"].get("kind")
    domain = _config_domain(sections)
    if kind == "point":
        return kind, PointSurface(_vector_chart(sections, ("fx", "fy", "fz"), domain))
    if kind == "polar":
        return kind, PolarSurface(
            _vector_chart(sections, ("sx", "sy", "sz"), domain),
            _scalar_config_chart(sections, "r", domain))
    if kind == "dual":
        return kind, DualSurface(
            _vector_chart(sections, ("nx", "ny", "nz"), domain),
            _scalar_config_chart(sections, "e", domain))
    if kind == "ruled":
        c = _vector_chart(sections, ("cx", "cy", "cz"), domain)
        e = _vector_chart(sections, ("ex", "ey", "ez"), domain)
        ruled = ruledpedal.RuledChart(lambda u: c(u, 0.0), lambda u: e(u, 0.0), domain=domain)
        return kind, PointSurface(Chart(ruled.point, domain=domain))
    if kind == "quadric":
        space = Space.POINT if sections["surface"].get("space", "dual") == "point" else Space.DUAL
        rows = [r.strip() for r in _surface_value(sections, "matrix").split(";")]
        A = [[_rational(x, "matrix entry") for x in row.split()] for row in rows]
        return kind, quadricpedal.QuadricForm(space, A)
    raise ValueError(f"unknown surface kind {kind!r}")


# -- map subcommand --------------------------------------------------------------


def _parse_tuple(text, n):
    parts = text.split(",")
    if len(parts) != n or not all(p.strip() for p in parts):
        raise ValueError(f"expected {n} comma-separated numbers, got {text!r}")
    return np.array([float(_rational(p, "coordinate")) for p in parts])


def _format_tuple(values):
    return ",".join(f"{(x if x != 0 else 0.0):.12g}" for x in values)


def cmd_map(args) -> int:
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
        z = _parse_tuple(args.z, 3) if args.z else np.zeros(3)
        print(_format_tuple(fn(tup.to_affine(), z)))
    elif not args.dehomogenize:
        print(_format_tuple(fn(tup).canonical()))
    else:
        out = fn(tup)
        if not isinstance(out, HPoint):
            raise ValueError("--dehomogenize applies to point results")
        print(_format_tuple(np.concatenate(([1.0], out.dehomogenize()))))
    return EXIT_OK


# -- implicit subcommand -----------------------------------------------------------


def cmd_implicit(args) -> int:
    if args.surface:
        kind, surf = load_surface(parse_config(args.surface))
        if kind != "quadric":
            raise ValueError("only quadric configs provide an input polynomial")
        poly = surf.as_poly()
    elif args.poly:
        poly = parse_poly(args.poly)
    elif args.infile:
        with open(args.infile, encoding="utf-8") as fh:
            poly = parse_poly(fh.read())
    else:
        poly = parse_poly(sys.stdin.read())
    if args.direction == "pedal":
        if poly.space is not Space.DUAL:
            raise ValueError("pedal pullbacks start from a dual polynomial (u0..u3)")
        image = hompoly.pedal_pullback(poly)
    else:
        if poly.space is not Space.POINT:
            raise ValueError("inverse-pedal pullbacks start from a point polynomial (x0..x3)")
        image = hompoly.inverse_pedal_pullback(poly)
    if args.strip:
        stripped = strip_exceptional(image)
        print(hompoly.format_poly(stripped.reduced))
        print(f"r={stripped.r} k={stripped.k} n={poly.degree} deg={stripped.reduced.degree}")
    else:
        print(hompoly.format_poly(image))
    return EXIT_OK


# -- sample subcommand ---------------------------------------------------------------


def cmd_sample(args) -> int:
    m = re.fullmatch(r"(\d+)x(\d+)", args.grid)
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
    if args.surface in gallery.list_entries():
        surface = gallery.get_entry(args.surface).construct(construct, d)
    elif os.path.exists(args.surface):
        kind, surf = load_surface(parse_config(args.surface))
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
    seed = args.seed if args.seed is not None else int(os.environ.get("PEDALIS_SEED", "0"))
    samples = args.samples
    rng = np.random.default_rng(seed)
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


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


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
    p_ver.add_argument("--suite", default="all", choices=[*verify.SUITES, "all"])
    p_ver.add_argument("--seed", type=int, default=None)
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
