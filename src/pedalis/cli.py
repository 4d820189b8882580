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
        # let tuple values like -1,0,0,1 pass as option arguments
        self._negative_number_matcher = re.compile(r"^-[\d.,]+$")

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ExprError(message)


# -- expression grammar for config charts -------------------------------------

_EXPR_TOKEN = re.compile(
    r"\s*(?:(\d+\.\d*|\.\d+|\d+)|([A-Za-z_][A-Za-z_0-9]*)|([()+\-*/^,])|$)")

# numpy scalars follow IEEE rules: a pole gives inf and sqrt of a negative
# NaN, non-finite samples that the samplers drop, instead of an exception
_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "sqrt": np.sqrt}
# ``^`` is numpy's scalar power, libm ``pow``, applied to each sample.  On
# arrays ``**`` squares as x * x and uses a vectorized pow otherwise, which
# round other last bits, so a sample would differ alone and in a grid.
_power = np.frompyfunc(lambda a, b: np.float64(a) ** np.float64(b), 2, 1)
_CONSTANTS = {"pi": np.float64(np.pi)}


class ExprError(ValueError):
    pass


def _tokenize_expr(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _EXPR_TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise ExprError(f"bad character near {text[pos:]!r}")
        tok = m.group(0).strip()
        if tok:
            tokens.append(tok)
        pos = m.end()
    return tokens


class _Expr:
    """Pratt parser for +, -, *, /, ^ with sin, cos, sqrt over (u, v)."""

    def __init__(self, text):
        self.toks = _tokenize_expr(text)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse(self):
        node = self.expr()
        if self.peek() is not None:
            raise ExprError(f"unexpected token {self.peek()!r}")
        return node

    def expr(self):
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            node = (lambda a, b: (lambda u, v: a(u, v) + b(u, v)))(node, rhs) \
                if op == "+" else (lambda a, b: (lambda u, v: a(u, v) - b(u, v)))(node, rhs)
        return node

    def term(self):
        node = self.unary()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.unary()
            node = (lambda a, b: (lambda u, v: a(u, v) * b(u, v)))(node, rhs) \
                if op == "*" else (lambda a, b: (lambda u, v: a(u, v) / b(u, v)))(node, rhs)
        return node

    def unary(self):
        if self.peek() == "-":
            self.take()
            inner = self.unary()
            return lambda u, v: -inner(u, v)
        if self.peek() == "+":
            self.take()
            return self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() == "^":
            self.take()
            exp = self.unary()  # right associative
            return lambda u, v: _power(base(u, v), exp(u, v)).astype(float)
        return base

    def atom(self):
        tok = self.take()
        if tok is None:
            raise ExprError("unexpected end of expression")
        if tok == "(":
            node = self.expr()
            if self.take() != ")":
                raise ExprError("missing closing parenthesis")
            return node
        if re.fullmatch(r"\d+\.\d*|\.\d+|\d+", tok):
            val = np.float64(tok)
            return lambda u, v: val
        if tok in _FUNCTIONS:
            if self.take() != "(":
                raise ExprError(f"{tok} needs parentheses")
            arg = self.expr()
            if self.take() != ")":
                raise ExprError("missing closing parenthesis")
            fn = _FUNCTIONS[tok]
            return lambda u, v: fn(arg(u, v))
        if tok in _CONSTANTS:
            val = _CONSTANTS[tok]
            return lambda u, v: val
        if tok == "u":
            return lambda u, v: u
        if tok == "v":
            return lambda u, v: v
        raise ExprError(f"unknown identifier {tok!r}")


def parse_expr(text):
    return _Expr(text).parse()


def eval_const(text) -> float:
    return parse_expr(text)(0.0, 0.0)


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
                raise ExprError(f"{path}:{lineno}: expected key = value inside a section")
            key, value = line.split("=", 1)
            sections[current][key.strip().lower()] = value.strip()
    if "surface" not in sections:
        raise ExprError(f"{path}: missing [surface] section")
    return sections


def _config_domain(sections) -> Domain:
    dom = {"umin": "0", "umax": "1", "vmin": "0", "vmax": "1", **sections.get("domain", {})}
    # a bound like 1/0 is an input error, reported below, not a warning
    with np.errstate(all="ignore"):
        bounds = {key: eval_const(dom[key]) for key in ("umin", "umax", "vmin", "vmax")}
    for key, value in bounds.items():
        if not np.isfinite(value):
            raise ExprError(f"domain bound {key} = {dom[key]!r} is not finite")
    return Domain(**bounds)


def _surface_value(sections, key) -> str:
    """Text of one [surface] key; a missing key is an input error."""
    surf = sections["surface"]
    if key not in surf:
        raise ExprError(f"missing chart expression {key!r}")
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
        cx = [parse_expr(_surface_value(sections, k)) for k in ("cx", "cy", "cz")]
        ex = [parse_expr(_surface_value(sections, k)) for k in ("ex", "ey", "ez")]
        ruled = ruledpedal.RuledChart(
            lambda u: vector_rows(u, *(f(u, 0.0) for f in cx)),
            lambda u: vector_rows(u, *(f(u, 0.0) for f in ex)),
            domain=domain,
        )
        return kind, PointSurface(Chart(ruled.point, domain=domain))
    if kind == "quadric":
        space = Space.POINT if sections["surface"].get("space", "dual") == "point" else Space.DUAL
        rows = [r.strip() for r in _surface_value(sections, "matrix").split(";")]
        A = [[Fraction(x) for x in row.split()] for row in rows]
        return kind, quadricpedal.QuadricForm(space, A)
    raise ExprError(f"unknown surface kind {kind!r}")


# -- map subcommand --------------------------------------------------------------


def _parse_tuple(text, n):
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != n:
        raise ExprError(f"expected {n} comma-separated numbers, got {len(parts)}")
    return np.array([float(Fraction(p.strip())) for p in parts])


def _format_tuple(values):
    return ",".join(f"{(x if x != 0 else 0.0):.12g}" for x in values)


def cmd_map(args) -> int:
    if args.op in ("alpha", "pi") or (args.op == "alpha-z"):
        if args.plane is None:
            raise ExprError(f"--op {args.op} needs --plane")
    if args.op in ("alpha-star", "sigma", "pi-star") and args.point is None:
        raise ExprError(f"--op {args.op} needs --point")
    try:
        if args.op == "alpha":
            out = projmaps.alpha_hom(HPlane(_parse_tuple(args.plane, 4)))
        elif args.op == "alpha-star":
            out = projmaps.alpha_star_hom(HPoint(_parse_tuple(args.point, 4)))
        elif args.op == "sigma":
            out = projmaps.inversion_sigma(HPoint(_parse_tuple(args.point, 4)))
        elif args.op == "pi":
            out = projmaps.polarity_pi(HPlane(_parse_tuple(args.plane, 4)))
        elif args.op == "pi-star":
            out = projmaps.polarity_pi_star(HPoint(_parse_tuple(args.point, 4)))
        elif args.op == "alpha-z":
            hp = HPlane(_parse_tuple(args.plane, 4)).to_affine()
            z = _parse_tuple(args.z, 3) if args.z else np.zeros(3)
            foot = projmaps.alpha_z(hp, z)
            print(_format_tuple(foot))
            return EXIT_OK
        else:  # pragma: no cover - argparse restricts choices
            raise ExprError(f"unknown op {args.op}")
    except GeometryError as exc:
        print(f"exceptional: {exc}", file=sys.stderr)
        return EXIT_EXCEPTIONAL
    if args.dehomogenize:
        if isinstance(out, HPoint):
            try:
                aff = out.dehomogenize()
            except GeometryError as exc:
                print(f"exceptional: {exc}", file=sys.stderr)
                return EXIT_EXCEPTIONAL
            print(_format_tuple(np.concatenate(([1.0], aff))))
            return EXIT_OK
        raise ExprError("--dehomogenize applies to point results")
    print(_format_tuple(out.canonical()))
    return EXIT_OK


# -- implicit subcommand -----------------------------------------------------------


def cmd_implicit(args) -> int:
    if args.surface:
        kind, surf = load_surface(parse_config(args.surface))
        if kind != "quadric":
            raise ExprError("only quadric configs provide an input polynomial")
        poly = surf.as_poly()
    else:
        if args.poly:
            text = args.poly
        elif args.infile:
            with open(args.infile, encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = sys.stdin.read()
        try:
            poly = parse_poly(text)
        except ValueError as exc:
            raise ExprError(str(exc))
    if args.direction == "pedal":
        if poly.space is not Space.DUAL:
            raise ExprError("pedal pullbacks start from a dual polynomial (u0..u3)")
        image = hompoly.pedal_pullback(poly)
    else:
        if poly.space is not Space.POINT:
            raise ExprError("inverse-pedal pullbacks start from a point polynomial (x0..x3)")
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
        raise ExprError("--grid must look like 60x60")
    nu, nv = int(m.group(1)), int(m.group(2))
    if nu < 2 or nv < 2:
        raise ExprError("grid needs at least 2 samples per direction")
    construct, colon, dtxt = args.construct.partition(":")
    if construct not in surfkit.CONSTRUCTS:
        raise ExprError(f"unknown construct {args.construct!r}")
    if colon and construct not in ("offset", "conchoid"):
        raise ExprError(f"construct {construct!r} takes no distance")
    try:
        d = float(Fraction(dtxt)) if colon else 0.0
    except (ZeroDivisionError, OverflowError):
        raise ExprError(f"distance {dtxt!r} is not a finite number")
    if args.surface in gallery.list_entries():
        surface = gallery.get_entry(args.surface).construct(construct, d)
    elif os.path.exists(args.surface):
        kind, surf = load_surface(parse_config(args.surface))
        if kind == "quadric":
            raise ExprError("quadric configs feed the implicit command, not sample")
        surface = surfkit.construct(surf, construct, d)
    else:
        raise ExprError(f"unknown surface {args.surface!r} (gallery name or config path)")
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
    except (ExprError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GeometryError as exc:
        print(f"exceptional: {exc}", file=sys.stderr)
        return EXIT_EXCEPTIONAL


if __name__ == "__main__":
    sys.exit(main())
