"""Seeded op lists of the three workloads.

Every seed gives the same op structure (the same CLI commands, grid sizes,
polynomial degrees and sparsity patterns) in a seeded order, with seeded
distances, domains, coefficients and verification seeds.  Costs therefore
stay comparable across seeds while the inputs change.
"""

from __future__ import annotations

import random
from fractions import Fraction

from polys import DUAL, POINT, pullback, quadform_power, random_poly, to_text

NOOP = ["map", "--op", "alpha", "--plane", "-1,0,0,1"]
NOOP_OUTPUT = "1,0,0,1"


def verify_ops(rng: random.Random):
    return [{"kind": "verify", "seed": rng.randrange(1, 10**6)}]


def _distance(rng, lo, hi, den=20):
    """Seeded rational distance p/den in [lo, hi]."""
    return Fraction(rng.randint(round(lo * den), round(hi * den)), den)


# (surface, construct, grid, check): check names the gallery's implicit point
# equation that the mesh vertices must satisfy, or is None when the gallery
# gives none for that construct (those ops get only the count and
# finiteness checks).  The config surface is checked as plane-conchoid.
_MESH_TEMPLATE = (
    # envelope constructs
    ("paraboloid-offset", "self", 200, "point_poly"),
    ("sphere-offset", "offset", 200, None),
    ("sphere-inverse-pedal", "inverse-pedal", 200, "inverse_pedal_implicit"),
    # direct constructs
    ("plane-conchoid", "conchoid", 200, "point_family"),
    ("pluecker", "pedal", 200, "point_poly"),
    ("parabola-cyclide", "conchoid", 200, "point_family"),
    # the CLI's expression charts: a polar config of the plane z=1
    ("config", "conchoid", 200, "point_family"),
    # small grids, where start-up cost shows
    ("pluecker", "conchoid", 60, "point_family"),
    ("paraboloid-offset", "offset", 60, None),
    ("sphere-offset", "conchoid", 60, "point_family"),
    ("parabola-cyclide", "pedal", 60, "point_poly"),
)


def mesh_ops(rng: random.Random):
    ops = []
    for surface, construct, grid, check in _MESH_TEMPLATE:
        op = {"kind": "mesh", "surface": surface, "construct": construct,
              "grid": grid, "check": check, "d": None}
        if construct in ("offset", "conchoid"):
            op["d"] = str(_distance(rng, 0.1, 1.0))
        if surface == "config":
            op["domain"] = [str(_distance(rng, 0.0, 0.5)), str(_distance(rng, 5.5, 6.25)),
                            str(_distance(rng, 0.25, 0.45)), str(_distance(rng, 1.1, 1.3))]
        ops.append(op)
    rng.shuffle(ops)
    return ops


def config_text(op) -> str:
    umin, umax, vmin, vmax = op["domain"]
    return (
        "[surface]\nkind = polar\nsx = cos(u)*cos(v)\nsy = cos(v)*sin(u)\n"
        "sz = sin(v)\nr = 1/sin(v)\n"
        f"[domain]\numin = {umin}\numax = {umax}\nvmin = {vmin}\nvmax = {vmax}\n"
    )


def mesh_argv(op, surface_arg: str, out: str):
    construct = op["construct"] + (f":{op['d']}" if op["d"] is not None else "")
    grid = f"{op['grid']}x{op['grid']}"
    return ["sample", "--surface", surface_arg, "--construct", construct,
            "--grid", grid, "--out", out]


# (kind, degree, planted (a, b) or None).  Inputs are dense except for the
# planted ones, u0^a * (u1^2+u2^2+u3^2)^b * g with dense g, which are sparse
# with a fixed pattern; the seed changes only coefficients, so op costs
# barely move between seeds.  Costs at the seed commit fall into 7 ops below
# 0.12 s, one op near 0.17 s (offset 5) and 7 ops above 0.3 s: with an odd
# count and wide gaps, the median op time always comes from the same op.
_ALGEBRA_TEMPLATE = (
    ("pedal", 4, None),
    ("pedal", 4, (1, 1)),
    ("pedal", 6, None),
    ("pedal", 6, (2, 1)),
    ("pedal", 8, None),
    ("pedal", 8, (1, 2)),
    ("pedal", 10, None),
    ("pedal", 10, (1, 1)),
    ("inverse", 4, None),
    ("inverse", 5, None),
    ("inverse", 6, None),
    ("offset", 4, None),
    ("offset", 5, None),
    ("offset", 6, None),
    ("offset", 7, (1, 1)),
)


def _planted(rng, deg, a, b):
    """u0^a * (u1^2+u2^2+u3^2)^b * g, as factored text and as expanded terms."""
    g = random_poly(rng, deg - a - 2 * b)
    text = f"u0^{a}*(u1^2 + u2^2 + u3^2)^{b}*({to_text(g, DUAL, rng)})"
    expanded = {}
    for (e0, e1, e2, e3), c in g.items():
        for (_, q1, q2, q3), qc in quadform_power(b).items():
            key = (e0 + a, e1 + q1, e2 + q2, e3 + q3)
            expanded[key] = expanded.get(key, 0) + c * qc
    return text, {k: v for k, v in expanded.items() if v}


def algebra_ops(rng: random.Random):
    ops = []
    for kind, deg, planted in _ALGEBRA_TEMPLATE:
        op = {"kind": kind, "degree": deg, "planted": planted}
        if planted is not None:
            op["text"], f = _planted(rng, deg, *planted)
        else:
            f = random_poly(rng, deg)
            op["text"] = to_text(f, DUAL, rng)
        if kind == "inverse":
            # a large point polynomial: the pedal image of a random dual surface
            f = pullback(f)
            op["text"] = to_text(f, POINT, rng)
        if kind == "offset":
            # a fixed denominator keeps the size of the exact arithmetic fixed
            op["d"] = str(Fraction(rng.randint(1, 6), 7))
        op["input"] = f
        ops.append(op)
    rng.shuffle(ops)
    return ops
