"""Output checks that do not trust the code under test.

Each checker returns a list of problems; an empty list means the output
is correct.  ``selftest_*`` feed a checker corrupted copies of a real
output and return {corruption: whether the checker flagged it}.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction

import numpy as np

from polys import evaluate, float_residuals, format_canonical, parse_canonical

# -- verify -------------------------------------------------------------------

_GALLERY = ("parabola-cyclide", "paraboloid-offset", "paraboloid-pedal", "plane-conchoid",
            "pluecker", "quadratic-cylinder", "sphere-bundle", "sphere-inverse-pedal",
            "sphere-offset")
# check name -> (reported metric, bound); bounds are the documented tolerances
VERIFY_CHECKS = {
    **{name: ("max_dev", 1e-9) for name in (
        "alpha_roundtrip", "alpha_star_roundtrip", "sigma_involution", "pi_identity",
        "alpha_factorization", "alpha_star_factorization")},
    **{f"diagram_{name}": ("max_dev", 1e-9)
       for name in ("plane-conchoid", "sphere-offset", "paraboloid-offset")},
    **{f"residual_{name}": ("max_residual", 1e-8) for name in _GALLERY},
    **{f"pullback_{name}": ("exact", None) for name in _GALLERY},
    **{f"degrees_{name}": ("deg", None) for name in _GALLERY},
    "envelope_paraboloid": ("max_residual", 1e-8),
    "envelope_quadratic_cylinder": ("max_dev", 1e-7),
    "focal_factorization": ("exact", None),
    "dupin_condition": ("exact", None),
    "sphere_classification": ("exact", None),
    "pentaspherical_lift": ("max_dev", 1e-9),
    "ratnorm_ruled": ("max_dev", 1e-9),
    "ratnorm_pluecker": ("max_dev", 1e-10),
    "bisector_plane": ("max_dev", 1e-7),
}
assert len(VERIFY_CHECKS) == 45

_KV = re.compile(r"([A-Za-z0-9_\-]+)\.([a-z_]+)=(\S+)")


def check_verify(returncode: int, stdout: str, seed: int) -> list[str]:
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    lines = stdout.strip().splitlines()
    final = f"suite=all seed={seed} pass=true"
    if not lines or lines[-1] != final:
        problems.append(f"last line is not {final!r}")
    values: dict[str, dict[str, str]] = {}
    passes: dict[str, int] = {}
    for line in lines[:-1]:
        m = _KV.fullmatch(line)
        if not m:
            problems.append(f"unexpected line {line!r}")
            continue
        name, key, val = m.groups()
        if key == "pass":
            passes[name] = passes.get(name, 0) + 1
            if val != "true":
                problems.append(f"{name}.pass={val}")
        values.setdefault(name, {})[key] = val
    if set(passes) != set(VERIFY_CHECKS) or any(n != 1 for n in passes.values()):
        missing = sorted(set(VERIFY_CHECKS) - set(passes))
        extra = sorted(set(passes) - set(VERIFY_CHECKS))
        problems.append(f"pass lines: missing {missing}, unexpected {extra}, "
                        f"{sum(passes.values())} in total")
    for name, (key, bound) in VERIFY_CHECKS.items():
        got = values.get(name, {})
        try:
            if key == "exact":
                ok = float(got["exact"]) == 1.0
            elif key == "deg":
                n, r, k, deg = (int(got[x]) for x in ("n", "r", "k", "deg"))
                ok = deg == 2 * n - r - 2 * k and deg > 0
            else:
                ok = float(got[key]) < bound
        except (KeyError, ValueError):
            ok = False
        if not ok:
            problems.append(f"{name}: {got or 'no values'} fails {key} < {bound}")
    return problems


def selftest_verify(stdout: str, seed: int) -> dict[str, bool]:
    lines = stdout.strip().splitlines()
    flipped = [ln.replace("pass=true", "pass=false") if ln.startswith("dupin_condition.pass")
               else ln for ln in lines]
    dropped = [ln for ln in lines if not ln.startswith("ratnorm_pluecker.")]
    cases = {"pass=false line": flipped, "missing check": dropped}
    return {label: bool(check_verify(0, "\n".join(case) + "\n", seed))
            for label, case in cases.items()}


# -- mesh ---------------------------------------------------------------------

_SUMMARY = re.compile(r"vertices=(\d+) faces=(\d+) out=(.+)")
# seeded vertices per OBJ whose residual against the point equation is checked
RESIDUAL_SAMPLES = 256


def check_obj(returncode: int, stdout: str, obj_text: str, out_path: str, grid: int,
              poly: dict | None, rng: random.Random):
    """(problems, vertex count) of one ``pedalis sample`` run."""
    if returncode != 0:
        return [f"exit code {returncode}"], 0
    lines = stdout.strip().splitlines()
    m = _SUMMARY.fullmatch(lines[-1]) if lines else None
    if not m or m.group(3) != out_path:
        return [f"bad summary line {lines[-1:]!r}"], 0
    n_vert, n_face = int(m.group(1)), int(m.group(2))
    v_rows, f_rows, other = [], [], 0
    for line in obj_text.splitlines():
        if line.startswith("v "):
            v_rows.append(line[2:])
        elif line.startswith("f "):
            f_rows.append(line[2:])
        else:
            other += 1
    problems = []
    if other:
        problems.append(f"{other} lines that are neither v nor f records")
    if (len(v_rows), len(f_rows)) != (n_vert, n_face):
        problems.append(f"OBJ holds {len(v_rows)} v / {len(f_rows)} f, "
                        f"printed vertices={n_vert} faces={n_face}")
    if not 0 < n_vert <= grid * grid or n_face > 2 * (grid - 1) ** 2:
        problems.append(f"counts {n_vert}/{n_face} impossible on a {grid}x{grid} grid")
    try:
        verts = np.array(" ".join(v_rows).split(), dtype=float).reshape(-1, 3)
        faces = np.array(" ".join(f_rows).split(), dtype=np.int64).reshape(-1, 3)
    except ValueError as exc:
        return problems + [f"unparsable records: {exc}"], 0
    if len(verts) != len(v_rows) or len(faces) != len(f_rows):
        problems.append("records without exactly three fields")
    if not np.all(np.isfinite(verts)):
        problems.append("non-finite vertex")
    if faces.size and (faces.min() < 1 or faces.max() > len(verts)):
        problems.append("face index out of range")
    if poly is not None and not problems:
        picks = rng.sample(range(len(verts)), min(RESIDUAL_SAMPLES, len(verts)))
        tuples = [(1.0, *verts[i]) for i in picks]
        worst = max(float_residuals(poly, tuples))
        if not worst < 1e-8:
            problems.append(f"normalized residual {worst:.3g} >= 1e-8")
    return problems, n_vert


def selftest_obj(returncode, stdout, obj_text, out_path, grid, poly) -> dict[str, bool]:
    lines = obj_text.splitlines()
    last_face = max(i for i, ln in enumerate(lines) if ln.startswith("f "))
    first_vertex = next(i for i, ln in enumerate(lines) if ln.startswith("v "))
    cases = {
        "dropped face": lines[:last_face] + lines[last_face + 1:],
        "NaN vertex": (lines[:first_vertex] + ["v nan 0 0"] + lines[first_vertex + 1:]),
    }
    return {label: bool(check_obj(returncode, stdout, "\n".join(case) + "\n", out_path,
                                  grid, poly, random.Random(0))[0])
            for label, case in cases.items()}


# -- algebra --------------------------------------------------------------------

# outputs up to this size get the parse_poly(format_poly(p)) == p check
ROUNDTRIP_TERMS = 1000
# Pythagorean quadruples a^2 + b^2 + c^2 = n^2: points where |u| is rational
_QUADRUPLES = ((1, 2, 2, 3), (2, 3, 6, 7), (1, 4, 8, 9), (4, 4, 7, 9), (2, 6, 9, 11))


def _terms(raw) -> dict:
    return {tuple(t[:4]): Fraction(t[4], t[5]) for t in raw}


def _rational(rng):
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))


def _substitute(f: dict, w) -> Fraction:
    """f(-(w.w), w0*w1, w0*w2, w0*w3), the pullback substitution."""
    return evaluate(f, (-(w[1] ** 2 + w[2] ** 2 + w[3] ** 2), w[0] * w[1], w[0] * w[2],
                        w[0] * w[3]))


def check_algebra(op, out, rng: random.Random, points: int = 2) -> list[str]:
    """Exact identities between an op's input and its reported outputs."""
    problems = []
    try:
        printed = parse_canonical(out["text"])
    except ValueError as exc:
        return [f"output text: {exc}"]
    result = _terms(out["result"])
    if printed != result:
        problems.append("printed text differs from the result polynomial")
    if len(result) <= ROUNDTRIP_TERMS and _terms(out.get("roundtrip", [])) != result:
        problems.append("parse_poly(format_poly(p)) != p")
    f = op["input"]
    for _ in range(points):
        w = [_rational(rng) for _ in range(4)]
        if op["kind"] == "offset":
            d = Fraction(op["d"])
            a, b, c, n = rng.choice(_QUADRUPLES)
            s = _rational(rng)
            u = (w[0], s * a, s * b, s * c)
            norm = abs(s) * n
            want = (evaluate(f, (u[0] + d * norm, *u[1:]))
                    * evaluate(f, (u[0] - d * norm, *u[1:])))
            if evaluate(result, u) != want:
                problems.append(f"offset family differs from the product of branches at {u}")
            continue
        want = _substitute(f, w)
        if op["kind"] == "inverse":
            if evaluate(result, w) != want:
                problems.append(f"inverse pullback differs from substitution at {w}")
            continue
        image = _terms(out["pullback"])
        if evaluate(image, w) != want:
            problems.append(f"pullback differs from substitution at {w}")
        r, k = out["r"], out["k"]
        q = w[1] ** 2 + w[2] ** 2 + w[3] ** 2
        if w[0] ** r * q ** k * evaluate(result, w) != want:
            problems.append(f"x0^r*Q^k*reduced differs from the pullback at {w}")
    if op["kind"] == "pedal" and op["planted"]:
        a, b = op["planted"]
        if out["r"] < 2 * b or out["k"] < a + b:
            problems.append(f"stripped r={out['r']} k={out['k']} below the planted "
                            f"r>={2 * b} k>={a + b}")
    return problems


def selftest_algebra(op, out) -> dict[str, bool]:
    """A result with one changed coefficient, printed and parsed consistently."""
    result = _terms(out["result"])
    key = next(iter(result))
    result[key] += 1
    raw = [[*e, c.numerator, c.denominator] for e, c in result.items()]
    bad = dict(out, text=format_canonical(result, out["text"]), result=raw, roundtrip=raw)
    return {"changed coefficient": bool(check_algebra(op, bad, random.Random(0)))}
