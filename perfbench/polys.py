"""The benchmark's own exact polynomial code.

Polynomials are dicts {(e0, e1, e2, e3): Fraction}.  This module makes the
algebra inputs and evaluates outputs for the checks; it never calls the
code under test, so a defect there cannot hide itself.
"""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction

DUAL = ("u0", "u1", "u2", "u3")
POINT = ("x0", "x1", "x2", "x3")


def monomials(deg: int):
    return [(a, b, c, deg - a - b - c)
            for a in range(deg + 1) for b in range(deg + 1 - a) for c in range(deg + 1 - a - b)]


def random_poly(rng: random.Random, deg: int) -> dict:
    """Dense homogeneous polynomial with small random rational coefficients."""
    poly = {}
    for m in monomials(deg):
        num = rng.choice([-1, 1]) * rng.randint(1, 9)
        poly[m] = Fraction(num, rng.choice((1, 1, 1, 2, 3)))
    return poly


def to_text(poly: dict, names, rng: random.Random) -> str:
    """Input text in shuffled term order with implicit exponents of one."""
    terms = list(poly.items())
    rng.shuffle(terms)
    parts = []
    for exps, c in terms:
        factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e]
        coeff = str(abs(c))
        body = "*".join(factors) if abs(c) == 1 and factors else "*".join([coeff] + factors)
        parts.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def quadform_power(k: int) -> dict:
    """(v1^2 + v2^2 + v3^2)^k as exponent tuples over the last three variables."""
    out = {}
    for i in range(k + 1):
        for j in range(k + 1 - i):
            l = k - i - j
            coeff = math.factorial(k) // (math.factorial(i) * math.factorial(j) * math.factorial(l))
            out[(0, 2 * i, 2 * j, 2 * l)] = Fraction(coeff)
    return out


def pullback(poly: dict) -> dict:
    """f(-(w.w), w0*w1, w0*w2, w0*w3) expanded; the map is the same in both spaces."""
    out = {}
    for (e0, e1, e2, e3), c in poly.items():
        sign = -1 if e0 % 2 else 1
        lift = e1 + e2 + e3
        for (_, q1, q2, q3), qc in quadform_power(e0).items():
            key = (lift, e1 + q1, e2 + q2, e3 + q3)
            out[key] = out.get(key, 0) + sign * c * qc
    return {k: v for k, v in out.items() if v}


def evaluate(poly: dict, point) -> Fraction:
    """Exact value at a 4-tuple of Fractions."""
    pt = [Fraction(p) for p in point]
    top = max((max(e) for e in poly), default=0)
    powers = [[Fraction(1)] for _ in range(4)]
    for i in range(4):
        for _ in range(top):
            powers[i].append(powers[i][-1] * pt[i])
    total = Fraction(0)
    for (e0, e1, e2, e3), c in poly.items():
        total += c * powers[0][e0] * powers[1][e1] * powers[2][e2] * powers[3][e3]
    return total


def float_residuals(poly: dict, tuples) -> list[float]:
    """Normalized residuals |P(T)| / (|coeffs|_1 * |T|_inf^deg) of float 4-tuples."""
    norm = float(sum(abs(c) for c in poly.values()))
    deg = sum(next(iter(poly)))
    out = []
    for t in tuples:
        val = sum(float(c) * t[0] ** e0 * t[1] ** e1 * t[2] ** e2 * t[3] ** e3
                  for (e0, e1, e2, e3), c in poly.items())
        out.append(abs(val) / (norm * max(abs(x) for x in t) ** deg))
    return out


def format_canonical(poly: dict, like: str) -> str:
    """Canonical printed form (graded-lex descending, explicit exponents).

    ``like`` is any text of the same space; its first variable letter picks
    the variable names.
    """
    if not poly:
        return "0"
    names = POINT if re.search(r"x[0-3]", like) else DUAL
    out = []
    for exps in sorted(poly, key=lambda e: (sum(e), e), reverse=True):
        c = poly[exps]
        mono = "*".join(f"{names[i]}^{e}" for i, e in enumerate(exps) if e)
        mag = abs(c)
        body = str(mag) if not mono else mono if mag == 1 else f"{mag}*{mono}"
        sign = "-" if c < 0 else "+"
        out.append(("-" if sign == "-" else "") + body if not out else f"{sign} {body}")
    return " ".join(out)


_TERM = re.compile(r"(?:(\d+)(?:/(\d+))?)?((?:\*?[xu][0-3]\^\d+)*)")


def parse_canonical(text: str) -> dict:
    """Parse the canonical printed form ``a/b*v0^i*v1^j + ...`` strictly."""
    text = text.strip()
    if text == "0":
        return {}
    poly = {}
    tokens = text.split(" ")
    signs = ["-" if tokens[0].startswith("-") else "+"] + tokens[1::2]
    bodies = [tokens[0].lstrip("-")] + tokens[2::2]
    if len(signs) != len(bodies) or any(s not in "+-" for s in signs):
        raise ValueError("malformed term separators")
    for sign, body in zip(signs, bodies):
        m = _TERM.fullmatch(body)
        if not m or (m.group(1) is None and not m.group(3)):
            raise ValueError(f"malformed term {body!r}")
        coeff = Fraction(int(m.group(1)), int(m.group(2) or 1)) if m.group(1) else Fraction(1)
        if m.group(1) and m.group(3) and not m.group(3).startswith("*"):
            raise ValueError(f"malformed term {body!r}")
        exps = [0, 0, 0, 0]
        for var in m.group(3).lstrip("*").split("*") if m.group(3) else ():
            name, power = var.split("^")
            exps[int(name[1])] = int(power)
        key = tuple(exps)
        if key in poly:
            raise ValueError(f"repeated monomial {body!r}")
        poly[key] = -coeff if sign == "-" else coeff
    return poly
