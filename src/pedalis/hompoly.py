"""Exact-rational homogeneous polynomials in four variables.

Polynomials live either in point space (variables x0..x3) or in dual space
(variables u0..u3).  Coefficients are arbitrary-precision rationals so the
pullback factorizations and degree bookkeeping of the foot-point map can be
verified exactly; only chart residual checks use floating point.

The pedal pullback substitutes

    u0 <- -(x1^2+x2^2+x3^2),   ui <- x0*xi          (dual -> point),

the inverse pedal pullback the symmetric substitution point -> dual.  The
images pick up exceptional factors var0^r and (quadform)^k which
``strip_exceptional`` removes; for an irreducible dual surface of degree n
the stripped pedal image has degree 2n - r - 2k.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import NotDivisible, SpaceMismatch
from .projmaps import HPlane, HPoint

Exponents = tuple[int, int, int, int]


class Space(enum.Enum):
    POINT = ("x0", "x1", "x2", "x3")
    DUAL = ("u0", "u1", "u2", "u3")

    @property
    def variables(self) -> tuple[str, ...]:
        return self.value

    @property
    def other(self) -> "Space":
        return Space.DUAL if self is Space.POINT else Space.POINT


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, float):
        return Fraction(c)  # exact binary value of the float
    if isinstance(c, str):
        return Fraction(c)
    raise TypeError(f"cannot use {type(c).__name__} as an exact coefficient")


# -- term-dict arithmetic -------------------------------------------------
# Exact arithmetic runs on plain {exponents: Fraction} dicts; a HomPoly4 is
# built, and validated, once per result.

_CONST: Exponents = (0, 0, 0, 0)


def _add_terms(acc: dict, terms: dict, scale=1) -> dict:
    """acc += scale * terms in place, dropping cancelled terms; returns acc."""
    for e, c in terms.items():
        v = acc.get(e, 0) + c * scale
        if v:
            acc[e] = v
        else:
            acc.pop(e, None)
    return acc


def _mul_terms(a: dict, b: dict) -> dict:
    """Product of two term dicts."""
    out: dict[Exponents, Fraction] = {}
    for (a0, a1, a2, a3), ca in a.items():
        for (b0, b1, b2, b3), cb in b.items():
            e = (a0 + b0, a1 + b1, a2 + b2, a3 + b3)
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _square_terms(a: dict) -> dict:
    """a*a, equal to _mul_terms(a, a) in value and term order.

    Each product of two distinct terms is computed once and doubled; the
    pairs run in the order in which _mul_terms first meets them.  The
    products are integers over the common denominator of the coefficients.
    """
    den = math.lcm(*(c.denominator for c in a.values()))
    items = [(e, c.numerator * (den // c.denominator)) for e, c in a.items()]
    out: dict[Exponents, int] = {}
    for i, ((a0, a1, a2, a3), ca) in enumerate(items):
        e = (2 * a0, 2 * a1, 2 * a2, 2 * a3)
        out[e] = out.get(e, 0) + ca * ca
        twice = 2 * ca
        for (b0, b1, b2, b3), cb in items[i + 1:]:
            e = (a0 + b0, a1 + b1, a2 + b2, a3 + b3)
            out[e] = out.get(e, 0) + twice * cb
    den *= den
    return {e: Fraction(c, den) for e, c in out.items() if c}


def _pow_terms(a: dict, n: int) -> dict:
    """a**n by repeated squaring."""
    result = {_CONST: Fraction(1)}
    while n:
        if n & 1:
            result = _mul_terms(a, result)
        n >>= 1
        if n:
            a = _square_terms(a)
    return result


class HomPoly4:
    """Homogeneous polynomial in 4 variables with exact coefficients."""

    __slots__ = ("space", "terms", "degree")

    def __init__(self, space: Space, terms):
        clean: dict[Exponents, Fraction] = {}
        degree = None
        for exps, coeff in dict(terms).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != 4 or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent tuple {exps!r}")
            coeff = _as_fraction(coeff)
            if coeff == 0:
                continue
            d = sum(exps)
            if degree is None:
                degree = d
            elif d != degree:
                raise ValueError("terms of different total degree")
            clean[exps] = coeff
        self.space = space
        self.terms = clean
        # degree of the zero polynomial is -1 by convention
        self.degree = -1 if degree is None else degree

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, space: Space) -> "HomPoly4":
        return cls(space, {})

    @classmethod
    def variable(cls, space: Space, index: int) -> "HomPoly4":
        exps = [0, 0, 0, 0]
        exps[index] = 1
        return cls(space, {tuple(exps): 1})

    @classmethod
    def quadform(cls, space: Space) -> "HomPoly4":
        """The exceptional quadric x1^2+x2^2+x3^2 (resp. u1^2+u2^2+u3^2)."""
        return cls(
            space,
            {(0, 2, 0, 0): 1, (0, 0, 2, 0): 1, (0, 0, 0, 2): 1},
        )

    # -- ring operations ----------------------------------------------

    def _check_space(self, other: "HomPoly4"):
        if self.space is not other.space:
            raise SpaceMismatch("operands live in different spaces")

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "HomPoly4") -> "HomPoly4":
        self._check_space(other)
        return HomPoly4(self.space, _add_terms(dict(self.terms), other.terms))

    def __sub__(self, other: "HomPoly4") -> "HomPoly4":
        self._check_space(other)
        return HomPoly4(self.space, _add_terms(dict(self.terms), other.terms, -1))

    def __neg__(self) -> "HomPoly4":
        return HomPoly4(self.space, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, HomPoly4):
            self._check_space(other)
            return HomPoly4(self.space, _mul_terms(self.terms, other.terms))
        c = _as_fraction(other)
        return HomPoly4(self.space, {e: c * v for e, v in self.terms.items()})

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "HomPoly4":
        if n < 0:
            raise ValueError("negative power")
        return HomPoly4(self.space, _pow_terms(self.terms, n))

    def __eq__(self, other) -> bool:
        if not isinstance(other, HomPoly4):
            return NotImplemented
        return self.space is other.space and self.terms == other.terms

    def __hash__(self):
        raise TypeError("HomPoly4 is unhashable")

    def equals_up_to_scale(self, other: "HomPoly4") -> bool:
        """Exact equality up to one nonzero rational factor."""
        if self.space is not other.space:
            return False
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        lead = self.leading_monomial()
        if lead not in other.terms:
            return False
        lam = other.terms[lead] / self.terms[lead]
        return other == self * lam

    def leading_monomial(self) -> Exponents:
        """Largest exponent tuple in graded-lexicographic order."""
        if self.is_zero():
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=lambda e: (sum(e), e))

    # -- evaluation ----------------------------------------------------

    def eval(self, point) -> float | Fraction:
        """Evaluate at a 4-tuple; exact when all components are rational.

        HPoint/HPlane arguments are checked against the space tag.
        """
        if isinstance(point, HPoint):
            if self.space is not Space.POINT:
                raise SpaceMismatch("dual polynomial evaluated at a point")
            coords = point.coords
        elif isinstance(point, HPlane):
            if self.space is not Space.DUAL:
                raise SpaceMismatch("point polynomial evaluated at a plane")
            coords = point.coords
        else:
            coords = tuple(point)
            if len(coords) != 4:
                raise ValueError("evaluation needs a 4-tuple")
            if all(c == 0 for c in coords):
                raise ValueError("cannot evaluate at the zero tuple")
        total = 0
        for (e0, e1, e2, e3), c in self.terms.items():
            total += c * coords[0] ** e0 * coords[1] ** e1 * coords[2] ** e2 * coords[3] ** e3
        return total

    def eval_grid(self, tuples: np.ndarray) -> np.ndarray:
        """Vectorized float evaluation at an (N, 4) array of tuples."""
        T = np.asarray(tuples, dtype=float)
        out = np.zeros(T.shape[0])
        for exps, c in self.terms.items():
            term = np.full(T.shape[0], float(c))
            for i, e in enumerate(exps):
                if e:
                    term = term * T[:, i] ** e
            out += term
        return out

    def coeff_norm(self) -> float:
        """1-norm of the coefficient vector (used for residual scaling)."""
        return float(sum(abs(c) for c in self.terms.values()))

    def coefficient(self, exps: Exponents) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    # -- exact division -------------------------------------------------

    def exact_divide(self, divisor: "HomPoly4") -> "HomPoly4":
        """Exact quotient self / divisor; NotDivisible on any remainder."""
        self._check_space(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        dlead = divisor.leading_monomial()
        dcoeff = divisor.terms[dlead]
        rem = dict(self.terms)
        quot: dict[Exponents, Fraction] = {}
        while rem:
            lead = max(rem, key=lambda e: (sum(e), e))
            q = tuple(a - b for a, b in zip(lead, dlead))
            if any(e < 0 for e in q):
                raise NotDivisible("exact division failed")
            qc = rem[lead] / dcoeff
            quot[q] = quot.get(q, Fraction(0)) + qc
            _add_terms(rem, _mul_terms({q: qc}, divisor.terms), -1)
        return HomPoly4(self.space, quot)


# -- pullbacks ----------------------------------------------------------


def _pullback(poly: HomPoly4, src: Space) -> HomPoly4:
    """Substitute v0 <- -(quadform), vi <- w0*wi into a polynomial."""
    if poly.space is not src:
        raise SpaceMismatch(f"expected a {src.name} polynomial")
    dst = src.other
    q = HomPoly4.quadform(dst).terms
    qpow = [{_CONST: Fraction(1)}]
    terms: dict[Exponents, Fraction] = {}
    for (e0, e1, e2, e3), c in poly.terms.items():
        while len(qpow) <= e0:
            qpow.append(_mul_terms(qpow[-1], q))
        mono = {(e1 + e2 + e3, e1, e2, e3): -c if e0 % 2 else c}
        _add_terms(terms, _mul_terms(mono, qpow[e0]))
    return HomPoly4(dst, terms)


def pedal_pullback(fstar: HomPoly4) -> HomPoly4:
    """Implicit equation of the pedal image of a dual surface (degree 2n)."""
    return _pullback(fstar, Space.DUAL)


def inverse_pedal_pullback(g: HomPoly4) -> HomPoly4:
    """Implicit dual equation of the inverse pedal of a point surface."""
    return _pullback(g, Space.POINT)


@dataclass(frozen=True)
class StripResult:
    """Pullback with the exceptional factors var0^r and quadform^k removed."""

    reduced: HomPoly4
    r: int
    k: int


def strip_exceptional(poly: HomPoly4) -> StripResult:
    """Remove maximal exact powers of the 0-variable and of the quadric.

    ``var0**r * quadform**k * reduced`` reconstructs the input exactly.
    The reduced polynomial is returned unfactored even if it happens to be
    reducible; no factorization beyond the two known factors is attempted.
    """
    if poly.is_zero():
        raise ValueError("cannot strip the zero polynomial")
    r = min(e[0] for e in poly.terms)
    terms = {(e[0] - r, e[1], e[2], e[3]): c for e, c in poly.terms.items()}
    reduced = HomPoly4(poly.space, terms)
    q = HomPoly4.quadform(poly.space)
    k = 0
    while True:
        try:
            reduced = reduced.exact_divide(q)
        except NotDivisible:
            break
        k += 1
    return StripResult(reduced, r, k)


def degree_bookkeeping(fstar: HomPoly4) -> tuple[int, int, int, int]:
    """(n, r, k, deg) of a dual surface and its stripped pedal image.

    Works symmetrically for point polynomials (inverse pedal direction).
    The identity deg == 2n - r - 2k is asserted; a failure is a bug, not a
    geometric degeneracy.
    """
    n = fstar.degree
    stripped = strip_exceptional(_pullback(fstar, fstar.space))
    deg = stripped.reduced.degree
    assert deg == 2 * n - stripped.r - 2 * stripped.k, "degree rule violated"
    return n, stripped.r, stripped.k, deg


def offset_dual_poly(fstar: HomPoly4, d) -> HomPoly4:
    """Implicit equation of the two-sided offset family of a dual surface.

    A tangent plane of the distance-d offset comes from a tangent plane of
    the base surface by u0 -> u0 -/+ d*sqrt(u.u); the product over both
    signs is polynomial because odd powers of the square root cancel.  The
    result has degree 2n and, for reducible offsets, factors into the two
    one-sided branches.
    """
    if fstar.space is not Space.DUAL:
        raise SpaceMismatch("offset families are built from dual polynomials")
    d = _as_fraction(d)
    # t = d*sqrt(q) with t^2 = d^2*q; expand fstar(u0 + t, u) = even + t*odd
    t2 = {e: d * d * c for e, c in HomPoly4.quadform(Space.DUAL).terms.items()}
    t2pow = [{_CONST: Fraction(1)}]
    even: dict[Exponents, Fraction] = {}
    odd: dict[Exponents, Fraction] = {}
    for (e0, e1, e2, e3), c in fstar.terms.items():
        for k in range(e0 + 1):
            while len(t2pow) <= k // 2:
                t2pow.append(_mul_terms(t2pow[-1], t2))
            mono = {(e0 - k, e1, e2, e3): c * math.comb(e0, k)}
            _add_terms(odd if k % 2 else even, _mul_terms(mono, t2pow[k // 2]))
    # (even + t*odd) * (even - t*odd) = even^2 - t^2*odd^2
    terms = _square_terms(even)
    _add_terms(terms, _mul_terms(t2, _square_terms(odd)), -1)
    return HomPoly4(Space.DUAL, terms)


# -- canonical text form --------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([xu][0-3])|([()+\-*/^])|$)")


def format_poly(poly: HomPoly4) -> str:
    """Canonical text form: graded-lex descending, explicit exponents."""
    if poly.is_zero():
        return "0"
    names = poly.space.variables
    parts = []
    for exps in sorted(poly.terms, key=lambda e: (sum(e), e), reverse=True):
        c = poly.terms[exps]
        mono = "*".join(f"{names[i]}^{e}" for i, e in enumerate(exps) if e)
        mag = abs(c)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        parts.append(("-" if c < 0 else "+", body))
    sign, body = parts[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


class _PolyParser:
    """Recursive-descent parser for the polynomial text grammar.

    Accepts +, -, *, ^ with parentheses, integer and p/q constants and the
    variables x0..x3 or u0..u3 (not mixed).  Values are term dicts;
    division is only allowed by nonzero constants.
    """

    def __init__(self, text: str):
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m or m.end() == pos:
                raise ValueError(f"bad character in polynomial at {text[pos:]!r}")
            if m.group(0).strip():
                self.tokens.append(m.group(0).strip())
            pos = m.end()
        self.pos = 0
        self.space: Space | None = None

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse(self, space: Space | None):
        self.space = space
        poly = self.expr()
        if self.peek() is not None:
            raise ValueError(f"unexpected token {self.peek()!r}")
        return poly, self.space

    def expr(self):
        terms: dict[Exponents, Fraction] = {}
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.take() == "-" else 1
        while True:
            _add_terms(terms, self.term(), sign)
            if self.peek() not in ("+", "-"):
                return terms
            sign = -1 if self.take() == "-" else 1

    def term(self):
        value = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.factor()
            if op == "*":
                value = _mul_terms(value, rhs)
                continue
            if any(e != _CONST for e in rhs):
                raise ValueError("division by a non-constant polynomial")
            c = rhs.get(_CONST)
            if not c:
                raise ValueError("division by zero")
            value = {e: v / c for e, v in value.items()}
        return value

    def factor(self):
        if self.peek() == "-":
            self.take()
            return _add_terms({}, self.factor(), -1)
        base = self.atom()
        if self.peek() == "^":
            self.take()
            tok = self.take()
            if tok is None or not tok.isdigit():
                raise ValueError("exponent must be a nonnegative integer")
            base = _pow_terms(base, int(tok))
        return base

    def atom(self):
        tok = self.take()
        if tok is None:
            raise ValueError("unexpected end of polynomial")
        if tok == "(":
            value = self.expr()
            if self.take() != ")":
                raise ValueError("missing closing parenthesis")
            return value
        if tok.isdigit():
            return {_CONST: Fraction(int(tok))}
        if len(tok) == 2 and tok[0] in "xu" and tok[1] in "0123":
            sp = Space.POINT if tok[0] == "x" else Space.DUAL
            if self.space is None:
                self.space = sp
            elif self.space is not sp:
                raise ValueError("mixed point and dual variables")
            return HomPoly4.variable(sp, int(tok[1])).terms
        raise ValueError(f"unexpected token {tok!r}")


def parse_poly(text: str, space: Space | None = None) -> HomPoly4:
    """Parse polynomial text; the variables used determine the space.

    Raises ValueError for malformed input, for division by anything but a
    nonzero constant, and for a result that is not homogeneous.
    """
    terms, seen = _PolyParser(text).parse(space)
    if seen is None:
        raise ValueError("constant polynomial needs an explicit space")
    return HomPoly4(seen, terms)  # checks homogeneity of the result
