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
import heapq
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import NotDivisible, SpaceMismatch
# the grammar of polynomial text; parse_poly gives it the _PolyHooks
from .grammar import parse_text as _parse_text

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
    if isinstance(c, (int, float, str)):
        return Fraction(c)  # a float gives its exact binary value
    raise TypeError(f"cannot use {type(c).__name__} as an exact coefficient")


# -- term-dict arithmetic -------------------------------------------------
# Exact arithmetic runs on plain {exponents: coefficient} dicts.  A HomPoly4
# holds integer numerators over one common denominator, so the hot loops
# (powers, pullback, strip, offset family) run on ints from end to end and
# build one HomPoly4 per result: ``HomPoly4._trusted`` takes the numerators
# as they are, because the kernel built them from validated input.

_CONST: Exponents = (0, 0, 0, 0)
# the exceptional quadric v1^2 + v2^2 + v3^2 of either space
_QUADFORM = {(0, 2, 0, 0): 1, (0, 0, 2, 0): 1, (0, 0, 0, 2): 1}
# variable name -> (space, exponents), e.g. "u1" -> (Space.DUAL, (0, 1, 0, 0))
_VARIABLES = {name: (sp, tuple(int(i == k) for i in range(4)))
              for sp in Space for k, name in enumerate(sp.variables)}


def _numerators(terms: dict) -> tuple[dict, int]:
    """(nums, den) with integer nums and terms == nums / den term by term."""
    den = math.lcm(*(c.denominator for c in terms.values()))
    return {e: c.numerator * (den // c.denominator) for e, c in terms.items()}, den


def _add_terms(acc: dict, terms: dict, scale=1, shift: Exponents = _CONST) -> dict:
    """acc += scale * var**shift * terms in place, dropping zeros; returns acc."""
    s0, s1, s2, s3 = shift
    for (a0, a1, a2, a3), c in terms.items():
        e = (s0 + a0, s1 + a1, s2 + a2, s3 + a3)
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
    pairs run in the order in which _mul_terms first meets them.  Callers
    pass integer numerators.
    """
    items = list(a.items())
    out: dict[Exponents, int] = {}
    for i, ((a0, a1, a2, a3), ca) in enumerate(items):
        e = (2 * a0, 2 * a1, 2 * a2, 2 * a3)
        out[e] = out.get(e, 0) + ca * ca
        twice = 2 * ca
        for (b0, b1, b2, b3), cb in items[i + 1:]:
            e = (a0 + b0, a1 + b1, a2 + b2, a3 + b3)
            out[e] = out.get(e, 0) + twice * cb
    return {e: c for e, c in out.items() if c}


def _pow_terms(a: dict, n: int) -> dict:
    """a**n by squaring integer numerators; a monomial keeps its coefficient type."""
    if len(a) == 1:
        ((e, c),) = a.items()
        return {tuple(n * x for x in e): c ** n}
    a, den = _numerators(a)
    den **= n
    result = {_CONST: 1}
    while n:
        if n & 1:
            result = _mul_terms(a, result)
        n >>= 1
        if n:
            a = _square_terms(a)
    return result if den == 1 else {e: Fraction(c, den) for e, c in result.items()}


def _quadform_powers(n: int) -> list[dict]:
    """[quadform**0, ..., quadform**n] as integer term dicts."""
    qpow = [{_CONST: 1}]
    while len(qpow) <= n:
        qpow.append(_mul_terms(qpow[-1], _QUADFORM))
    return qpow


def _divide_terms(dividend: dict, divisor: dict) -> dict:
    """Exact quotient by a divisor with leading coefficient 1; NotDivisible
    on any remainder.  No step divides, so integer operands stay integral.

    The operands are homogeneous, so graded-lex order is lex order, and each
    lead comes off a max-heap of negated exponent tuples.  A popped monomial
    no longer in the remainder (cancelled, or a repeated entry) is skipped.
    """
    l0, l1, l2, l3 = max(divisor)
    rem = dict(dividend)
    heap = [(-e0, -e1, -e2, -e3) for e0, e1, e2, e3 in rem]
    heapq.heapify(heap)
    quot: dict[Exponents, Fraction] = {}
    while rem:
        n0, n1, n2, n3 = heapq.heappop(heap)
        lead = (-n0, -n1, -n2, -n3)
        if lead not in rem:
            continue
        q = q0, q1, q2, q3 = (-n0 - l0, -n1 - l1, -n2 - l2, -n3 - l3)
        if min(q) < 0:
            raise NotDivisible("exact division failed")
        qc = quot[q] = rem[lead]  # leads strictly decrease, so each q comes once
        for (d0, d1, d2, d3), dc in divisor.items():
            e = (q0 + d0, q1 + d1, q2 + d2, q3 + d3)
            old = rem.get(e)
            v = -qc * dc if old is None else old - qc * dc
            if not v:
                del rem[e]
                continue
            if old is None:
                heapq.heappush(heap, (-e[0], -e[1], -e[2], -e[3]))
            rem[e] = v
    return quot


class HomPoly4:
    """Homogeneous polynomial in 4 variables with exact coefficients: the
    integers ``_nums`` over one denominator ``_den > 0``, with no common
    factor, so equal polynomials hold equal numerators and denominators."""

    __slots__ = ("space", "_nums", "_den", "degree")

    def __init__(self, space: Space, terms):
        clean: dict[Exponents, Fraction] = {}
        degree = None
        for exps, coeff in (terms if isinstance(terms, dict) else dict(terms)).items():
            try:
                exps = tuple(map(operator.index, exps))  # no silent truncation
            except TypeError:
                raise ValueError(f"bad exponent tuple {exps!r}") from None
            if len(exps) != 4 or min(exps) < 0:
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
        self._nums, self._den = _numerators(clean)  # reduced, as each Fraction is
        # degree of the zero polynomial is -1 by convention
        self.degree = -1 if degree is None else degree

    @classmethod
    def _trusted(cls, space: Space, nums: dict, den: int) -> "HomPoly4":
        """A kernel result nums / den (ints, no zero terms, one total degree,
        den > 0, as the building code guarantees) with the gcd taken out."""
        g = math.gcd(den, *nums.values())
        if g != 1:
            nums = {e: n // g for e, n in nums.items()}
            den //= g
        poly = object.__new__(cls)
        poly.space = space
        poly._nums, poly._den = nums, den
        poly.degree = sum(next(iter(nums))) if nums else -1
        return poly

    @property
    def terms(self) -> dict:
        """{exponents: Fraction} view of _nums / _den, built on each read."""
        return {e: Fraction(n, self._den) for e, n in self._nums.items()}

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
        return cls(space, _QUADFORM)

    # -- ring operations ----------------------------------------------

    def _check_space(self, other: "HomPoly4"):
        if self.space is not other.space:
            raise SpaceMismatch("operands live in different spaces")

    def is_zero(self) -> bool:
        return not self._nums

    def _add(self, other: "HomPoly4", sign: int) -> "HomPoly4":
        """self + sign * other over the lcm of the two denominators."""
        self._check_space(other)
        if self._nums and other._nums and self.degree != other.degree:
            raise ValueError("terms of different total degree")
        den = math.lcm(self._den, other._den)
        nums = {e: den // self._den * n for e, n in self._nums.items()}
        _add_terms(nums, other._nums, sign * (den // other._den))
        return HomPoly4._trusted(self.space, nums, den)

    def __add__(self, other: "HomPoly4") -> "HomPoly4":
        return self._add(other, 1)

    def __sub__(self, other: "HomPoly4") -> "HomPoly4":
        return self._add(other, -1)

    def __neg__(self) -> "HomPoly4":
        return HomPoly4._trusted(self.space, {e: -n for e, n in self._nums.items()}, self._den)

    def __mul__(self, other):
        if isinstance(other, HomPoly4):
            self._check_space(other)
            return HomPoly4._trusted(self.space, _mul_terms(self._nums, other._nums),
                                     self._den * other._den)
        p, q = _as_fraction(other).as_integer_ratio()  # p == 0 gives no terms
        return HomPoly4._trusted(self.space, {e: p * n for e, n in self._nums.items() if p},
                                 q * self._den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "HomPoly4":
        if n < 0:
            raise ValueError("negative power")
        return HomPoly4._trusted(self.space, _pow_terms(self._nums, n), self._den ** n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HomPoly4):
            return NotImplemented
        return self.space is other.space and (self._den, self._nums) == (other._den, other._nums)

    def __hash__(self):
        raise TypeError("HomPoly4 is unhashable")

    def equals_up_to_scale(self, other: "HomPoly4") -> bool:
        """Exact equality up to one nonzero rational factor."""
        mine, theirs = self._nums, other._nums
        if self.space is not other.space or mine.keys() != theirs.keys():
            return False
        if not mine:
            return True
        lead = self.leading_monomial()
        # the numerators of other are those of self times a / b
        a, b = theirs[lead], mine[lead]
        return all(b * theirs[e] == a * n for e, n in mine.items())

    def leading_monomial(self) -> Exponents:
        """Largest exponent tuple in graded-lexicographic order."""
        if self.is_zero():
            raise ValueError("zero polynomial has no leading monomial")
        return max(self._nums, key=lambda e: (sum(e), e))

    # -- evaluation ----------------------------------------------------

    def eval(self, point) -> float | Fraction:
        """Evaluate at a 4-tuple; exact when all components are rational.

        HPoint/HPlane arguments are checked against the space tag.
        """
        from .projmaps import HPlane, HPoint
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

    def eval_grid(self, tuples):
        """Vectorized float evaluation at an (N, 4) array of tuples.

        Each power t_i^e is computed once per call, as |t_i|^e with the sign
        of t_i for odd e: numpy's ``**`` on a negative base can fall back
        from a SIMD ``pow`` to a much slower scalar one.  Products and sums
        run in term order, left to right.  ``n / den`` rounds as ``float(Fraction)``.
        """
        import numpy as np
        T = np.asarray(tuples, dtype=float)
        powers: dict[tuple[int, int], np.ndarray] = {}
        out = np.zeros(T.shape[0])
        den = self._den
        for exps, n in self._nums.items():
            term = np.full(T.shape[0], n / den)
            for i, e in enumerate(exps):
                if e:
                    if (i, e) not in powers:
                        p = np.abs(T[:, i]) ** e
                        powers[i, e] = np.copysign(p, T[:, i]) if e % 2 else p
                    term = term * powers[i, e]
            out += term
        return out

    def coeff_norm(self) -> float:
        """1-norm of the coefficient vector (used for residual scaling)."""
        return sum(map(abs, self._nums.values())) / self._den

    def coefficient(self, exps: Exponents) -> Fraction:
        return Fraction(self._nums.get(tuple(exps), 0), self._den)

    # -- exact division -------------------------------------------------

    def exact_divide(self, divisor: "HomPoly4") -> "HomPoly4":
        """Exact quotient self / divisor; NotDivisible on any remainder."""
        self._check_space(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        dterms = divisor.terms
        lc = dterms[divisor.leading_monomial()]
        quot = _divide_terms(self.terms, {e: c / lc for e, c in dterms.items()})
        return HomPoly4(self.space, {e: c / lc for e, c in quot.items()})


# -- pullbacks ----------------------------------------------------------


def _pullback(poly: HomPoly4, src: Space) -> HomPoly4:
    """Substitute v0 <- -(quadform), vi <- w0*wi into a polynomial."""
    if poly.space is not src:
        raise SpaceMismatch(f"expected a {src.name} polynomial")
    nums = poly._nums
    qpow = _quadform_powers(max((e[0] for e in nums), default=0))
    terms: dict[Exponents, int] = {}
    for (e0, e1, e2, e3), n in nums.items():
        _add_terms(terms, qpow[e0], -n if e0 % 2 else n, (e1 + e2 + e3, e1, e2, e3))
    return HomPoly4._trusted(src.other, terms, poly._den)


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
    r = min(e[0] for e in poly._nums)
    reduced = {(e0 - r, e1, e2, e3): n for (e0, e1, e2, e3), n in poly._nums.items()}
    # the quadform is monic, so every quotient of integer numerators is integral
    k = 0
    while True:
        try:
            reduced = _divide_terms(reduced, _QUADFORM)
        except NotDivisible:
            break
        k += 1
    return StripResult(HomPoly4._trusted(poly.space, reduced, poly._den), r, k)


def degree_bookkeeping(fstar: HomPoly4) -> tuple[int, int, int, int]:
    """(n, r, k, deg) of a dual surface and its stripped pedal image.

    Works symmetrically for point polynomials (inverse pedal direction).
    The identity deg == 2n - r - 2k is checked, also under ``python -O``;
    a failure is a bug, not a geometric degeneracy (RuntimeError).
    """
    n = fstar.degree
    stripped = strip_exceptional(_pullback(fstar, fstar.space))
    deg = stripped.reduced.degree
    if deg != 2 * n - stripped.r - 2 * stripped.k:
        raise RuntimeError(f"degree rule violated: {deg} != 2*{n} - {stripped.r} - 2*{stripped.k}")
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
    p, q = _as_fraction(d).as_integer_ratio()
    # t = d*sqrt(Q) with t^2 = d^2*Q; expand fstar(u0 + t, u) = even + t*odd.
    # With m = max(e0) // 2, even and odd are integers over den*q^(2m): the
    # t^(2j) part of a term carries p^(2j) * q^(2(m-j)) * Q^j.
    nums, den = fstar._nums, fstar._den
    m = max((e[0] for e in nums), default=0) // 2
    qpow = _quadform_powers(m)
    scale = [p ** (2 * j) * q ** (2 * (m - j)) for j in range(m + 1)]
    even, odd = {}, {}
    for (e0, e1, e2, e3), n in nums.items():
        for k in range(e0 + 1):
            _add_terms(odd if k % 2 else even, qpow[k // 2],
                       n * math.comb(e0, k) * scale[k // 2], (e0 - k, e1, e2, e3))
    # (even + t*odd) * (even - t*odd) = (q^2*even^2 - p^2*Q*odd^2) / (den*q^(2m)*q)^2
    terms = {e: q * q * c for e, c in _square_terms(even).items()}
    _add_terms(terms, _mul_terms(_QUADFORM, _square_terms(odd)), -p * p)
    return HomPoly4._trusted(Space.DUAL, terms, (den * q ** (2 * m + 1)) ** 2)


# -- canonical text form --------------------------------------------------

def format_poly(poly: HomPoly4) -> str:
    """Canonical text form: graded-lex descending, explicit exponents."""
    if poly.is_zero():
        return "0"
    # one table of "vi^e" per variable, indexed by the exponent
    p0, p1, p2, p3 = ([""] + [f"{v}^{e}" for e in range(1, poly.degree + 1)]
                      for v in poly.space.variables)
    parts = []
    nums, den = poly._nums, poly._den
    # one degree, so graded-lex order is lex order on the exponent tuples
    for exps in sorted(nums, reverse=True):
        num = nums[exps]
        g = math.gcd(num, den)
        num, q = num // g, den // g
        e0, e1, e2, e3 = exps
        mono = "*".join([s for s in (p0[e0], p1[e1], p2[e2], p3[e3]) if s])
        mag = str(abs(num)) if q == 1 else f"{abs(num)}/{q}"
        if not mono:
            body = mag
        elif mag == "1":
            body = mono
        else:
            body = f"{mag}*{mono}"
        parts.append(f"{'-' if num < 0 else '+'} {body}")
    out = " ".join(parts)
    return out[2:] if out[0] == "+" else "-" + out[2:]


class _PolyHooks:
    """_parse_text hooks that build term dicts: integer constants, the
    variables of one space, division by a nonzero constant only and
    exponents that are nonnegative integer constants."""

    add = staticmethod(_add_terms)  # in place: a += b
    mul = staticmethod(_mul_terms)

    def __init__(self, space: Space | None):
        self.space = space

    def number(self, tok):
        if "." in tok:
            raise ValueError(f"decimal constant {tok!r}; write p/q")
        return {_CONST: int(tok)} if int(tok) else {}  # no zero coefficients

    def name(self, tok):
        if tok not in _VARIABLES:
            raise ValueError(f"unknown variable {tok!r}")
        sp, exps = _VARIABLES[tok]
        if self.space not in (None, sp):
            raise ValueError("mixed point and dual variables")
        self.space = sp
        return {exps: 1}

    def monomial(self, run):
        """The term of a run p[/q]*v^e*..., with an int coefficient unless
        it has a '/', checked in the order of its plain tokens."""
        factors = run.split("*")
        coeff = 1
        if factors[0][0].isdecimal():
            p, _, q = factors.pop(0).partition("/")
            if q and not int(q):
                raise ValueError("division by zero")
            coeff = Fraction(int(p), int(q)) if q else int(p)
        exps = [0, 0, 0, 0]
        for factor in factors:
            var, _, e = factor.partition("^")
            (unit,) = self.name(var)
            exps[unit.index(1)] += int(e) if e else 1
        return {tuple(exps): coeff} if coeff else {}

    def call(self, name, arg):
        raise ValueError(f"polynomial text has no function {name!r}")

    def sub(self, a, b):
        return _add_terms(a, b, -1)

    def div(self, a, b):
        c = self.constant(b, "division by a non-constant polynomial")
        if not c:
            raise ValueError("division by zero")
        return {e: Fraction(v) / c for e, v in a.items()}

    def neg(self, a):
        return {e: -c for e, c in a.items()}

    def power(self, a, b):
        n = self.constant(b, "exponent must be a nonnegative integer")
        if n < 0 or n.denominator != 1:
            raise ValueError("exponent must be a nonnegative integer")
        return _pow_terms(a, int(n))

    def constant(self, terms, message):
        if any(e != _CONST for e in terms):
            raise ValueError(message)
        return terms.get(_CONST, 0)


def parse_poly(text: str, space: Space | None = None) -> HomPoly4:
    """Parse polynomial text; the variables used determine the space.

    Raises ValueError for malformed input, for division by anything but a
    nonzero constant, and for a result that is not homogeneous.
    """
    hooks = _PolyHooks(space)
    terms = _parse_text(text, hooks)
    if hooks.space is None:
        raise ValueError("constant polynomial needs an explicit space")
    # the hooks build no zero terms and no negative exponents
    if len({sum(e) for e in terms}) > 1:
        raise ValueError("terms of different total degree")
    return HomPoly4._trusted(hooks.space, *_numerators(terms))  # int and Fraction terms
