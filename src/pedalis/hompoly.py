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
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import NotDivisible, SpaceMismatch
# the grammar of polynomial text; parse_poly gives it the _PolyHooks
from .grammar import SIGNED_RUN, parse_text as _parse_text

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


# -- packed monomial keys -------------------------------------------------
# A monomial v0^e0*v1^e1*v2^e2*v3^e3 is keyed by one int, e0 in the top
# slot: e0 << 24 | e1 << 16 | e2 << 8 | e3.  Each 8-bit slot keeps its top
# bit (the guard) clear: every exponent and every total degree stays below
# DEGREE_BOUND, which the constructors and the degree-raising operations
# check.  So a product of monomials is a sum of keys with no carry from one
# slot into the next, and key order is lex order on the exponent tuples.

_W = 8  # bits per slot
DEGREE_BOUND = 1 << (_W - 1)  # 128; exponents and degrees stay below it
_TOP = 3 * _W  # the shift of the v0 slot
_SLOT = (1 << _W) - 1
_LOW = (1 << _TOP) - 1  # the slots of v1, v2, v3
_GUARD = sum(DEGREE_BOUND << (k * _W) for k in range(4))
_ONES = sum(1 << (k * _W) for k in range(4))  # key * _ONES sums the slots into the top one


def _pack(exps) -> int:
    """The key of an exponent tuple whose degree is below DEGREE_BOUND."""
    e0, e1, e2, e3 = exps
    return e0 << _TOP | e1 << 2 * _W | e2 << _W | e3


def _unpack(key: int) -> Exponents:
    return key >> _TOP, key >> 2 * _W & _SLOT, key >> _W & _SLOT, key & _SLOT


def _degree(key: int) -> int:
    return key * _ONES >> _TOP & _SLOT


def _check_degree(degree: int) -> None:
    """ValueError for a result degree the key layout cannot hold."""
    if degree >= DEGREE_BOUND:
        raise ValueError(f"degree {degree} is not below the bound {DEGREE_BOUND}")


def _max_degree(terms: dict) -> int:
    return max(map(_degree, terms), default=0)


# -- term-dict arithmetic -------------------------------------------------
# Exact arithmetic runs on plain {key: coefficient} dicts.  A HomPoly4
# holds integer numerators over one common denominator, so the hot loops
# (powers, pullback, strip, offset family) run on ints from end to end and
# build one HomPoly4 per result: ``HomPoly4._trusted`` takes the numerators
# as they are, because the kernel built them from validated input.  The
# callers check the degree bound before a kernel can exceed it.

_CONST = 0  # the key of the constant monomial
# the exceptional quadric v1^2 + v2^2 + v3^2 of either space
_QUADFORM = {2 << 2 * _W: 1, 2 << _W: 1, 2: 1}
# variable name -> (space, shift of its slot), e.g. "u1" -> (Space.DUAL, 16)
_VARIABLES = {name: (sp, (3 - k) * _W) for sp in Space for k, name in enumerate(sp.variables)}
# A monomial run sums one increment per factor: e << shift for a factor
# v^e, plus e in a degree field above the key.  A run of degree below the
# bound carries out of no slot, and one of degree at or above it reads at
# least that degree there, so one compare per run checks the bound.
_RUN_DEGREE = 4 * _W  # shift of the degree field
_RUN_BOUND = DEGREE_BOUND << _RUN_DEGREE
_KEY_MASK = (1 << _RUN_DEGREE) - 1


def _numerators(terms: dict) -> tuple[dict, int]:
    """(nums, den) with integer nums and terms == nums / den term by term."""
    den = math.lcm(*{c.denominator for c in terms.values()})  # each distinct one once
    return {e: c.numerator * (den // c.denominator) for e, c in terms.items()}, den


def _add_terms(acc: dict, terms: dict, scale=1, shift: int = _CONST) -> dict:
    """acc += scale * var**shift * terms in place, dropping zeros; returns acc."""
    for e, c in terms.items():
        e += shift
        v = acc.get(e, 0) + c * scale
        if v:
            acc[e] = v
        else:
            acc.pop(e, None)
    return acc


def _mul_terms(a: dict, b: dict) -> dict:
    """Product of two term dicts."""
    out: dict[int, Fraction] = {}
    get = out.get
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            out[e] = get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _square_terms(a: dict) -> dict:
    """a*a, equal to _mul_terms(a, a) in value and term order.

    Each product of two distinct terms is computed once and doubled; the
    pairs run in the order in which _mul_terms first meets them.  Callers
    pass integer numerators.
    """
    items = list(a.items())
    out: dict[int, int] = {}
    get = out.get
    for i, (ea, ca) in enumerate(items):
        e = ea << 1
        out[e] = get(e, 0) + ca * ca
        twice = 2 * ca
        for eb, cb in items[i + 1:]:
            e = ea + eb
            out[e] = get(e, 0) + twice * cb
    return {e: c for e, c in out.items() if c}


def _pow_terms(a: dict, n: int) -> dict:
    """a**n by squaring integer numerators; a monomial keeps its coefficient type."""
    if len(a) == 1:
        ((e, c),) = a.items()
        return {e * n: c ** n}
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

    The operands are homogeneous, so graded-lex order is key order, and each
    lead comes off a max-heap of negated keys.  A popped monomial no longer
    in the remainder (cancelled, or a repeated entry) is skipped.  The lead
    is a multiple of the divisor's lead l when no slot of lead - l borrows,
    that is, when every guard bit survives subtracting l from lead | _GUARD.
    """
    l = max(divisor)
    rem = dict(dividend)
    heap = [-e for e in rem]
    heapq.heapify(heap)
    quot: dict[int, Fraction] = {}
    while rem:
        lead = -heapq.heappop(heap)
        if lead not in rem:
            continue
        if (lead | _GUARD) - l & _GUARD != _GUARD:
            raise NotDivisible("exact division failed")
        q = lead - l
        qc = quot[q] = rem[lead]  # leads strictly decrease, so each q comes once
        for d, dc in divisor.items():
            e = q + d
            old = rem.get(e)
            v = -qc * dc if old is None else old - qc * dc
            if not v:
                del rem[e]
                continue
            if old is None:
                heapq.heappush(heap, -e)
            rem[e] = v
    return quot


class HomPoly4:
    """Homogeneous polynomial in 4 variables with exact coefficients: the
    integers ``_nums`` (keyed by packed monomials) over one denominator
    ``_den > 0``, with no common factor, so equal polynomials hold equal
    numerators and denominators.  The public API takes and gives exponent
    tuples; the degree stays below DEGREE_BOUND."""

    __slots__ = ("space", "_nums", "_den", "degree")

    def __init__(self, space: Space, terms):
        clean: dict[int, Fraction] = {}
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
                _check_degree(d)
                degree = d
            elif d != degree:
                raise ValueError("terms of different total degree")
            clean[_pack(exps)] = coeff
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
        poly.degree = _degree(next(iter(nums))) if nums else -1
        return poly

    @property
    def terms(self) -> dict:
        """{exponents: Fraction} view of _nums / _den, built on each read."""
        return {_unpack(e): Fraction(n, self._den) for e, n in self._nums.items()}

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
        return cls._trusted(space, dict(_QUADFORM), 1)

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
            _check_degree(self.degree + other.degree)  # a zero factor has degree -1
            return HomPoly4._trusted(self.space, _mul_terms(self._nums, other._nums),
                                     self._den * other._den)
        p, q = _as_fraction(other).as_integer_ratio()  # p == 0 gives no terms
        return HomPoly4._trusted(self.space, {e: p * n for e, n in self._nums.items() if p},
                                 q * self._den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "HomPoly4":
        if n < 0:
            raise ValueError("negative power")
        _check_degree(self.degree * n)
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
        lead = max(mine)
        # the numerators of other are those of self times a / b
        a, b = theirs[lead], mine[lead]
        return all(b * theirs[e] == a * n for e, n in mine.items())

    def leading_monomial(self) -> Exponents:
        """Largest exponent tuple in graded-lexicographic order."""
        if self.is_zero():
            raise ValueError("zero polynomial has no leading monomial")
        return _unpack(max(self._nums))  # one degree: key order is graded-lex order

    # -- evaluation ----------------------------------------------------

    def eval(self, point) -> float | Fraction:
        """Evaluate at a 4-tuple; exact when all components are rational.

        HPoint/HPlane arguments are checked against the space tag; no
        HPoint or HPlane exists before projmaps loads, so a tuple loads none.
        """
        maps = sys.modules.get("pedalis.projmaps")
        if maps and isinstance(point, maps.HPoint):
            if self.space is not Space.POINT:
                raise SpaceMismatch("dual polynomial evaluated at a point")
            coords = point.coords
        elif maps and isinstance(point, maps.HPlane):
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
        for key, n in self._nums.items():
            term = np.full(T.shape[0], n / den)
            for i, e in enumerate(_unpack(key)):
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
        exps = tuple(exps)
        if len(exps) != 4 or not all(0 <= e < DEGREE_BOUND for e in exps):
            return Fraction(0)  # no key holds it
        return Fraction(self._nums.get(_pack(exps), 0), self._den)

    # -- exact division -------------------------------------------------

    def exact_divide(self, divisor: "HomPoly4") -> "HomPoly4":
        """Exact quotient self / divisor; NotDivisible on any remainder."""
        self._check_space(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        dnums = divisor._nums
        lc = dnums[max(dnums)]
        # (nums / den) / (dnums / dden) == (nums / den) / (dnums / lc) * (dden / lc)
        quot = _divide_terms({e: Fraction(n, self._den) for e, n in self._nums.items()},
                             {e: Fraction(n, lc) for e, n in dnums.items()})
        scale = Fraction(divisor._den, lc)
        return HomPoly4._trusted(self.space, *_numerators({e: c * scale for e, c in quot.items()}))


# -- pullbacks ----------------------------------------------------------


def _pullback(poly: HomPoly4, src: Space) -> HomPoly4:
    """Substitute v0 <- -(quadform), vi <- w0*wi into a polynomial."""
    if poly.space is not src:
        raise SpaceMismatch(f"expected a {src.name} polynomial")
    nums, deg = poly._nums, poly.degree
    _check_degree(2 * deg)
    qpow = _quadform_powers(max(nums, default=0) >> _TOP)
    terms: dict[int, int] = {}
    for e, n in nums.items():
        # v0^e0 * v^e -> (-quadform)^e0 * w0^(deg - e0) * w^e
        e0 = e >> _TOP
        _add_terms(terms, qpow[e0], -n if e0 % 2 else n, (deg - e0) << _TOP | e & _LOW)
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
    r = min(poly._nums) >> _TOP  # key order: the least key has the least e0
    reduced = {e - (r << _TOP): n for e, n in poly._nums.items()}
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
    _check_degree(2 * fstar.degree)
    m = (max(nums, default=0) >> _TOP) // 2
    qpow = _quadform_powers(m)
    scale = [p ** (2 * j) * q ** (2 * (m - j)) for j in range(m + 1)]
    even, odd = {}, {}
    for e, n in nums.items():
        e0 = e >> _TOP
        for k in range(e0 + 1):
            _add_terms(odd if k % 2 else even, qpow[k // 2],
                       n * math.comb(e0, k) * scale[k // 2], e - (k << _TOP))
    # (even + t*odd) * (even - t*odd) = (q^2*even^2 - p^2*Q*odd^2) / (den*q^(2m)*q)^2
    terms = {e: q * q * c for e, c in _square_terms(even).items()}
    _add_terms(terms, _mul_terms(_QUADFORM, _square_terms(odd)), -p * p)
    return HomPoly4._trusted(Space.DUAL, terms, (den * q ** (2 * m + 1)) ** 2)


# -- canonical text form --------------------------------------------------

def format_poly(poly: HomPoly4) -> str:
    """Canonical text form: graded-lex descending, explicit exponents."""
    if poly.is_zero():
        return "0"
    # one table of "*vi^e" per variable, indexed by the exponent
    p0, p1, p2, p3 = ([""] + [f"*{v}^{e}" for e in range(1, poly.degree + 1)]
                      for v in poly.space.variables)
    nums, den = poly._nums, poly._den
    gcd, top, mid, low, slot = math.gcd, _TOP, 2 * _W, _W, _SLOT
    parts = []
    append = parts.append
    # one degree, so graded-lex order is key order
    for key in sorted(nums, reverse=True):
        num = nums[key]
        mono = p0[key >> top] + p1[key >> mid & slot] + p2[key >> low & slot] + p3[key & slot]
        g = gcd(num, den)
        q = den // g
        if num < 0:
            sign, num = "- ", -num // g
        else:
            sign, num = "+ ", num // g
        if q != 1:
            append(f"{sign}{num}/{q}{mono}")
        elif num != 1 or not mono:
            append(f"{sign}{num}{mono}")
        else:  # a unit coefficient is not written
            append(sign + mono[1:])
    first = parts[0]
    parts[0] = first[2:] if first[0] == "+" else "-" + first[2:]
    return " ".join(parts)


class _PolyHooks:
    """_parse_text hooks that build term dicts: integer constants, the
    variables of one space, division by a nonzero constant only and
    exponents that are nonnegative integer constants."""

    def __init__(self, space: Space | None):
        self.space = space
        self._increments = {}  # factor text -> increment, as the text is parsed

    @staticmethod
    def add(a, b):
        """a += b in place, dropping zeros; returns a."""
        for e, c in b.items():
            v = a.get(e)
            if v is None:
                a[e] = c
            elif v := v + c:
                a[e] = v
            else:
                del a[e]
        return a

    @staticmethod
    def mul(a, b):
        _check_degree(_max_degree(a) + _max_degree(b))
        return _mul_terms(a, b)

    def number(self, tok):
        if "." in tok:
            raise ValueError(f"decimal constant {tok!r}; write p/q")
        return {_CONST: int(tok)} if int(tok) else {}  # no zero coefficients

    def name(self, tok):
        return {1 << self._shift(tok): 1}

    def _shift(self, tok):
        """The shift of a variable's slot; the first variable sets the space."""
        if tok not in _VARIABLES:
            raise ValueError(f"unknown variable {tok!r}")
        sp, shift = _VARIABLES[tok]
        if sp is not self.space:
            if self.space is not None:
                raise ValueError("mixed point and dual variables")
            self.space = sp
        return shift

    def monomial(self, runs, terms=None):
        """terms (a new dict if None) plus the run sum ``runs``, such as
        '2/3*u1^2*u2 - u3', in place and in text order, with an int
        coefficient unless a run has a '/', checked in the order of the
        plain tokens."""
        terms = {} if terms is None else terms
        increments = self._increments
        for sign, run in SIGNED_RUN.findall(runs):
            coeff = 1
            if "0" <= run[0] <= "9":  # an ASCII digit; the run pattern is ASCII
                head, _, run = run.partition("*")
                p, _, q = head.partition("/")
                if q and not int(q):
                    raise ValueError("division by zero")
                coeff = Fraction(int(p), int(q)) if q else int(p)
            factors = run.split("*")
            total = 0
            try:
                for factor in factors:
                    total += increments[factor]
            except KeyError:  # a factor this text has not keyed yet
                total = _RUN_BOUND
            if total < _RUN_BOUND:
                key = total & _KEY_MASK
            elif coeff:
                key = self._run_key(factors)
            else:  # a zero product checks each factor alone, as mul does
                for factor in factors:
                    self._run_key([factor])
            if coeff:  # as add inserts it
                if sign == "-":
                    coeff = -coeff
                v = terms.get(key)
                if v is None:
                    terms[key] = coeff
                elif v := v + coeff:
                    terms[key] = v
                else:
                    del terms[key]
        return terms

    def _run_key(self, factors):
        """The key of a run's factors, one at a time: each name sets or
        checks the space, and after each factor its exponent and then the
        degree so far are checked, as power and mul check them.  Each
        factor keyed goes into the increments of the text."""
        key = degree = 0
        for factor in factors:
            var, _, e = factor.partition("^")
            shift = self._shift(var)
            e = int(e) if e else 1
            degree += e
            if degree >= DEGREE_BOUND:
                _check_degree(e)
                _check_degree(degree)
            key += e << shift
            self._increments[factor] = e << _RUN_DEGREE | e << shift
        return key

    def call(self, name, arg):
        raise ValueError(f"polynomial text has no function {name!r}")

    def sub(self, a, b):
        return self.add(a, self.neg(b))

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
        n = int(n)
        _check_degree(_max_degree(a) * n)
        return _pow_terms(a, n)

    def constant(self, terms, message):
        if any(terms):  # a nonzero key is a nonconstant monomial
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
    if len(set(map(_degree, terms))) > 1:
        raise ValueError("terms of different total degree")
    return HomPoly4._trusted(hooks.space, *_numerators(terms))  # int and Fraction terms
