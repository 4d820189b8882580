"""The packed monomial keys of HomPoly4: the degree bound and the term order.

A key holds the four exponents in 8-bit slots, so every exponent and every
total degree must stay below DEGREE_BOUND.  Each operation that can raise
the degree checks the bound before it builds a key, and raises ValueError
rather than let one slot carry into the next.

Term order is part of the output: eval_grid sums in it and ``verify`` prints
those floats.  The reference below is the exact kernels written on exponent
tuples, as they were before the keys were packed; every packed kernel must
give its terms in the same order.
"""

import heapq
import itertools
import math
import random
from fractions import Fraction

import pytest

from pedalis.errors import NotDivisible
from pedalis.hompoly import (
    DEGREE_BOUND,
    HomPoly4,
    Space,
    format_poly,
    inverse_pedal_pullback,
    offset_dual_poly,
    parse_poly,
    pedal_pullback,
    strip_exceptional,
)

B = DEGREE_BOUND
PAST = r"^degree \d+ is not below the bound 128$"


# -- the degree bound -------------------------------------------------------

class TestDegreeBound:
    """Each degree-raising entry point at bound - 1 (or the largest degree
    it can make below the bound) and at the bound."""

    @pytest.mark.parametrize("exps", [(B - 1, 0, 0, 0), (0, 0, 0, B - 1), (60, 0, 67, 0)])
    def test_constructor_below(self, exps):
        poly = HomPoly4(Space.DUAL, {exps: 3, (0, B - 1, 0, 0): -1})
        assert poly.degree == B - 1
        assert list(poly.terms) == [exps, (0, B - 1, 0, 0)]
        assert poly.leading_monomial() == max(exps, (0, B - 1, 0, 0))
        assert poly.coefficient(exps) == 3

    @pytest.mark.parametrize("exps", [(B, 0, 0, 0), (0, 0, 0, B), (60, 0, 68, 0),
                                      (0, 256, 0, 0), (1, 2 ** 70, 0, 0)])
    def test_constructor_at(self, exps):
        with pytest.raises(ValueError, match=PAST):
            HomPoly4(Space.POINT, {exps: 1})

    def test_coefficient_past_the_bound_is_zero(self):
        # (0, 256, 0, 0) would pack onto the key of (1, 0, 0, 0)
        poly = HomPoly4(Space.DUAL, {(1, 0, 0, 0): 5})
        assert poly.coefficient((0, 256, 0, 0)) == 0
        assert poly.coefficient((1, -256, 0, 0)) == 0
        assert poly.coefficient((1, 0, 0, 0)) == 5

    @pytest.mark.parametrize("text", ["u1^127", "u0^100*u3^27", "(u1 + u2)^127",
                                      "(u1^100 + u2^100)*(u1^27 - u3^27)",
                                      "x1^63*x2^64", "(x0*x1)^63*x3"])
    def test_parse_below(self, text):
        poly = parse_poly(text)
        assert poly.degree == B - 1
        assert parse_poly(format_poly(poly)) == poly

    @pytest.mark.parametrize("text", ["u1^128", "u0^100*u3^28", "(u1 + u2)^128",
                                      "(u1^100 + u2^100)*(u1^28 - u3^28)", "u1^300 - u1^300",
                                      "x1^64*x2^64", "(x0*x1)^64", "u1^99999999999999999999",
                                      "(u1^2)^64", "u1^2^7"])
    def test_parse_at(self, text):
        with pytest.raises(ValueError, match=PAST):
            parse_poly(text)

    def test_product_and_power(self):
        p, q = parse_poly("u0^100 - u1^100"), parse_poly("u2^27 + u3*u0^26")
        assert (p * q).degree == B - 1
        assert (HomPoly4.variable(Space.DUAL, 1) ** (B - 1)).degree == B - 1
        with pytest.raises(ValueError, match=PAST):
            p * (q * HomPoly4.variable(Space.DUAL, 2))
        with pytest.raises(ValueError, match=PAST):
            HomPoly4.variable(Space.DUAL, 1) ** B
        with pytest.raises(ValueError, match=PAST):
            parse_poly("u1^2 + u2^2") ** 64
        assert (p * HomPoly4.zero(Space.DUAL)).is_zero()

    @pytest.mark.parametrize("space", list(Space))
    def test_pullbacks(self, space):
        # the pullback doubles the degree: 2*63 = B - 2 is the largest below B
        v0, v1, v2, v3 = space.variables
        pull = pedal_pullback if space is Space.DUAL else inverse_pedal_pullback
        image = pull(parse_poly(f"{v0}*{v1}^61*{v2} - 2*{v3}^63"))
        assert image.degree == B - 2
        stripped = strip_exceptional(image)
        assert (stripped.r, stripped.k, stripped.reduced.degree) == (62, 0, B - 2 - 62)
        with pytest.raises(ValueError, match=PAST):
            pull(parse_poly(f"{v0}*{v1}^62*{v2} - 2*{v3}^64"))

    def test_offset_family(self):
        family = offset_dual_poly(parse_poly("u0^2*u1^61 + u3^63"), Fraction(1, 3))
        assert family.degree == B - 2
        with pytest.raises(ValueError, match=PAST):
            offset_dual_poly(parse_poly("u0^2*u1^62 + u3^64"), Fraction(1, 3))


# -- term order against the tuple-key kernels ------------------------------

def _ref_add(acc, terms, scale=1, shift=(0, 0, 0, 0)):
    for e, c in terms.items():
        e = tuple(a + b for a, b in zip(shift, e))
        v = acc.get(e, 0) + c * scale
        if v:
            acc[e] = v
        else:
            acc.pop(e, None)
    return acc


def _ref_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _ref_square(a):
    items = list(a.items())
    out = {}
    for i, (ea, ca) in enumerate(items):
        e = tuple(2 * x for x in ea)
        out[e] = out.get(e, 0) + ca * ca
        for eb, cb in items[i + 1:]:
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + 2 * ca * cb
    return {e: c for e, c in out.items() if c}


def _ref_pow(a, n):
    if len(a) == 1:
        ((e, c),) = a.items()
        return {tuple(n * x for x in e): c ** n}
    result = {(0, 0, 0, 0): 1}
    while n:
        if n & 1:
            result = _ref_mul(a, result)
        n >>= 1
        if n:
            a = _ref_square(a)
    return result


QUADFORM = {(0, 2, 0, 0): 1, (0, 0, 2, 0): 1, (0, 0, 0, 2): 1}


def _ref_qpow(n):
    qpow = [{(0, 0, 0, 0): 1}]
    while len(qpow) <= n:
        qpow.append(_ref_mul(qpow[-1], QUADFORM))
    return qpow


def _ref_divide(dividend, divisor):
    l0, l1, l2, l3 = max(divisor)
    rem = dict(dividend)
    heap = [tuple(-x for x in e) for e in rem]
    heapq.heapify(heap)
    quot = {}
    while rem:
        lead = tuple(-x for x in heapq.heappop(heap))
        if lead not in rem:
            continue
        q = (lead[0] - l0, lead[1] - l1, lead[2] - l2, lead[3] - l3)
        if min(q) < 0:
            raise NotDivisible("exact division failed")
        qc = quot[q] = rem[lead]
        for d, dc in divisor.items():
            e = tuple(x + y for x, y in zip(q, d))
            old = rem.get(e)
            v = -qc * dc if old is None else old - qc * dc
            if not v:
                del rem[e]
                continue
            if old is None:
                heapq.heappush(heap, tuple(-x for x in e))
            rem[e] = v
    return quot


def _ref_pullback(nums):
    qpow = _ref_qpow(max((e[0] for e in nums), default=0))
    terms = {}
    for (e0, e1, e2, e3), n in nums.items():
        _ref_add(terms, qpow[e0], -n if e0 % 2 else n, (e1 + e2 + e3, e1, e2, e3))
    return terms


def _ref_strip(nums):
    r = min(e[0] for e in nums)
    reduced = {(e0 - r, e1, e2, e3): n for (e0, e1, e2, e3), n in nums.items()}
    while True:
        try:
            reduced = _ref_divide(reduced, QUADFORM)
        except NotDivisible:
            return reduced


def _ref_offset(nums, d):
    p, q = Fraction(d).as_integer_ratio()
    m = max((e[0] for e in nums), default=0) // 2
    qpow = _ref_qpow(m)
    scale = [p ** (2 * j) * q ** (2 * (m - j)) for j in range(m + 1)]
    even, odd = {}, {}
    for (e0, e1, e2, e3), n in nums.items():
        for k in range(e0 + 1):
            _ref_add(odd if k % 2 else even, qpow[k // 2],
                     n * math.comb(e0, k) * scale[k // 2], (e0 - k, e1, e2, e3))
    terms = {e: q * q * c for e, c in _ref_square(even).items()}
    return _ref_add(terms, _ref_mul(QUADFORM, _ref_square(odd)), -p * p)


def _numerators(poly):
    """The integer numerators of poly in its term order, as the tuple-key
    kernels held them."""
    den = math.lcm(*(c.denominator for c in poly.terms.values()))
    return {e: int(c * den) for e, c in poly.terms.items()}


def _same_order(result, reference):
    """result has the reference's terms, in its order, up to one scale."""
    assert list(result.terms) == list(reference)
    assert result.equals_up_to_scale(HomPoly4(result.space, reference))


def _random_poly(rng, space):
    n = rng.randint(1, 4)
    monomials = [e for e in itertools.product(range(n + 1), repeat=4) if sum(e) == n]
    picked = monomials if rng.random() < 0.5 else rng.sample(monomials, min(len(monomials), 5))
    rng.shuffle(picked)
    terms = {e: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))
             for e in picked}
    v0, v1, v2, v3 = space.variables
    a, b = rng.randint(0, 2), rng.randint(0, 1)
    return parse_poly(f"{v0}^{a}*({v1}^2 + {v2}^2 + {v3}^2)^{b}*"
                      f"({format_poly(HomPoly4(space, terms))})")


CASES = [(seed, space) for seed in range(12) for space in Space]


@pytest.mark.parametrize("seed, space", CASES)
def test_term_order_matches_the_tuple_kernels(seed, space):
    rng = random.Random(20261020 + seed)
    f, g = _random_poly(rng, space), _random_poly(rng, space)
    nums = _numerators(f)
    pull = pedal_pullback if space is Space.DUAL else inverse_pedal_pullback
    image = pull(f)
    _same_order(image, _ref_pullback(nums))
    _same_order(strip_exceptional(image).reduced, _ref_strip(_numerators(image)))
    _same_order(strip_exceptional(f).reduced, _ref_strip(nums))
    _same_order(f * g, _ref_mul(nums, _numerators(g)))
    for n in (0, 1, 2, 3):
        _same_order(f ** n, _ref_pow(nums, n))
    if space is Space.DUAL:
        d = Fraction(rng.randint(-7, 7), rng.randint(1, 7))
        _same_order(offset_dual_poly(f, d), _ref_offset(nums, d))
