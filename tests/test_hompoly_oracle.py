"""Differential tests of the exact algebra against sympy.

sympy is an independent implementation of the same arithmetic: every
property below recomputes a hompoly result with sympy expressions and
compares the two exactly.  Inputs are sparse random polynomials with small
rational coefficients, of degree <= 6 (<= 4 for offset families, whose
sympy reference is the costly one).
"""

from fractions import Fraction
from itertools import product

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from pedalis.errors import NotDivisible
from pedalis.hompoly import (
    HomPoly4,
    Space,
    format_poly,
    inverse_pedal_pullback,
    offset_dual_poly,
    parse_poly,
    pedal_pullback,
    strip_exceptional,
)

GENS = {Space.POINT: sp.symbols("x0:4"), Space.DUAL: sp.symbols("u0:4")}
MONOMIALS = {n: [e for e in product(range(n + 1), repeat=4) if sum(e) == n]
             for n in range(7)}
RATIONALS = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 6))


@st.composite
def polys(draw, max_degree=6, space=None):
    """Sparse homogeneous polynomial with 1 to 6 terms."""
    if space is None:
        space = draw(st.sampled_from(Space))
    n = draw(st.integers(1, max_degree))
    exps = draw(st.lists(st.sampled_from(MONOMIALS[n]), min_size=1, max_size=6,
                         unique=True))
    return HomPoly4(space, {e: draw(RATIONALS) for e in exps})


@st.composite
def divisors(draw, space, max_degree=3):
    """Two to five terms, one with var0, and a leading coefficient other than +-1."""
    n = draw(st.integers(1, max_degree))
    with_var0 = draw(st.sampled_from([e for e in MONOMIALS[n] if e[0]]))
    others = draw(st.lists(st.sampled_from([e for e in MONOMIALS[n] if e != with_var0]),
                           min_size=1, max_size=4, unique=True))
    terms = {e: draw(RATIONALS) for e in [with_var0, *others]}
    lead = HomPoly4(space, terms).leading_monomial()
    terms[lead] = draw(RATIONALS.filter(lambda c: abs(c) != 1))
    return HomPoly4(space, terms)


def to_sympy(p: HomPoly4):
    return sp.Poly.from_dict(
        {e: sp.Rational(c.numerator, c.denominator) for e, c in p.terms.items()},
        *GENS[p.space])


def same_terms(p: HomPoly4, ref) -> bool:
    """Exact equality of a HomPoly4 and a sympy Poly in the same variables."""
    ref_terms = {e: Fraction(int(c.p), int(c.q)) for e, c in ref.terms() if c}
    return ref.gens == GENS[p.space] and p.terms == ref_terms


def quadform(space: Space):
    _, v1, v2, v3 = GENS[space]
    return v1 ** 2 + v2 ** 2 + v3 ** 2


SETTINGS = settings(max_examples=100, deadline=None)


class TestPullbackOracle:
    @given(polys())
    @SETTINGS
    def test_pullback_is_substitution(self, f):
        src, dst = GENS[f.space], GENS[f.space.other]
        image = (pedal_pullback if f.space is Space.DUAL else inverse_pedal_pullback)(f)
        subs = {src[0]: -quadform(f.space.other)}
        subs.update({src[i]: dst[0] * dst[i] for i in (1, 2, 3)})
        ref = sp.Poly(to_sympy(f).as_expr().xreplace(subs), *dst)
        assert image.space is f.space.other
        assert same_terms(image, ref)


class TestStripOracle:
    @given(polys(max_degree=4), st.integers(0, 2), st.integers(0, 2), st.booleans())
    @SETTINGS
    def test_reconstructs_input_and_is_maximal(self, g, a, b, pull):
        # planted factors var0^a * q^b, optionally on top of a pullback,
        # which brings exceptional factors of its own
        if pull:
            g = (pedal_pullback if g.space is Space.DUAL else inverse_pedal_pullback)(g)
        var0 = HomPoly4.variable(g.space, 0)
        poly = var0 ** a * HomPoly4.quadform(g.space) ** b * g
        res = strip_exceptional(poly)
        assert res.r >= a and res.k >= b

        gens = GENS[g.space]
        reduced = to_sympy(res.reduced)
        rebuilt = sp.Poly(gens[0] ** res.r * quadform(g.space) ** res.k, *gens) * reduced
        assert same_terms(poly, rebuilt)
        assert not reduced.div(sp.Poly(gens[0], *gens))[1].is_zero
        assert not reduced.div(sp.Poly(quadform(g.space), *gens))[1].is_zero


class TestDivisionOracle:
    """exact_divide by general divisors; strip_exceptional only ever divides
    by the monic quadform."""

    @given(polys(max_degree=3), st.data())
    @SETTINGS
    def test_quotient_of_a_product(self, g, data):
        h = data.draw(divisors(g.space))
        q, r = to_sympy(g * h).div(to_sympy(h))
        assert r.is_zero
        assert same_terms((g * h).exact_divide(h), q)

    @given(polys(max_degree=3), st.data())
    @SETTINGS
    def test_one_extra_term_is_not_divisible(self, g, data):
        # a divisor with two or more terms divides no monomial, so a product
        # plus one more term (even one that cancels a term) has a remainder
        h = data.draw(divisors(g.space))
        extra = data.draw(st.sampled_from(MONOMIALS[g.degree + h.degree]))
        p = g * h + HomPoly4(g.space, {extra: data.draw(RATIONALS)})
        assert not to_sympy(p).div(to_sympy(h))[1].is_zero
        with pytest.raises(NotDivisible):
            p.exact_divide(h)


class TestOffsetOracle:
    @given(polys(max_degree=4, space=Space.DUAL), RATIONALS)
    @SETTINGS
    def test_product_of_both_branches(self, f, d):
        # f(u0 + d*s) * f(u0 - d*s) with s^2 = q: odd powers of s cancel
        gens = GENS[Space.DUAL]
        s = sp.Symbol("s")
        expr = to_sympy(f).as_expr()
        dd = sp.Rational(d.numerator, d.denominator)
        prod = sp.Poly(expr.xreplace({gens[0]: gens[0] + dd * s})
                       * expr.xreplace({gens[0]: gens[0] - dd * s}), s)
        reduced = 0
        for (k,), c in prod.terms():
            assert k % 2 == 0
            reduced += c * quadform(Space.DUAL) ** (k // 2)
        assert same_terms(offset_dual_poly(f, d), sp.Poly(reduced, *gens))


class TestTextOracle:
    @given(polys())
    @SETTINGS
    def test_format_parse_round_trip(self, p):
        text = format_poly(p)
        back = parse_poly(text)
        assert back.space is p.space and back.terms == p.terms
        assert format_poly(back) == text

    @given(polys(max_degree=3), polys(max_degree=3), st.integers(0, 3))
    @SETTINGS
    def test_parsed_arithmetic(self, a, b, k):
        # a product, a power and a cancelling difference, parsed from text
        b = HomPoly4(a.space, b.terms)
        fa, fb = format_poly(a), format_poly(b)
        got = parse_poly(f"({fa})*({fb})^{k} - 2*({fa})*({fb})^{k} + ({fa})/3*({fb})^{k}")
        ref = sp.Rational(-2, 3) * to_sympy(a) * to_sympy(b) ** k
        assert same_terms(got, ref)


class TestParserRegressions:
    def test_intermediate_inhomogeneity_accepted(self):
        assert parse_poly("u0 - u0^2 + u0^2") == parse_poly("u0")

    def test_homogeneity_checked_on_result(self):
        with pytest.raises(ValueError, match="different total degree"):
            parse_poly("u0^2 + u0 - u0 + u1")

    @pytest.mark.parametrize("text", ["u0/0", "u0/(u1 - u1)", "u0/(2 - 2)"])
    def test_division_by_zero_rejected(self, text):
        with pytest.raises(ValueError, match="division by zero"):
            parse_poly(text)

    def test_division_by_variable_rejected(self):
        with pytest.raises(ValueError, match="non-constant"):
            parse_poly("u0^2/u1")
