"""Kernel results skip the validating constructor; they must still be valid.

``HomPoly4._trusted`` takes the integer numerators of a result as the
kernel built them, over one denominator.  Every such result must look
exactly like what the validating ``HomPoly4(space, terms)`` makes of the
same terms: one reduced integer form, Fraction coefficients in its
``terms`` view, no zero terms and one total degree.  The validating
constructor itself still rejects bad caller input with the same messages.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

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


def assert_valid(poly: HomPoly4):
    """poly is what the validating constructor makes of its own terms."""
    for e, c in poly.terms.items():
        assert type(e) is tuple and len(e) == 4 and all(type(x) is int and x >= 0 for x in e)
        assert type(c) is Fraction and c != 0
        assert sum(e) == poly.degree
    if not poly.terms:
        assert poly.degree == -1
    assert type(poly._den) is int and poly._den >= 1
    assert all(type(n) is int for n in poly._nums.values())
    assert math.gcd(poly._den, *poly._nums.values()) == 1
    assert list(poly._nums) == list(poly.terms)
    assert all(Fraction(n, poly._den) == poly.terms[e] for e, n in poly._nums.items())
    rebuilt = HomPoly4(poly.space, dict(poly.terms))
    assert rebuilt == poly and rebuilt.degree == poly.degree
    assert list(rebuilt.terms) == list(poly.terms)  # same order, so the same text


_NONZERO = st.builds(lambda p, sign, q: Fraction(sign * p, q),
                     st.integers(1, 9), st.sampled_from((-1, 1)), st.integers(1, 6))


@st.composite
def kernel_inputs(draw):
    """(text, d): a dense or sparse g of degree 1-4 in either space, written
    as v0^a*(v1^2 + v2^2 + v3^2)^b*(g), and a rational distance d."""
    space = draw(st.sampled_from(Space))
    n = draw(st.integers(1, 4))
    monomials = [e for e in itertools.product(range(n + 1), repeat=4) if sum(e) == n]
    if draw(st.booleans()):
        terms = {e: draw(_NONZERO) for e in monomials}
    else:
        terms = draw(st.dictionaries(st.sampled_from(monomials), _NONZERO,
                                     min_size=1, max_size=6))
    v0, v1, v2, v3 = space.variables
    a, b = draw(st.integers(0, 1)), draw(st.integers(0, 1))
    text = f"{v0}^{a}*({v1}^2 + {v2}^2 + {v3}^2)^{b}*({format_poly(HomPoly4(space, terms))})"
    d = Fraction(draw(st.integers(-7, 7)), draw(st.integers(1, 7)))
    return text, d


class TestKernelResults:
    @seed(20261019)
    @settings(max_examples=60, deadline=None)
    @given(kernel_inputs())
    def test_every_result_is_valid(self, case):
        text, d = case
        poly = parse_poly(text)
        assert_valid(poly)
        pull = pedal_pullback if poly.space is Space.DUAL else inverse_pedal_pullback
        image = pull(poly)
        assert_valid(image)
        assert_valid(strip_exceptional(image).reduced)
        assert_valid(strip_exceptional(poly).reduced)
        if poly.space is Space.DUAL:
            assert_valid(offset_dual_poly(poly, d))

    @pytest.mark.parametrize("text", ["u1 - u1", "2*u0*u3 - u3*u0*2"])
    def test_zero_results(self, text):
        zero = parse_poly(text)
        assert zero.is_zero() and zero.degree == -1
        for poly in (zero, pedal_pullback(zero), offset_dual_poly(zero, Fraction(1, 2))):
            assert_valid(poly)

    def test_degree_zero_result(self):
        assert_valid(strip_exceptional(parse_poly("(x1^2 + x2^2 + x3^2)^2")).reduced)

    def test_ring_operations(self):
        p = parse_poly("u0^2 - u1*u3/2 + 3*u2^2")
        q = parse_poly("u0 - 2*u1")
        for poly in (-p, p * q, (p * q).exact_divide(q), p ** 2, p + q * q, p - p, p * 0):
            assert_valid(poly)


class TestIntegerForm:
    def test_chains_never_build_the_terms_view(self, monkeypatch):
        """The timed chains run on numerators from parse to format, and so do
        the float readers eval_grid and coeff_norm and coefficient."""
        dual = "u0^2*(u1^2 + u2^2 + u3^2)*(u0 - u1/2 + 3/5*u3)"

        def chains():
            p = parse_poly(dual)
            return [format_poly(strip_exceptional(pedal_pullback(p)).reduced),
                    format_poly(offset_dual_poly(p, Fraction(3, 7))),
                    format_poly(inverse_pedal_pullback(parse_poly("x0*x1 - x3^2/3"))),
                    p.eval_grid([[1.0, 0.5, -2.0, 3.0]]).tolist(), p.coeff_norm(),
                    p.coefficient((2, 3, 0, 0)), p.coefficient((0, 5, 0, 0))]

        def no_view(poly):
            raise AssertionError("a kernel read the Fraction view")

        expected = chains()
        monkeypatch.setattr(HomPoly4, "terms", property(no_view))
        assert chains() == expected

    @pytest.mark.parametrize("scale", [Fraction(-3, 7), 5])
    def test_equals_up_to_scale(self, scale):
        p = parse_poly("u0^2 - u1*u3/2 + 3*u2^2")
        assert p.equals_up_to_scale(p * scale) and (p * scale).equals_up_to_scale(p)
        assert not p.equals_up_to_scale(p * scale + parse_poly("u1^2"))
        assert not p.equals_up_to_scale(parse_poly("u0^2 - u1*u3/2"))

    def test_sum_of_mixed_degrees(self):
        with pytest.raises(ValueError, match=r"^terms of different total degree$"):
            parse_poly("u0 + u1") + parse_poly("u1^2")
        with pytest.raises(ValueError, match=r"^terms of different total degree$"):
            parse_poly("u0") - parse_poly("u1^2")

    def test_times_zero(self):
        zero = parse_poly("u0^2 - u1*u3/2") * 0
        assert zero.is_zero() and zero.degree == -1 and zero == HomPoly4.zero(Space.DUAL)
        assert zero._den == 1
        assert_valid(zero)


class TestValidatingConstructor:
    """Caller input is still checked; bad exponent tuples are pinned in
    test_hompoly.py."""

    def test_parse_rejects_mixed_degrees(self):
        with pytest.raises(ValueError, match=r"^terms of different total degree$"):
            parse_poly("u0 + u1^2")

    def test_bad_coefficient(self):
        with pytest.raises(TypeError, match=r"^cannot use complex as an exact coefficient$"):
            HomPoly4(Space.DUAL, {(1, 0, 0, 0): 1j})

    def test_mixed_degrees(self):
        with pytest.raises(ValueError, match=r"^terms of different total degree$"):
            HomPoly4(Space.POINT, {(1, 0, 0, 0): 1, (0, 2, 0, 0): 1})

    def test_cleans_caller_terms(self):
        poly = HomPoly4(Space.DUAL, {(1, 0, 0, 0): 0, (0, 1, 0, 0): 2, (0, 0, 1, 0): "1/3"})
        assert poly.terms == {(0, 1, 0, 0): 2, (0, 0, 1, 0): Fraction(1, 3)}
        assert poly.degree == 1
        assert_valid(poly)
        assert HomPoly4(Space.DUAL, {(1, 0, 0, 0): 0}).degree == -1
