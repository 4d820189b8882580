"""The symmetric squaring helper against the general product."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from pedalis.hompoly import _mul_terms, _square_terms, parse_poly

EXPONENTS = st.tuples(*(st.integers(0, 3) for _ in range(4)))
COEFFS = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 12))


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(EXPONENTS, COEFFS, max_size=12))
def test_square_equals_product_in_value_and_order(terms):
    assert list(_square_terms(terms).items()) == list(_mul_terms(terms, terms).items())


def test_cancelled_cross_terms_are_dropped():
    # (u1^2 - 2 u2^2 + 2 u1 u2)^2: the u1^2 u2^2 products cancel
    terms = parse_poly("u1^2 - 2*u2^2 + 2*u1*u2").terms
    square = _square_terms(terms)
    assert (0, 2, 2, 0) not in square
    assert list(square.items()) == list(_mul_terms(terms, terms).items())
    assert all(isinstance(c, Fraction) for c in square.values())


def test_empty_square():
    assert _square_terms({}) == {}
