import dataclasses
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pedalis import hompoly
from pedalis.errors import NotDivisible, SpaceMismatch
from pedalis.hompoly import (
    HomPoly4,
    Space,
    degree_bookkeeping,
    format_poly,
    inverse_pedal_pullback,
    offset_dual_poly,
    parse_poly,
    pedal_pullback,
    strip_exceptional,
)
from pedalis.projmaps import HPlane, HPoint

PLUECKER_F = parse_poly("x3*x1^2 + x3*x2^2 - 2*x0*x1*x2")
PLUECKER_FSTAR = parse_poly("u0*u1^2 + u0*u2^2 - 2*u1*u2*u3")
PARABOLOID_FSTAR = parse_poly("u1^2 + u2^2 + u3^2 + u0*u3")
SPHERE_FSTAR = parse_poly("(1 - 4)*u1^2 + u2^2 + u3^2 - 4*u0*u1 - u0^2")  # m=2, R=1


class TestEval:
    def test_pluecker_point_on_conoid(self):
        assert PLUECKER_F.eval(HPoint([1, 1, 1, 1])) == 0

    def test_zero_tuple_rejected(self):
        with pytest.raises(ValueError):
            PLUECKER_F.eval((0, 0, 0, 0))

    def test_space_mismatch(self):
        with pytest.raises(SpaceMismatch):
            PLUECKER_F.eval(HPlane([1, 1, 1, 1]))

    def test_homogeneity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            t = rng.uniform(-2, 2, 4)
            lam = rng.uniform(0.5, 2.0)
            a = PLUECKER_F.eval(tuple(lam * t))
            b = lam ** PLUECKER_F.degree * PLUECKER_F.eval(tuple(t))
            assert abs(a - b) < 1e-9 * max(1.0, abs(b))

    def test_exact_on_rationals(self):
        val = PARABOLOID_FSTAR.eval((Fraction(1, 3), Fraction(1), 0, Fraction(2)))
        assert val == 1 + 4 + Fraction(2, 3)


class TestArithmetic:
    def test_difference_of_squares(self):
        x0, x3 = HomPoly4.variable(Space.POINT, 0), HomPoly4.variable(Space.POINT, 3)
        assert (x0 - x3) * (x0 + x3) == x0 ** 2 - x3 ** 2

    def test_exact_divide_twice(self):
        x0, x3 = HomPoly4.variable(Space.POINT, 0), HomPoly4.variable(Space.POINT, 3)
        p = x0 ** 2 * (x0 - x3)
        assert p.exact_divide(x0).exact_divide(x0) == x0 - x3

    def test_not_divisible(self):
        x0, x1, x3 = (HomPoly4.variable(Space.POINT, i) for i in (0, 1, 3))
        with pytest.raises(NotDivisible):
            (x0 - x3).exact_divide(x1)

    def test_inhomogeneous_rejected(self):
        with pytest.raises(ValueError):
            parse_poly("x0^2 - x3")

    @pytest.mark.parametrize("exps", [(1.5, 0.5, 0, 0), (2.0, 0, 0, 0), ("1", 0, 0, 0),
                                      (1, 0, 0), (1, 0, 0, 0, 0), (2, -1, 0, 0)])
    def test_bad_exponent_tuple_rejected(self, exps):
        # a non-integral exponent is an error, not truncated to an integer
        with pytest.raises(ValueError, match="bad exponent tuple"):
            HomPoly4(Space.POINT, {exps: 1})

    def test_integer_exponent_types_accepted(self):
        exps = (np.int64(1), np.uint8(1), 0, np.int32(0))
        p = HomPoly4(Space.POINT, {exps: 1})
        assert p.terms == {(1, 1, 0, 0): 1} and p.degree == 2
        assert all(type(e) is int for e in next(iter(p.terms)))


class TestPedalPullback:
    def test_paraboloid_to_plane(self):
        image = pedal_pullback(PARABOLOID_FSTAR)
        stripped = strip_exceptional(image)
        assert (stripped.r, stripped.k) == (1, 1)
        assert stripped.reduced.equals_up_to_scale(parse_poly("x0 - x3"))

    def test_bundle_to_om_sphere(self):
        image = pedal_pullback(parse_poly("u0 + 2*u1"))
        expect = parse_poly("2*x0*x1 - (x1^2 + x2^2 + x3^2)")
        assert image.equals_up_to_scale(expect)

    def test_pluecker_quartic(self):
        stripped = strip_exceptional(pedal_pullback(PLUECKER_FSTAR))
        assert (stripped.r, stripped.k) == (2, 0)
        expect = parse_poly("2*x0*x1*x2*x3 + (x1^2+x2^2)*(x1^2+x2^2+x3^2)")
        assert stripped.reduced.equals_up_to_scale(expect)


class TestInversePedalPullback:
    def test_plane_to_paraboloid(self):
        image = inverse_pedal_pullback(parse_poly("x3 - x0"))
        assert image.equals_up_to_scale(PARABOLOID_FSTAR)

    def test_sphere_to_quadric(self):
        m, r = 2, 1
        sphere = parse_poly(f"x1^2+x2^2+x3^2 - {2 * m}*x0*x1 + {m * m - r * r}*x0^2")
        stripped = strip_exceptional(inverse_pedal_pullback(sphere))
        expect = parse_poly(f"u0^2 + {2 * m}*u0*u1 + {m * m - r * r}*(u1^2+u2^2+u3^2)")
        assert stripped.reduced.equals_up_to_scale(expect)

    @pytest.mark.parametrize("text", [
        "x3 - x0",
        "2*x0*x1*x2*x3 + (x1^2+x2^2)*(x1^2+x2^2+x3^2)",
        "x1^2+x2^2+x3^2 - 4*x0*x1 + 3*x0^2",
    ])
    def test_round_trip_through_both_pullbacks(self, text):
        g = parse_poly(text)
        up = strip_exceptional(inverse_pedal_pullback(g)).reduced
        back = strip_exceptional(pedal_pullback(up)).reduced
        assert back.equals_up_to_scale(g)


class TestStrip:
    def test_mixed_factors(self):
        p = parse_poly("x0*(x1^2+x2^2+x3^2)*(x0-x3)")
        s = strip_exceptional(p)
        assert (s.r, s.k) == (1, 1)
        assert s.reduced.equals_up_to_scale(parse_poly("x0-x3"))

    def test_clean_polynomial(self):
        s = strip_exceptional(parse_poly("x0-x3"))
        assert (s.r, s.k) == (0, 0)

    def test_pure_quadric_power(self):
        s = strip_exceptional(parse_poly("(x1^2+x2^2+x3^2)^2"))
        assert (s.r, s.k) == (0, 2)
        assert s.reduced.degree == 0

    @given(st.integers(0, 2), st.integers(0, 2))
    @settings(max_examples=20, deadline=None)
    def test_reconstruction_identity(self, r, k):
        core = parse_poly("x0^2 + 3*x1*x2 - x3^2/2")
        x0 = HomPoly4.variable(Space.POINT, 0)
        q = HomPoly4.quadform(Space.POINT)
        p = x0 ** r * q ** k * core
        s = strip_exceptional(p)
        assert (s.r, s.k) == (r, k)
        assert x0 ** s.r * q ** s.k * s.reduced == p


class TestDegreeBookkeeping:
    @pytest.mark.parametrize("poly,expect", [
        (PLUECKER_FSTAR, (3, 2, 0, 4)),
        (PARABOLOID_FSTAR, (2, 1, 1, 1)),
        (SPHERE_FSTAR, (2, 0, 0, 4)),
    ])
    def test_named_cases(self, poly, expect):
        assert degree_bookkeeping(poly) == expect

    def test_rule_violation_raises(self, monkeypatch):
        # a strip that miscounts k must not pass the 2n - r - 2k rule
        strip = hompoly.strip_exceptional
        monkeypatch.setattr(hompoly, "strip_exceptional",
                            lambda p: dataclasses.replace(strip(p), k=strip(p).k + 1))
        with pytest.raises(RuntimeError, match="degree rule violated"):
            degree_bookkeeping(PARABOLOID_FSTAR)

    def test_rule_violation_raises_under_optimize(self):
        # python -O strips assert statements; the rule check must survive it
        code = (
            "import dataclasses\n"
            "from pedalis import hompoly\n"
            "strip = hompoly.strip_exceptional\n"
            "hompoly.strip_exceptional = lambda p: dataclasses.replace(strip(p), r=0)\n"
            "try:\n"
            "    hompoly.degree_bookkeeping(hompoly.parse_poly('u0*u1^2 + u0*u2^2 - 2*u1*u2*u3'))\n"
            "except RuntimeError as exc:\n"
            "    print(exc)\n")
        res = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                             text=True, check=True)
        assert res.stdout.startswith("degree rule violated")


class TestOffsetDualPoly:
    def test_paraboloid_family(self):
        d = Fraction(1, 2)
        got = offset_dual_poly(PARABOLOID_FSTAR, d)
        u0, u3 = HomPoly4.variable(Space.DUAL, 0), HomPoly4.variable(Space.DUAL, 3)
        q = HomPoly4.quadform(Space.DUAL)
        expect = u3 ** 2 * q * d ** 2 - (q + u0 * u3) ** 2
        assert got.equals_up_to_scale(expect)

    def test_pluecker_family(self):
        d = Fraction(1, 3)
        got = offset_dual_poly(PLUECKER_FSTAR, d)
        w2 = parse_poly("u1^2 + u2^2")
        q = HomPoly4.quadform(Space.DUAL)
        expect = w2 ** 2 * q * d ** 2 - PLUECKER_FSTAR ** 2
        assert got.equals_up_to_scale(expect)

    def test_parabola_family(self):
        a, c, d = Fraction(1), Fraction(1), Fraction(1, 2)
        fstar = parse_poly("u1^2 - 2*u0*u3 - 2*u3^2")
        got = offset_dual_poly(fstar, d)
        u3 = HomPoly4.variable(Space.DUAL, 3)
        q = HomPoly4.quadform(Space.DUAL)
        expect = fstar ** 2 - u3 ** 2 * q * (4 * a * a * d * d)
        assert got.equals_up_to_scale(expect)

    def test_sphere_family_splits_into_branches(self):
        # two-sided product equals the two one-sided spheres
        def branch(d):
            m, R = Fraction(2), Fraction(1)
            Rd = R + d
            return parse_poly(
                f"({Rd * Rd - m * m})*u1^2 + ({Rd * Rd})*(u2^2+u3^2)"
                f" - {2 * m}*u0*u1 - u0^2")

        d = Fraction(1, 2)
        got = offset_dual_poly(SPHERE_FSTAR, d)
        assert got.equals_up_to_scale(branch(d) * branch(-d))


GALLERY_TEXTS = [
    "x3 - x0",
    "u0*u1^2 + u0*u2^2 - 2*u1*u2*u3",
    "2*x0*x1*x2*x3 + (x1^2+x2^2)*(x1^2+x2^2+x3^2)",
    "u0^2 + 4*u0*u1 + 3*u1^2 + 3*u2^2 + 3*u3^2",
]


class TestTextForm:
    @pytest.mark.parametrize("text", GALLERY_TEXTS)
    def test_parse_format_round_trip(self, text):
        p = parse_poly(text)
        assert parse_poly(format_poly(p)) == p

    def test_canonical_form_is_fixed_point(self):
        for text in GALLERY_TEXTS:
            s = format_poly(parse_poly(text))
            assert format_poly(parse_poly(s)) == s

    def test_fraction_coefficients(self):
        p = parse_poly("3/2*x0*x1 - x2^2/4")
        assert p.coefficient((1, 1, 0, 0)) == Fraction(3, 2)
        assert p.coefficient((0, 0, 2, 0)) == Fraction(-1, 4)

    def test_malformed(self):
        for text in ["x0 + $", "x0 * (x1 + u2)", "3/2*x0 + 1.5*x1", "sin(x0)",
                     "x0, x1", "x0^-1", "x0^(1/2)", "x0^x1", "x0^2^-1", "x4", "x0 +"]:
            with pytest.raises(ValueError):
                parse_poly(text)

    def test_chart_grammar_forms(self):
        # unary + after an operator, parenthesized and chained exponents
        assert parse_poly("x0 + +x1") == parse_poly("x0 + x1")
        assert parse_poly("x0*+x1 - +x2^2") == parse_poly("x0*x1 - x2^2")
        assert parse_poly("x0^(2)") == parse_poly("x0^2")
        assert parse_poly("x0^2^1 + x1^(4/2)") == parse_poly("x0^2 + x1^2")
        assert parse_poly("(x0 + x1)^2^2") == parse_poly("(x0 + x1)^4")

    def test_term_order(self):
        # HomPoly4.eval_grid sums in insertion order, and verify prints those floats
        assert list(parse_poly("x1^2 + x2^2 + 4*x0*x3 - 4*x0^2").terms) == [
            (0, 2, 0, 0), (0, 0, 2, 0), (1, 0, 0, 1), (2, 0, 0, 0)]
        assert list(parse_poly("-(u1 - u2)*(u1 + u2) + u0*u3").terms) == [
            (0, 2, 0, 0), (0, 0, 2, 0), (1, 0, 0, 1)]

    def test_zero_polynomial(self):
        z = HomPoly4.zero(Space.POINT)
        assert format_poly(z) == "0"
