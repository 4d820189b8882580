import dataclasses
import random
import re
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from pedalis import grammar, hompoly
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

    def test_hpoint_checks_after_projmaps_loads(self):
        # eval looks HPoint and HPlane up in a loaded projmaps
        assert PARABOLOID_FSTAR.eval(HPlane([1, 0, 0, -1])) == 0
        with pytest.raises(SpaceMismatch, match="dual polynomial evaluated at a point"):
            PARABOLOID_FSTAR.eval(HPoint([1, 0, 0, -1]))

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

    @pytest.mark.parametrize("make", [
        lambda n: "(" * n + "u0" + ")" * n,
        lambda n: "-" * n + "u0",
        lambda n: "u0" + "^1" * n,
        lambda n: "-(" * (n // 2) + "-" * (n % 2) + "u0" + ")" * (n // 2),
        lambda n: "u0" + "^(1" * (n // 2) + "^1" * (n % 2) + ")" * (n // 2),
    ], ids=["parentheses", "unary-minus", "power-chain", "minus-parentheses", "power-groups"])
    def test_nesting_is_bounded(self, make):
        # one bound over '(', unary signs and '^', the recursion of the parser
        depth = grammar.MAX_DEPTH
        assert parse_poly(make(depth)).degree == 1
        with pytest.raises(ValueError, match=f"^text nested deeper than {depth} levels$"):
            parse_poly(make(depth + 1))

    @pytest.mark.parametrize("text", ["-" * 2000 + "u0", "(" * 250 + "u0" + ")" * 250,
                                      "u1" + "^1" * 2000, "+" * 2000 + "u0"])
    def test_deep_text_is_a_value_error(self, text):
        with pytest.raises(ValueError, match="^text nested deeper than"):
            parse_poly(text)

    @pytest.mark.parametrize("text, tok", [
        ("u1^\u0662", "\u0662"), ("\uff12*u2", "\uff12"), ("u1 +\u3000u2", "\u3000"),
        ("u1\u00a0+ u2", "\u00a0"), ("x0*\u0663/\u0664", "\u0663"),
    ])
    def test_numbers_and_spaces_are_ascii(self, text, tok):
        # the digits int() would read and the spaces str.split() would skip
        with pytest.raises(ValueError, match=f"^unexpected token {re.escape(repr(tok))}$"):
            parse_poly(text)

    def test_chart_nesting_and_digits(self):
        from pedalis.config import parse_expr

        depth = grammar.MAX_DEPTH
        assert parse_expr("sin(" * depth + "u" + ")" * depth)(0.0, 1.0) == 0.0
        for text in ["cos(" * (depth + 1) + "u" + ")" * (depth + 1), "u^\u0662"]:
            with pytest.raises(ValueError):
                parse_expr(text)

    def test_term_order(self):
        # HomPoly4.eval_grid sums in insertion order, and verify prints those floats
        assert list(parse_poly("x1^2 + x2^2 + 4*x0*x3 - 4*x0^2").terms) == [
            (0, 2, 0, 0), (0, 0, 2, 0), (1, 0, 0, 1), (2, 0, 0, 0)]
        assert list(parse_poly("-(u1 - u2)*(u1 + u2) + u0*u3").terms) == [
            (0, 2, 0, 0), (0, 0, 2, 0), (1, 0, 0, 1)]

    def test_zero_polynomial(self):
        z = HomPoly4.zero(Space.POINT)
        assert format_poly(z) == "0"


class _PlainHooks(hompoly._PolyHooks):
    monomial = None  # every monomial run goes back to plain tokens


def _outcome(text, hooks_class=hompoly._PolyHooks):
    """Terms in order with their exponent tuples, their coefficient types and
    the space, or the message."""
    hooks = hooks_class(None)
    try:
        terms = hompoly._parse_text(text, hooks)
    except ValueError as exc:
        return str(exc)
    return [(hompoly._unpack(e), c, type(c)) for e, c in terms.items()], hooks.space


@st.composite
def poly_texts(draw):
    """Polynomial text in the benchmark's input form (p/q* coefficients,
    implicit exponents of one, shuffled terms) or in format_poly's form,
    optionally with terms that cancel, terms that cancel and come back at
    once, sums longer than one 33-run token, exponent pairs of 60 to 64 that
    meet the degree bound, terms that are not runs (u0^3/3, u1*u2*5/7,
    (2)*u3), a signed first term, parentheses (negated, scaled or under
    '^'), random spaces and one stray character."""
    space = draw(st.sampled_from(Space))
    deg = draw(st.integers(0, 4))
    exps = st.lists(st.integers(0, 3), min_size=deg, max_size=deg).map(
        lambda vs: tuple(vs.count(i) for i in range(4)))
    high = draw(st.integers(0, 3)) == 0
    if high:  # two variables to powers of 60 to 64: degree 120 to 128
        high_exps = st.sampled_from([60, 62, 63, 64])
        exps = st.tuples(st.permutations(range(4)), high_exps, high_exps).map(
            lambda t: tuple({t[0][0]: t[1], t[0][1]: t[2]}.get(i, 0) for i in range(4)))
    coeffs = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4))
    terms = draw(st.dictionaries(exps, coeffs, min_size=1, max_size=6))
    if not high and draw(st.booleans()):
        text = format_poly(HomPoly4(space, terms))
    else:
        items = draw(st.permutations(list(terms.items())))
        if draw(st.booleans()):  # the sum cancels, then terms come back in another order
            items += [(e, -c) for e, c in draw(st.permutations(items))]
            items += draw(st.permutations(items))[:draw(st.integers(0, len(items)))]
        if draw(st.booleans()):  # more than one 33-run token
            items += draw(st.permutations(items)) * (34 // len(items))
        if draw(st.booleans()):  # terms that cancel and come back in the next two runs
            at = draw(st.sets(st.integers(0, len(items) - 1), min_size=1, max_size=3))
            total, runs = {}, []
            for n, (e, c) in enumerate(items):
                runs.append((e, c))
                total[e] = total.get(e, 0) + c
                if n in at and total[e]:
                    back = draw(coeffs)
                    runs += [(e, -total[e]), (e, back)]
                    total[e] = back
            items = runs
        parts = []
        breaks = draw(st.sets(st.integers(0, len(items) - 1), max_size=2))
        for n, (e, c) in enumerate(items):
            factors = [v if k == 1 else f"{v}^{k}" for v, k in zip(space.variables, e) if k]
            mono, p, q = "*".join(factors), abs(c).numerator, abs(c).denominator
            shape = draw(st.sampled_from(["over", "times", "paren"])) if n in breaks else "run"
            if not factors:
                body = f"{abs(c)}"
            elif shape == "over":  # a run followed by '/' is no run
                body = (mono if p == 1 else f"{p}*{mono}") + (f"/{q}" if q > 1 else "/1")
            elif shape == "times":
                body = f"{mono}*{abs(c)}"
            elif shape == "paren":
                body = f"({abs(c)})*{mono}"
            else:
                body = mono if abs(c) == 1 else f"{abs(c)}*{mono}"
            parts.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(parts)
        if draw(st.booleans()):
            text = text[2:] if text[0] == "+" else "-" + text[2:]
        elif draw(st.booleans()):  # a signed first term, glued to its sign
            text = text[0] + text[2:]
    words = text.split(" ")
    if draw(st.booleans()):  # parentheses around a span of words
        i = draw(st.integers(0, len(words) - 1))
        j = draw(st.integers(i, len(words) - 1))
        words[i] = draw(st.sampled_from(["(", "-(", "2*(", "u1*("])) + words[i]
        words[j] += ")" + draw(st.sampled_from(["", "", "^2", "^0", "*u2"]))
    spaces = st.sampled_from(["", " ", "  ", "\n"])
    if draw(st.booleans()):  # random spaces between words
        text = "".join(w + draw(spaces) for w in words)
    elif draw(st.booleans()):  # and within them
        text = "".join(w + draw(spaces) for w in " ".join(words))
    else:
        text = " ".join(words)
    if draw(st.booleans()):
        k = draw(st.integers(0, len(text)))
        text = text[:k] + draw(st.sampled_from(list("*/^()+- 0y.$"))) + text[k:]
    return text


class TestMonomialRuns:
    """A monomial run at a term start is one token and one monomial() call;
    it must give what its plain tokens give through the general path."""

    @seed(20261019)
    @settings(max_examples=400, deadline=None)
    @given(poly_texts())
    def test_run_path_matches_general_path(self, text):
        assert _outcome(text) == _outcome(text, _PlainHooks)

    def test_tokens(self):
        # a run sum is one token; a run followed by '*', '^', '/' or '(' is not in one
        assert grammar.TEXT_TOKEN.findall("-20/3*x0*x2^2*x3^7 + x1^3*(x2 - 7*x0*x3)") == [
            "-20/3*x0*x2^2*x3^7", "+", "x1", "^", "3", "*", "(", "x2 - 7*x0*x3", ")"]
        assert grammar.TEXT_TOKEN.findall("x1 + x2^2-3*x3\n- (x0) - x1*x2 + 5 * x0/2 + x3") == [
            "x1 + x2^2-3*x3", "-", "(", "x0", ")", "- x1*x2", "+", "5", "*", "x0", "/", "2",
            "+ x3"]
        assert grammar.TEXT_TOKEN.findall("x1 +x2 - x3^2^2") == [
            "x1 +x2", "-", "x3", "^", "2", "^", "2"]
        # no run sum starts right after '*', '/' or '^'
        assert grammar.TEXT_TOKEN.findall("2^u1*u2 + u3 - 1/u1*u2") == [
            "2", "^", "u1", "*", "u2", "+ u3", "-", "1", "/", "u1", "*", "u2"]
        # at most 33 runs a token; the next starts with its sign
        runs = [f"{k}*x0^{k}" for k in range(1, 41)]
        assert grammar.TEXT_TOKEN.findall(" + ".join(runs)) == [
            " + ".join(runs[:33]), "+ " + " + ".join(runs[33:])]

    def test_long_product_is_scanned_once(self):
        # a run tried from every factor made this quadratic: 5.5 s for 8000
        text = "*".join(["u1"] * 8000) + "*(u2)"
        start = time.perf_counter()
        tokens = grammar.TEXT_TOKEN.findall(text)
        assert time.perf_counter() - start < 1.0
        assert tokens == ["u1", "*"] * 8000 + ["(", "u2", ")"]

    def test_run_is_one_hook_call(self, monkeypatch):
        """A run sum at the start of an expr is one call, and so is one in
        place of '+ term' or '- term', which adds to the value so far.  A
        signed first run and a run after '*' go back to plain tokens."""
        calls = []
        monomial = hompoly._PolyHooks.monomial

        def spy(self, runs, terms=None):
            calls.append((runs, None if terms is None else [hompoly._unpack(e) for e in terms]))
            return monomial(self, runs, terms)

        monkeypatch.setattr(hompoly._PolyHooks, "monomial", spy)
        parse_poly("20/3*x0*x2^2*x3^7 - x1^2*x2^8 + 2*x0^10")
        assert calls == [("20/3*x0*x2^2*x3^7 - x1^2*x2^8 + 2*x0^10", None)]
        calls.clear()
        text = "-x0^2*x1 + x2^3 - (x0 + x1)*x2*x3 + x3^3"
        assert _outcome(text) == _outcome(text, _PlainHooks)
        assert calls == [("+ x2^3", [(2, 1, 0, 0)]), ("x0 + x1", None),
                         ("+ x3^3", [(2, 1, 0, 0), (0, 0, 3, 0), (1, 0, 1, 1), (0, 1, 1, 1)])]

    @pytest.mark.parametrize("text, terms", [
        ("u1/2*u2", {(0, 1, 1, 0): Fraction(1, 2)}),  # a run after '/'
        ("(2*u1^2 + u2^2)/3", {(0, 2, 0, 0): Fraction(2, 3), (0, 0, 2, 0): Fraction(1, 3)}),
        ("u1^2^3", {(0, 8, 0, 0): 1}),  # '^' after a factor ends no run
        ("-2*u1*u2", {(0, 1, 1, 0): -2}),  # a run after a unary sign
        ("2*u1*(u1 + u2)", {(0, 2, 0, 0): 2, (0, 1, 1, 0): 2}),  # '*(' ends no run
        ("007*u1^03", {(0, 3, 0, 0): 7}),
        ("2 * u1", {(0, 1, 0, 0): 2}),
        ("4/2*u1 + u1^0*u2^1", {(0, 1, 0, 0): Fraction(2), (0, 0, 1, 0): 1}),
        ("u1^1", {(0, 1, 0, 0): 1}),
        # the second run sums the increments the first keyed, one below the bound
        ("u0^64*u1^63 + u1^63*u0^64", {(64, 63, 0, 0): 2}),
    ])
    def test_pinned_values(self, text, terms):
        got = _outcome(text)
        assert got == ([(e, c, type(c)) for e, c in terms.items()], Space.DUAL)
        assert got == _outcome(text, _PlainHooks)

    @pytest.mark.parametrize("text, message", [
        ("0*x1 + u1", "mixed point and dual variables"),
        ("y1*u1", "unknown variable 'y1'"),
        ("0*y1", "unknown variable 'y1'"),
        ("1/0*u1", "division by zero"),
        ("0/0*u1", "division by zero"),
        ("1/0*y1", "division by zero"),
        ("u1 2*u2", "unexpected token '2'"),
        ("1_000*u1", "unexpected token '_000'"),
        # at the degree bound in a run's first factors, keyed one at a time
        ("u1^128", "degree 128 is not below the bound 128"),
        ("u0^64*u1^64", "degree 128 is not below the bound 128"),
        # at the bound in the sum of factors keyed by earlier runs of the text
        ("u1^126 + u1^2 + u1^126*u1^2", "degree 128 is not below the bound 128"),
        ("u0^64 + u1^64 + u0^64*u1^64", "degree 128 is not below the bound 128"),
        # 256 in one slot carries into the next; the degree field still sees it
        ("u1^100 + u1^56 + u1^100*u1^100*u1^56", "degree 200 is not below the bound 128"),
        ("u1*u2 - 2*u1^2*x1", "mixed point and dual variables"),  # after the space is set
        ("x1*x2 + x0*y1", "unknown variable 'y1'"),
    ])
    def test_pinned_messages(self, text, message):
        assert _outcome(text) == _outcome(text, _PlainHooks) == message

    @pytest.mark.parametrize("text", [
        # a term cancels inside a run sum after a term that is not a run, and
        # comes back: it moves to the end, as add and sub move it
        "u1/1 + u2 + u3 - u3 - u1 + u1",
        "(u1) + u2 - u1 - u2 + u2 + u1",
        "2*(u1 + u2) - 2*u1 - 2*u2 + 2*u2",
        "u1*u2 - u1*u2 + u3^2 - u3^2",  # the sum cancels to zero
        # u1^3 cancels in the second token of a long sum and comes back
        "u1^3 + u2^3 + " + " + ".join(f"{k}*u0^3" for k in range(1, 32)) + " - u1^3 + u1^3",
        # a leading sign is unary, so a signed first run goes to plain tokens
        "-0*u1^64*u2^64", "-u0^63*u3^130", "+ 0*u1^127*u1 - u2",
    ])
    def test_run_sum_matches_plain_tokens(self, text):
        assert _outcome(text) == _outcome(text, _PlainHooks)

    @pytest.mark.parametrize("text", [
        # a zero product checks each factor alone: no degree sum, as mul sees none
        "0*u1^64*u2^64", "u1 + 0*u1^64*u2^64", "0*u1^127*u1^127*u2^127",
        "u1^64 + u2^64 + 0*u1^64*u2^64",  # from keyed increments
        "0*u1^128", "0*u1^200*y1", "0*y1^200", "u1 - 0*x1^64*u2^64",
        # a factor's own exponent at the bound is reported before the sum
        "u0^63*u3^130", "u0^100*u1^20*u2^130", "u0^100*u1^20*u2^10", "2*u1^64*u2^64",
        "u0^63 + u3 + u0^63*u3^130",
    ])
    def test_degree_bound_matches_plain_tokens(self, text):
        assert _outcome(text) == _outcome(text, _PlainHooks)

    def test_zero_coefficient_still_sets_the_space(self):
        assert _outcome("0*x1") == ([], Space.POINT)

    def test_dense_output_keys_each_factor_once(self, monkeypatch):
        """A run goes through the per-factor code only if it has a factor
        the text has not keyed yet; the other runs sum keyed increments."""
        rng = random.Random(5)
        exps = [(a, b, c, 10 - a - b - c) for a in range(11) for b in range(11 - a)
                for c in range(11 - a - b)]
        poly = HomPoly4(Space.DUAL, {e: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 3))
                                     for e in exps})
        text = format_poly(poly)
        shifts, slow = [], []
        shift, run_key = hompoly._PolyHooks._shift, hompoly._PolyHooks._run_key
        monkeypatch.setattr(hompoly._PolyHooks, "_shift",
                            lambda self, tok: shifts.append(tok) or shift(self, tok))
        monkeypatch.setattr(hompoly._PolyHooks, "_run_key",
                            lambda self, factors: slow.append(factors) or run_key(self, factors))
        assert parse_poly(text) == poly
        keyed = set()
        for factors in slow:
            assert not keyed.issuperset(factors)
            keyed.update(factors)
        assert len(keyed) == 40  # u0 .. u3, each to the powers 1 .. 10
        assert len(shifts) == sum(map(len, slow)) < len(exps) / 2

    def test_config_chart_values_keep_their_bits(self):
        from pedalis.config import parse_expr

        u, v = np.array([0.3, -1.7, 2.5]), np.array([1.1, 0.45, -3.25])
        got = parse_expr("2*u^2*v - 7/2*u*v^2")(u, v)
        assert [x.hex() for x in got] == [
            "-0x1.128f5c28f5c2ap+0", "0x1.e726e978d4fe0p+1", "-0x1.0a18000000000p+7"]
