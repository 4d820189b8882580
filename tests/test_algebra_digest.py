"""Exact algebra outputs, locked by sha256 digest.

Each case runs one text-in, text-out chain of the public API and compares
the sha256 of the printed result, and of ``(r, k)`` for pedal images,
with the digest recorded when the case was added:

* pedal:   parse_poly -> pedal_pullback -> strip_exceptional -> format_poly
* inverse: parse_poly -> inverse_pedal_pullback -> format_poly
* offset:  parse_poly -> offset_dual_poly -> format_poly

Inputs are written as factored text.  Dense inputs are sums of powers of
linear forms, so every monomial of their degree occurs; planted inputs
are ``u0^a*(u1^2 + u2^2 + u3^2)^b*g`` with a dense ``g``, so that
``strip_exceptional`` really divides.  Inverse inputs are pedal images,
written by substituting the pedal map into a dense dual text.
"""

import hashlib
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

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

ROOT = Path(__file__).resolve().parent.parent


def dense(n: int) -> str:
    """A dense dual polynomial of degree n >= 1 with rational coefficients."""
    text = f"(u0 - 2*u1 + u2/3 + 3*u3)^{n} - (2*u0 + u1 - 5/4*u3)^{n - 1}*(u1 - u2/2)"
    return text + f" + 7*(u0 + u1 + u2 - u3)^{n - 2}*u2^2/5" if n >= 2 else text


def planted(n: int, a: int, b: int) -> str:
    return f"u0^{a}*(u1^2 + u2^2 + u3^2)^{b}*({dense(n - a - 2 * b)})"


def pedal_image_text(dual: str) -> str:
    """Point text of the pedal image: u0 -> -(x1^2+x2^2+x3^2), ui -> x0*xi."""
    subs = {"u0": "(-(x1^2 + x2^2 + x3^2))", "u1": "(x0*x1)", "u2": "(x0*x2)", "u3": "(x0*x3)"}
    return re.sub(r"u[0-3]", lambda m: subs[m.group()], dual)


PEDAL = {
    "dense-4": dense(4), "dense-6": dense(6), "dense-8": dense(8), "dense-10": dense(10),
    "planted-4-1-1": planted(4, 1, 1), "planted-6-2-1": planted(6, 2, 1),
    "planted-8-1-2": planted(8, 1, 2), "planted-10-1-1": planted(10, 1, 1),
}
INVERSE = {f"image-{n}": pedal_image_text(dense(n)) for n in (4, 5, 6)}
OFFSET = {
    "dense-4-1/7": (dense(4), Fraction(1, 7)), "dense-5-3/7": (dense(5), Fraction(3, 7)),
    "dense-6-6/7": (dense(6), Fraction(6, 7)), "planted-7-1-1-2/7": (planted(7, 1, 1), Fraction(2, 7)),
}


def run(kind: str, name: str) -> str:
    """Printed result of one case; pedal cases append the stripped (r, k)."""
    if kind == "pedal":
        stripped = strip_exceptional(pedal_pullback(parse_poly(PEDAL[name])))
        return f"{format_poly(stripped.reduced)}\nr={stripped.r} k={stripped.k}"
    if kind == "inverse":
        return format_poly(inverse_pedal_pullback(parse_poly(INVERSE[name])))
    text, d = OFFSET[name]
    return format_poly(offset_dual_poly(parse_poly(text), d))


DIGESTS = {
    ("pedal", "dense-4"): "d972bab1c9007646d5c54a8554052f9c753dfcca78bc27134c1922e94d6b4cb7",
    ("pedal", "dense-6"): "c4da2943de5601db0ebcf8cb2bfaf69af44d595aa630389def45bb5d6793aded",
    ("pedal", "dense-8"): "02e0dc2435dfaf51671ec1ccd8d57acac6f807a56406116cae778f9418b331eb",
    ("pedal", "dense-10"): "18fc5e2a40ca8eb6529f6c01d2800799e0ba568d7e0328d7b0619be6a90afb71",
    ("pedal", "planted-4-1-1"): "0437bcbb55e91f87a1b984c701d784a3cd347295bf9ebffcfb1930b259b584a2",
    ("pedal", "planted-6-2-1"): "f18a7ceb4fd968930d8960bd038632f27213e8e3dc6b9ad8b0a6d9e0133b2aba",
    ("pedal", "planted-8-1-2"): "c6894fed43e3c7253ea374394ac34f2a4aa14dd8687031002ec57aecc474f975",
    ("pedal", "planted-10-1-1"): "c6daeda4dffe4b31c199ac48ae3bfd5feea0f09181ae0d89f3f7d6bccf9c7b33",
    ("inverse", "image-4"): "cf5dc813ad4d83f048cabc6d5d63ccfcbd760f9066c7e988db71199896499411",
    ("inverse", "image-5"): "cdf7114a91f4400a414337798139521c1066887e6a39bb5e5374c698d100c933",
    ("inverse", "image-6"): "1449639fec838be3cf96585424376d709cf4b31f3e4366dcae2f94b03f16f413",
    ("offset", "dense-4-1/7"): "4eeaf8d8b2d7e22d78f59c2c93325844bdd1c3c8fcf490ecc3a3503ccef23247",
    ("offset", "dense-5-3/7"): "da6ca3ddcb10adb4da5e333fc262adc193c58abc8fd75289b3c24ea874148fd9",
    ("offset", "dense-6-6/7"): "dcd46a2ccf75636e8e3960d0b29d24998c100dd64a5e945138a7c9efeb56f2eb",
    ("offset", "planted-7-1-1-2/7"): "ca32efb9c3e5e454d52d893744bd56d0e99a1ac87d26f77f9b4bc18af590d7a0",
}


@pytest.mark.parametrize("kind,name", sorted(DIGESTS))
def test_algebra_digest(kind, name):
    assert hashlib.sha256(run(kind, name).encode()).hexdigest() == DIGESTS[kind, name]


def test_every_case_is_pinned():
    cases = {("pedal", n) for n in PEDAL} | {("inverse", n) for n in INVERSE}
    assert cases | {("offset", n) for n in OFFSET} == set(DIGESTS)


def test_inverse_inputs_are_pedal_images():
    for n in (4, 5, 6):
        assert parse_poly(INVERSE[f"image-{n}"]) == pedal_pullback(parse_poly(dense(n)))


def all_fractions(poly: HomPoly4) -> bool:
    return all(type(c) is Fraction for c in poly.terms.values())


class TestCoefficientsAreFractions:
    """No internal integer coefficient leaks out of the exact algebra."""

    @pytest.mark.parametrize("text", ["u0^2 + u1*u2 - 3*u3^2", "x0", "2*(x1 + x2)^3",
                                      dense(4), planted(5, 1, 1), "u0/2 + u1"])
    def test_parse_pullback_strip(self, text):
        poly = parse_poly(text)
        assert all_fractions(poly)
        pull = pedal_pullback if poly.space is Space.DUAL else inverse_pedal_pullback
        image = pull(poly)
        assert all_fractions(image)
        assert all_fractions(strip_exceptional(image).reduced)
        assert all_fractions(strip_exceptional(poly).reduced)

    @pytest.mark.parametrize("d", [1, Fraction(1, 2), Fraction(3, 7)])
    def test_offset(self, d):
        for text in ("u0^2 + u1^2 - u2*u3", dense(3)):
            assert all_fractions(offset_dual_poly(parse_poly(text), d))


def _raw(poly: HomPoly4) -> list:
    return [[*e, c.numerator, c.denominator] for e, c in poly.terms.items()]


def test_algebra_ops_meet_the_benchmark_checker(monkeypatch):
    # one pass of the benchmark's algebra ops, recorded as its driver records
    # them, must pass the benchmark's own exact checker
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from checks import ROUNDTRIP_TERMS, check_algebra
    from workloads import algebra_ops

    rng = random.Random(301)
    for op in algebra_ops(random.Random(301)):
        poly = parse_poly(op["text"])
        if op["kind"] == "pedal":
            image = pedal_pullback(poly)
            stripped = strip_exceptional(image)
            result = stripped.reduced
        elif op["kind"] == "inverse":
            result = inverse_pedal_pullback(poly)
        else:
            result = offset_dual_poly(poly, Fraction(op["d"]))
        text = format_poly(result)
        out = {"text": text, "result": _raw(result)}
        if len(result.terms) <= ROUNDTRIP_TERMS:
            out["roundtrip"] = _raw(parse_poly(text))
        if op["kind"] == "pedal":
            out.update(pullback=_raw(image), r=stripped.r, k=stripped.k)
        assert check_algebra(op, out, rng) == [], (op["kind"], op["degree"], op["planted"])
