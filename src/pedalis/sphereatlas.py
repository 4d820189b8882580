"""Parameterizations of the unit sphere.

The universal construction turns four arbitrary functions (a,b,c,d) into a
sphere chart via

    A = 2(ac+bd),  B = 2(bc-ad),  C = a^2+b^2-c^2-d^2,  D = a^2+b^2+c^2+d^2,

with (A,B,C)/D of unit length identically (A^2+B^2+C^2 = D^2 is an algebraic
identity).  Rational inputs give rational sphere charts; rationality itself
is the caller's contract and is not enforced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CommonZero
from .surfkit import Chart, Domain, drop, vector_rows


@dataclass(frozen=True)
class RationalQuadruple:
    """Four bivariate scalar functions driving the universal sphere chart."""

    a: object
    b: object
    c: object
    d: object
    domain: Domain = Domain(0.0, 1.0, 0.0, 1.0)

    def __call__(self, u, v):
        return (self.a(u, v), self.b(u, v), self.c(u, v), self.d(u, v))


def quadruple_components(a, b, c, d):
    """(A, B, C, D) of the universal construction; exact on rationals."""
    A = 2 * (a * c + b * d)
    B = 2 * (b * c - a * d)
    C = a * a + b * b - c * c - d * d
    D = a * a + b * b + c * c + d * d
    return A, B, C, D


def universal_s2(q: RationalQuadruple) -> Chart:
    """Unit-vector chart (A,B,C)/D from a quadruple without common zero.

    Samples where D < 1e-12 are a CommonZero.
    """

    def f(u, v):
        A, B, C, D = quadruple_components(*q(u, v))
        D = np.broadcast_to(np.asarray(D, dtype=float), np.shape(u))
        D = drop(D < 1e-12, D, CommonZero, "quadruple vanishes", u, v)
        return vector_rows(u, A, B, C) / D[..., None]

    return Chart(f, domain=q.domain)


def trig_s2(domain: Domain | None = None) -> Chart:
    """Trigonometric sphere chart (cos u cos v, cos v sin u, sin v).

    Poles sit at v = +-pi/2 where the u-derivative degenerates.
    """
    if domain is None:
        domain = Domain(0.0, 2.0 * math.pi, -0.5 * math.pi, 0.5 * math.pi)

    # each sine and cosine once per call
    def f(u, v):
        cv = np.cos(v)
        return np.stack((np.cos(u) * cv, cv * np.sin(u), np.sin(v)), axis=-1)

    def fu(u, v):
        cv = np.cos(v)
        return vector_rows(u, -np.sin(u) * cv, cv * np.cos(u), 0.0)

    def fv(u, v):
        sv = np.sin(v)
        return np.stack((-np.cos(u) * sv, -np.sin(u) * sv, np.cos(v)), axis=-1)

    return Chart(f, fu, fv, domain)


def weierstrass(t: float) -> tuple[float, float]:
    """Rational circle point ((1-t^2)/(1+t^2), 2t/(1+t^2)).

    Matches (cos x, sin x) at x = 2*atan(t); the squares sum to one exactly.
    """
    den = 1.0 + t * t
    return (1.0 - t * t) / den, 2.0 * t / den
