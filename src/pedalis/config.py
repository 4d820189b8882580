"""Surface config files: [surface] and [domain] sections, chart expressions
over (u, v) and the five surface kinds, read by ``load``."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from .cli import _rational
from .grammar import parse_text
from .surfkit import Chart, Domain, DualSurface, PointSurface, PolarSurface, vector_rows

# -- expression grammar for config charts -------------------------------------

# numpy scalars follow IEEE rules: a pole gives inf and sqrt of a negative
# NaN, non-finite samples that the samplers drop, instead of an exception
_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "sqrt": np.sqrt}
# ``^`` is numpy's scalar power, libm ``pow``, applied to each sample.  On
# arrays ``**`` squares as x * x and uses a vectorized pow otherwise, which
# round other last bits, so a sample would differ alone and in a grid.
_power = np.frompyfunc(lambda a, b: np.float64(a) ** np.float64(b), 2, 1)


def _constant(val):
    return lambda u, v: val


_NAMES = {"u": lambda u, v: u, "v": lambda u, v: v, "pi": _constant(np.float64(np.pi))}


def _chart_name(tok):
    if tok not in _NAMES:
        raise ValueError(f"{tok} needs parentheses" if tok in _FUNCTIONS
                         else f"unknown identifier {tok!r}")
    return _NAMES[tok]


def _chart_call(name, arg):
    if name not in _FUNCTIONS:
        raise ValueError(f"unknown function {name!r}")
    fn = _FUNCTIONS[name]
    return lambda u, v: fn(arg(u, v))


# hooks of grammar.parse_text: each value is a closure over (u, v)
_CHART_HOOKS = SimpleNamespace(
    number=lambda tok: _constant(np.float64(tok)),
    name=_chart_name,
    call=_chart_call,
    add=lambda a, b: lambda u, v: a(u, v) + b(u, v),
    sub=lambda a, b: lambda u, v: a(u, v) - b(u, v),
    mul=lambda a, b: lambda u, v: a(u, v) * b(u, v),
    div=lambda a, b: lambda u, v: a(u, v) / b(u, v),
    neg=lambda a: lambda u, v: -a(u, v),
    power=lambda a, b: lambda u, v: _power(a(u, v), b(u, v)).astype(float),
)


def parse_expr(text, hooks=_CHART_HOOKS):
    """Chart expression over u, v with sin, cos, sqrt and pi."""
    return parse_text(text, hooks)


# -- config files --------------------------------------------------------------


def _sections(path: str) -> dict:
    """The [surface]/[domain] sections of a config file."""
    sections: dict[str, dict[str, str]] = {}
    current = None
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                current = line[1:-1].strip().lower()
                sections.setdefault(current, {})
                continue
            if "=" not in line or current is None:
                raise ValueError(f"{path}:{lineno}: expected key = value inside a section")
            key, value = line.split("=", 1)
            sections[current][key.strip().lower()] = value.strip()
    if "surface" not in sections:
        raise ValueError(f"{path}: missing [surface] section")
    return sections


_DOMAIN_DEFAULTS = {"umin": "0", "umax": "1", "vmin": "0", "vmax": "1"}


def _domain_bound(key: str, text: str) -> float:
    """Value of a constant [domain] expression; naming u or v is an input error."""
    def name(tok):
        if tok in ("u", "v"):
            raise ValueError(f"domain bound {key} = {text!r} names the parameter {tok}")
        return _chart_name(tok)

    hooks = SimpleNamespace(**{**vars(_CHART_HOOKS), "name": name})
    # a bound like 1/0 is an input error, reported below, not a warning
    with np.errstate(all="ignore"):
        value = parse_expr(text, hooks)(0.0, 0.0)
    if not np.isfinite(value):
        raise ValueError(f"domain bound {key} = {text!r} is not finite")
    return value


def _domain(sections) -> Domain:
    dom = {**_DOMAIN_DEFAULTS, **sections.get("domain", {})}
    unknown = [key for key in dom if key not in _DOMAIN_DEFAULTS]
    if unknown:
        raise ValueError(f"unknown [domain] key {unknown[0]!r}; "
                         f"allowed: {', '.join(_DOMAIN_DEFAULTS)}")
    return Domain(**{key: _domain_bound(key, text) for key, text in dom.items()})


def _value(surf, key) -> str:
    """Text of one [surface] key; a missing key is an input error."""
    if key not in surf:
        raise ValueError(f"missing chart expression {key!r}")
    return surf[key]


def _chart(surf, keys, domain):
    """Chart of the [surface] expressions ``keys``: one key gives a value per
    sample, three give (N, 3) rows.  A constant expression gives a scalar,
    which the chart broadcasts over the samples."""
    fs = [parse_expr(_value(surf, key)) for key in keys.split()]
    if len(fs) == 1:
        (f,) = fs
        return Chart(lambda u, v: np.broadcast_to(f(u, v), np.shape(u)), domain=domain)
    return Chart(lambda u, v: vector_rows(u, *(f(u, v) for f in fs)), domain=domain)


def load(path: str):
    """(kind, surface) of the config file at ``path``."""
    sections = _sections(path)
    surf = sections["surface"]
    kind = surf.get("kind")
    domain = _domain(sections)
    if kind == "point":
        return kind, PointSurface(_chart(surf, "fx fy fz", domain))
    if kind == "polar":
        return kind, PolarSurface(_chart(surf, "sx sy sz", domain), _chart(surf, "r", domain))
    if kind == "dual":
        return kind, DualSurface(_chart(surf, "nx ny nz", domain), _chart(surf, "e", domain))
    if kind == "ruled":
        from .ruledpedal import RuledChart
        c = _chart(surf, "cx cy cz", domain)
        e = _chart(surf, "ex ey ez", domain)
        ruled = RuledChart(lambda u: c(u, 0.0), lambda u: e(u, 0.0), domain=domain)
        return kind, PointSurface(Chart(ruled.point, domain=domain))
    if kind == "quadric":
        from .hompoly import Space
        from .quadricpedal import QuadricForm
        space = Space.POINT if surf.get("space", "dual") == "point" else Space.DUAL
        rows = [r.strip() for r in _value(surf, "matrix").split(";")]
        A = [[_rational(x, "matrix entry") for x in row.split()] for row in rows]
        return kind, QuadricForm(space, A)
    raise ValueError(f"unknown surface kind {kind!r}")
