"""Surface config files: [surface] and [domain] sections, chart expressions
over (u, v) and the five surface kinds, read by ``load``."""

from __future__ import annotations

import functools
import operator
from types import SimpleNamespace

from .cli import _rational
from .grammar import parse_text

# -- expression grammar for config charts -------------------------------------


def _constant(val):
    return lambda u, v: val


def _chain(a, b, op):
    """a op b for a binary operator op.  A chain extends a chain, so n
    operators at one level, such as a flat sum of n + 1 terms, are one
    closure that applies them left to right, not n closures each calling
    the one before it."""
    if not hasattr(a, "chain"):
        first, chain = a, []

        def a(u, v):
            value = first(u, v)
            for op, f in chain:
                value = op(value, f(u, v))
            return value

        a.chain = chain
    a.chain.append((op, b))
    return a


@functools.cache
def _chart_hooks():
    """Hooks of grammar.parse_text whose values are closures over (u, v),
    built on first use: a quadric config loads no numpy."""
    import numpy as np

    # numpy scalars follow IEEE rules: a pole gives inf and sqrt of a negative
    # NaN, non-finite samples that the samplers drop, instead of an exception
    functions = {"sin": np.sin, "cos": np.cos, "sqrt": np.sqrt}
    # ``^`` is numpy's scalar power, libm ``pow``, applied to each sample.  On
    # arrays ``**`` squares as x * x and uses a vectorized pow otherwise, which
    # round other last bits, so a sample would differ alone and in a grid.
    power = np.frompyfunc(lambda a, b: np.float64(a) ** np.float64(b), 2, 1)
    names = {"u": lambda u, v: u, "v": lambda u, v: v, "pi": _constant(np.float64(np.pi))}

    def name(tok):
        if tok not in names:
            raise ValueError(f"{tok} needs parentheses" if tok in functions
                             else f"unknown identifier {tok!r}")
        return names[tok]

    def call(fname, arg):
        if fname not in functions:
            raise ValueError(f"unknown function {fname!r}")
        fn = functions[fname]
        return lambda u, v: fn(arg(u, v))

    return SimpleNamespace(
        number=lambda tok: _constant(np.float64(tok)),
        name=name,
        call=call,
        add=lambda a, b: _chain(a, b, operator.add),
        sub=lambda a, b: _chain(a, b, operator.sub),
        mul=lambda a, b: _chain(a, b, operator.mul),
        div=lambda a, b: _chain(a, b, operator.truediv),
        neg=lambda a: lambda u, v: -a(u, v),
        power=lambda a, b: lambda u, v: power(a(u, v), b(u, v)).astype(float),
    )


def parse_expr(text, hooks=None):
    """Chart expression over u, v with sin, cos, sqrt and pi."""
    return parse_text(text, hooks or _chart_hooks())


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
    import numpy as np
    chart = _chart_hooks()

    def name(tok):
        if tok in ("u", "v"):
            raise ValueError(f"domain bound {key} = {text!r} names the parameter {tok}")
        return chart.name(tok)

    hooks = SimpleNamespace(**{**vars(chart), "name": name})
    # a bound like 1/0 is an input error, reported below, not a warning
    with np.errstate(all="ignore"):
        value = parse_expr(text, hooks)(0.0, 0.0)
    if not np.isfinite(value):
        raise ValueError(f"domain bound {key} = {text!r} is not finite")
    return value


def _domain(sections):
    dom = {**_DOMAIN_DEFAULTS, **sections.get("domain", {})}
    unknown = [key for key in dom if key not in _DOMAIN_DEFAULTS]
    if unknown:
        raise ValueError(f"unknown [domain] key {unknown[0]!r}; "
                         f"allowed: {', '.join(_DOMAIN_DEFAULTS)}")
    from .surfkit import Domain
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
    import numpy as np
    from .surfkit import Chart, vector_rows
    fs = [parse_expr(_value(surf, key)) for key in keys.split()]
    if len(fs) == 1:
        (f,) = fs
        return Chart(lambda u, v: np.broadcast_to(f(u, v), np.shape(u)), domain=domain)
    return Chart(lambda u, v: vector_rows(u, *(f(u, v) for f in fs)), domain=domain)


def _quadric(surf):
    """The quadratic HomPoly4 of the symmetric 4x4 rational ``matrix``."""
    from .hompoly import HomPoly4, Space
    space = Space.POINT if surf.get("space", "dual") == "point" else Space.DUAL
    A = [[_rational(x, "matrix entry") for x in row.split()]
         for row in _value(surf, "matrix").split(";")]
    if len(A) != 4 or any(len(row) != 4 for row in A):
        raise ValueError("quadric matrices are 4x4")
    if any(A[i][j] != A[j][i] for i in range(4) for j in range(i)):
        raise ValueError("quadric matrix must be symmetric")
    # one monomial v_i*v_j per pair i <= j; HomPoly4 drops the zeros
    return HomPoly4(space, {tuple((k == i) + (k == j) for k in range(4)):
                            A[i][j] if i == j else 2 * A[i][j]
                            for i in range(4) for j in range(i, 4)})


def load(path: str):
    """(kind, surface) of the config file at ``path``: a quadric is a HomPoly4."""
    sections = _sections(path)
    surf = sections["surface"]
    kind = surf.get("kind")
    if kind == "quadric":
        if "domain" in sections:
            raise ValueError("a quadric config has no [domain] section")
        return kind, _quadric(surf)
    from .surfkit import Chart, DualSurface, PointSurface, PolarSurface
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
    raise ValueError(f"unknown surface kind {kind!r}")
