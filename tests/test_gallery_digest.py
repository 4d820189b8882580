"""The exact part of every gallery entry, locked by sha256 digest.

Each entry's polynomials are printed with ``format_poly``, one labelled
line each, and the sha256 of the text is compared with the digest
recorded when the exact part was still built together with the charts:

* ``expected`` and ``point_poly``, ``dual_poly``, both ``pullback_pair``
  members;
* ``point_family`` and ``dual_family`` at d = 1/2 and d = -3/10, where the
  entry has them;
* every ``residual_cases`` label with its polynomial;
* the polynomials in ``extras``, its families at the same two distances.

The exact part is now built on first access, so these digests show that
the deferred build gives the same bytes.
"""

import hashlib
from fractions import Fraction

import pytest

from pedalis.gallery import get_entry, list_entries
from pedalis.hompoly import HomPoly4, format_poly

DISTANCES = (Fraction(1, 2), Fraction(-3, 10))

DIGESTS = {
    "parabola-cyclide": "0d2bef3c6e4ee15b6f2be997365c7fc02dc425782bdcfcd03848f8173f2cbd86",
    "paraboloid-offset": "b278e30d223715976981a5505d18dcc565d53da2a9d7cdff65b39f5bc19d02b2",
    "paraboloid-pedal": "09efbfce2c0706db5286d05fd77be17b40b5308982489f9e77dc9f805bdd4aa2",
    "plane-conchoid": "0a39a5ea77261338d741f816e5f80afd3cb685f1cd4443323151bc26dfdc0af8",
    "pluecker": "9fe7cc779d3af8aeb5dd391566eed3dc07ec46e9feeb7b115131390d97d562c1",
    "quadratic-cylinder": "e6d448330d93e12c6a072889ab2abd1c01ed4f9804bfdbea81ff124c568dabfa",
    "sphere-bundle": "eda0aa503b01b358444baf28aba2a954612859b03fd526109e4b92eedc806731",
    "sphere-inverse-pedal": "455679e7b0984c436d5cf4078438ac34be481fa6704bc333d7db7916549c52a5",
    "sphere-offset": "100cfc5e316d6969e68e5d058ea64c7311bb0cbfc54926bee0301661f8a59fda",
}


def exact_text(entry) -> str:
    polys = {"point_poly": entry.point_poly, "dual_poly": entry.dual_poly,
             "pullback source": entry.pullback_pair[0],
             "pullback image": entry.pullback_pair[1]}
    families = {"point_family": entry.point_family, "dual_family": entry.dual_family}
    for key, value in (entry.extras or {}).items():
        if isinstance(value, HomPoly4):
            polys[key] = value
        elif key.endswith("_family"):
            families[key] = value
        elif key == "result":  # the inverse pedal of the sphere
            polys["result dual"], polys["result implicit"] = value.dual, value.implicit
    for key, family in families.items():
        if family is not None:
            polys.update({f"{key}({d})": family(d) for d in DISTANCES})
    polys.update({f"case {case.label}": case.poly for case in entry.residual_cases})
    return "\n".join([f"expected {entry.expected}",
                      *(f"{key}: {format_poly(p)}" for key, p in polys.items())])


def test_every_entry_is_pinned():
    assert sorted(DIGESTS) == list_entries()


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_exact_part_digest(name):
    text = exact_text(get_entry(name))
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[name]
