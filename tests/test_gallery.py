import inspect
from fractions import Fraction

import numpy as np
import pytest

from pedalis import gallery
from pedalis.errors import EmptyGrid, NotFound
from pedalis.gallery import GalleryEntry, get_entry, list_entries, residual_report
from pedalis.hompoly import (
    Space,
    degree_bookkeeping,
    inverse_pedal_pullback,
    parse_poly,
    pedal_pullback,
    strip_exceptional,
)
from pedalis.surfkit import (
    CONSTRUCTS,
    Chart,
    Domain,
    PointSurface,
    conchoid_map,
    constant_chart,
    offset_map,
)

ALL_NAMES = list_entries()

# (entry, construct) pairs whose entry lacks the member the construct acts on
UNSUPPORTED = {
    ("quadratic-cylinder", "offset"),
    ("sphere-bundle", "offset"),
    ("sphere-bundle", "pedal"),
    ("sphere-inverse-pedal", "conchoid"),
    ("sphere-inverse-pedal", "offset"),
}


class TestRegistry:
    def test_expected_entries_present(self):
        for name in ("plane-conchoid", "paraboloid-offset", "sphere-offset",
                     "sphere-bundle", "pluecker", "parabola-cyclide",
                     "paraboloid-pedal", "sphere-inverse-pedal",
                     "quadratic-cylinder"):
            assert name in ALL_NAMES

    def test_lookup(self):
        entry = get_entry("pluecker")
        assert isinstance(entry, GalleryEntry)
        assert entry.name == "pluecker"

    def test_unknown_name(self):
        with pytest.raises(NotFound):
            get_entry("moebius-strip")


class TestKnownPolynomials:
    def test_plane_conchoid_family(self):
        entry = get_entry("plane-conchoid")
        d = Fraction(7, 10)
        expect = parse_poly(
            "49/100*x0^2*x3^2 - (x1^2+x2^2+x3^2)*(x0-x3)^2")
        assert entry.point_family(d) == expect

    def test_sphere_offset_family(self):
        entry = get_entry("sphere-offset")
        fd = entry.dual_family(Fraction(1, 2))
        expect = parse_poly(
            "(9/4 - 4)*u1^2 + 9/4*u2^2 + 9/4*u3^2 - 4*u0*u1 - u0^2")
        assert fd == expect

    def test_pluecker_six_polynomials(self):
        entry = get_entry("pluecker")
        d = Fraction(1, 2)
        conoid = entry.extras["conoid"]
        assert conoid == parse_poly("x3*(x1^2+x2^2) - 2*x0*x1*x2")
        assert entry.dual_poly == parse_poly("u0*(u1^2+u2^2) - 2*u1*u2*u3")
        assert entry.dual_family(d).equals_up_to_scale(parse_poly(
            "1/4*(u1^2+u2^2)^2*(u1^2+u2^2+u3^2)"
            " - (u0*(u1^2+u2^2) - 2*u1*u2*u3)^2"))
        assert entry.point_family(d).equals_up_to_scale(parse_poly(
            "1/4*x0^2*(x1^2+x2^2)^2*(x1^2+x2^2+x3^2)"
            " - (2*x0*x1*x2*x3 + (x1^2+x2^2)*(x1^2+x2^2+x3^2))^2"))
        assert entry.extras["conchoid_family"](d).equals_up_to_scale(parse_poly(
            "1/4*(x1^2+x2^2)^2*x0^2*x3^2"
            " - (x1^2+x2^2+x3^2)*(x3*(x1^2+x2^2) - 2*x0*x1*x2)^2"))
        assert entry.extras["bdual_family"](d).equals_up_to_scale(parse_poly(
            "1/4*u3^2*(u1^2+u2^2)^2*(u1^2+u2^2+u3^2)"
            " - (u0*u3*(u1^2+u2^2) + 2*u1*u2*(u1^2+u2^2+u3^2))^2"))

    def test_pluecker_b_direction_pullbacks(self):
        entry = get_entry("pluecker")
        conoid = entry.extras["conoid"]
        stripped = strip_exceptional(inverse_pedal_pullback(conoid))
        assert (stripped.r, stripped.k) == (2, 0)
        assert stripped.reduced.equals_up_to_scale(entry.extras["bstar"])
        d = Fraction(1, 2)
        stripped_d = strip_exceptional(
            inverse_pedal_pullback(entry.extras["conchoid_family"](d)))
        assert (stripped_d.r, stripped_d.k) == (6, 1)
        assert stripped_d.reduced.equals_up_to_scale(entry.extras["bdual_family"](d))
        # and back: the pedal pullback of B* returns the conoid
        back = strip_exceptional(pedal_pullback(entry.extras["bstar"]))
        assert (back.r, back.k) == (3, 1)
        assert back.reduced.equals_up_to_scale(conoid)


class TestResidualSuite:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_entry_residuals(self, name):
        entry = get_entry(name)
        assert entry.residual_cases
        for case in entry.residual_cases:
            rep = residual_report(case.surface, case.poly)
            assert rep.max < 1e-8, (name, case.label, rep.max)
            assert rep.count > 0 and rep.mean <= rep.max

    def test_negative_control(self):
        entry = get_entry("plane-conchoid")
        wrong = parse_poly("x1^2 + x2^2 + x3^2 - 5*x0^2")
        rep = residual_report(conchoid_map(entry.polar, 0.0), wrong)
        assert rep.max > 1e-3

    def test_empty_grid(self):
        dead = PointSurface(constant_chart([1.0, 0.0, np.inf], Domain(0, 1, 0, 1)))
        with pytest.raises(EmptyGrid):
            residual_report(dead, parse_poly("x3 - x0"))

    def test_chart_type_error_propagates(self):
        broken = PointSurface(Chart(lambda u, v: np.array([u, v]) + None,
                                    domain=Domain(0, 1, 0, 1)))
        with pytest.raises(TypeError):
            residual_report(broken, parse_poly("x3 - x0"))


class TestShiftedCharts:
    @pytest.mark.parametrize("name", list_entries())
    def test_offsets_and_conchoids_shift_the_base(self, name):
        entry = get_entry(name)
        dom = (entry.dual or entry.polar or entry.point_chart).domain
        u = 0.3 * dom.umin + 0.7 * dom.umax
        v = 0.6 * dom.vmin + 0.4 * dom.vmax
        for d in (-0.3, 0.5):
            if entry.dual is not None:
                F = offset_map(entry.dual, d)
                assert F.n is entry.dual.n
                assert F.e(u, v) == entry.dual.e(u, v) + d
                assert F.e.du(u, v) == entry.dual.e.du(u, v)
                assert F.e.dv(u, v) == entry.dual.e.dv(u, v)
            if entry.polar is not None:
                G = conchoid_map(entry.polar, d)
                assert G.s is entry.polar.s
                assert G.r(u, v) == entry.polar.r(u, v) + d


class TestConstruct:
    @pytest.mark.parametrize("construct", CONSTRUCTS)
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_support_table(self, name, construct):
        entry = get_entry(name)
        if (name, construct) in UNSUPPORTED:
            with pytest.raises(ValueError, match="does not support construct"):
                entry.construct(construct, 0.5)
        else:
            assert isinstance(entry.construct(construct, 0.5), PointSurface)

    def test_pedal_acts_on_the_plane_family(self):
        # the pedal of F is G; the pedal of the primary polar chart G is not
        entry = get_entry("parabola-cyclide")
        rep = residual_report(entry.construct("pedal"), entry.point_poly, 30, 30)
        assert rep.max < 1e-8


class TestDegreeData:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_bookkeeping_matches(self, name):
        entry = get_entry(name)
        if entry.expected is None:
            pytest.skip("no degree data")
        assert degree_bookkeeping(entry.pullback_pair[0]) == entry.expected

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_pullback_pairs_exact(self, name):
        entry = get_entry(name)
        if entry.pullback_pair is None:
            pytest.skip("no pair")
        source, image = entry.pullback_pair
        fwd = pedal_pullback if source.space is Space.DUAL else inverse_pedal_pullback
        assert strip_exceptional(fwd(source)).reduced.equals_up_to_scale(image)


# every builder with parameters, away from its defaults; sphere-inverse-pedal
# at r != 1 also checks the scaling of its sphere chart
GENERIC = [
    ("sphere_offset", (Fraction(5, 2), Fraction(3, 4))),
    ("sphere_bundle", (Fraction(5, 2),)),
    ("parabola_cyclide", (Fraction(3, 2), Fraction(2, 5))),
    ("paraboloid_pedal", (2, 3, Fraction(1, 2))),
    ("sphere_inverse_pedal", (Fraction(5, 2), Fraction(3, 4))),
    ("quadratic_cylinder", (3, Fraction(1, 2))),
]


@pytest.mark.parametrize("builder, params", GENERIC, ids=[name for name, _ in GENERIC])
def test_builder_at_generic_parameters(builder, params):
    entry = getattr(gallery, f"_build_{builder}")(*params)  # a fresh entry, not the cached one
    for case in entry.residual_cases:
        rep = residual_report(case.surface, case.poly)
        assert rep.max < 1e-8, (case.label, rep.max)
    source, image = entry.pullback_pair
    fwd = pedal_pullback if source.space is Space.DUAL else inverse_pedal_pullback
    assert strip_exceptional(fwd(source)).reduced.equals_up_to_scale(image)
    assert degree_bookkeeping(entry.pullback_pair[0]) == entry.expected


def test_generic_parameters_cover_the_parameterized_builders():
    assert sorted(f"_build_{name}" for name, _ in GENERIC) == sorted(
        name for name, fn in vars(gallery).items()
        if name.startswith("_build_") and inspect.signature(fn).parameters)


def _partials_dev(chart) -> float:
    """Max over a 7x7 interior grid of |analytic - differenced partial| / max(1, |f|)."""
    dom = chart.domain
    U, V = (a.ravel() for a in np.meshgrid(np.linspace(dom.umin, dom.umax, 9)[1:-1],
                                           np.linspace(dom.vmin, dom.vmax, 9)[1:-1],
                                           indexing="ij"))
    differenced = Chart(chart._f, domain=dom)
    f = np.asarray(chart(U, V), float).reshape(len(U), -1)
    scale = np.maximum(1.0, np.linalg.norm(f, axis=1))
    dev = [np.abs(np.asarray(got(U, V), float) - want(U, V)).reshape(len(U), -1).max(axis=1)
           for got, want in ((chart.du, differenced.du), (chart.dv, differenced.dv))]
    return float((np.maximum(*dev) / scale).max())


# every builder at its defaults and at its generic parameters
BUILDS = [(name.replace("-", "_"), ()) for name in ALL_NAMES] + GENERIC


@pytest.mark.parametrize("builder, params", BUILDS,
                         ids=[f"{'generic' if params else 'default'}-{name}"
                              for name, params in BUILDS])
def test_analytic_partials_match_differences(builder, params):
    # a factor common to both partials of a chart scales rows of the envelope
    # system without moving its solution, so no residual case can see it
    entry = getattr(gallery, f"_build_{builder}")(*params)
    charts = {}
    if entry.dual is not None:
        charts.update({"dual.n": entry.dual.n, "dual.e": entry.dual.e})
    if entry.polar is not None:
        charts.update({"polar.s": entry.polar.s, "polar.r": entry.polar.r})
    if entry.point_chart is not None:
        charts["point_chart.f"] = entry.point_chart.f
    checked = {label: _partials_dev(chart) for label, chart in charts.items()
               if chart.has_analytic_partials}
    assert checked
    assert max(checked.values()) < 1e-6, checked
