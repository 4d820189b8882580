import math

import numpy as np
import pytest

from pedalis import config
from pedalis.errors import (
    CylindricalRuling,
    DegenerateSystem,
    DevelopableSurface,
    LineThroughOrigin,
    ZeroDirection,
)
from pedalis.gallery import get_entry, residual_report
from pedalis.ruledpedal import (
    RuledChart,
    conic_family,
    conic_point_param,
    footpoint_curve,
    inverse_pedal_ruled,
    parabolic_cylinder_of_line,
    pedal_circle,
    polar_norm_reparam,
    polar_pedal_of_ruled,
    rational_offset_ruled,
    striction_curve,
    striction_frame,
    striction_parameter,
)
from pedalis.surfkit import (
    Domain,
    conchoid_map,
    construct,
    envelope_solve,
    point_to_dual,
    sample_grid,
    vector_rows,
)


def pluecker_chart(domain=Domain(0.1, 1.2, 0.15, 0.85)):
    return RuledChart(
        lambda u: vector_rows(u, 0.0, 0.0, np.sin(2 * u)),
        lambda u: vector_rows(u, np.cos(u), np.sin(u), 0.0),
        dc=lambda u: vector_rows(u, 0.0, 0.0, 2 * np.cos(2 * u)),
        de=lambda u: vector_rows(u, -np.sin(u), np.cos(u), 0.0),
        domain=domain,
    )


def helicoid_chart():
    return RuledChart(
        lambda u: vector_rows(u, 0.0, 0.0, u),
        lambda u: vector_rows(u, np.cos(u), np.sin(u), 0.0),
        dc=lambda u: vector_rows(u, 0.0, 0.0, 1.0),
        de=lambda u: vector_rows(u, -np.sin(u), np.cos(u), 0.0),
        domain=Domain(0.0, 2 * math.pi, -1.0, 1.0),
    )


def cylinder_chart(a=2.0, b=1.0):
    return RuledChart(
        lambda u: vector_rows(u, a * np.cos(u), b * np.sin(u), 0.0),
        lambda u: vector_rows(u, 0.0, 0.0, 1.0),
        dc=lambda u: vector_rows(u, -a * np.sin(u), b * np.cos(u), 0.0),
        de=lambda u: vector_rows(u, 0.0, 0.0, 0.0),
        domain=Domain(0.0, 2 * math.pi, -2.0, 2.0),
    )


def tangent_developable_chart():
    # tangent developable of a circle: e = c'
    return RuledChart(
        lambda u: vector_rows(u, np.cos(u), np.sin(u), 0.0),
        lambda u: vector_rows(u, -np.sin(u), np.cos(u), 0.0),
        dc=lambda u: vector_rows(u, -np.sin(u), np.cos(u), 0.0),
        de=lambda u: vector_rows(u, -np.cos(u), -np.sin(u), 0.0),
        domain=Domain(0.0, 1.0, 0.1, 0.9),
    )


class TestFootpointCurve:
    def test_pluecker_directrix_is_footpoint(self):
        d = footpoint_curve(pluecker_chart())
        for u in np.linspace(0.1, 1.2, 9):
            assert np.max(np.abs(d(u) - [0, 0, math.sin(2 * u)])) < 1e-12

    def test_line(self):
        R = RuledChart(lambda u: np.array([1.0, 1.0, 0.0]),
                       lambda u: np.array([1.0, 0.0, 0.0]))
        assert np.allclose(footpoint_curve(R)(0.3), [0, 1, 0])

    def test_orthogonality(self):
        for chart in (pluecker_chart(), helicoid_chart(), cylinder_chart()):
            d = footpoint_curve(chart)
            for u in np.linspace(0.2, 1.1, 7):
                assert abs(float(d(u) @ chart.direction(u))) < 1e-10

    def test_cylinder_keeps_directrix(self):
        R = cylinder_chart()
        d = footpoint_curve(R)
        for u in np.linspace(0, 6, 7):
            assert np.max(np.abs(d(u) - R.c(u))) < 1e-12


class TestStriction:
    def test_helicoid_striction_is_axis(self):
        R = helicoid_chart()
        assert abs(striction_parameter(R, 0.4)) < 1e-12
        s = striction_curve(R)
        assert np.max(np.abs(s(0.4) - [0, 0, 0.4])) < 1e-12

    def test_cylinder_rejected(self):
        with pytest.raises(CylindricalRuling):
            striction_parameter(cylinder_chart(), 0.3)

    def test_pluecker_striction_property(self):
        R = pluecker_chart()
        fam = conic_family(R)
        # defining property: striction normal orthogonal to e' x e
        from pedalis.ruledpedal import striction_frame
        for u in np.linspace(0.15, 1.15, 11):
            _, _, _, ns, n2 = striction_frame(R, u)
            assert abs(float(ns @ n2)) < 1e-10


class TestPedalCircle:
    def test_line_circle(self):
        R = RuledChart(lambda u: np.array([0.0, 1.0, 0.0]),
                       lambda u: np.array([1.0, 0.0, 0.0]))
        circ = pedal_circle(R, 0.0)
        assert np.allclose(circ.center, [0, 0.5, 0])
        assert abs(circ.radius - 0.5) < 1e-15
        assert np.allclose(circ.normal, [1, 0, 0])

    def test_line_through_origin_degenerate(self):
        R = RuledChart(lambda u: np.array([0.0, 0.0, 0.0]),
                       lambda u: np.array([1.0, 0.0, 0.0]))
        with pytest.raises(LineThroughOrigin):
            pedal_circle(R, 0.0)

    def test_circle_points_satisfy_equations(self):
        R = pluecker_chart()
        circ = pedal_circle(R, 0.5)
        e = R.direction(0.5)
        for t in np.linspace(0, 2 * math.pi, 17):
            p = circ.point(t)
            assert abs(float((p - circ.center) @ (p - circ.center)) - circ.radius ** 2) < 1e-10
            assert abs(float(p @ e)) < 1e-10


class TestConicFamily:
    def test_helicoid_unit_coefficients(self):
        fam = conic_family(helicoid_chart())
        assert abs(fam.a1(0.7) - 1.0) < 1e-12
        assert abs(fam.a2(0.7) - 1.0) < 1e-12

    def test_pluecker_coefficients(self):
        fam = conic_family(pluecker_chart())
        for u in np.linspace(0.15, 1.1, 9):
            assert abs(fam.a1(u) - 4.0 * math.cos(2 * u) ** 2) < 1e-12
            assert abs(fam.a2(u) - 1.0) < 1e-12

    def test_positive(self):
        fam = conic_family(pluecker_chart())
        for u in np.linspace(0.15, 1.1, 9):
            assert fam.a1(u) > 0 and fam.a2(u) > 0


class TestConicPointParam:
    def test_circle_case(self):
        y0, y1, y2 = conic_point_param(1.0, 1.0, 0.3)
        assert (y0, y1, y2) == (1 + 0.09, 1 - 0.09, 0.6)
        assert abs((1 - 0.09) ** 2 + 4 * 0.09 - (1 + 0.09) ** 2) < 1e-15

    def test_residual(self):
        for a1, a2, t in ((4.0, 1.0, 1.0), (2.5, 0.3, -0.7), (9.0, 4.0, 0.2)):
            y0, y1, y2 = conic_point_param(a1, a2, t)
            assert abs(a1 * y1 * y1 + a2 * y2 * y2 - y0 * y0) < 1e-12 * max(1.0, y0 * y0)

    def test_coefficient_not_positive_gives_nan_point(self):
        y = np.array(conic_point_param(np.array([4.0, 0.0, 2.0]), np.array([1.0, 1.0, -1.0]), 0.5))
        assert np.array_equal(y[:, 0], conic_point_param(4.0, 1.0, 0.5))
        assert np.isnan(y[:, 1:]).all()
        for a1, a2 in ((0.0, 1.0), (1.0, 0.0)):
            with pytest.raises(DevelopableSurface):
                conic_point_param(a1, a2, 0.5)

    def test_pluecker_closed_form(self):
        # closed-form conic points (w, 1, r) with r = 2 cos 2u cos t / sin t
        for u in np.linspace(0.1, 1.1, 8):
            for t in np.linspace(0.2, 1.4, 8):
                r = 2 * math.cos(2 * u) * math.cos(t) / math.sin(t)
                w = 2 * math.cos(2 * u) / math.sin(t)
                assert abs(w * w - (4 * math.cos(2 * u) ** 2 + r * r)) < 1e-10


class TestRationalOffset:
    def test_norm_witness_identity(self):
        F = rational_offset_ruled(pluecker_chart(), 0.5)
        for u in np.linspace(0.12, 1.18, 12):
            for t in np.linspace(0.2, 0.8, 12):
                _, n, (y0, y1, _) = F.assemble(u, t)
                assert abs(float(np.linalg.norm(n)) * y1 - y0) < 1e-9

    def test_envelope_reproduces_base_chart(self):
        R = pluecker_chart()
        F = rational_offset_ruled(R, 0.0)
        for u in np.linspace(0.15, 1.15, 8):
            _, s, e, _, _ = striction_frame(R, u)
            for t in np.linspace(0.2, 0.8, 8):
                # contact point: v = y2/y1 along the ruling from the striction point
                _, _, (_, y1, y2) = F.assemble(u, t)
                x = envelope_solve(F, u, t)
                assert np.max(np.abs(x - (s + y2 / y1 * e))) < 1e-7

    def test_offset_dual_residual(self):
        entry = get_entry("pluecker")
        F = rational_offset_ruled(pluecker_chart(), 0.5)
        rep = residual_report(F, entry.dual_family(0.5), 40, 40)
        assert rep.max < 1e-8

    def test_developable_rejected(self):
        with pytest.raises(DevelopableSurface):
            rational_offset_ruled(tangent_developable_chart(), 0.0)

    @pytest.mark.parametrize("make,skew", [
        (pluecker_chart, True), (helicoid_chart, True),
        (tangent_developable_chart, False), (cylinder_chart, False)])
    def test_skew_probe_decides_as_the_per_probe_loop(self, make, skew):
        R = make()
        u = np.linspace(R.domain.umin, R.domain.umax, 100)
        det = np.linalg.det(np.stack((R.dc(u), R.direction(u), R.de(u)), axis=1))
        # the loop of one 3x3 determinant per probe that the stack replaced
        loop = np.array([np.linalg.det(np.vstack([R.dc(x), R.direction(x), R.de(x)]))
                         for x in u])
        assert det.tobytes() == loop.tobytes()
        scale = max(max(np.linalg.norm(R.dc(x)) * np.linalg.norm(R.direction(x))
                        * np.linalg.norm(R.de(x)) for x in u), 1.0)
        assert (np.abs(loop).max() < 1e-10 * scale) is not skew
        if skew:
            rational_offset_ruled(R, 0.5)
        else:
            with pytest.raises(DevelopableSurface):
                rational_offset_ruled(R, 0.5)

    def test_skew_probe_on_a_vanishing_direction_raises(self):
        # e(u) = u * (u, 1 - u, 1) vanishes at the first probe, u = 0
        R = RuledChart(lambda u: vector_rows(u, 0.0, 0.0, 1.0 + u),
                       lambda u: vector_rows(u, u * u, u * (1.0 - u), u))
        with pytest.raises(ZeroDirection, match=r"at \(0\)"):
            rational_offset_ruled(R, 0.5)

    def test_torsal_ruling_sample_dropped(self):
        # conoid with c'(0) = 0: a1 = |s' x e|^2 vanishes on the ruling u = 0 only
        R = RuledChart(lambda u: vector_rows(u, 0.0, 0.0, u * u),
                       lambda u: vector_rows(u, np.cos(u), np.sin(u), 0.0),
                       domain=Domain(-1.0, 1.0, -1.0, 1.0))
        F = rational_offset_ruled(R, 0.5, Domain(-1.0, 1.0, 0.3, 0.7))
        _, valid = sample_grid(F.htuple, F.domain, 9, 9)
        U, _ = F.domain.grid(9, 9)
        assert np.array_equal(valid, U != 0.0)
        with pytest.raises(DevelopableSurface):
            F.htuple(0.0, 0.5)


class TestPolarPedal:
    def test_pedal_residuals(self):
        entry = get_entry("pluecker")
        G0 = polar_pedal_of_ruled(pluecker_chart())
        assert residual_report(G0, entry.point_poly, 30, 30).max < 1e-8
        G = conchoid_map(G0, 0.5)
        assert residual_report(G, entry.point_family(0.5), 30, 30).max < 1e-8

    def test_pedal_points_in_carrier_planes(self):
        R = pluecker_chart()
        G = polar_pedal_of_ruled(R)
        for u in np.linspace(0.15, 1.15, 9):
            e = R.direction(u)
            for t in np.linspace(0.2, 0.8, 9):
                assert abs(float(G.point(u, t) @ e)) < 1e-9


class TestInversePedal:
    def test_plane_gives_paraboloid(self):
        # plane z=1 ruled by horizontal lines
        R = RuledChart(
            lambda u: np.array([0.0, u, 1.0]),
            lambda u: np.array([1.0, 0.0, 0.0]),
            dc=lambda u: np.array([0.0, 1.0, 0.0]),
            de=lambda u: np.array([0.0, 0.0, 0.0]),
            domain=Domain(-1.5, 1.5, -1.5, 1.5),
        )
        poly = get_entry("paraboloid-offset").point_poly
        for u in np.linspace(-1.4, 1.4, 9):
            for v in np.linspace(-1.4, 1.4, 9):
                x = inverse_pedal_ruled(R, u, v)
                val = poly.eval((1.0, *x))
                assert abs(float(val)) < 1e-8 * max(1.0, float(np.max(np.abs(x))) ** 2)

    def test_quadratic_cylinder_closed_form(self):
        qc = get_entry("quadratic-cylinder")
        ruled, closed = qc.extras["ruled"], qc.extras["closed_form"]
        worst = 0.0
        for u in np.linspace(0, 2 * math.pi, 25):
            for v in np.linspace(-2, 2, 25):
                got = inverse_pedal_ruled(ruled, u, v)
                worst = max(worst, float(np.max(np.abs(got - closed(u, v)))))
        assert worst < 1e-7

    def test_one_system_serves_both_paths(self):
        # the ruled inverse pedal solves the envelope system of point_to_dual,
        # so it equals the generic inverse-pedal construct bit for bit and
        # meets the closed form to rounding
        qc = get_entry("quadratic-cylinder")
        U, V = Domain(0.0, 2.0 * math.pi, -2.0, 2.0).grid(40, 40)
        got = inverse_pedal_ruled(qc.extras["ruled"], U, V)
        assert np.array_equal(got, qc.construct("inverse-pedal").point(U, V))
        assert np.max(np.abs(got - qc.extras["closed_form"](U, V))) <= 1e-12

    def test_ruled_config_meets_the_closed_form(self, tmp_path):
        # a `kind = ruled` config has no curve derivatives, so its point
        # chart is differenced; on the quadratic cylinder it reads 1.4e-10
        cfg = tmp_path / "cylinder.cfg"
        cfg.write_text("[surface]\nkind = ruled\ncx = 2*cos(u)\ncy = sin(u)\ncz = 0\n"
                       "ex = 0\ney = 0\nez = 1\n"
                       "[domain]\numin = 0\numax = 2*pi\nvmin = -2\nvmax = 2\n")
        _, S = config.load(str(cfg))
        U, V = S.domain.grid(40, 40)
        got = construct(S, "inverse-pedal").point(U, V)
        closed = get_entry("quadratic-cylinder").extras["closed_form"]
        assert np.max(np.abs(got - closed(U, V))) <= 1e-9

    def test_equal_axes_meridian(self):
        # rotational cylinder a=b: meridian parabola (-b^2+v^2, 0, 2v) at u=pi
        R = cylinder_chart(1.0, 1.0)
        for v in (0.3, 0.9, 1.5):
            x = inverse_pedal_ruled(R, math.pi, v)
            assert np.max(np.abs(x - [v * v - 1.0, 0.0, 2 * v])) < 1e-8

    def test_point_touches_parabolic_cylinder(self):
        # the solved point satisfies the plane and its v-derivative plane,
        # i.e. it lies on the ruling line shared with the parabolic cylinder
        R = cylinder_chart()
        d = footpoint_curve(R)
        for u in np.linspace(0.1, 6.0, 9):
            e = R.direction(u)
            for v in np.linspace(-1.5, 1.5, 9):
                x = inverse_pedal_ruled(R, u, v)
                g = d(u) + v * e
                assert abs(float(x @ g) - (float(d(u) @ d(u)) + v * v)) < 1e-10
                assert abs(float(x @ e) - 2.0 * v) < 1e-10
                cyl = parabolic_cylinder_of_line(d(u), e)
                p = cyl.cross_section(v)
                # x - p runs along the cylinder ruling
                assert np.linalg.norm(np.cross(x - p, cyl.axis)) < 1e-8 * max(
                    1.0, float(np.linalg.norm(x)))


    def test_non_finite_system_degenerate(self):
        # directrix with a pole at u = 0: the system matrix holds NaN there
        R = RuledChart(
            lambda u: np.array([1.0 / u, 1.0, 0.0]),
            lambda u: np.array([0.0, 0.0, 1.0]),
            dc=lambda u: np.array([-1.0 / u ** 2, 0.0, 0.0]),
            de=lambda u: np.zeros(3),
        )
        with np.errstate(all="ignore"), pytest.raises(DegenerateSystem):
            inverse_pedal_ruled(R, np.float64(0.0), 0.5)


class TestParabolicCylinder:
    def test_cross_section_and_focal_property(self):
        P = parabolic_cylinder_of_line([0, 0, 1], [1, 0, 0])
        for v in np.linspace(-1.5, 1.5, 11):
            p = P.cross_section(v)
            assert np.max(np.abs(p - [2 * v, 0, 1 - v * v])) < 1e-14
            assert abs(np.linalg.norm(p) - (1 + v * v)) < 1e-12

    def test_vertex(self):
        P = parabolic_cylinder_of_line([0.3, -0.2, 0.9], [0.1, 1.0, 0.0])
        assert np.allclose(P.cross_section(0.0), [0.3, -0.2, 0.9])

    def test_planarity(self):
        d, e = np.array([0.3, -0.2, 0.9]), np.array([0.1, 1.0, 0.0])
        P = parabolic_cylinder_of_line(d, e)
        for v in np.linspace(-1, 1, 9):
            assert abs(float(P.cross_section(v) @ P.axis)) < 1e-12

    def test_line_through_origin(self):
        with pytest.raises(LineThroughOrigin):
            parabolic_cylinder_of_line([0, 0, 0], [1, 0, 0])

    def test_general_focal_property(self):
        d = np.array([0.4, 0.7, -0.3])
        e = np.array([1.0, -0.5, 0.2])
        e = e - (e @ d) / (d @ d) * d  # foot-point frame has d orthogonal to e
        P = parabolic_cylinder_of_line(d, e)
        nd = np.linalg.norm(d)
        for v in np.linspace(-1.2, 1.2, 9):
            p = P.cross_section(v)
            directrix_dist = abs(2 * nd - float(p @ d) / nd)
            assert abs(np.linalg.norm(p) - directrix_dist) < 1e-12


class TestPolarNormReparam:
    def test_cylinder_family_shape(self):
        # at d=0 the reparameterized chart stays on the cylinder
        qc = get_entry("quadratic-cylinder")
        G = polar_norm_reparam(qc.extras["ruled"])
        assert residual_report(G, qc.point_poly, 25, 25).max < 1e-10

    def test_norm_matches_witness(self):
        G = polar_norm_reparam(cylinder_chart())
        for u in np.linspace(0, 6, 10):
            for t in np.linspace(0.25, 1.4, 10):
                g = G.point(u, t)
                assert abs(np.linalg.norm(g) - G.r(u, t)) < 1e-10

    def test_conchoid_offset_pipeline(self):
        # conchoid of the rational polar chart -> planes -> envelope succeeds
        # and the plane normals have the promised rational length
        from pedalis.surfkit import conchoid_map
        qc = get_entry("quadratic-cylinder")
        G = polar_norm_reparam(qc.extras["ruled"])
        Gd = conchoid_map(G, 0.4)
        F = point_to_dual(Gd)
        for u in np.linspace(0.2, 6.0, 6):
            for t in np.linspace(0.3, 1.3, 6):
                n = np.asarray(F.n(u, t))
                assert abs(np.linalg.norm(n) - (G.r(u, t) + 0.4)) < 1e-10
                x = envelope_solve(F, u, t)
                pl = F.plane(u, t)
                assert abs(float(pl.normal @ x) - pl.offset) < 1e-8 * max(
                    1.0, abs(pl.offset))

    def test_line_through_origin(self):
        R = RuledChart(lambda u: np.array([0.0, 0.0, 0.0]),
                       lambda u: np.array([1.0, 0.0, 0.0]))
        with pytest.raises(LineThroughOrigin):
            polar_norm_reparam(R).point(0.1, 0.5)
