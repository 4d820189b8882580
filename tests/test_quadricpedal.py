import math
import random
from fractions import Fraction

import numpy as np
import pytest

from pedalis.errors import (
    NotCyclideShape,
    OriginOnSurface,
    PoleInDomain,
    RankTooLow,
)
from pedalis.gallery import get_entry, paraboloid_offset_chart, residual_report
from pedalis.hompoly import (
    HomPoly4,
    Space,
    inverse_pedal_pullback,
    parse_poly,
    pedal_pullback,
    strip_exceptional,
)
from pedalis.quadricpedal import (
    PentasphericalForm,
    SphereInversePedalKind,
    _exact_rank,
    _symmetric_matrix,
    bisector_from_inverse_pedal,
    cyclide_closed_form,
    dual_cyclide_closed_form,
    focal_degeneracy_check,
    inverse_pedal_quadric,
    is_parabola_dupin,
    normalized_quadric,
    parabola_dual_quadric,
    paraboloid_dual_quadric,
    pedal_of_quadric,
    pentaspherical_lift,
    pentaspherical_point,
    sphere_dual_quadric,
    sphere_inverse_pedal_affine,
    sphere_point_quadric,
)
from pedalis.surfkit import (
    Chart,
    Domain,
    PointSurface,
    PolarSurface,
    conchoid_map,
    envelope_solve,
    point_to_dual,
)


class TestQuadricPolynomial:
    # a quadric is a HomPoly4 of degree 2; its rank is read from its matrix
    def test_rank(self):
        assert _exact_rank(_symmetric_matrix(sphere_dual_quadric(2, 1))) == 4
        assert _exact_rank(_symmetric_matrix(parabola_dual_quadric(1, 1))) == 3
        assert _exact_rank(_symmetric_matrix(parse_poly("(x0 - x3)^2"))) == 1

    def test_symmetric_matrix_halves_the_couplings(self):
        assert _symmetric_matrix(parse_poly("x0^2 - 4*x0*x1 + 3*x2*x3 - x3^2")) == [
            [1, -2, 0, 0], [-2, 0, 0, 0], [0, 0, 0, Fraction(3, 2)],
            [0, 0, Fraction(3, 2), -1]]

    def test_normalized_quadric_matches_manual_expansion(self):
        Q = sphere_dual_quadric(2, 1)
        expect = parse_poly("-3*u1^2 + u2^2 + u3^2 - 4*u0*u1 - u0^2")
        assert Q == expect
        # the term order of the matrix's upper triangle, which eval_grid sums in
        assert list(normalized_quadric(Space.POINT, 1, 2, 3, 4, 5, 6, 7).terms) == [
            (2, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1),
            (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)]

    @pytest.mark.parametrize("text", ["u0*u1*u2 + u3^3", "u0 + u1", "u1^4"])
    def test_polynomial_that_is_not_quadratic_rejected(self, text):
        message = rf"^a quadric is a polynomial of degree 2, not {parse_poly(text).degree}$"
        with pytest.raises(ValueError, match=message):
            pedal_of_quadric(parse_poly(text))
        with pytest.raises(ValueError, match=message):
            inverse_pedal_quadric(parse_poly(text.replace("u", "x")))


class TestPedalOfQuadric:
    def test_sphere_pedal_matches_family_at_zero(self):
        got = pedal_of_quadric(sphere_dual_quadric(2, 1))
        expect = get_entry("sphere-offset").point_family(0)
        assert got.equals_up_to_scale(expect)

    def test_closed_form_oracle_on_random_normalized_quadrics(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            vals = [Fraction(int(x), 7) for x in rng.integers(-20, 20, 7)]
            a0, a1, a2, a3, b1, b2, b3 = vals
            if a0 == 0:
                continue
            Q = normalized_quadric(Space.DUAL, a0, a1, a2, a3, b1, b2, b3)
            if _exact_rank(_symmetric_matrix(Q)) < 3:
                continue
            got = pedal_pullback(Q)
            assert got == cyclide_closed_form(a0, a1, a2, a3, b1, b2, b3)

    def test_paraboloid_parabolic_cyclide(self):
        got = pedal_of_quadric(paraboloid_dual_quadric(1, 1, 1))
        expect = parse_poly(
            "4*x3*(x1^2+x2^2+x3^2) + x0*(x1^2 + x2^2 - 4*x3^2)")
        assert got.equals_up_to_scale(expect)
        assert got.degree == 3

    def test_rank_too_low(self):
        Q = parse_poly("u0^2 + u1^2")
        with pytest.raises(RankTooLow, match=r"^dual quadric of rank 2$"):
            pedal_of_quadric(Q)


class TestFocalDegeneracy:
    def test_focal_factorization(self):
        pair = focal_degeneracy_check(1, 1, Fraction(-1, 4))
        assert pair is not None
        quad, plane = pair
        assert quad == HomPoly4.quadform(Space.POINT)
        assert plane.equals_up_to_scale(parse_poly("4*x3 + x0"))

    def test_generic_parameters_do_not_factor(self):
        assert focal_degeneracy_check(1, 1, 1) is None
        assert focal_degeneracy_check(1, 2, Fraction(-1, 4)) is None

    def test_factorization_reconstructs_cyclide(self):
        a = 2
        quad, plane = focal_degeneracy_check(a, a, Fraction(-1, 4 * a))
        assert plane.equals_up_to_scale(parse_poly(f"{4 * a}*x3 + x0"))
        # the product is the parabolic cyclide before its quadric factor is
        # stripped: 4ab x3 q + x0 (b x1^2 + a x2^2 - 4abc x3^2)
        cyclide = parse_poly(
            f"{4 * a * a}*x3*(x1^2+x2^2+x3^2)"
            f" + x0*({a}*x1^2 + {a}*x2^2 + {a}*x3^2)")
        assert (quad * plane).equals_up_to_scale(cyclide)


class TestParabolaPedal:
    def test_parabola_cyclide(self):
        got = pedal_of_quadric(parabola_dual_quadric(1, 1))
        # z = a/2 u^2 + c parabola with a=1,c=1: x0(x1^2-2ac x3^2)+2a x3 q
        expect = get_entry("parabola-cyclide").point_poly
        assert got.equals_up_to_scale(expect)

    def test_dupin_condition(self):
        assert is_parabola_dupin(1, Fraction(-1, 2))
        assert is_parabola_dupin(Fraction(1, 4), -2)
        assert not is_parabola_dupin(1, 1)

    def test_offset_family_pullback_identity(self):
        entry = get_entry("parabola-cyclide")
        d = Fraction(1, 2)
        stripped = strip_exceptional(pedal_pullback(entry.dual_family(d)))
        assert stripped.reduced.equals_up_to_scale(entry.point_family(d))


class TestParaboloidOffsetChart:
    def test_vertex_plane(self):
        F = paraboloid_offset_chart(1, 1, 1)
        m = np.asarray(F.n(0.0, 0.5 * math.pi))
        assert np.allclose(m, [0, 0, 1])
        assert abs(F.e(0.0, 0.5 * math.pi) - 1.0) < 1e-12

    def test_envelope_reproduces_paraboloid(self):
        entry = get_entry("paraboloid-pedal")
        poly = entry.extras["point_implicit"]
        F = paraboloid_offset_chart(1, 1, 1)
        for s in np.linspace(0, 2 * math.pi, 8):
            for t in np.linspace(0.3, 1.3, 8):
                x = envelope_solve(F, s, t)
                val = abs(float(poly.eval((1.0, *x))))
                assert val < 1e-7 * max(1.0, float(np.max(np.abs(x))) ** 2)

    def test_polar_chart_satisfies_derived_family(self):
        entry = get_entry("paraboloid-pedal")
        F = paraboloid_offset_chart(1, 1, 1)
        G = conchoid_map(PolarSurface(F.n, F.e), 0.5)
        rep = residual_report(G, entry.point_family(Fraction(1, 2)), 40, 40)
        assert rep.max < 1e-8

    def test_pole_rejected(self):
        with pytest.raises(PoleInDomain):
            paraboloid_offset_chart(1, 1, 1, domain=Domain(0, 6.28, -0.2, 1.0))


class TestPentaspherical:
    def test_sphere_pedal_lift_coefficients(self):
        cyclide = pedal_of_quadric(sphere_dual_quadric(2, 1))
        form = pentaspherical_lift(cyclide)
        # a0=-1, a=(R^2-m^2, R^2, R^2)=(-3,1,1), b=(-2m,0,0)=(-4,0,0)
        B = form.B
        assert B[0][0] == -1 and B[4][4] == -1 and B[0][4] == -1
        assert (B[1][1], B[2][2], B[3][3]) == (-3, 1, 1)
        assert B[0][1] == 2 and B[4][1] == 2  # -b1/2 with b1 = -4
        assert form.rank <= 5

    def test_unit_sphere_cyclide_rank_two_structure(self):
        form = pentaspherical_lift(cyclide_closed_form(-1, 1, 1, 1, 0, 0, 0))
        # modulo the Moebius quadric the form reduces to -2 y4 (y0 + y4)
        moebius = [[-1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0],
                   [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]
        reduced = tuple(
            tuple(form.B[i][j] - moebius[i][j] for j in range(5)) for i in range(5))
        assert PentasphericalForm(reduced).rank == 2

    def test_lift_restrict_round_trip(self):
        cyclide = pedal_of_quadric(sphere_dual_quadric(2, 1))
        form = pentaspherical_lift(cyclide)
        rng = np.random.default_rng(21)
        for _ in range(1000):
            x = rng.uniform(-2, 2, 3)
            y = pentaspherical_point(x)
            lhs = float(form.eval(y))
            rhs = float(cyclide.eval(np.concatenate(([1.0], x))))
            assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))

    def test_shape_errors(self):
        with pytest.raises(NotCyclideShape):
            pentaspherical_lift(parse_poly("x0^4 + x1^4"))
        with pytest.raises(NotCyclideShape):
            pentaspherical_lift(parse_poly("x3 - x0"))
        with pytest.raises(NotCyclideShape):
            pentaspherical_lift(HomPoly4.zero(Space.POINT))
        with pytest.raises(NotCyclideShape):
            pentaspherical_lift(dual_cyclide_closed_form(-1, -3, 1, 1, -4, 0, 0))

    @staticmethod
    def lift_matrix(a0, a1, a2, a3, b1, b2, b3):
        """B of a0 (y0+y4)^2 - (y0+y4)(b1 y1 + b2 y2 + b3 y3) + sum ai yi^2."""
        B = [[Fraction(0)] * 5 for _ in range(5)]
        B[0][0] = B[0][4] = B[4][0] = B[4][4] = a0
        for i, (a, b) in enumerate(((a1, b1), (a2, b2), (a3, b3)), start=1):
            B[i][i] = a
            B[0][i] = B[i][0] = B[4][i] = B[i][4] = -b / 2
        return tuple(map(tuple, B))

    def test_lift_reads_the_seven_coefficients(self):
        rng = random.Random(35)
        values = [Fraction(0)] * 4 + [Fraction(p, q) for p in range(-3, 4) if p
                                      for q in (1, 2, 3)]
        for _ in range(60):
            p = [rng.choice(values) for _ in range(7)]
            form = pentaspherical_lift(cyclide_closed_form(*p))
            assert form.B == self.lift_matrix(*p), p
            assert all(type(b) is Fraction for row in form.B for b in row)

    @pytest.mark.parametrize("extra", [
        "x0^3*x1",  # an x0^3 term: O is not a double point
        "x0^2*x1*x2",  # an off-diagonal x0^2 layer
        "x0*x1^3",  # an x0 layer that is not q times a linear form
        "x1^4",  # an x0-free layer that is not a0 q^2
        "x1^2*x2^2",
    ])
    def test_each_broken_layer_is_not_a_cyclide(self, extra):
        cyclide = cyclide_closed_form(-1, -3, 1, 1, -4, 0, 0)
        pentaspherical_lift(cyclide)  # lifts before the extra term
        with pytest.raises(NotCyclideShape):
            pentaspherical_lift(cyclide + parse_poly(extra))


class TestInversePedalQuadric:
    def test_sphere(self):
        got = inverse_pedal_quadric(sphere_point_quadric(2, 1))
        expect = parse_poly("u0^2 + 4*u0*u1 + 3*(u1^2+u2^2+u3^2)")
        assert got.equals_up_to_scale(expect)

    def test_matches_dual_cyclide_closed_form(self):
        G = normalized_quadric(Space.POINT, 3, 1, 1, 1, -4)
        got = inverse_pedal_pullback(G)
        stripped = strip_exceptional(got)
        expect = dual_cyclide_closed_form(3, 1, 1, 1, -4, 0, 0)
        assert (HomPoly4.quadform(Space.DUAL) ** stripped.k
                * stripped.reduced).equals_up_to_scale(expect)

    def test_plane_fast_path(self):
        # a rank-1 quadric is a doubled plane, read back from its matrix's rows
        for text in ("(x0 - x3)^2", "-(2*x0 - 2*x3)^2", "x3^2 - 2*x0*x3 + x0^2"):
            got = inverse_pedal_quadric(parse_poly(text))
            assert got.equals_up_to_scale(parse_poly("u0*u3 + u1^2+u2^2+u3^2"))

    def test_plane_through_origin_rejected(self):
        with pytest.raises(OriginOnSurface):
            inverse_pedal_quadric(parse_poly("x3^2"))

    def test_rank_two_rejected(self):
        with pytest.raises(RankTooLow, match=r"^point quadric of rank 2$"):
            inverse_pedal_quadric(parse_poly("x1^2 - x2^2"))

    def test_sphere_through_origin_factor_signal(self):
        m = Fraction(1)
        stripped = strip_exceptional(
            inverse_pedal_pullback(sphere_point_quadric(m, m)))
        assert stripped.r == 1 and stripped.k == 1
        assert stripped.reduced.equals_up_to_scale(parse_poly("u0 + 2*u1"))


class TestSphereInversePedal:
    def test_classifications(self):
        assert sphere_inverse_pedal_affine(0, 1).kind is SphereInversePedalKind.ELLIPSOID
        assert sphere_inverse_pedal_affine(2, 1).kind is \
            SphereInversePedalKind.HYPERBOLOID_2SHEETS
        res = sphere_inverse_pedal_affine(1, 1)
        assert res.kind is SphereInversePedalKind.DEGENERATE_POINT
        assert res.implicit is None
        assert np.allclose(res.point, [2, 0, 0])

    def test_centered_sphere_is_fixed(self):
        res = sphere_inverse_pedal_affine(0, 1)
        # inverse pedal of the unit sphere about its center is the sphere
        assert res.implicit.equals_up_to_scale(parse_poly("x1^2+x2^2+x3^2-x0^2"))

    def test_implicit_matches_envelope_samples(self):
        entry = get_entry("sphere-inverse-pedal")
        rep = residual_report(entry.residual_cases[2].surface,
                              entry.extras["result"].implicit, 30, 30)
        assert rep.max < 1e-8


def _plane_chart():
    return PointSurface(Chart(
        lambda u, v: np.array([u, v, 1.0]),
        lambda u, v: np.array([1.0, 0.0, 0.0]),
        lambda u, v: np.array([0.0, 1.0, 0.0]),
        Domain(-2.0, 2.0, -2.0, 2.0),
    ))


class TestBisector:
    def test_plane_bisector_equidistance(self):
        bis = bisector_from_inverse_pedal(_plane_chart())
        for u in np.linspace(-2, 2, 15):
            for v in np.linspace(-2, 2, 15):
                p = bis.point(u, v)
                assert abs(np.linalg.norm(p) - abs(p[2] - 1.0)) < 1e-7
                # paraboloid x^2 + y^2 = 1 - 2z
                assert abs(p[0] ** 2 + p[1] ** 2 - (1 - 2 * p[2])) < 1e-8

    def test_sphere_bisector_equidistance(self):
        sphere = get_entry("sphere-inverse-pedal").point_chart
        bis = bisector_from_inverse_pedal(sphere)
        center = np.array([2.0, 0.0, 0.0])
        for u in np.linspace(0.1, 6.1, 10):
            for v in np.linspace(-1.2, 1.2, 10):
                p = bis.point(u, v)
                g = sphere.point(u, v)
                # equidistant from O and the generating surface point
                assert abs(np.linalg.norm(p) - np.linalg.norm(p - g)) < 1e-7
                # where that point is the nearest one, the metric distance
                # to the sphere agrees too
                if np.linalg.norm(p - center) >= 1.0 and (g - center) @ (p - center) > 0:
                    dist_sphere = abs(np.linalg.norm(p - center) - 1.0)
                    assert abs(np.linalg.norm(p) - dist_sphere) < 1e-7

    def test_scaling_linearity(self):
        plane = _plane_chart()
        bis = bisector_from_inverse_pedal(plane)
        F = point_to_dual(plane)
        for u, v in ((0.3, -0.5), (1.1, 0.9)):
            assert np.max(np.abs(bis.point(u, v) - 0.5 * envelope_solve(F, u, v))) < 1e-12
