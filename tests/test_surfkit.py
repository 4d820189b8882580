import io
import math

import numpy as np
import pytest

from pedalis.errors import (
    DegenerateEnvelope,
    EmptyGrid,
    EmptyMesh,
    NonUnitNormal,
    OriginOnSurface,
)
from pedalis.gallery import get_entry, residual_report
from pedalis.sphereatlas import trig_s2
from pedalis.surfkit import (
    Chart,
    Domain,
    DualSurface,
    PointSurface,
    PolarSurface,
    commutation_check,
    conchoid_map,
    constant_chart,
    dual_to_point,
    envelope_solve,
    envelope_surface,
    gamma,
    offset_map,
    phi,
    point_to_dual,
    sample_mesh,
    tangent_planes,
    write_obj,
)

SPHERE_DOM = Domain(0.0, 2.0 * math.pi, -1.3, 1.3)
UNIT_DOM = Domain(0.0, 1.0, 0.0, 1.0)


def unit_sphere_normals():
    return trig_s2(SPHERE_DOM)


class TestPhiGamma:
    def test_unit_sphere_tangent_planes(self):
        F = phi(unit_sphere_normals(), constant_chart(1.0, SPHERE_DOM))
        pl = F.plane(0.3, 0.4)
        assert abs(np.linalg.norm(pl.normal) - 1.0) < 1e-12
        assert pl.offset == 1.0

    def test_non_unit_normal_rejected(self):
        bad = Chart(lambda u, v: np.array([2.0, 0.0, 0.0]), domain=SPHERE_DOM)
        with pytest.raises(NonUnitNormal):
            phi(bad, constant_chart(1.0, SPHERE_DOM))

    @pytest.mark.parametrize("build", [
        lambda n: phi(n, constant_chart(1.0, SPHERE_DOM)),
        lambda n: gamma(n, constant_chart(1.0, SPHERE_DOM)),
        lambda n: offset_map(DualSurface(n, constant_chart(1.0, SPHERE_DOM)), 0.5),
    ], ids=["phi", "gamma", "offset_map"])
    def test_no_probe_sample_raises_empty_grid(self, build):
        nan = Chart(lambda u, v: np.full(3, np.nan), domain=SPHERE_DOM)
        with pytest.raises(EmptyGrid):
            build(nan)

    def test_gamma_unit_sphere(self):
        G = gamma(unit_sphere_normals(), constant_chart(1.0, SPHERE_DOM))
        assert abs(np.linalg.norm(G.point(0.5, -0.2)) - 1.0) < 1e-12

    def test_gamma_plane_polar_chart(self):
        dom = Domain(0.0, 2.0 * math.pi, 0.2, 1.3)
        r = Chart(lambda u, v: 1.0 / math.sin(v), domain=dom)
        G = gamma(trig_s2(dom), r)
        for u, v in zip(*dom.grid(7, 7)):
            assert abs(G.point(u, v)[2] - 1.0) < 1e-12

    def test_gamma_zero_radius(self):
        G = gamma(unit_sphere_normals(), constant_chart(0.0, SPHERE_DOM))
        assert np.all(G.point(0.7, 0.1) == 0.0)

    def test_polar_surface_is_a_point_surface(self):
        r = Chart(lambda u, v: 2.0 + math.cos(u) * math.sin(v), domain=SPHERE_DOM)
        G = gamma(unit_sphere_normals(), r)
        assert isinstance(G, PointSurface) and not G.f.has_analytic_partials
        plain = PointSurface(Chart(G.point, domain=SPHERE_DOM))
        F, P = point_to_dual(G), point_to_dual(plain)
        for u, v in [(0.3, 0.2), (1.7, -0.9)]:
            assert np.array_equal(G.f(u, v), G.point(u, v))
            assert np.array_equal(G.htuple(u, v), np.concatenate(([1.0], G.point(u, v))))
            assert F.e(u, v) == P.e(u, v)
            assert np.array_equal(F.n.du(u, v), P.n.du(u, v))


class TestOffsetConchoidMaps:
    def test_offset_identity_at_zero(self):
        F = phi(unit_sphere_normals(), constant_chart(1.0, SPHERE_DOM))
        F0 = offset_map(F, 0.0)
        assert F0.e(0.3, 0.2) == F.e(0.3, 0.2)

    def test_sphere_offset_radius(self):
        entry = get_entry("sphere-offset")
        n, e = entry.ne_charts()
        Fd = offset_map(DualSurface(n, e), 0.5)
        # support of the d-offset of a sphere is center.n + (R + d)
        u, v = 0.7, -0.4
        expect = 2.0 * math.cos(u) * math.cos(v) + 1.5
        assert abs(Fd.e(u, v) - expect) < 1e-12

    def test_additivity_and_inverse(self):
        F = phi(unit_sphere_normals(), constant_chart(1.0, SPHERE_DOM))
        F12 = offset_map(offset_map(F, 0.4), 0.35)
        F3 = offset_map(F, 0.75)
        assert abs(F12.e(1.0, 0.5) - F3.e(1.0, 0.5)) < 1e-15
        back = offset_map(F12, -0.75)
        assert abs(back.e(1.0, 0.5) - F.e(1.0, 0.5)) < 1e-15

    def test_conchoid_map_matches_polar_shift(self):
        dom = Domain(0.0, 2.0 * math.pi, 0.2, 1.3)
        G = gamma(trig_s2(dom), Chart(lambda u, v: 1.0 / math.sin(v), domain=dom))
        Gd = conchoid_map(G, 0.7)
        u, v = 0.4, 0.9
        expect = (1.0 / math.sin(v) + 0.7) * np.asarray(trig_s2(dom)(u, v))
        assert np.max(np.abs(Gd.point(u, v) - expect)) < 1e-13
        assert np.max(np.abs(conchoid_map(Gd, -0.7).point(u, v) - G.point(u, v))) < 1e-13


class TestEnvelope:
    def test_paraboloid_vertex_limit(self):
        # the exact pole v = pi/2 is degenerate; just inside, the contact
        # point converges to the vertex (0,0,1)
        entry = get_entry("paraboloid-offset")
        F = entry.make_dual(0.0)
        x = envelope_solve(F, 0.0, 0.5 * math.pi - 1e-6)
        assert np.max(np.abs(x - [0, 0, 1])) < 1e-5
        poly = entry.point_poly
        assert abs(float(poly.eval((1.0, *x)))) < 1e-8

    def test_pole_is_degenerate(self):
        entry = get_entry("paraboloid-offset")
        with pytest.raises(DegenerateEnvelope):
            envelope_solve(entry.make_dual(0.0), 0.0, 0.5 * math.pi)

    def test_sphere_envelope_geometric(self):
        entry = get_entry("sphere-offset")
        n, e = entry.ne_charts()
        x = envelope_solve(DualSurface(n, e), 0.0, 0.0)
        assert np.max(np.abs(x - [3, 0, 0])) < 1e-9

    def test_non_finite_system_degenerate(self):
        # a pole in the chart puts NaN in the system matrix; the solve must
        # report a degenerate envelope rather than a failed SVD
        n = Chart(lambda u, v: np.array([math.nan, 0.0, 1.0]), domain=UNIT_DOM)
        F = DualSurface(n, constant_chart(1.0, UNIT_DOM))
        with pytest.raises(DegenerateEnvelope):
            envelope_solve(F, 0.5, 0.5)

    def test_constant_family_degenerate(self):
        F = DualSurface(constant_chart([0.0, 0.0, 1.0], SPHERE_DOM),
                        constant_chart(1.0, SPHERE_DOM))
        with pytest.raises(DegenerateEnvelope):
            envelope_solve(F, 0.1, 0.2)

    def test_envelope_round_trip_through_tangent_planes(self):
        # analytic chart of an ellipsoid-ish surface
        dom = Domain(0.2, 1.2, 0.2, 1.2)
        g = Chart(
            lambda u, v: np.array([2 * math.cos(u) * math.cos(v),
                                   1.5 * math.cos(v) * math.sin(u),
                                   math.sin(v) + 2.0]),
            lambda u, v: np.array([-2 * math.sin(u) * math.cos(v),
                                   1.5 * math.cos(v) * math.cos(u), 0.0]),
            lambda u, v: np.array([-2 * math.cos(u) * math.sin(v),
                                   -1.5 * math.sin(u) * math.sin(v),
                                   math.cos(v)]),
            dom,
        )
        F = tangent_planes(PointSurface(g))
        for u, v in zip(*dom.grid(6, 6)):
            x = envelope_solve(F, u, v)
            assert np.max(np.abs(x - g(u, v))) < 1e-7


class TestFootpointOnCharts:
    def test_pedal_of_unit_sphere_is_itself(self):
        F = phi(unit_sphere_normals(), constant_chart(1.0, SPHERE_DOM))
        G = dual_to_point(F)
        for u, v in zip(*SPHERE_DOM.grid(6, 6)):
            assert abs(np.linalg.norm(G.point(u, v)) - 1.0) < 1e-12

    def test_paraboloid_dual_maps_to_plane(self):
        entry = get_entry("paraboloid-offset")
        G = dual_to_point(entry.make_dual(0.0))
        for u, v in zip(*G.domain.grid(6, 6)):
            assert abs(G.point(u, v)[2] - 1.0) < 1e-12

    def test_pluecker_offset_pedal_residual(self):
        entry = get_entry("pluecker")
        G = dual_to_point(entry.make_dual(0.5))
        rep = residual_report(G, entry.point_family(0.5), 30, 30)
        assert rep.max < 1e-8

    def test_alpha_phi_equals_gamma(self):
        dom = Domain(0.0, 2.0 * math.pi, 0.2, 1.3)
        n = trig_s2(dom)
        e = Chart(lambda u, v: 0.5 + math.sin(u) * math.cos(v), domain=dom)
        G1 = dual_to_point(phi(n, e))
        G2 = gamma(n, e)
        for u, v in zip(*dom.grid(8, 8)):
            assert np.max(np.abs(G1.point(u, v) - G2.point(u, v))) < 1e-10

    def test_point_to_dual_mirrors(self):
        entry = get_entry("plane-conchoid")
        G = entry.make_polar(0.0)
        F = point_to_dual(G)
        u, v = 0.8, 0.7
        g = G.point(u, v)
        assert np.max(np.abs(np.asarray(F.n(u, v)) - g)) < 1e-14
        assert abs(F.e(u, v) - float(g @ g)) < 1e-12


class TestCommutation:
    @pytest.mark.parametrize("name,d", [
        ("plane-conchoid", 0.7),
        ("plane-conchoid", 0.0),
        ("sphere-offset", -0.3),
    ])
    def test_diagrams(self, name, d):
        entry = get_entry(name)
        n, e = entry.ne_charts()
        assert commutation_check(n, e, d, grid=(30, 30)) < 1e-9

    def test_all_unit_normal_entries(self):
        for name in ("plane-conchoid", "paraboloid-offset", "sphere-offset",
                     "pluecker", "parabola-cyclide", "paraboloid-pedal"):
            entry = get_entry(name)
            n, e = entry.ne_charts()
            for d in (-1.0, -0.3, 0.0, 0.5, 2.0):
                assert commutation_check(n, e, d, grid=(15, 15)) < 1e-9, (name, d)

    @pytest.mark.parametrize("n", [
        Chart(lambda u, v: np.array([0.0, 0.0, math.nan]), domain=UNIT_DOM),
        # zero normal: every offset plane R(-(e+d),0,0,0) is the ideal plane
        constant_chart([0.0, 0.0, 0.0], UNIT_DOM),
    ], ids=["everywhere-singular", "zero-normal"])
    def test_no_compared_sample_raises_empty_grid(self, n):
        e = constant_chart(1.0, UNIT_DOM)
        for d in (-0.3, 0.0, 2.0):
            with pytest.raises(EmptyGrid):
                commutation_check(n, e, d, grid=(6, 6))


class TestMesh:
    def test_unit_sphere_grid(self):
        G = gamma(unit_sphere_normals(), constant_chart(1.0, SPHERE_DOM))
        mesh = sample_mesh(G, 4, 4)
        assert len(mesh.vertices) == 16
        assert all(abs(np.linalg.norm(p) - 1) < 1e-12 for p in mesh.vertices)

    def test_plane_chart_mesh(self):
        entry = get_entry("plane-conchoid")
        mesh = sample_mesh(entry.make_polar(0.0), 8, 8)
        assert np.max(np.abs(mesh.vertices[:, 2] - 1.0)) < 1e-12

    def test_conoid_mesh_residual(self):
        entry = get_entry("pluecker")
        mesh = sample_mesh(entry.point_chart, 20, 20)
        poly = entry.extras["conoid"]
        T = np.hstack([np.ones((len(mesh.vertices), 1)), mesh.vertices])
        vals = np.abs(poly.eval_grid(T))
        scale = poly.coeff_norm() * np.max(np.abs(T), axis=1) ** poly.degree
        assert np.max(vals / scale) < 1e-8

    def test_empty_mesh(self):
        bad = PointSurface(Chart(lambda u, v: np.array([math.nan] * 3),
                                 domain=SPHERE_DOM))
        with pytest.raises(EmptyMesh):
            sample_mesh(bad, 4, 4)

    def test_singular_samples_dropped(self):
        dom = Domain(0.0, 1.0, 0.0, 1.0)
        S = PointSurface(Chart(lambda u, v: np.array([u, v, math.inf if u < 0.25 else 0.0]),
                               domain=dom))
        mesh = sample_mesh(S, 4, 4)
        assert len(mesh.vertices) == 12

    def test_chart_type_error_propagates(self):
        # a programming error in a chart is not a dropped sample
        S = PointSurface(Chart(lambda u, v: np.array([u, v]) + None, domain=UNIT_DOM))
        with pytest.raises(TypeError):
            sample_mesh(S, 4, 4)

    def test_geometry_error_sample_dropped_with_faces(self):
        third = 1.0 / 3.0

        def f(u, v):
            if abs(u - third) < 1e-12 and abs(v - third) < 1e-12:
                raise OriginOnSurface("grid point (1, 1)")
            return np.array([u, v, 0.0])

        mesh = sample_mesh(PointSurface(Chart(f, domain=UNIT_DOM)), 4, 4)
        assert len(mesh.vertices) == 15
        assert not np.any(np.all(np.abs(mesh.vertices - [third, third, 0.0]) < 1e-12, axis=1))
        # 9 cells, 4 of which touch the dropped point
        assert mesh.faces.shape == (10, 3)

    def test_faces_match_double_loop_on_grid_with_holes(self):
        nu, nv = 7, 5
        dom = Domain(0.0, 1.0, 0.0, 2.0)
        hole = lambda u, v: math.sin(37.0 * u + 11.0 * v) > 0.6
        S = PointSurface(Chart(lambda u, v: np.array([u, v, math.nan if hole(u, v) else u * v]),
                               domain=dom))
        mesh = sample_mesh(S, nu, nv)
        # reference: the per-cell double loop of the scalar mesher
        index = -np.ones((nu, nv), dtype=int)
        count = 0
        for i, u in enumerate(np.linspace(dom.umin, dom.umax, nu)):
            for j, v in enumerate(np.linspace(dom.vmin, dom.vmax, nv)):
                if not hole(u, v):
                    index[i, j] = count
                    count += 1
        faces = []
        for i in range(nu - 1):
            for j in range(nv - 1):
                a, b, c, d = index[i, j], index[i + 1, j], index[i + 1, j + 1], index[i, j + 1]
                if min(a, b, c, d) >= 0:
                    faces += [(a, b, c), (a, c, d)]
        assert 0 < count < nu * nv and 0 < len(faces) < 2 * (nu - 1) * (nv - 1)
        assert len(mesh.vertices) == count
        assert mesh.faces.tolist() == [list(f) for f in faces]

    def test_obj_format(self):
        G = gamma(unit_sphere_normals(), constant_chart(1.0, SPHERE_DOM))
        mesh = sample_mesh(G, 3, 3)
        buf = io.StringIO()
        write_obj(mesh, buf)
        lines = buf.getvalue().strip().splitlines()
        vlines = [l for l in lines if l.startswith("v ")]
        flines = [l for l in lines if l.startswith("f ")]
        assert len(vlines) == len(mesh.vertices)
        assert len(flines) == len(mesh.faces)
        # 1-based triangle indices
        idx = [int(t) for l in flines for t in l.split()[1:]]
        assert min(idx) >= 1 and max(idx) <= len(mesh.vertices)
        assert all(len(l.split()) == 4 for l in flines)


class TestEnvelopeSurface:
    def test_matches_pointwise_solve(self):
        entry = get_entry("paraboloid-offset")
        F = entry.make_dual(0.3)
        S = envelope_surface(F)
        u, v = 0.9, 0.8
        assert np.max(np.abs(S.point(u, v) - envelope_solve(F, u, v))) == 0.0
