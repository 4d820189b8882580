"""One evaluation path for a sample and for a grid.

Charts take arrays of parameters; a grid is evaluated in blocks of
``surfkit.BLOCK_ROWS`` samples.  These tests check that a batched call
gives the same bits as one call per sample, that block seams change
nothing, and that every place that raises a typed GeometryError for a
single sample drops that sample, and only that one, from a grid.
"""

import math

import numpy as np
import pytest

from pedalis import config, ruledpedal
from pedalis.errors import (
    CommonZero,
    CylindricalRuling,
    DegenerateEnvelope,
    DegenerateSystem,
    ExceptionalPlane,
    GeometryError,
    LineThroughOrigin,
    OriginOnSurface,
    ZeroDirection,
)
from pedalis.gallery import get_entry, list_entries
from pedalis.quadricpedal import bisector_from_inverse_pedal
from pedalis.sphereatlas import RationalQuadruple, universal_s2
from pedalis.surfkit import (
    BLOCK_ROWS,
    CONSTRUCTS,
    Chart,
    Domain,
    DualSurface,
    PointSurface,
    constant_chart,
    construct,
    dual_to_point,
    envelope_solve,
    envelope_surface,
    sample_grid,
    sample_mesh,
    vector_rows,
)
from test_obj_digest import CONFIGS


def per_sample(value, domain, nu, nv):
    """(rows, valid) of one call per grid sample, under the drop rule of the
    kernel: a GeometryError or a non-finite entry drops the sample."""
    U, V = domain.grid(nu, nv)
    rows, valid = [], np.zeros(U.size, dtype=bool)
    with np.errstate(all="ignore"):
        for k, (u, v) in enumerate(zip(U, V)):
            try:
                row = np.asarray(value(u, v), dtype=float)
            except GeometryError:
                continue
            if np.isfinite(row).all():
                rows.append(row)
                valid[k] = True
    return np.array(rows), valid


def same_bits(a, b):
    a, b = np.ascontiguousarray(a, dtype=float), np.ascontiguousarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def gallery_charts():
    for name in list_entries():
        entry = get_entry(name)
        members = {"dual": entry.dual, "polar": entry.polar, "point_chart": entry.point_chart}
        for member, surface in members.items():
            if surface is None:
                continue
            for key in ("n", "e", "s", "r", "f"):
                chart = getattr(surface, key, None)
                if chart is not None:
                    yield pytest.param(chart, id=f"{name}-{member}-{key}")


@pytest.mark.parametrize("chart", gallery_charts())
@pytest.mark.parametrize("method", ["__call__", "du", "dv"])
def test_gallery_chart_batch_matches_samples(chart, method):
    fn = getattr(chart, method)
    U, V = chart.domain.grid(60, 60)
    batched = np.asarray(fn(U, V), dtype=float)
    assert batched.shape[0] == U.size
    assert same_bits(batched, [fn(u, v) for u, v in zip(U, V)])


def supported_constructs():
    for name in list_entries():
        for construct in CONSTRUCTS:
            try:
                get_entry(name).construct(construct, 0.5)
            except ValueError:
                continue
            yield name, construct


@pytest.mark.parametrize("name,construct", supported_constructs())
def test_construct_batch_matches_samples(name, construct):
    S = get_entry(name).construct(construct, 0.5)
    rows, valid = sample_grid(S.point, S.domain, 12, 12)
    ref_rows, ref_valid = per_sample(S.point, S.domain, 12, 12)
    assert np.array_equal(valid, ref_valid)
    assert same_bits(rows, ref_rows)


@pytest.mark.parametrize("width", [None, 3, 4])
def test_row_shapes_match_samples_past_a_block(width):
    # log|u - v| is -inf on the diagonal of the square grid, a NaN where
    # u < v and finite elsewhere; 65x65 samples are two blocks
    def f(u, v):
        x = np.log(u - v)
        return x if width is None else vector_rows(u, *(u, v, 1.0, x)[-width:])

    square = Domain(0.0, 1.0, 0.0, 1.0)
    assert 65 * 65 > BLOCK_ROWS
    rows, valid = sample_grid(f, square, 65, 65)
    ref_rows, ref_valid = per_sample(f, square, 65, 65)
    assert rows.shape[1:] == (() if width is None else (width,))
    assert np.array_equal(valid, ref_valid) and same_bits(rows, ref_rows)
    assert not valid.reshape(65, 65).diagonal().any() and 0 < valid.sum() < 65 * 65


# the paraboloid-offset plane family with its pole v = pi/2 on the grid edge:
# the envelope is degenerate there and those samples drop
POLE_DOM = Domain(0.0, 2.0 * math.pi, 0.2, 0.5 * math.pi)


@pytest.mark.parametrize("nu,nv", [(17, 241), (2, 2)], ids=["one-past-a-block", "2x2"])
def test_grid_seams(nu, nv):
    assert nu * nv in (BLOCK_ROWS + 1, 4)
    S = envelope_surface(get_entry("paraboloid-offset").dual)
    rows, valid = sample_grid(S.point, POLE_DOM, nu, nv)
    ref_rows, ref_valid = per_sample(S.point, POLE_DOM, nu, nv)
    assert np.array_equal(valid, ref_valid)
    assert same_bits(rows, ref_rows)
    # the v = pi/2 column is the only one dropped
    assert np.array_equal(valid.reshape(nu, nv)[:, -1], np.zeros(nu, dtype=bool))
    assert valid.reshape(nu, nv)[:, :-1].all()


# -- every typed error of a single sample is a dropped sample of a grid -----

UNIT = Domain(0.0, 1.0, 0.0, 1.0)


def _envelope_at_pole():
    S = envelope_surface(get_entry("paraboloid-offset").dual)
    return S.point, POLE_DOM, (0.0, 0.5 * math.pi)


def _pedal_of_zero_normal():
    # the normal (u + 1e-13, v, 0) is numerically zero at (0, 0), though finite
    # arithmetic would give a finite foot point there
    n = Chart(lambda u, v: vector_rows(u, u + 1e-13, v, 0.0), domain=UNIT)
    return dual_to_point(DualSurface(n, constant_chart(1.0, UNIT))).point, UNIT, (0.0, 0.0)


def _quadruple_common_zero():
    # a^2 + b^2 + c^2 + d^2 = (u + 1e-7)^2 + v^2 is below 1e-12 at (0, 0)
    q = RationalQuadruple(lambda u, v: u + 1e-7, lambda u, v: v,
                          lambda u, v: 0.0, lambda u, v: 0.0, domain=UNIT)
    return universal_s2(q), UNIT, (0.0, 0.0)


def _paraboloid_through_origin():
    # the paraboloid z = u^2 + v^2 passes through O at (0, 0)
    return PointSurface(Chart(
        lambda u, v: np.stack((u, v, u * u + v * v), axis=-1),
        lambda u, v: vector_rows(u, 1.0, 0.0, 2.0 * u),
        lambda u, v: vector_rows(u, 0.0, 1.0, 2.0 * v),
        UNIT))


def _bisector_through_origin():
    return bisector_from_inverse_pedal(_paraboloid_through_origin()).point, UNIT, (0.0, 0.0)


def _inverse_pedal_through_origin():
    # point_to_dual guards O for the construct as for the bisector
    return construct(_paraboloid_through_origin(), "inverse-pedal").point, UNIT, (0.0, 0.0)


def _helicoid_like(e):
    return ruledpedal.RuledChart(lambda u: vector_rows(u, 0.0, 0.0, 1.0 + u), e,
                                 domain=Domain(0.0, 1.0, 0.3, 0.7))


def _zero_ruling_direction():
    # e(u) = u * (u, 1 - u, 0) vanishes at u = 0
    R = _helicoid_like(lambda u: vector_rows(u, u * u, u * (1.0 - u), 0.0))
    G = ruledpedal.polar_norm_reparam(R, Domain(0.0, 1.0, 0.3, 0.7))
    return G.point, G.domain, (0.0, 0.5)


def _cylindrical_ruling():
    # e(u) = (cos u^2, sin u^2, 0) has e' = 0 at u = 0
    R = _helicoid_like(lambda u: vector_rows(u, np.cos(u * u), np.sin(u * u), 0.0))
    F = ruledpedal.rational_offset_ruled(R, 0.5, Domain(0.0, 1.0, 0.3, 0.7))
    return F.htuple, F.domain, (0.0, 0.5)


def _ruling_through_origin():
    # c(u) = (0, u, 0) with e = (1, 0, 0): the ruling at u = 0 passes through O
    R = ruledpedal.RuledChart(lambda u: vector_rows(u, 0.0, u, 0.0),
                              lambda u: vector_rows(u, 1.0, 0.0, 0.0))
    G = ruledpedal.polar_norm_reparam(R, Domain(0.0, 1.0, 0.3, 0.7))
    return G.point, G.domain, (0.0, 0.5)


def _inverse_pedal(v0):
    # the saddle z = x*y, ruled by (v, u, u*v), passes through O at (0, 0)
    R = ruledpedal.RuledChart(lambda u: vector_rows(u, 0.0, u, 0.0),
                              lambda u: vector_rows(u, 1.0, 0.0, u),
                              domain=Domain(0.0, 1.0, v0, v0 + 1.0))
    return (lambda u, v: ruledpedal.inverse_pedal_ruled(R, u, v)), R.domain, (0.0, v0)


@pytest.mark.parametrize("build,error", [
    (_envelope_at_pole, DegenerateEnvelope),
    (_pedal_of_zero_normal, ExceptionalPlane),
    (_quadruple_common_zero, CommonZero),
    (_bisector_through_origin, OriginOnSurface),
    (_inverse_pedal_through_origin, OriginOnSurface),
    (_zero_ruling_direction, ZeroDirection),
    (_cylindrical_ruling, CylindricalRuling),
    (_ruling_through_origin, LineThroughOrigin),
    # at u = 0 the saddle passes through O at v = 0; elsewhere on that
    # ruling, and all along v = 0, the system is singular
    (lambda: _inverse_pedal(0.0), OriginOnSurface),
    (lambda: _inverse_pedal(0.5), DegenerateSystem),
], ids=lambda x: getattr(x, "__name__", None))
def test_typed_error_of_a_sample_is_a_dropped_row(build, error):
    value, domain, (u0, v0) = build()
    with pytest.raises(error):
        value(u0, v0)
    rows, valid = sample_grid(value, domain, 9, 9)
    ref_rows, ref_valid = per_sample(value, domain, 9, 9)
    assert np.array_equal(valid, ref_valid) and same_bits(rows, ref_rows)
    U, V = domain.grid(9, 9)
    at = (U == u0) & (V == v0)
    assert at.any() and not valid[at].any()
    assert 0 < np.count_nonzero(valid) < U.size


def test_type_error_in_an_envelope_chart_propagates():
    broken = Chart(lambda u, v: vector_rows(u, u, v, 1.0) + None, domain=UNIT)
    F = DualSurface(broken, constant_chart(1.0, UNIT))
    with pytest.raises(TypeError):
        sample_mesh(envelope_surface(F), 4, 4)
    with pytest.raises(TypeError):
        envelope_solve(F, 0.5, 0.5)


@pytest.mark.parametrize("kind,text", [
    ("dual", "nx = cos(u)*cos(v)\nny = cos(v)*sin(u)\nnz = sin(v)\ne = 1\n"),
    ("polar", "sx = cos(u)*cos(v)\nsy = cos(v)*sin(u)\nsz = sin(v)\nr = 1\n"),
    ("point", "fx = cos(u)*cos(v)\nfy = cos(v)*sin(u)\nfz = 1\n"),
])
def test_constant_config_expressions_broadcast(tmp_path, kind, text):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"[surface]\nkind = {kind}\n{text}"
                   "[domain]\numin = 0\numax = 6\nvmin = -1\nvmax = 1\n")
    _, S = config.load(str(cfg))
    rows, valid = sample_grid(construct(S, "self").point, S.domain, 5, 7)
    ref_rows, ref_valid = per_sample(construct(S, "self").point, S.domain, 5, 7)
    assert valid.all() and np.array_equal(valid, ref_valid) and same_bits(rows, ref_rows)
    U, V = S.domain.grid(5, 7)
    expect_z = np.ones(U.size) if kind == "point" else np.sin(V)
    # the dual envelope uses differenced partials
    assert np.max(np.abs(rows[:, 2] - expect_z)) < 1e-9


@pytest.mark.parametrize("text", ["u^2", "u^3", "sqrt(u^2 + 1)^0.5", "(u + 3)^v", "(u + 3)^-1"])
def test_power_of_a_batch_is_the_power_of_each_sample(text):
    # random values: array ``**`` and scalar pow differ in a fraction of them
    rng = np.random.default_rng(5)
    U, V = rng.uniform(-2.0, 2.0, 10000), rng.uniform(-3.0, 3.0, 10000)
    f = config.parse_expr(text)
    assert same_bits(f(U, V), [f(u, v) for u, v in zip(U, V)])
    if text == "u^3":
        assert same_bits(f(U, V), [np.float64(u) ** np.float64(3.0) for u in U])


@pytest.mark.parametrize("source", ["power-point", "power-dual"])
@pytest.mark.parametrize("name", CONSTRUCTS)
def test_power_config_batch_matches_samples(tmp_path, source, name):
    text, domain = CONFIGS[source]
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"[surface]\n{text}[domain]\n{domain}")
    _, S = config.load(str(cfg))
    P = construct(S, name, 0.5)
    rows, valid = sample_grid(P.point, P.domain, 12, 12)
    ref_rows, ref_valid = per_sample(P.point, P.domain, 12, 12)
    assert valid.any() and np.array_equal(valid, ref_valid) and same_bits(rows, ref_rows)
