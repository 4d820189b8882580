import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pedalis.errors import BasePoint, ExceptionalElement, ExceptionalPlane, OriginPoint
from pedalis.projmaps import (
    AffPlane,
    HPlane,
    HPoint,
    alpha_affine,
    alpha_hom,
    alpha_star_affine,
    alpha_star_hom,
    alpha_z,
    alpha_rows,
    alpha_star_rows,
    canonical,
    canonical_rows,
    exceptional_normal,
    inversion_sigma,
    pi_rows,
    pi_star_rows,
    polarity_pi,
    polarity_pi_star,
    projective_eq,
    sigma_rows,
)
from pedalis.verify import random_tuples

RNG = np.random.default_rng(20240517)


def random_hplane(rng):
    while True:
        v = rng.uniform(-1.0, 1.0, size=4)
        if np.max(np.abs(v)) < 1e-3:
            continue
        w = canonical(v)
        u0, u = w[0], w[1:]
        img = np.concatenate(([-(u @ u)], u0 * u))
        if np.max(np.abs(img)) >= 1e-6:
            return HPlane(w)


class TestAlphaAffine:
    def test_foot_on_horizontal_plane(self):
        p = alpha_affine([0, 0, 1], 1.0)
        assert np.allclose(p, [0, 0, 1])

    def test_scale_invariance(self):
        p = alpha_affine([0, 0, 2], 2.0)
        assert np.allclose(p, [0, 0, 1])

    def test_diagonal_plane(self):
        # orthogonal projection of O onto x + y = 2
        p = alpha_affine([1, 1, 0], 2.0)
        assert np.allclose(p, [1, 1, 0])

    def test_vanishing_normal_rejected(self):
        with pytest.raises(ExceptionalPlane):
            AffPlane([0, 0, 0], 1.0)

    def test_plane_through_origin_maps_to_origin(self):
        p = alpha_affine([0.3, -0.7, 0.2], 0.0)
        assert np.all(p == 0.0)

    def test_rows_match_single_planes(self):
        rng = np.random.default_rng(7)
        n, e = rng.uniform(-2, 2, (200, 3)), rng.uniform(-2, 2, 200)
        rows = alpha_affine(n, e)
        assert rows.shape == (200, 3)
        # bit for bit the single-plane formula (e/(n.n)) n
        single = np.array([(b / (a @ a)) * a for a, b in zip(n, e)])
        assert rows.tobytes() == single.tobytes()

    def test_exceptional_normal_rows(self):
        normals = [[0, 0, 0], [1e-13, 0, 0], [np.inf, 0, 0], [np.nan, 1, 0],
                   [0, 0, 1e-6], [0.3, -0.7, 0.2]]
        assert exceptional_normal(normals).tolist() == [True, True, True, True, False, False]
        for n, bad in zip(normals, exceptional_normal(normals)):
            if bad:
                with pytest.raises(ExceptionalPlane):
                    AffPlane(n, 1.0)
            else:
                AffPlane(n, 1.0)


class TestAlphaStarAffine:
    def test_inverse_of_alpha_example(self):
        pl = alpha_star_affine([0, 0, 1])
        assert np.allclose(pl.normal, [0, 0, 1]) and pl.offset == 1.0

    def test_diagonal_point(self):
        pl = alpha_star_affine([1, 1, 0])
        assert pl == AffPlane([1, 1, 0], 2.0)

    def test_origin_rejected(self):
        with pytest.raises(OriginPoint):
            alpha_star_affine([0.0, 0.0, 0.0])


class TestHomogeneousMaps:
    def test_alpha_hom_tangent_plane(self):
        X = alpha_hom(HPlane([-1, 0, 0, 1]))
        assert projective_eq(X, HPoint([1, 0, 0, 1]), 1e-12)
        assert np.allclose(X.dehomogenize(), [0, 0, 1])

    def test_alpha_hom_ideal_plane(self):
        with pytest.raises(ExceptionalElement):
            alpha_hom(HPlane([1, 0, 0, 0]))

    def test_alpha_hom_plane_through_origin(self):
        X = alpha_hom(HPlane([0, 0, 0, 1]))
        assert projective_eq(X, HPoint([1, 0, 0, 0]), 1e-12)

    def test_alpha_star_hom_point(self):
        U = alpha_star_hom(HPoint([1, 0, 0, 1]))
        assert projective_eq(U, HPlane([-1, 0, 0, 1]), 1e-12)

    def test_alpha_star_hom_base_point(self):
        with pytest.raises(BasePoint):
            alpha_star_hom(HPoint([1, 0, 0, 0]))

    def test_sigma_examples(self):
        assert projective_eq(inversion_sigma(HPoint([1, 2, 0, 0])),
                             HPoint([4, 2, 0, 0]), 1e-12)
        assert projective_eq(inversion_sigma(HPoint([1, 1, 0, 0])),
                             HPoint([1, 1, 0, 0]), 1e-12)

    def test_polarity_examples(self):
        assert projective_eq(polarity_pi(HPlane([-1, 0, 0, 1])),
                             HPoint([1, 0, 0, 1]), 1e-12)
        assert projective_eq(polarity_pi(HPlane([1, 0, 0, 0])),
                             HPoint([-1, 0, 0, 0]), 1e-12)


class TestAlphaZ:
    def test_reduces_to_alpha_at_origin(self):
        for _ in range(50):
            n = RNG.uniform(-1, 1, 3)
            if np.linalg.norm(n) < 0.1:
                continue
            pl = AffPlane(n, RNG.uniform(-1, 1))
            assert np.allclose(alpha_z(pl, [0, 0, 0]), alpha_affine(pl.normal, pl.offset))

    def test_off_origin_reference(self):
        assert np.allclose(alpha_z(AffPlane([0, 0, 1], 1.0), [0, 0, 3]), [0, 0, 1])

    def test_reference_on_plane_is_fixed(self):
        z = np.array([1.0, 1.0, 0.0])
        pl = AffPlane([1, 1, 0], float(z @ [1, 1, 0]))
        assert np.allclose(alpha_z(pl, z), z)


class TestProjectiveEq:
    def test_scalar_multiple(self):
        assert projective_eq([1, 0, 0, 1], [2, 0, 0, 2])

    def test_negative_scale(self):
        assert projective_eq([1, 0, 0, 1], [-3, 0, 0, -3])

    def test_close_but_not_equal(self):
        assert not projective_eq([1, 0, 0, 1], [1, 0, 0, 1.1], 1e-9)

    def test_point_plane_mismatch(self):
        with pytest.raises(TypeError):
            projective_eq(HPoint([1, 0, 0, 1]), HPlane([1, 0, 0, 1]))


finite4 = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=4, max_size=4
).filter(lambda v: max(abs(x) for x in v) > 1e-2)


def _off_exceptional_sets(w):
    # keep a safe margin from the base loci (0-component and vector part)
    return abs(w[0]) >= 1e-3 and float(np.linalg.norm(w[1:])) >= 1e-3


class TestProperties:
    @given(finite4)
    @settings(max_examples=200, deadline=None)
    def test_round_trips(self, coords):
        w = canonical(coords)
        if not _off_exceptional_sets(w):
            return
        U = HPlane(w)
        X = alpha_hom(U)
        assert projective_eq(alpha_star_hom(X), U, 1e-9)
        P = HPoint(w)
        V = alpha_star_hom(P)
        assert projective_eq(alpha_hom(V), P, 1e-9)

    @given(finite4)
    @settings(max_examples=200, deadline=None)
    def test_factorizations(self, coords):
        w = canonical(coords)
        if not _off_exceptional_sets(w):
            return
        U = HPlane(w)
        assert projective_eq(alpha_hom(U), inversion_sigma(polarity_pi(U)), 1e-9)
        X = HPoint(w)
        assert projective_eq(alpha_star_hom(X),
                             polarity_pi_star(inversion_sigma(X)), 1e-9)

    @given(finite4)
    @settings(max_examples=200, deadline=None)
    def test_sigma_involution_and_pi_identity(self, coords):
        w = canonical(coords)
        if not _off_exceptional_sets(w):
            return
        X = HPoint(w)
        assert projective_eq(inversion_sigma(inversion_sigma(X)), X, 1e-9)
        U = HPlane(w)
        assert projective_eq(polarity_pi_star(polarity_pi(U)), U, 1e-12)

    def test_alpha_hom_matches_affine_chart(self):
        for _ in range(200):
            n = RNG.uniform(-2, 2, 3)
            if np.linalg.norm(n) < 0.1:
                continue
            e = RNG.uniform(-2, 2)
            pl = AffPlane(n, e)
            X = alpha_hom(pl.hplane())
            if abs(e) < 1e-9:
                assert projective_eq(X, HPoint([1, 0, 0, 0]), 1e-9)
            else:
                assert np.max(np.abs(X.dehomogenize() - alpha_affine(pl.normal, pl.offset))) < 1e-9


# -- row-wise maps against the per-tuple formulas ------------------------------


def loop_canonical(v):
    """Per-tuple reference: scale by max-abs, first significant entry positive."""
    v = np.asarray(v, dtype=float)
    v = v / np.max(np.abs(v))
    for c in v:
        if abs(c) >= 1e-12:
            return -v if c < 0.0 else v
    raise AssertionError("no significant component")


def loop_quadratic(v, sign):
    w = loop_canonical(v)
    return np.concatenate(([sign * (w[1:] @ w[1:])], w[0] * w[1:]))


def loop_polarity(v):
    return np.concatenate(([-v[0]], v[1:]))


ROW_MAPS = [
    # row function, scalar counterpart, input type, result type, per-tuple formula
    (alpha_rows, alpha_hom, HPlane, HPoint, lambda v: loop_quadratic(v, -1.0)),
    (alpha_star_rows, alpha_star_hom, HPoint, HPlane, lambda v: loop_quadratic(v, -1.0)),
    (sigma_rows, inversion_sigma, HPoint, HPoint, lambda v: loop_quadratic(v, 1.0)),
    (pi_rows, polarity_pi, HPlane, HPoint, loop_polarity),
    (pi_star_rows, polarity_pi_star, HPoint, HPlane, loop_polarity),
]

# exceptional inputs: the plane (1,0,0,0) for alpha, the point O for alpha*
# and sigma (their only real base point), at several scales and just inside
# or outside the numerical threshold
EDGE_ROWS = np.array([
    [1.0, 0.0, 0.0, 0.0],
    [-3.0, 0.0, 0.0, 0.0],
    [1.0, 1e-13, 0.0, 0.0],
    [1.0, 0.0, -2e-13, 1e-13],
    [1.0, 1e-7, 0.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [0.0, 1.0, -1.0, 0.5],
    [2.0, -2.0, 0.0, 0.0],
])


class TestRowMaps:
    ROWS = np.random.default_rng(99).uniform(-1.0, 1.0, size=(1000, 4))

    def test_canonical_rows_match_per_tuple(self):
        got = canonical_rows(self.ROWS)
        for v, g in zip(self.ROWS, got):
            assert np.array_equal(g, loop_canonical(v))
            assert np.array_equal(g, canonical(v))
        assert np.array_equal(canonical_rows(EDGE_ROWS),
                              [loop_canonical(v) for v in EDGE_ROWS])

    @pytest.mark.parametrize("rows_fn,scalar_fn,arg_type,result_type,formula", ROW_MAPS)
    def test_rows_match_scalar_and_formula(self, rows_fn, scalar_fn, arg_type, result_type,
                                           formula):
        out = rows_fn(self.ROWS)
        img = out[0] if isinstance(out, tuple) else out
        if isinstance(out, tuple):
            assert out[1].dtype == bool and out[1].all()
        got = canonical_rows(img)
        for v, g in zip(self.ROWS, got):
            scalar = scalar_fn(arg_type(v))
            assert type(scalar) is result_type
            assert np.max(np.abs(g - scalar.canonical())) <= 1e-15
            assert np.max(np.abs(g - loop_canonical(formula(v)))) <= 1e-15

    @pytest.mark.parametrize("rows_fn,scalar_fn,arg_type,result_type,formula",
                             ROW_MAPS[:3])
    def test_mask_false_exactly_where_scalar_raises(self, rows_fn, scalar_fn, arg_type,
                                                    result_type, formula):
        _, valid = rows_fn(EDGE_ROWS)
        for v, ok in zip(EDGE_ROWS, valid):
            try:
                scalar_fn(arg_type(v))
                raised = False
            except (ExceptionalElement, BasePoint):
                raised = True
            assert ok == (not raised), v
        assert not valid[0] and not valid[1]

    def test_masks_at_exceptional_elements(self):
        assert alpha_rows([[1.0, 0.0, 0.0, 0.0]])[1].tolist() == [False]
        assert alpha_star_rows([[1.0, 0.0, 0.0, 0.0]])[1].tolist() == [False]
        assert sigma_rows([[2.0, 0.0, 0.0, 0.0]])[1].tolist() == [False]
        with pytest.raises(BasePoint):
            inversion_sigma(HPoint([1, 0, 0, 0]))

    def test_invalid_rows_rejected(self):
        for bad in ([0.0, 0.0, 0.0, 0.0], [1.0, np.nan, 0.0, 0.0], [np.inf, 1.0, 0.0, 0.0]):
            with pytest.raises(ValueError):
                canonical_rows([[1.0, 2.0, 3.0, 4.0], bad])
            with pytest.raises(ValueError):
                alpha_rows([bad])
        with pytest.raises(ValueError):
            canonical_rows(np.ones((3, 3)))
        assert canonical_rows(np.empty((0, 4))).shape == (0, 4)


# -- the batched sample draw of the involution suite ---------------------------


def loop_random_tuples(rng, count):
    """The one-row-per-attempt rejection loop the batched draw replaces."""
    out = []
    while len(out) < count:
        v = rng.uniform(-1.0, 1.0, size=4)
        if np.max(np.abs(v)) < 1e-3:
            continue
        w = loop_canonical(v)
        if abs(w[0]) < 1e-6 or np.linalg.norm(w[1:]) < 1e-6:
            continue
        out.append(w)
    return np.array(out)


class ScriptedRng:
    """Stand-in generator handing out a fixed stream of uniforms in draw order."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float).ravel()
        self.pos = 0

    def uniform(self, low, high, size):
        n = int(np.prod(size))
        assert self.pos + n <= len(self.values), "stream over-drawn"
        out = self.values[self.pos:self.pos + n]
        self.pos += n
        return out.reshape(size)


class TestBatchedDraw:
    @pytest.mark.parametrize("seed", [0, 7, 31337])
    def test_same_tuples_and_generator_state(self, seed):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        assert np.array_equal(random_tuples(a, 2000), loop_random_tuples(b, 2000))
        assert a.bit_generator.state == b.bit_generator.state

    def test_rejections_consume_the_stream_like_the_loop(self):
        good = [[0.5, -0.2, 0.1, 0.9], [-0.3, 0.4, 0.4, -0.1], [0.8, 0.0, 0.0, -0.7]]
        rejects = [[1e-4, -2e-4, 0.0, 5e-4],   # tiny draw
                   [1e-9, 0.6, -0.2, 0.1],     # 0-component below 1e-6 after scaling
                   [0.7, 1e-8, -1e-8, 0.0]]    # vector part below 1e-6
        stream = [good[0], rejects[0], good[1], rejects[1], rejects[2],
                  good[2], good[0], good[1], rejects[0], good[2]]
        batched, looped = ScriptedRng(stream), ScriptedRng(stream)
        got = random_tuples(batched, 5)
        assert np.array_equal(got, loop_random_tuples(looped, 5))
        assert batched.pos == looped.pos == 4 * 8
