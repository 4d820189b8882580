"""The column-wise row kernels against the row reductions they replace.

Each reference below is the reduction form the kernel had before it was
written column by column.  Max is exact and the 3-term sums keep their
left-to-right order, so every comparison is bit for bit, except the powers
of negative bases in ``eval_grid``, which are within 1 ulp.
"""

from fractions import Fraction

import numpy as np
import pytest
from pedalis.hompoly import HomPoly4, Space, offset_dual_poly
from pedalis.projmaps import (
    EPS_EXCEPTIONAL,
    _quadratic_rows,
    canonical_rows,
    exceptional_normal,
    row_max,
    rowdot,
)
from pedalis.surfkit import (
    _SCREEN_ERR,
    COND_LIMIT,
    Domain,
    _guarded_solve,
    _well_conditioned,
    sample_grid,
)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def reduce_canonical_rows(rows):
    V = np.asarray(rows, dtype=float)
    m = np.maximum.reduce(np.abs(V), axis=1, keepdims=True)
    if not np.logical_and.reduce((m > 0.0) & (m < np.inf), axis=None):
        raise ValueError("projective tuple must be nonzero and finite")
    V = V / m
    lead = (np.abs(V) >= EPS_EXCEPTIONAL).argmax(axis=1)
    V *= np.copysign(1.0, V[np.arange(len(V)), lead])[:, None]
    return V


def reduce_quadratic_rows(rows, sign):
    V = reduce_canonical_rows(rows)
    img = V[:, :1] * V
    x = V[:, 1:]
    img[:, 0] = sign * np.add.reduce(x * x, axis=1)
    return img, np.maximum.reduce(np.abs(img), axis=1) >= EPS_EXCEPTIONAL


def reduce_eval_grid(poly, tuples):
    T = np.asarray(tuples, dtype=float)
    out = np.zeros(T.shape[0])
    for exps, c in poly.terms.items():
        term = np.full(T.shape[0], float(c))
        for i, e in enumerate(exps):
            if e:
                term = term * T[:, i] ** e
        out += term
    return out


def hard_rows(seed, count=4000):
    """Random rows with zeros, signed zeros and entries around EPS_EXCEPTIONAL
    in their leading columns, at scales from 1e-200 to 1e200."""
    rng = np.random.default_rng(seed)
    V = rng.uniform(-1.0, 1.0, size=(count, 4))
    small = np.array([0.0, -0.0, 1e-13, -1e-13, EPS_EXCEPTIONAL, -EPS_EXCEPTIONAL,
                      np.nextafter(EPS_EXCEPTIONAL, 0.0), np.nextafter(EPS_EXCEPTIONAL, 1.0),
                      -np.nextafter(EPS_EXCEPTIONAL, 0.0), 5e-324, -5e-324])
    for k in range(3):
        pick = rng.random(count) < 0.5 / (k + 1)
        V[pick, k] = rng.choice(small, size=pick.sum())
    # make one component exactly 1 in some rows, so EPS_EXCEPTIONAL is exact there
    top = rng.random(count) < 0.3
    V[top, 3] = rng.choice([1.0, -1.0], size=top.sum())
    scale = 10.0 ** rng.integers(-200, 201, size=count)
    return V * scale[:, None]


class TestRowMax:
    @pytest.mark.parametrize("width", [1, 3, 4, 9])
    def test_matches_the_reduction_with_nan_and_inf(self, width):
        rng = np.random.default_rng(width)
        A = rng.uniform(0.0, 2.0, size=(300, width))
        for k in range(width):
            A[10 * k, k] = np.nan
            A[10 * k + 1, k] = np.inf
            A[10 * k + 2, k] = 0.0
        got = row_max(A)
        want = np.maximum.reduce(A, axis=1)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.isnan(got), np.isnan(A).any(axis=1))

    def test_leading_axes_and_empty_rows(self):
        A = np.random.default_rng(1).uniform(size=(5, 7, 4))
        assert same_bits(row_max(A), A.max(axis=-1))
        assert row_max(np.empty((0, 9))).shape == (0,)


class TestCanonicalRows:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bits_of_the_reduction_form(self, seed):
        V = hard_rows(seed)
        got = canonical_rows(V)
        assert same_bits(got, reduce_canonical_rows(V))
        # both signs of zero occur in the output, so the sign bit was compared
        assert np.signbit(got[got == 0.0]).any() and (~np.signbit(got[got == 0.0])).any()

    def test_every_sign_pattern_of_exact_tuples(self):
        values = [0.0, -0.0, 1.0, -1.0, 1e-12, -1e-12, 3e-13, -2.0]
        grid = np.array(np.meshgrid(values, values, values, values)).reshape(4, -1).T
        grid = grid[np.abs(grid).max(axis=1) > 0.0]
        assert same_bits(canonical_rows(grid), reduce_canonical_rows(grid))

    @pytest.mark.parametrize("bad", [
        [0.0, 0.0, 0.0, 0.0], [-0.0, 0.0, -0.0, 0.0],
        [np.nan, 1.0, 0.0, 0.0], [1.0, 2.0, 3.0, np.nan],
        [np.inf, 1.0, 0.0, 0.0], [0.0, 0.0, -np.inf, 0.0],
    ])
    def test_zero_and_non_finite_rows_raise(self, bad):
        rows = np.array([[1.0, 2.0, 3.0, 4.0], bad, [0.5, 0.0, 0.0, 0.0]])
        with pytest.raises(ValueError):
            canonical_rows(rows)
        with pytest.raises(ValueError):
            reduce_canonical_rows(rows)


class TestQuadraticRows:
    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    @pytest.mark.parametrize("seed", [3, 4])
    def test_images_and_masks(self, sign, seed):
        V = hard_rows(seed)
        # rows at and around the base locus, where the mask decides
        rng = np.random.default_rng(seed)
        near = np.zeros((400, 4))
        near[:, 0] = rng.choice([1.0, -1.0, 3.0], size=400)
        near[:, 1:] = rng.uniform(-1.0, 1.0, size=(400, 3)) * 10.0 ** rng.integers(
            -16, -4, size=(400, 1))
        V = np.concatenate((V, near))
        img, valid = _quadratic_rows(V, sign)
        ref_img, ref_valid = reduce_quadratic_rows(V, sign)
        assert same_bits(img, ref_img)
        assert same_bits(valid, ref_valid)
        assert valid.any() and not valid.all()


class TestSampleGridMask:
    @pytest.mark.parametrize("width", [None, 3, 4])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_in_each_column(self, width, bad):
        nu, nv = 9, 7
        shape = (nu * nv,) if width is None else (nu * nv, width)
        R = np.random.default_rng(5).uniform(-1.0, 1.0, size=shape)
        columns = 1 if width is None else width
        for k in range(columns):
            for row in (3 * k, 3 * k + 1, nu * nv - 1 - k):
                if width is None:
                    R[row] = bad
                else:
                    R[row, k] = bad
        rows, valid = sample_grid(lambda U, V: R, Domain(0.0, 1.0, 0.0, 1.0), nu, nv)
        want = np.isfinite(R).all(axis=tuple(range(1, R.ndim)))
        assert same_bits(valid, want)
        assert same_bits(rows, R[want])
        assert np.count_nonzero(~valid) == 3 * columns


class TestExceptionalNormal:
    def test_matches_the_reduction_form(self):
        n = np.random.default_rng(10).uniform(-1.0, 1.0, size=(40, 3))
        n[:3] = 0.0
        n[3] = 1e-13
        for k in range(3):
            n[4 + k, k], n[7 + k, k], n[10 + k, k] = np.nan, np.inf, -np.inf
        want = ~np.isfinite(n).all(axis=-1) | (np.sqrt(rowdot(n, n)) < EPS_EXCEPTIONAL)
        assert same_bits(exceptional_normal(n), want)
        assert want[:13].all() and not want[13:].any()
        assert exceptional_normal([0.0, np.nan, 1.0]) and not exceptional_normal([0.0, 0.0, 1.0])


def reduce_well_conditioned(M):
    _, exponent = np.frexp(np.abs(M).max(axis=(1, 2)))
    M = np.ldexp(M, -exponent[:, None, None])
    r0, r1, r2 = M[:, 0], M[:, 1], M[:, 2]
    adj = np.stack((np.cross(r1, r2), np.cross(r2, r0), np.cross(r0, r1)), axis=1)
    det = np.abs(rowdot(r0, adj[:, 0]))
    bound = np.linalg.norm(M, axis=(1, 2)) * (np.linalg.norm(adj, axis=(1, 2)) + _SCREEN_ERR)
    return bound <= (det - _SCREEN_ERR) * (COND_LIMIT / 100)


class TestGuardedSolveReductions:
    def test_well_conditioned_matches_the_reduction_form(self):
        rng = np.random.default_rng(6)
        M = rng.uniform(-1.0, 1.0, size=(3000, 3, 3)) * 10.0 ** rng.integers(
            -30, 30, size=(3000, 1, 1))
        M[::7, 2] = M[::7, 0] + 1e-9 * M[::7, 1]
        assert same_bits(_well_conditioned(M), reduce_well_conditioned(M))
        assert _well_conditioned(M[:0]).shape == (0,)

    def test_screen_accepts_only_what_the_svd_accepts(self):
        # U diag(1, s1, s2) V with cond 1 .. 1e13 about the screen's 1e10, at
        # scales 1e-300 .. 1e300
        rng = np.random.default_rng(8)
        U, V = (np.linalg.qr(rng.standard_normal((3000, 3, 3)))[0] for _ in range(2))
        s = np.ones((3000, 3))
        s[:, 1] = 10.0 ** rng.uniform(-1, 0, 3000)
        s[:, 2] = 10.0 ** rng.uniform(-13, 0, 3000)
        M = U @ (s[:, :, None] * V) * 10.0 ** rng.uniform(-300, 300, (3000, 1, 1))
        ok = _well_conditioned(M)
        assert 0 < ok.sum() < len(M)
        assert (np.linalg.cond(M[ok]) <= COND_LIMIT / 100 * (1 + 1e-9)).all()

    def test_a_non_finite_entry_anywhere_drops_the_system(self):
        M = np.tile(np.eye(3), (20, 1, 1))
        for k in range(9):
            M[2 * k].flat[k] = np.nan
            M[2 * k + 1].flat[k] = -np.inf if k % 2 else np.inf
        X, valid = _guarded_solve(M, np.ones((20, 3)))
        assert valid.tolist() == [False] * 18 + [True, True]
        assert np.isnan(X[:18]).all() and np.array_equal(X[18:], np.ones((2, 3)))


def random_poly(rng, degree, terms, space=Space.POINT):
    exps = {}
    while len(exps) < terms:
        cut = np.sort(rng.integers(0, degree + 1, size=3))
        e = (int(cut[0]), int(cut[1] - cut[0]), int(cut[2] - cut[1]), int(degree - cut[2]))
        exps[e] = Fraction(int(rng.integers(-50, 51)) or 1, int(rng.integers(1, 9)))
    return HomPoly4(space, exps)


POLYS = [random_poly(np.random.default_rng(d), d, t)
         for d, t in ((1, 4), (2, 8), (3, 12), (5, 30), (8, 60), (10, 80))]
# the offset family at 3/7 of a dense dual cubic: a large denominator, not a power of two
POLYS.append(offset_dual_poly(random_poly(np.random.default_rng(6), 3, 20, Space.DUAL),
                              Fraction(3, 7)))


class TestEvalGrid:
    @pytest.mark.parametrize("poly", POLYS, ids=lambda p: f"deg{p.degree}")
    def test_bits_of_the_power_loop_on_positive_tuples(self, poly):
        # |t|**e is t**e for t > 0, so equal bits mean equal term and product order
        T = np.random.default_rng(7).uniform(1e-3, 3.0, size=(2000, 4))
        got = poly.eval_grid(T)
        assert np.isfinite(got).all()
        assert same_bits(got, reduce_eval_grid(poly, T))
        assert poly.coeff_norm() == float(sum(abs(c) for c in poly.terms.values()))

    def test_each_power_within_one_ulp_on_mixed_signs(self):
        rng = np.random.default_rng(8)
        T = rng.uniform(-3.0, 3.0, size=(5000, 4))
        T[:8] = [[-0.0, 0.0, -1.0, 1.0], [-2.0, -0.5, -3.0, -1e-3]] * 4
        for i in range(4):
            for e in range(1, 13):
                power = HomPoly4.variable(Space.POINT, i) ** e
                got, want = power.eval_grid(T), reduce_eval_grid(power, T)
                assert np.array_equal(np.signbit(got), np.signbit(want)), (i, e)
                assert (np.abs(got - want) <= np.spacing(np.abs(want))).all(), (i, e)

    @pytest.mark.parametrize("poly", POLYS, ids=lambda p: f"deg{p.degree}")
    def test_exact_eval_on_negative_rational_tuples(self, poly):
        rng = np.random.default_rng(9)
        # dyadic rationals, so the float tuples are the Fraction tuples exactly
        rows = [[Fraction(int(k), 64) for k in rng.integers(-200, 201, size=4)]
                for _ in range(60)]
        assert any(c < 0 for row in rows for c in row)
        got = poly.eval_grid(np.array(rows, dtype=float))
        eps = np.finfo(float).eps
        for row, value in zip(rows, got):
            exact = poly.eval(row)
            scale = sum(abs(c) * np.prod([abs(t) ** e for t, e in zip(row, exps)])
                        for exps, c in poly.terms.items())
            bound = 2 * (poly.degree + len(poly.terms) + 1) * eps * float(scale)
            assert abs(value - float(exact)) <= bound
