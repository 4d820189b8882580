"""Verification suites behind ``pedalis verify``.

Each check function takes the suite generator and the sample count and
returns ``(name, metrics, ok)`` triples; ``SUITES`` lists them in report
order.  The involution suite and the commuting diagrams run as numpy
batches over the row-wise maps of ``projmaps``, the involution suite in
blocks of ``BLOCK_ROWS`` sample rows drawn from a seeded ``Sampler``.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

from . import gallery, hompoly, projmaps, quadricpedal, ruledpedal, surfkit
from .cli import SUITE_NAMES
from .errors import EmptyGrid, ExceptionalElement
from .hompoly import Space, degree_bookkeeping, parse_poly, strip_exceptional
from .projmaps import rowdot
from .surfkit import BLOCK_ROWS, Chart, Domain, PointSurface, vector_rows


class Sampler:
    """Seeded uniform floats from the Mersenne Twister of ``random.Random(seed)``.

    Each float is ``low + (high - low) * ((w >> 11) * 2**-53)``, numpy's
    formula for a double, with ``w`` the next 64-bit word of ``getrandbits``.
    The words are drawn at most BLOCK_ROWS rows at a time; ``getrandbits``
    fills its result from the least significant word up, so the stream does
    not depend on that chunking.
    """

    def __init__(self, seed: int):
        self._bits = random.Random(seed).getrandbits

    def uniform(self, low: float, high: float, size) -> np.ndarray:
        shape = (size,) if isinstance(size, int) else tuple(size)
        words = np.empty(math.prod(shape), np.uint64)
        step = BLOCK_ROWS * math.prod(shape[1:])
        for k in range(0, len(words), step):
            n = min(step, len(words) - k)
            words[k:k + n] = np.frombuffer(self._bits(64 * n).to_bytes(8 * n, "little"), "<u8")
        return low + (high - low) * ((words >> 11) * 2.0**-53).reshape(shape)


def random_tuples(rng, count: int) -> np.ndarray:
    """(count, 4) canonical tuples clear of the exceptional sets of all maps.

    ``rng`` is any generator with ``uniform(low, high, size)``, a Sampler or
    a numpy Generator.  Uniform draws on [-1, 1]^4 are rejected when tiny or
    when their canonical form has a (near) zero 0-component or vector part.
    Each round draws one row of 4 uniforms per missing tuple, at most
    BLOCK_ROWS rows, and keeps the accepted rows in draw order, so the result
    and the generator state are those of drawing one row at a time until
    ``count`` rows are accepted, and a round's temporaries stay a block long.
    """
    out = np.empty((count, 4))
    n = 0
    while n < count:
        v = rng.uniform(-1.0, 1.0, size=(min(count - n, BLOCK_ROWS), 4))
        w = projmaps.canonical_rows(v[projmaps.row_max(np.abs(v)) >= 1e-3])
        w = w[(np.abs(w[:, 0]) >= 1e-6) & (np.linalg.norm(w[:, 1:], axis=1) >= 1e-6)]
        out[n:n + len(w)] = w
        n += len(w)
    return out


def _image(rows_fn, rows) -> np.ndarray:
    """Images under a masked row map, raising if any row is masked.

    The sample tuples keep clear of every exceptional set, so a masked row
    is exceptional geometry to report, not a sample to drop.
    """
    img, valid = rows_fn(rows)
    if not valid.all():
        raise ExceptionalElement(
            f"{np.count_nonzero(~valid)} sample tuples hit the exceptional set of "
            f"{rows_fn.__name__}")
    return img


def _max_dev(a, b) -> float:
    """Largest component deviation between the canonical forms of two row sets."""
    return float(np.abs(projmaps.canonical_rows(a) - projmaps.canonical_rows(b)).max())


SINGLE_SAMPLES = 16  # sample tuples that each involution check also maps one by one


def _single_dev(img, rows, kind, *maps) -> int:
    """How many of the first SINGLE_SAMPLES rows the single-tuple maps send to
    other bits than the row image img, in the image or in its canonical form."""
    got = []
    for v in rows[:SINGLE_SAMPLES].tolist():
        t = kind(v)
        for f in maps:
            t = f(t)
        got.append((*t.coords, *t.canonical()))
    img = img[:SINGLE_SAMPLES]
    want = np.hstack((img, projmaps.canonical_rows(img)))
    return int(np.count_nonzero((np.array(got).view(np.int64) != want.view(np.int64)).any(1)))


def _involutions(planes, points):
    """(name, row image, expected rows, sample rows, tuple type and the
    single-tuple maps that take a sample to the image) of each check on one
    row block, one check at a time, so that the six images are never held at once."""
    pm = projmaps
    X = _image(pm.alpha_rows, planes)
    U = _image(pm.alpha_star_rows, points)
    S = _image(pm.sigma_rows, points)
    yield ("alpha_roundtrip", _image(pm.alpha_star_rows, X), planes, planes,
           pm.HPlane, pm.alpha_hom, pm.alpha_star_hom)
    yield ("alpha_star_roundtrip", _image(pm.alpha_rows, U), points, points,
           pm.HPoint, pm.alpha_star_hom, pm.alpha_hom)
    yield ("sigma_involution", _image(pm.sigma_rows, S), points, points,
           pm.HPoint, pm.inversion_sigma, pm.inversion_sigma)
    yield ("pi_identity", pm.pi_star_rows(pm.pi_rows(planes)), planes, planes,
           pm.HPlane, pm.polarity_pi, pm.polarity_pi_star)
    yield ("alpha_factorization", _image(pm.sigma_rows, pm.pi_rows(planes)), X, planes,
           pm.HPlane, pm.polarity_pi, pm.inversion_sigma)
    yield ("alpha_star_factorization", pm.pi_star_rows(S), U, points,
           pm.HPoint, pm.inversion_sigma, pm.polarity_pi_star)


def _check_involutions(rng, samples):
    """The six checks on blocks of BLOCK_ROWS sample rows: max_dev is the max
    over the blocks (np.max, so that a NaN of any block reaches it) and
    single_dev is taken on the first block."""
    planes = random_tuples(rng, samples)
    points = random_tuples(rng, samples)
    devs, single = {}, {}
    for k in range(0, samples, BLOCK_ROWS):
        for name, img, expect, *sample in _involutions(planes[k:k + BLOCK_ROWS],
                                                       points[k:k + BLOCK_ROWS]):
            devs.setdefault(name, []).append(_max_dev(img, expect))
            if k == 0:
                single[name] = _single_dev(img, *sample)
    checks = {name: {"max_dev": float(np.max(dev)), "single_dev": single[name]}
              for name, dev in devs.items()}
    return [(name, m, m["max_dev"] < 1e-9 and m["single_dev"] == 0) for name, m in checks.items()]


DIAGRAM_FAMILIES = ("plane-conchoid", "sphere-offset", "paraboloid-offset")
DIAGRAM_DISTANCES = (-1.0, -0.3, 0.0, 0.5, 2.0)


def _check_diagrams(rng, samples):
    """Both commuting diagrams per family; a distance with no compared sample fails it."""
    results = []
    for name in DIAGRAM_FAMILIES:
        entry = gallery.get_entry(name)
        n, e = entry.dual.n, entry.dual.e
        worst = 0.0
        for d in DIAGRAM_DISTANCES:
            try:
                worst = max(worst, surfkit.commutation_check(n, e, d, grid=(50, 50)))
            except EmptyGrid:
                worst = math.nan
                break
        results.append((f"diagram_{name}", {"max_dev": worst}, worst < 1e-9))
    return results


def _length(x):
    return np.sqrt(rowdot(x, x))


def _distance_dev(S, center, radius) -> float:
    """Max of | |x - center| - radius(u, v) | / max(1, |x|) on a 40x40 grid of S.

    NaN when every sample is dropped, so that the check fails.
    """
    def dev(u, v):
        x = S.point(u, v)
        return np.abs(_length(x - center) - radius(u, v)) / np.maximum(1.0, _length(x))

    rows, _ = surfkit.sample_grid(dev, S.domain, 40, 40)
    return float(rows.max()) if len(rows) else math.nan


def _conchoid_witness(entry):
    """The point-form conchoid at d moves each point of the chart by d along its ray."""
    d, g = 0.5, entry.point_chart
    return _distance_dev(surfkit.construct(g, "conchoid", d), 0.0,
                         lambda u, v: _length(g.point(u, v)) + d)


def _offset_witness(entry):
    """The offset at d of the sphere of radius 1 about (2, 0, 0) has radius 1 + d.

    np.max, not max: a NaN from either d must reach the result.
    """
    return float(np.max([_distance_dev(surfkit.construct(entry.dual, "offset", d),
                                       np.array([2.0, 0.0, 0.0]), lambda u, v: 1.0 + d)
                         for d in (0.5, -0.3)]))


GENERIC_PARABOLOID = (2, 3, Fraction(1, 2))  # (a, b, c) of paraboloid-pedal's witness


def _generic_witness(entry):
    """The worst residual case of the entry rebuilt at (a, b, c) = GENERIC_PARABOLOID."""
    generic = gallery._BUILDERS[entry.name](*GENERIC_PARABOLOID)
    return max(gallery.residual_report(case.surface, case.poly, 20, 20).max
               for case in generic.residual_cases)


# Witnesses the default entries cannot give, by entry and metric key.  The
# gallery families hold d only as d**2, so their residuals cannot tell a
# construct at d from one at -d; paraboloid-pedal's defaults a = b = c = 1 make
# every (a - b) term of its analytic partials zero, so a wrong one shows at a != b.
WITNESSES = {
    "pluecker": ("conchoid_dev", _conchoid_witness),
    "sphere-offset": ("offset_dev", _offset_witness),
    "paraboloid-pedal": ("generic_residual", _generic_witness),
}
WITNESS_BOUND = 1e-12


def _offset_family_exact(entry) -> float:
    """offset_dual_poly against the one-sided family of sphere-offset, exactly.

    Its dual_poly has a u0**2 term, so the offset expansion takes powers of q
    that no other gallery family reaches.  The hand-written family holds the
    side R + d only, so the two-sided family is its product over d and -d.
    """
    fam = entry.dual_family
    return float(all(hompoly.offset_dual_poly(entry.dual_poly, d) == fam(d) * fam(-d)
                     for d in (Fraction(1, 2), Fraction(-3, 10))))


def _check_gallery(rng, samples):
    results = []
    for name in gallery.list_entries():
        entry = gallery.get_entry(name)
        worst = 0.0
        for case in entry.residual_cases:
            rep = gallery.residual_report(case.surface, case.poly)
            worst = max(worst, rep.max)
        metrics, ok = {"max_residual": worst}, worst < 1e-8
        if name in WITNESSES:
            key, witness = WITNESSES[name]
            metrics[key] = witness(entry)
            ok = ok and metrics[key] < WITNESS_BOUND
        results.append((f"residual_{name}", metrics, ok))
        source, image = entry.pullback_pair
        fwd = (hompoly.pedal_pullback if source.space is Space.DUAL
               else hompoly.inverse_pedal_pullback)
        stripped = strip_exceptional(fwd(source))
        ok = stripped.reduced.equals_up_to_scale(image)
        metrics = {"exact": float(ok)}
        if name == "sphere-offset":
            metrics["offset_family"] = _offset_family_exact(entry)
            ok = ok and metrics["offset_family"] == 1.0
        results.append((f"pullback_{name}", metrics, ok))
    return results


def _check_degrees(rng, samples):
    results = []
    for name in gallery.list_entries():
        entry = gallery.get_entry(name)
        got = degree_bookkeeping(entry.pullback_pair[0])
        ok = got == entry.expected
        results.append((f"degrees_{name}",
                        {"n": got[0], "r": got[1], "k": got[2], "deg": got[3]}, ok))
    return results


def _check_extras(rng, samples):
    results = []
    # envelope reconstruction of the focal paraboloid
    entry = gallery.get_entry("paraboloid-offset")
    envelope = surfkit.envelope_surface(surfkit.offset_map(entry.dual, 0.0))
    rep = gallery.residual_report(envelope, entry.point_poly, 40, 40)
    # sample_grid drops a row whose only non-finite entry is -inf below finite ones
    dom = envelope.domain

    def planted(U, V):
        rows = envelope.point(U, V)
        rows[(U == dom.umin) & (V == dom.vmax), 0] = -np.inf  # sample 7 of 8x8
        return rows

    kept = [surfkit.sample_grid(f, dom, 8, 8)[1] for f in (envelope.point, planted)]
    drop = float(np.flatnonzero(kept[0] != kept[1]).tolist() == [7])
    results.append(("envelope_paraboloid", {"max_residual": rep.max, "planted_drop": drop},
                    rep.max < 1e-8 and drop == 1.0))
    # inverse pedal of the quadratic cylinder against the closed form
    qc = gallery.get_entry("quadratic-cylinder")
    U, V = Domain(0.0, 2.0 * math.pi, -2.0, 2.0).grid(40, 40)
    got = surfkit.construct(qc.extras["ruled"].surface, "inverse-pedal").point(U, V)
    worst = float(np.max(np.abs(got - qc.extras["closed_form"](U, V))))
    results.append(("envelope_quadratic_cylinder", {"max_dev": worst}, worst < 1e-7))
    # exact degeneracies
    focal = quadricpedal.focal_degeneracy_check(1, 1, Fraction(-1, 4))
    ok_focal = focal is not None
    if ok_focal:
        q, lin = focal
        expect = parse_poly("8*x3 + 2*x0")  # at scale 2, so a wrong scale shows
        ok_focal = lin.equals_up_to_scale(expect)
    ok_focal = ok_focal and quadricpedal.focal_degeneracy_check(1, 1, 1) is None
    results.append(("focal_factorization", {"exact": float(ok_focal)}, ok_focal))
    ok_dupin = quadricpedal.is_parabola_dupin(1, Fraction(-1, 2)) and \
        not quadricpedal.is_parabola_dupin(1, 1)
    results.append(("dupin_condition", {"exact": float(ok_dupin)}, ok_dupin))
    kinds = (
        quadricpedal.sphere_inverse_pedal_affine(0, 1).kind.value,
        quadricpedal.sphere_inverse_pedal_affine(2, 1).kind.value,
        quadricpedal.sphere_inverse_pedal_affine(1, 1).kind.value,
    )
    ok_kinds = kinds == ("ellipsoid", "hyperboloid-two-sheets", "degenerate-point")
    results.append(("sphere_classification", {"exact": float(ok_kinds)}, ok_kinds))
    # pentaspherical lift round trip
    cyclide = quadricpedal.pedal_of_quadric(quadricpedal.sphere_dual_quadric(2, 1))
    form = quadricpedal.pentaspherical_lift(cyclide)
    x = rng.uniform(-2.0, 2.0, size=(1000, 3))
    lhs = form.eval(quadricpedal.pentaspherical_point(x))
    rhs = cyclide.eval_grid(np.column_stack((np.ones(len(x)), x)))
    worst = float(np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))))
    # the same cyclide from its closed form (a0, a1, a2, a3, b1, b2, b3), exactly
    closed = cyclide == quadricpedal.cyclide_closed_form(-1, -3, 1, 1, -4, 0, 0)
    results.append(("pentaspherical_lift", {"max_dev": worst, "closed_form": float(closed)},
                    worst < 1e-9 and closed))
    # rational-norm identities for ruled offsets
    # the Pluecker conoid, its directrix moved half a unit along each ruling,
    # off the striction line and off the foot-point curve (0, 0, sin 2u)
    plu = ruledpedal.RuledChart(
        lambda u: vector_rows(u, np.cos(u) / 2, np.sin(u) / 2, np.sin(2 * u)),
        lambda u: vector_rows(u, np.cos(u), np.sin(u), 0.0),
        dc=lambda u: vector_rows(u, -np.sin(u) / 2, np.cos(u) / 2, 2 * np.cos(2 * u)),
        de=lambda u: vector_rows(u, -np.sin(u), np.cos(u), 0.0),
        domain=Domain(0.1, 1.2, 0.15, 0.85),
    )
    F = ruledpedal.rational_offset_ruled(plu, 0.5)  # checks once that plu is skew
    offsets = {0.5: F, -0.3: ruledpedal.RuledOffsetSurface(plu, -0.3, F.domain)}
    U, T = Domain(0.12, 1.18, 0.2, 0.8).grid(25, 25)
    f, n, (y0, y1, _) = F.assemble(U, T)
    length = np.sqrt(rowdot(n, n))
    worst = float(np.max(np.abs(length * y1 - y0)))
    # odd in d: the support at d lies d*|n| beyond the support f.n at d = 0
    e0 = rowdot(f, n)
    support = float(np.max([np.abs((G.e(U, T) - e0) / length - d)
                            for d, G in offsets.items()]))
    # pedal circles: the feet of the ruling at u lie in the plane x.e = 0, at
    # distance |d|/2 from d/2; |d.e| catches a foot point moved along e
    x = ruledpedal.polar_pedal_of_ruled(plu).point(U, T)
    d, e = ruledpedal.footpoint_curve(plu)(U), plu.direction(U)
    circle = float(np.max(np.abs(_length(x - d / 2) - _length(d) / 2)
                          + np.abs(rowdot(x, e)) + np.abs(rowdot(d, e))))
    results.append(("ratnorm_ruled",
                    {"max_dev": worst, "support_dev": support, "pedal_circle_dev": circle},
                    worst < 1e-9 and support < WITNESS_BOUND and circle < WITNESS_BOUND))
    # the conoid's tangent normal g_u x g_v = (-2c sin u, 2c cos u, -v), c = cos 2u,
    # has the rational length w = 2c / sin T on the ray v = w cos T
    U, T = Domain(0.0, 2.0 * math.pi, 0.2, 1.4).grid(30, 30)
    w = 2.0 * np.cos(2 * U) / np.sin(T)
    n = surfkit.tangent_planes(gallery.get_entry("pluecker").point_chart).n(U, w * np.cos(T))
    worst = float(np.max(np.abs(rowdot(n, n) - w * w)))
    results.append(("ratnorm_pluecker", {"max_dev": worst}, worst < 1e-10))
    # bisector of O and the plane z=1
    plane_chart = PointSurface(Chart(
        lambda u, v: vector_rows(u, u, v, 1.0),
        lambda u, v: vector_rows(u, 1.0, 0.0, 0.0),
        lambda u, v: vector_rows(u, 0.0, 1.0, 0.0),
        Domain(-2.0, 2.0, -2.0, 2.0),
    ))
    U, V = plane_chart.domain.grid(40, 40)
    p = quadricpedal.bisector_from_inverse_pedal(plane_chart).point(U, V)
    worst = float(np.max(np.abs(np.sqrt(rowdot(p, p)) - np.abs(p[:, 2] - 1.0))))
    results.append(("bisector_plane", {"max_dev": worst}, worst < 1e-7))
    return results


SUITES = {name: globals()["_check_" + name] for name in SUITE_NAMES}
