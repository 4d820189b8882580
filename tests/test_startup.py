"""Start-up cost: which pedalis modules a command loads, and the lazy package.

Each command runs in a fresh interpreter, as ``python -m pedalis`` does, and
reports the sorted ``pedalis*`` entries of ``sys.modules`` at exit, with
``numpy``, ``numpy.random`` and ``hashlib`` among them when they were
imported.  The sets are deterministic, so these tests involve no timing.
"""

import importlib
import json
import subprocess
import sys

import pytest

import pedalis
from pedalis import gallery
from pedalis.cli import GALLERY_NAMES

# run ``python -m pedalis ARGS`` and print the loaded modules as the last line
_REPORT = """
import atexit, json, runpy, sys
atexit.register(lambda: print(json.dumps(
    sorted(m for m in sys.modules if m.split(".")[0] in ("pedalis", "numpy", "hashlib")))))
sys.argv = ["pedalis", *sys.argv[1:]]
runpy.run_module("pedalis", run_name="__main__", alter_sys=True)
"""

# the argument parser and the error types: all that --help or a usage error needs
CLI_LAYERS = ["pedalis", "pedalis.cli", "pedalis.errors"]
MAP_LAYERS = sorted([*CLI_LAYERS, "numpy", "pedalis.projmaps"])
# the single-tuple maps run on plain floats; only alpha-z's affine plane needs numpy
SCALAR_MAP_LAYERS = sorted([*CLI_LAYERS, "pedalis.projmaps"])
# the exact algebra stands alone: no projmaps and no numpy
EXACT_LAYERS = sorted([*CLI_LAYERS, "pedalis.grammar", "pedalis.hompoly"])

# the public names of the package, by defining module
PUBLIC = {
    "errors": ["GeometryError"],
    "hompoly": ["HomPoly4", "Space", "StripResult", "degree_bookkeeping", "format_poly",
                "inverse_pedal_pullback", "offset_dual_poly", "parse_poly",
                "pedal_pullback", "strip_exceptional"],
    "projmaps": ["AffPlane", "HPlane", "HPoint", "alpha_affine", "alpha_hom",
                 "alpha_star_affine", "alpha_star_hom", "alpha_z", "inversion_sigma",
                 "polarity_pi", "polarity_pi_star", "projective_eq"],
    "surfkit": ["Chart", "Domain", "DualSurface", "PointSurface", "PolarSurface",
                "commutation_check", "conchoid_map", "construct", "dual_to_point",
                "envelope_solve", "envelope_surface", "gamma", "offset_map", "phi",
                "point_to_dual", "sample_mesh", "tangent_planes", "write_obj"],
}
PUBLIC_NAMES = [name for names in PUBLIC.values() for name in names]

MODULES = ["errors", "projmaps", "grammar", "hompoly", "surfkit", "sphereatlas", "ruledpedal",
           "quadricpedal", "gallery", "galleryexact", "verify", "cli", "config"]


def loaded(*args, stdin=None):
    """(exit code, pedalis modules and "numpy", "numpy.random" and "hashlib" if
    loaded) of ``python -m pedalis ARGS``."""
    res = subprocess.run([sys.executable, "-c", _REPORT, *args], capture_output=True,
                         text=True, input=stdin)
    mods = json.loads(res.stdout.splitlines()[-1])
    return res.returncode, [m for m in mods if m.split(".")[0] == "pedalis"
                            or m in ("numpy", "numpy.random", "hashlib")]


SCALAR_MAPS = [
    (("--op", "alpha", "--plane", "-1,0,0,1"), 0),
    (("--op", "alpha-star", "--point", "1,0,0,1"), 0),
    (("--op", "sigma", "--point", "1,2,0,0"), 0),
    (("--op", "sigma", "--point", "1,2,0,0", "--dehomogenize"), 0),
    (("--op", "pi", "--plane", "-1,0,0,1"), 0),
    (("--op", "pi-star", "--point", "1,0,0,1"), 0),
    (("--op", "alpha", "--plane", "1,0,0,0"), 2),
]


def test_map_loads_only_the_maps():
    for args, code in SCALAR_MAPS:
        assert loaded("map", *args) == (code, SCALAR_MAP_LAYERS), args


def test_map_alpha_z_loads_numpy():
    # AffPlane's dot products are numpy's
    assert loaded("map", "--op", "alpha-z", "--plane", "-1,0,0,1") == (0, MAP_LAYERS)


@pytest.mark.parametrize("args, code", [
    (("--help",), 0),
    (("map", "--op", "bogus"), 1),
    (("verify", "--seed", "-1"), 1),
], ids=["help", "bad-op", "bad-seed"])
def test_help_and_usage_errors_load_only_the_parser(args, code):
    assert loaded(*args) == (code, CLI_LAYERS)


@pytest.mark.parametrize("value", ["abc", "-3"])
def test_bad_seed_env_var_exits_before_verify_loads(monkeypatch, value):
    monkeypatch.setenv("PEDALIS_SEED", value)
    assert loaded("verify") == (1, CLI_LAYERS)


def test_implicit_adds_only_hompoly(tmp_path):
    # and the text grammar that parse_poly parses with, from each source
    text = "u0*u1^2 - u2^3"
    path = tmp_path / "poly.txt"
    path.write_text(text)
    args = ("implicit", "--direction", "pedal", "--strip")
    assert loaded(*args, "--poly", text) == (0, EXACT_LAYERS)
    assert loaded(*args, "--in", str(path)) == (0, EXACT_LAYERS)
    assert loaded(*args, stdin=text) == (0, EXACT_LAYERS)


@pytest.mark.parametrize("space, direction", [("dual", "pedal"), ("point", "inverse-pedal")])
def test_quadric_config_adds_only_the_config_reader(tmp_path, space, direction):
    # a quadric is its polynomial: no charts, so no numpy, projmaps or surfkit
    cfg = tmp_path / "quad.cfg"
    cfg.write_text(f"[surface]\nkind = quadric\nspace = {space}\n"
                   "matrix = -1 -2 0 0; -2 -3 0 0; 0 0 1 0; 0 0 0 1\n")
    for strip in ((), ("--strip",)):
        assert loaded("implicit", "--direction", direction, *strip, "--surface", str(cfg)) == (
            0, sorted([*EXACT_LAYERS, "pedalis.config"]))


def test_eval_at_a_tuple_loads_no_maps():
    # no HPoint or HPlane can exist before projmaps loads, so eval leaves it unloaded
    assert _fresh("from fractions import Fraction\n"
                  "from pedalis.hompoly import parse_poly\n"
                  "value = parse_poly('x0^2 - 3*x1*x2').eval((Fraction(1, 2), 1, 2, 0))\n"
                  "print(json.dumps([str(value), sorted(m for m in sys.modules "
                  "if m.split('.')[0] in ('pedalis', 'numpy'))]))") == [
        "-23/4", ["pedalis", "pedalis.errors", "pedalis.grammar", "pedalis.hompoly"]]


def test_gallery_sample_skips_verify_and_the_constructions(tmp_path):
    code, mods = loaded("sample", "--surface", "plane-conchoid", "--grid", "4x4",
                        "--out", str(tmp_path / "mesh.obj"))
    assert code == 0
    assert "pedalis.gallery" in mods
    for name in ("verify", "quadricpedal", "ruledpedal"):
        assert f"pedalis.{name}" not in mods


def test_config_sample_skips_the_gallery(tmp_path):
    cfg = tmp_path / "plane.cfg"
    cfg.write_text("[surface]\nkind = polar\nsx = cos(u)*cos(v)\nsy = cos(v)*sin(u)\n"
                   "sz = sin(v)\nr = 1/sin(v)\n"
                   "[domain]\numin = 0\numax = 2*pi\nvmin = 0.2\nvmax = 1.3\n")
    code, mods = loaded("sample", "--surface", str(cfg), "--construct", "conchoid:1/2",
                        "--grid", "4x4", "--out", str(tmp_path / "mesh.obj"))
    assert (code, mods) == (0, sorted([*MAP_LAYERS, "pedalis.config", "pedalis.grammar",
                                       "pedalis.surfkit"]))


def test_ruled_config_sample_adds_ruledpedal(tmp_path):
    cfg = tmp_path / "cylinder.cfg"
    cfg.write_text("[surface]\nkind = ruled\ncx = 2*cos(u)\ncy = sin(u)\ncz = 0\n"
                   "ex = 0\ney = 0\nez = 1\n"
                   "[domain]\numin = 0\numax = 2*pi\nvmin = -2\nvmax = 2\n")
    code, mods = loaded("sample", "--surface", str(cfg), "--construct", "inverse-pedal",
                        "--grid", "4x4", "--out", str(tmp_path / "mesh.obj"))
    assert (code, mods) == (0, sorted([*MAP_LAYERS, "pedalis.config", "pedalis.grammar",
                                       "pedalis.ruledpedal", "pedalis.surfkit"]))


def test_verify_skips_the_config_reader():
    code, mods = loaded("verify", "--samples", "10")
    assert code == 0 and "pedalis.verify" in mods and "pedalis.config" not in mods


def test_verify_draws_without_numpy_random():
    # the samples come from random.Random; numpy.random would load hashlib too
    code, mods = loaded("verify", "--samples", "10")
    assert code == 0 and "numpy" in mods
    assert "numpy.random" not in mods and "hashlib" not in mods


# one construct per gallery entry, all five constructs among them
SAMPLED = [("plane-conchoid", "conchoid:1/2"), ("paraboloid-offset", "self"),
           ("sphere-offset", "offset:1/2"), ("sphere-bundle", "self"), ("pluecker", "pedal"),
           ("parabola-cyclide", "conchoid:1/2"), ("paraboloid-pedal", "pedal"),
           ("sphere-inverse-pedal", "inverse-pedal"), ("quadratic-cylinder", "inverse-pedal")]


def test_sampled_covers_the_gallery():
    assert sorted(name for name, _ in SAMPLED) == sorted(GALLERY_NAMES)


@pytest.mark.parametrize("name, construct", SAMPLED)
def test_gallery_sample_skips_the_exact_algebra(tmp_path, name, construct):
    # no hompoly, quadricpedal, grammar or galleryexact: only the charts
    code, mods = loaded("sample", "--surface", name, "--construct", construct,
                        "--grid", "4x4", "--out", str(tmp_path / "mesh.obj"))
    charts = ["pedalis.gallery", "pedalis.sphereatlas", "pedalis.surfkit"]
    if name == "quadratic-cylinder":
        charts.append("pedalis.ruledpedal")
    assert (code, mods) == (0, sorted([*MAP_LAYERS, *charts]))


def test_construct_leaves_the_exact_part_unbuilt():
    # (exact fields in the entry, hompoly or galleryexact loaded) after
    # get_entry and construct
    got = _fresh("from pedalis.gallery import EXACT, get_entry\n"
                 "out = {}\n"
                 f"for name in {list(GALLERY_NAMES)}:\n"
                 "    entry = get_entry(name)\n"
                 "    entry.construct('self')\n"
                 "    out[name] = [sorted(set(EXACT) & set(vars(entry))),\n"
                 "                 'pedalis.hompoly' in sys.modules\n"
                 "                 or 'pedalis.galleryexact' in sys.modules]\n"
                 "print(json.dumps(out))")
    assert got == {name: [[], False] for name in GALLERY_NAMES}


@pytest.mark.parametrize("name", GALLERY_NAMES)
def test_exact_part_is_built_once(name):
    entry = gallery._BUILDERS[name]()  # a fresh entry, not the cached one
    build, calls = entry.build_exact, []
    object.__setattr__(entry, "build_exact", lambda: calls.append(name) or build())
    first = entry.point_poly
    assert entry.point_poly is first and entry.residual_cases is entry.residual_cases
    assert calls == [name] and set(gallery.EXACT) <= set(vars(entry))


def _fresh(code):
    res = subprocess.run([sys.executable, "-c", f"import json, sys\n{code}"],
                         capture_output=True, text=True, check=True)
    return json.loads(res.stdout)


def test_bare_import_loads_nothing():
    assert _fresh("import pedalis\n"
                  "print(json.dumps(sorted(m for m in sys.modules "
                  "if m.split('.')[0] in ('pedalis', 'numpy'))))") == ["pedalis"]


@pytest.mark.parametrize("module", PUBLIC)
def test_layer_modules_resolve_after_bare_import(module):
    assert _fresh(f"import pedalis\nprint(json.dumps(pedalis.{module}.__name__))") == (
        f"pedalis.{module}")


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first(module):
    # a lazy import can expose a circular import that eager loading hid
    res = subprocess.run([sys.executable, "-W", "error", "-c", f"import pedalis.{module}"],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


class TestPublicApi:
    def test_all_lists_the_public_names(self):
        assert len(PUBLIC_NAMES) == 41
        assert pedalis.__all__ == PUBLIC_NAMES

    @pytest.mark.parametrize("module", PUBLIC)
    def test_names_come_from_their_module(self, module):
        home = importlib.import_module(f"pedalis.{module}")
        for name in PUBLIC[module]:
            assert getattr(pedalis, name) is getattr(home, name), name

    def test_dir_lists_the_public_names(self):
        assert set(PUBLIC_NAMES) <= set(dir(pedalis))

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from pedalis import *", namespace)
        assert {name: namespace[name] for name in PUBLIC_NAMES} == {
            name: getattr(pedalis, name) for name in PUBLIC_NAMES}

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            pedalis.no_such_name  # noqa: B018

    def test_version(self):
        assert pedalis.__version__ == "0.1.0"
