import contextlib
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st
from pedalis import cli, verify
from pedalis.config import parse_expr
from pedalis.gallery import get_entry
from pedalis.surfkit import Chart, Domain, DualSurface, conchoid_map, constant_chart

ROOT = Path(__file__).resolve().parent.parent
CMD = [sys.executable, "-m", "pedalis"]


def check_result(suite, check):
    """(metrics, ok) of one named check of a verify suite function."""
    return next((metrics, ok) for name, metrics, ok in suite(np.random.default_rng(7), 1)
                if name == check)


def run(*args, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(CMD + list(args), capture_output=True, text=True,
                          env=full_env)


class TestMap:
    def test_alpha_example(self):
        res = run("map", "--op", "alpha", "--plane", "-1,0,0,1")
        assert res.returncode == 0
        assert res.stdout.strip() == "1,0,0,1"

    def test_ideal_plane_exceptional(self):
        res = run("map", "--op", "alpha", "--plane", "1,0,0,0")
        assert res.returncode == 2
        assert "exceptional" in res.stderr

    def test_sigma_dehomogenize(self):
        res = run("map", "--op", "sigma", "--point", "1,2,0,0", "--dehomogenize")
        assert res.returncode == 0
        assert res.stdout.strip() == "1,0.5,0,0"

    def test_alpha_star(self):
        res = run("map", "--op", "alpha-star", "--point", "1,0,0,1")
        assert res.returncode == 0
        assert res.stdout.strip() == "1,0,0,-1"

    def test_alpha_z(self):
        res = run("map", "--op", "alpha-z", "--plane", "-1,0,0,1", "--z", "0,0,3")
        assert res.returncode == 0
        assert res.stdout.strip() == "0,0,1"

    def test_parse_error(self):
        res = run("map", "--op", "alpha", "--plane", "1,2,3")
        assert res.returncode == 1

    def test_dehomogenize_ideal_point_exceptional(self):
        res = run("map", "--op", "pi", "--plane", "0,1,0,0", "--dehomogenize")
        assert res.returncode == 2
        assert res.stderr.startswith("exceptional:")

    @pytest.mark.parametrize("plane", ["-1/2,0,0,1", "-1e-3,0,0,1", "-.5,0,0,1"])
    def test_leading_minus_rational_tuple(self, plane):
        # a separate tuple argument that starts with a negative rational is a
        # value, not an option: it prints what the --plane=... form prints
        spaced = run("map", "--op", "alpha", "--plane", plane)
        joined = run("map", "--op", "alpha", f"--plane={plane}")
        assert joined.returncode == 0, joined.stderr
        assert (spaced.returncode, spaced.stdout) == (0, joined.stdout), spaced.stderr

    @pytest.mark.parametrize("args", [
        ("--op", "alpha", "--plane", "1,0,,0,1"),
        ("--op", "alpha", "--plane", "1,0,,1"),
        ("--op", "alpha", "--plane", "-1,0,0,1,"),
        ("--op", "alpha-z", "--plane", "-1,0,0,1", "--z", "0,,3"),
    ])
    def test_empty_tuple_field_is_an_input_error(self, args):
        res = run("map", *args)
        n = 3 if "--z" in args else 4
        assert res.returncode == 1
        assert res.stderr == (f"error: expected {n} comma-separated numbers, "
                              f"got {args[-1]!r}\n")


# -- the map contract under generated argv --------------------------------------

MAP_OPS = {"alpha": "plane", "alpha-star": "point", "sigma": "point", "pi": "plane",
           "pi-star": "point", "alpha-z": "plane"}
# number texts: rationals, decimals, signed zeros, out-of-range and empty
# fields, non-ASCII digits and spaces, and fields near EPS_EXCEPTIONAL
FIELDS = st.one_of(
    st.builds("{}/{}".format, st.integers(-99, 99), st.integers(0, 9)),
    st.builds(str, st.integers(-10**30, 10**30)),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["-0", "0", "+0", "-0.0", ".5", "-.5", "1.", "1e-400", "1e400", "-1e400",
                     "1e-13", "-1e-12", "1e-300", "1e300", "", " ", " 1", "1 ", "\u0662",
                     "\uff11", "1\u00a0", "nan", "inf", "0x10", "1/0", "0/0", "1_0", "--1"]))
# zero tuples and tuples on the exceptional sets: the ideal plane, the point O,
# ideal points and planes through O, at several scales
SPECIAL = st.builds(lambda c, k: ",".join(
    ([c, "0", "0", "0"], ["0", c, c, c], [c, "1e-13", "-0", "-1e-13"], ["0", "-0", "0", "0"])[k]),
    st.sampled_from(["1", "-3", "1e-300", "-7/2", "1e300"]), st.integers(0, 3))


@st.composite
def map_argv(draw):
    op = draw(st.sampled_from(sorted(MAP_OPS)))
    option = MAP_OPS[op] if draw(st.integers(0, 9)) else draw(st.sampled_from(["plane", "point"]))
    if draw(st.booleans()):
        tup = draw(SPECIAL)
    else:
        n = 4 if draw(st.integers(0, 5)) else draw(st.sampled_from([3, 5]))
        tup = ",".join(draw(st.lists(FIELDS, min_size=n, max_size=n)))
    argv = ["map", "--op", op, f"--{option}={tup}"]
    if op == "alpha-z" and draw(st.booleans()):
        argv.append("--z=" + ",".join(draw(st.lists(FIELDS, min_size=3, max_size=3))))
    if draw(st.integers(0, 3)) == 0:
        argv.append("--dehomogenize")
    return argv


def test_map_result_beyond_the_float_range_is_an_input_error(capsys):
    # found by the generated argv below: alpha-z printed inf,inf,inf with exit 0
    big = ",".join(["-1.7976931348623157e+308"] * 3)
    assert cli.main(["map", "--op", "alpha-z", "--plane=0,-7/2,-7/2,-7/2", f"--z={big}"]) == 1
    assert capsys.readouterr() == ("", "error: result inf,inf,inf is not finite\n")


@seed(20261020)
@settings(max_examples=300, deadline=None)
@given(map_argv())
def test_map_contract_under_generated_argv(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)  # any exception escaping main would be a traceback
    out, err = out.getvalue(), err.getvalue()
    assert "Traceback" not in err
    if code == 0:
        fields = out.rstrip("\n").split(",")
        assert err == "" and out.count("\n") == 1
        assert len(fields) == (3 if argv[2] == "alpha-z" else 4), out
        assert all(math.isfinite(float(x)) for x in fields), out
    else:
        assert (code, err.split(" ", 1)[0]) in ((1, "error:"), (2, "exceptional:")), (code, err)
        assert out == ""


# each part of a sample argv is valid in three draws of four, so that about a
# third of the argvs reach the mesh; the grids stay at most 4x4
DIGITS = st.sampled_from(["2", "3", "4", "02", "03"])
GRIDS = (st.builds("{}x{}".format, DIGITS, DIGITS),
         st.sampled_from(["0x5", "1x3", "3x1", "0x0", "03x3", "\u0663x\u0663", "2x\uff12",
                          "\u0662x2", "3", "3x", "x3", "3X3", "3x3x3", "", " 3x3", "-2x3"]))
CONSTRUCTS = (st.one_of(st.sampled_from(["self", "pedal", "inverse-pedal"]),
                        st.builds("{}:{}".format, st.sampled_from(["offset", "conchoid"]),
                                  st.one_of(FIELDS, st.sampled_from(["0", "1", "-1", "1/2"])))),
              st.sampled_from(["offset", "conchoid", "offset:", "offset:nan", "conchoid:1e400",
                               "conchoid:1/0", "offset:\u0661", "pedal:1", "self:0", "bogus",
                               "Pedal", "offset2:1", ":1", ""]))
# DIR is the directory of the example, MISSING a path below a missing directory
# and TWICE a polar config with |s| = 2, which conchoid_map rejects
TWICE = ("[surface]\nkind = polar\nsx = 2*cos(u)*cos(v)\nsy = 2*cos(v)*sin(u)\n"
         "sz = 2*sin(v)\nr = 1/sin(v)\n[domain]\numin = 0\numax = 2*pi\nvmin = 0.2\nvmax = 1.3\n")
SURFACES = (st.sampled_from([*cli.GALLERY_NAMES, "TWICE"]),
            st.sampled_from(["bogus", "Pluecker", "pluecker ", "", "DIR", "MISSING"]))
OUTS = (st.just("mesh.obj"), st.sampled_from(["DIR", "MISSING"]))


@st.composite
def sample_argv(draw):
    def part(option, valid_bad):
        return f"--{option}={draw(valid_bad[0] if draw(st.integers(0, 3)) else valid_bad[1])}"
    return ["sample", part("surface", SURFACES), part("construct", CONSTRUCTS),
            part("grid", GRIDS), part("out", OUTS)]


@seed(20261022)
@settings(max_examples=150, deadline=None)
@given(sample_argv())
@example(["sample", "--surface=TWICE", "--construct=conchoid:1/2", "--grid=3x3",
          "--out=mesh.obj"])  # exit 2, which few draws reach
@example(["sample", "--surface=pluecker", "--construct=inverse-pedal", "--grid=2x2",
          "--out=mesh.obj"])  # exit 3
def test_sample_contract_under_generated_argv(argv):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"DIR": tmp, "MISSING": os.path.join(tmp, "missing", "x"),
                 "TWICE": os.path.join(tmp, "twice.cfg"), "mesh.obj": os.path.join(tmp, "mesh.obj")}
        Path(paths["TWICE"]).write_text(TWICE)
        argv = [re.sub(r"=(DIR|MISSING|TWICE|mesh\.obj)$", lambda m: "=" + paths[m[1]], a)
                for a in argv]
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)  # any exception escaping main would be a traceback
        elapsed = time.perf_counter() - t0
        out, err = out.getvalue(), err.getvalue()
        assert elapsed <= 1.5, (argv, elapsed)
        assert "Traceback" not in err
        if code == 0:
            target = argv[-1].partition("=")[2]
            assert err == "" and re.fullmatch(
                rf"vertices=\d+ faces=\d+ out={re.escape(target)}\n", out), (argv, out)
            assert os.path.isfile(target)
        else:
            prefix = {1: "error: ", 2: "exceptional: ", 3: "empty mesh: "}.get(code)
            assert prefix and err.startswith(prefix) and err.count("\n") == 1, (argv, code, err)
            assert out == ""


@pytest.mark.parametrize("args", [
    ("map", "--op", "alpha", "--plane", "1/0,0,0,1"),
    ("map", "--op", "alpha", "--plane", "1e400,0,0,1"),
    ("map", "--op", "alpha-z", "--plane", "-1,0,0,1", "--z", "1/0,0,0"),
    ("implicit", "--direction", "pedal", "--surface", "QUADRIC"),
])
def test_non_finite_rational_is_an_input_error(tmp_path, args):
    cfg = tmp_path / "quad.cfg"
    cfg.write_text("[surface]\nkind = quadric\nspace = dual\n"
                   "matrix = 1/0 0 0 0; 0 1 0 0; 0 0 1 0; 0 0 0 1\n")
    res = run(*(str(cfg) if a == "QUADRIC" else a for a in args))
    assert res.returncode == 1
    assert res.stderr.startswith("error:"), res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("args, message", [
    (("map", "--op", "alpha", "--plane", "\u0662,0,0,1"),
     "coordinate '\u0662' is not an ASCII number"),
    (("map", "--op", "alpha", "--plane", "-1,0,0,\uff11"),
     "coordinate '\uff11' is not an ASCII number"),
    (("map", "--op", "alpha", "--plane", "-1,0,0,\u00a01"),
     "coordinate '\\xa01' is not an ASCII number"),
    (("sample", "--surface", "pluecker", "--construct", "conchoid:\u0661/2"),
     "distance '\u0661/2' is not an ASCII number"),
    (("sample", "--surface", "pluecker", "--grid", "\u0663x\u0663"),
     "--grid must look like 60x60"),
    (("implicit", "--direction", "pedal", "--surface", "QUADRIC"),
     "matrix entry '\u0662' is not an ASCII number"),
], ids=["arabic-indic-coordinate", "fullwidth-coordinate", "no-break-space", "distance", "grid",
        "quadric-matrix"])
def test_non_ascii_number_is_an_input_error(tmp_path, args, message):
    # Fraction, int and a \d regex would read these as the ASCII digits
    cfg = tmp_path / "quad.cfg"
    cfg.write_text("[surface]\nkind = quadric\nspace = dual\n"
                   "matrix = \u0662 0 0 0; 0 1 0 0; 0 0 1 0; 0 0 0 1\n", encoding="utf-8")
    out = ["--out", str(tmp_path / "x.obj")] if args[0] == "sample" else []
    res = run(*(str(cfg) if a == "QUADRIC" else a for a in args), *out)
    assert (res.returncode, res.stdout, res.stderr) == (1, "", f"error: {message}\n")
    assert not (tmp_path / "x.obj").exists()


@pytest.mark.parametrize("args, env", [
    (("--seed", "\u0663"), {}), (("--samples", "\uff13"), {}), ((), {"PEDALIS_SEED": "\u0663"}),
], ids=["seed", "samples", "seed-env"])
def test_non_ascii_integer_option_is_an_input_error(args, env):
    res = run("verify", "--suite", "involutions", *args, env=env)
    value = args[1] if args else env["PEDALIS_SEED"]
    assert (res.returncode, res.stdout) == (1, "")
    assert res.stderr.endswith(f" integer, got {value!r}\n"), res.stderr


class TestImplicit:
    def test_pluecker_strip_report(self):
        res = run("implicit", "--direction", "pedal", "--strip",
                  "--poly", "u0*u1^2 + u0*u2^2 - 2*u1*u2*u3")
        assert res.returncode == 0
        lines = res.stdout.strip().splitlines()
        assert lines[-1] == "r=2 k=0 n=3 deg=4"

    def test_plane_to_paraboloid(self):
        res = run("implicit", "--direction", "inverse-pedal", "--poly", "x3-x0")
        assert res.returncode == 0
        assert res.stdout.strip() == "u0^1*u3^1 + u1^2 + u2^2 + u3^2"

    def test_round_trip_through_text(self):
        first = run("implicit", "--direction", "inverse-pedal", "--poly", "x3-x0")
        second = run("implicit", "--direction", "pedal", "--strip",
                     "--poly", first.stdout.strip())
        assert second.returncode == 0
        out = second.stdout.strip().splitlines()
        assert out[0] in ("x0^1 - x3^1", "-x0^1 + x3^1")
        assert out[1] == "r=1 k=1 n=2 deg=1"

    def test_malformed(self):
        res = run("implicit", "--direction", "pedal", "--poly", "u0 + )")
        assert res.returncode == 1

    def test_quadric_config_source(self, tmp_path):
        cfg = tmp_path / "quad.cfg"
        cfg.write_text(
            "[surface]\n"
            "kind = quadric\n"
            "space = dual\n"
            "matrix = -1 -2 0 0; -2 -3 0 0; 0 0 1 0; 0 0 0 1\n")
        res = run("implicit", "--direction", "pedal", "--strip",
                  "--surface", str(cfg))
        assert res.returncode == 0
        assert res.stdout.strip().splitlines()[-1] == "r=0 k=0 n=2 deg=4"

    @pytest.mark.parametrize("strip", [(), ("--strip",)], ids=["image", "strip"])
    @pytest.mark.parametrize("space, direction, matrix, text", [
        ("dual", "pedal", "-1 -2 0 1/3; -2 -3 0 0; 0 0 1 5/2; 1/3 0 5/2 1",
         "-u0^2 - 4*u0*u1 + 2/3*u0*u3 - 3*u1^2 + u2^2 + 5*u2*u3 + u3^2"),
        ("point", "inverse-pedal", "3 -2 0 0; -2 1 1/2 0; 0 1/2 1 0; 0 0 0 1",
         "3*x0^2 - 4*x0*x1 + x1^2 + x1*x2 + x2^2 + x3^2"),
    ], ids=["dual", "point"])
    def test_quadric_config_is_its_expanded_polynomial(self, tmp_path, space, direction,
                                                       matrix, text, strip):
        # each off-diagonal entry counts twice: x^T A x expanded by hand
        cfg = tmp_path / "quad.cfg"
        cfg.write_text(f"[surface]\nkind = quadric\nspace = {space}\nmatrix = {matrix}\n")
        res = run("implicit", "--direction", direction, *strip, "--surface", str(cfg))
        expect = run("implicit", "--direction", direction, *strip, "--poly", text)
        assert expect.returncode == 0 and expect.stdout.count("\n") == 1 + len(strip)
        assert (res.returncode, res.stdout, res.stderr) == (0, expect.stdout, "")

    @pytest.mark.parametrize("matrix, message", [
        ("0 1 0 0; 0 0 0 0; 0 0 0 0; 0 0 0 0", "quadric matrix must be symmetric"),
        ("1 0 0 0; 0 1 0 1/2; 0 0 1 0; 0 0 0 1", "quadric matrix must be symmetric"),
        ("1 0 0; 0 1 0; 0 0 1", "quadric matrices are 4x4"),
        ("1 0 0 0; 0 1 0 0; 0 0 1 0; 0 0 1", "quadric matrices are 4x4"),
        ("1 0 0 0; 0 1 0 0; 0 0 1 0; 0 0 0 1;", "quadric matrices are 4x4"),
        ("1 0 0 0; 0 1 0 0; 0 0 1 0; 0 0 0 x", "Invalid literal for Fraction: 'x'"),
    ], ids=["asymmetric", "asymmetric-entry", "3x3", "short-row", "fifth-row", "word"])
    def test_bad_quadric_matrix_is_an_input_error(self, tmp_path, matrix, message):
        cfg = tmp_path / "quad.cfg"
        cfg.write_text(f"[surface]\nkind = quadric\nspace = point\nmatrix = {matrix}\n")
        res = run("implicit", "--direction", "inverse-pedal", "--surface", str(cfg))
        assert (res.returncode, res.stdout, res.stderr) == (1, "", f"error: {message}\n")

    def test_quadric_config_with_a_domain_is_an_input_error(self, tmp_path):
        # a quadric has no charts, so a [domain] section has nothing to bound
        cfg = tmp_path / "quad.cfg"
        cfg.write_text("[surface]\nkind = quadric\nspace = dual\n"
                       "matrix = -1 0 0 0; 0 1 0 0; 0 0 1 0; 0 0 0 1\n[domain]\numin = 0\n")
        for args in (("implicit", "--direction", "pedal"),
                     ("sample", "--out", str(tmp_path / "x.obj"))):
            res = run(*args, "--surface", str(cfg))
            assert (res.returncode, res.stdout) == (1, ""), args
            assert res.stderr == "error: a quadric config has no [domain] section\n", args

    @pytest.mark.parametrize("text", [
        "(" * 250 + "u0" + ")" * 250, "u1" + "^1" * 2000, "u0 + " + "(" * 101 + "u1" + ")" * 101,
        "u1^\u0662", "\uff12*u2", "u1\u00a0+ u2",
    ], ids=["parentheses-250", "power-chain-2000", "parentheses-101", "arabic-indic-digit",
            "fullwidth-digit", "no-break-space"])
    def test_deep_or_non_ascii_text_is_an_input_error(self, text):
        res = run("implicit", "--direction", "pedal", "--poly", text)
        assert (res.returncode, res.stdout) == (1, "")
        assert res.stderr.startswith("error: ") and "Traceback" not in res.stderr

    def test_wrong_space(self):
        res = run("implicit", "--direction", "pedal", "--poly", "x0^2")
        assert res.returncode == 1

    def test_division_by_zero_is_an_input_error(self):
        res = run("implicit", "--direction", "pedal", "--poly", "u0/0")
        assert res.returncode == 1
        assert res.stderr.startswith("error:")
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("strip", [(), ("--strip",)], ids=["image", "strip"])
    @pytest.mark.parametrize("direction, text", [
        ("pedal", "u0 - u0"), ("pedal", "u0^0"),
        ("inverse-pedal", "x1 - x1"), ("inverse-pedal", "3*x2^0")])
    def test_constant_input_is_an_input_error(self, direction, text, strip):
        # the zero and the nonzero constant alike, with and without --strip
        res = run("implicit", "--direction", direction, *strip, "--poly", text)
        assert (res.returncode, res.stdout) == (1, "")
        assert res.stderr == ("error: implicit needs a polynomial of degree at least 1, "
                              "not a constant\n")


class TestSample:
    def test_gallery_names_match_the_gallery(self):
        # sample tells a gallery name from a config path without importing gallery
        from pedalis import gallery
        assert list(gallery._BUILDERS) == list(cli.GALLERY_NAMES)
        assert gallery.list_entries() == sorted(cli.GALLERY_NAMES)

    def test_pedal_mesh_satisfies_quartic(self, tmp_path):
        out = tmp_path / "pedal.obj"
        res = run("sample", "--surface", "pluecker", "--construct", "pedal",
                  "--grid", "30x30", "--out", str(out))
        assert res.returncode == 0
        assert "vertices=" in res.stdout
        verts = []
        for line in out.read_text().splitlines():
            if line.startswith("v "):
                verts.append([float(x) for x in line.split()[1:]])
        verts = np.array(verts)
        poly = get_entry("pluecker").point_poly
        T = np.hstack([np.ones((len(verts), 1)), verts])
        vals = np.abs(poly.eval_grid(T))
        scale = poly.coeff_norm() * np.max(np.abs(T), axis=1) ** poly.degree
        assert np.max(vals / scale) < 1e-8

    def test_conchoid_mesh(self, tmp_path):
        out = tmp_path / "conch.obj"
        res = run("sample", "--surface", "plane-conchoid",
                  "--construct", "conchoid:0.7", "--grid", "12x12", "--out", str(out))
        assert res.returncode == 0
        assert out.exists()

    def test_bad_grid(self, tmp_path):
        res = run("sample", "--surface", "pluecker", "--construct", "pedal",
                  "--grid", "1x1", "--out", str(tmp_path / "x.obj"))
        assert res.returncode == 1

    def test_unknown_surface(self, tmp_path):
        res = run("sample", "--surface", "nonexistent", "--construct", "self",
                  "--grid", "4x4", "--out", str(tmp_path / "x.obj"))
        assert res.returncode == 1

    def test_config_surface(self, tmp_path):
        cfg = tmp_path / "surf.cfg"
        cfg.write_text(
            "[surface]\n"
            "kind = polar\n"
            "sx = cos(u)*cos(v)\n"
            "sy = cos(v)*sin(u)\n"
            "sz = sin(v)\n"
            "r = 1/sin(v)\n"
            "[domain]\n"
            "umin = 0\numax = 2*pi\nvmin = 0.2\nvmax = 1.3\n")
        out = tmp_path / "plane.obj"
        res = run("sample", "--surface", str(cfg), "--construct", "self",
                  "--grid", "8x8", "--out", str(out))
        assert res.returncode == 0
        zs = [float(l.split()[3]) for l in out.read_text().splitlines()
              if l.startswith("v ")]
        assert max(abs(z - 1.0) for z in zs) < 1e-12

    @pytest.mark.parametrize("construct, code", [("self", 0), ("conchoid:1/2", 2)])
    def test_conchoid_of_polar_config_needs_unit_directions(self, tmp_path, construct, code):
        # |s| = 2: the conchoid at 1/2 would move every point by 1, so
        # conchoid_map probes s as offset_map probes n
        cfg = tmp_path / "twice.cfg"
        cfg.write_text(
            "[surface]\n"
            "kind = polar\n"
            "sx = 2*cos(u)*cos(v)\n"
            "sy = 2*cos(v)*sin(u)\n"
            "sz = 2*sin(v)\n"
            "r = 1/sin(v)\n"
            "[domain]\n"
            "umin = 0\numax = 2*pi\nvmin = 0.2\nvmax = 1.3\n")
        res = run("sample", "--surface", str(cfg), "--construct", construct,
                  "--grid", "8x8", "--out", str(tmp_path / "x.obj"))
        assert res.returncode == code, res.stderr
        if code:
            assert res.stderr == "exceptional: normal length 2 at (0,0.2)\n"

    def test_empty_mesh_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        # every sample evaluates sqrt of a negative number and is dropped
        cfg.write_text(
            "[surface]\n"
            "kind = point\n"
            "fx = sqrt(0 - 1 - u*u)\n"
            "fy = v\n"
            "fz = 0\n"
            "[domain]\numin = 0\numax = 1\nvmin = 0\nvmax = 1\n")
        res = run("sample", "--surface", str(cfg), "--construct", "self",
                  "--grid", "4x4", "--out", str(tmp_path / "x.obj"))
        assert res.returncode == 3

    def test_pole_on_domain_boundary_offset(self, tmp_path):
        # r = 1/sin(v) is infinite on the v = 0 edge: those samples have a
        # non-finite base point and are dropped
        cfg = tmp_path / "pole.cfg"
        cfg.write_text(
            "[surface]\n"
            "kind = polar\n"
            "sx = cos(u)*cos(v)\n"
            "sy = cos(v)*sin(u)\n"
            "sz = sin(v)\n"
            "r = 1/sin(v)\n"
            "[domain]\n"
            "umin = 0\numax = 2*pi\nvmin = 0\nvmax = 1.3\n")
        res = run("sample", "--surface", str(cfg), "--construct", "offset:1/4",
                  "--grid", "20x20", "--out", str(tmp_path / "x.obj"))
        assert res.returncode == 0, res.stderr
        assert res.stdout.startswith("vertices=")
        assert "Warning" not in res.stderr

    def test_offset_of_polar_plane_keeps_every_sample(self, tmp_path):
        # a plane has no envelope point, so the offset must start from the
        # surface point itself
        cfg = tmp_path / "plane.cfg"
        cfg.write_text(
            "[surface]\n"
            "kind = polar\n"
            "sx = cos(u)*cos(v)\n"
            "sy = cos(v)*sin(u)\n"
            "sz = sin(v)\n"
            "r = 1/sin(v)\n"
            "[domain]\n"
            "umin = 0\numax = 2*pi\nvmin = 0.2\nvmax = 1.3\n")
        out = tmp_path / "offset.obj"
        res = run("sample", "--surface", str(cfg), "--construct", "offset:1/4",
                  "--grid", "12x12", "--out", str(out))
        assert res.returncode == 0, res.stderr
        assert res.stdout.startswith("vertices=144 ")
        zs = [float(l.split()[3]) for l in out.read_text().splitlines()
              if l.startswith("v ")]
        assert max(abs(z - 1.25) for z in zs) < 1e-12

    def test_sphere_bundle_conchoid_shifts_radius(self, tmp_path):
        out = tmp_path / "bundle.obj"
        res = run("sample", "--surface", "sphere-bundle", "--construct", "conchoid:1/2",
                  "--grid", "6x6", "--out", str(out))
        assert res.returncode == 0, res.stderr
        verts = np.array([[float(x) for x in l.split()[1:]]
                          for l in out.read_text().splitlines() if l.startswith("v ")])
        base = conchoid_map(get_entry("sphere-bundle").polar, 0.0)
        expect = np.array([(float(base.r(u, v)) + 0.5) * np.asarray(base.s(u, v))
                           for u, v in zip(*base.domain.grid(6, 6))])
        assert verts.shape == expect.shape
        assert np.max(np.abs(verts - expect)) < 1e-10

    def test_two_by_two_grid(self, tmp_path):
        out = tmp_path / "tiny.obj"
        res = run("sample", "--surface", "pluecker", "--construct", "pedal",
                  "--grid", "2x2", "--out", str(out))
        assert res.returncode == 0
        assert res.stdout.startswith("vertices=4 faces=2 ")
        assert out.read_text().splitlines()[-2:] == ["f 1 3 4", "f 1 4 2"]

    def test_quadric_config_rejected_for_sample(self, tmp_path):
        cfg = tmp_path / "quad.cfg"
        cfg.write_text(
            "[surface]\n"
            "kind = quadric\n"
            "space = dual\n"
            "matrix = -1 -2 0 0; -2 -3 0 0; 0 0 1 0; 0 0 0 1\n")
        res = run("sample", "--surface", str(cfg), "--construct", "self",
                  "--grid", "4x4", "--out", str(tmp_path / "x.obj"))
        assert res.returncode == 1

    def test_ruled_config_missing_key_is_an_input_error(self, tmp_path):
        cfg = tmp_path / "ruled.cfg"
        cfg.write_text("[surface]\nkind = ruled\ncx = cos(u)\ncy = sin(u)\n")
        res = run("sample", "--surface", str(cfg), "--grid", "4x4",
                  "--out", str(tmp_path / "x.obj"))
        assert res.returncode == 1
        assert res.stderr == "error: missing chart expression 'cz'\n"

    @pytest.mark.parametrize("fz, message", [
        ("(" * 300 + "u" + ")" * 300, "text nested deeper than 100 levels"),
        ("sin(" * 101 + "u" + ")" * 101, "text nested deeper than 100 levels"),
        ("u^\u0662", "unexpected token '\u0662'"),
        ("\uff12*u", "unexpected token '\uff12'"),
    ], ids=["parentheses-300", "calls-101", "arabic-indic-digit", "fullwidth-digit"])
    def test_deep_or_non_ascii_chart_is_an_input_error(self, tmp_path, fz, message):
        cfg = tmp_path / "point.cfg"
        cfg.write_text(f"[surface]\nkind = point\nfx = u\nfy = v\nfz = {fz}\n",
                       encoding="utf-8")
        res = run("sample", "--surface", str(cfg), "--grid", "4x4",
                  "--out", str(tmp_path / "x.obj"))
        assert (res.returncode, res.stdout, res.stderr) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("n", [1200, 5000])
    def test_long_flat_sum_in_a_chart(self, tmp_path, n):
        # a flat sum is one closure evaluated left to right, not n nested ones
        terms = [f"u/{k}" if k % 2 else f"{k}/7*v" for k in range(1, n + 1)]
        ops = ["-" if k % 3 == 0 else "+" for k in range(2, n + 1)]
        fx = terms[0] + "".join(f" {op} {t}" for op, t in zip(ops, terms[1:]))
        cfg = tmp_path / "flat.cfg"
        cfg.write_text(f"[surface]\nkind = point\nfx = {fx}\nfy = v\nfz = u\n")
        out = tmp_path / "flat.obj"
        res = run("sample", "--surface", str(cfg), "--grid", "4x4", "--out", str(out))
        assert (res.returncode, res.stderr) == (0, "")
        u, v = Domain(0.0, 1.0, 0.0, 1.0).grid(4, 4)

        def term(k):
            return u / np.float64(k) if k % 2 else np.float64(k) / np.float64(7) * v

        expect = term(1)
        for k, op in zip(range(2, n + 1), ops):
            expect = expect - term(k) if op == "-" else expect + term(k)
        assert [x.hex() for x in parse_expr(fx)(u, v)] == [x.hex() for x in expect]
        xs = [line.split()[1] for line in out.read_text().splitlines() if line.startswith("v ")]
        assert xs == ["%.12g" % x for x in expect]

    def test_long_flat_product_in_a_chart(self, tmp_path):
        ops = ["/" if k % 3 == 0 else "*" for k in range(1, 1201)]
        fx = "u" + "".join(f"{op}(1 + u/{k})" for k, op in enumerate(ops, 1))
        cfg = tmp_path / "flat.cfg"
        cfg.write_text(f"[surface]\nkind = point\nfx = {fx}\nfy = v\nfz = u\n")
        res = run("sample", "--surface", str(cfg), "--grid", "4x4",
                  "--out", str(tmp_path / "x.obj"))
        assert (res.returncode, res.stderr) == (0, "")
        u, v = Domain(0.0, 1.0, 0.0, 1.0).grid(4, 4)
        expect = u
        for k, op in enumerate(ops, 1):
            f = np.float64(1) + u / np.float64(k)
            expect = expect / f if op == "/" else expect * f
        assert [x.hex() for x in parse_expr(fx)(u, v)] == [x.hex() for x in expect]

    def test_quadric_config_missing_matrix_is_an_input_error(self, tmp_path):
        cfg = tmp_path / "quad.cfg"
        cfg.write_text("[surface]\nkind = quadric\nspace = dual\n")
        for args in (("sample", "--surface", str(cfg), "--out", str(tmp_path / "x.obj")),
                     ("implicit", "--direction", "pedal", "--surface", str(cfg))):
            res = run(*args)
            assert res.returncode == 1, args
            assert res.stderr == "error: missing chart expression 'matrix'\n", args


    @pytest.mark.parametrize("construct", ["conchoid:1/0", "offset:1e400", "self:1/2", "pedal:3"])
    def test_bad_distance_is_an_input_error(self, tmp_path, construct):
        res = run("sample", "--surface", "plane-conchoid", "--construct", construct,
                  "--grid", "4x4", "--out", str(tmp_path / "x.obj"))
        assert res.returncode == 1
        assert res.stderr.startswith("error:"), res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("expr", ["sin u", "foo", "u,v", "1e5"])
    def test_chart_grammar_error_is_an_input_error(self, tmp_path, expr):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"[surface]\nkind = point\nfx = u\nfy = v\nfz = {expr}\n")
        res = run("sample", "--surface", str(cfg), "--grid", "4x4",
                  "--out", str(tmp_path / "x.obj"))
        assert res.returncode == 1
        assert res.stderr.startswith("error:"), res.stderr
        assert "Traceback" not in res.stderr

    def test_non_finite_domain_bound_is_an_input_error(self, tmp_path):
        cfg = tmp_path / "pole.cfg"
        cfg.write_text("[surface]\nkind = point\nfx = u\nfy = v\nfz = 0\n"
                       "[domain]\nvmax = 1/0\n")
        res = run("sample", "--surface", str(cfg), "--grid", "4x4",
                  "--out", str(tmp_path / "x.obj"))
        assert res.returncode == 1
        assert res.stderr == "error: domain bound vmax = '1/0' is not finite\n"

    @pytest.mark.parametrize("bound, name", [("umax = v + 2", "v"), ("umin = sin(u)", "u"),
                                             ("vmax = 0*u + 1", "u")])
    def test_domain_bound_naming_a_parameter_is_an_input_error(self, tmp_path, bound, name):
        cfg = tmp_path / "bound.cfg"
        cfg.write_text(f"[surface]\nkind = point\nfx = u\nfy = v\nfz = 0\n[domain]\n{bound}\n")
        res = run("sample", "--surface", str(cfg), "--grid", "3x3",
                  "--out", str(tmp_path / "x.obj"))
        key, text = (part.strip() for part in bound.split("="))
        assert res.returncode == 1
        assert res.stderr == f"error: domain bound {key} = {text!r} names the parameter {name}\n"

    def test_unknown_domain_key_is_an_input_error(self, tmp_path):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("[surface]\nkind = point\nfx = u\nfy = v\nfz = 0\n"
                       "[domain]\numin = 0\numx = 3\n")
        res = run("sample", "--surface", str(cfg), "--grid", "3x3",
                  "--out", str(tmp_path / "x.obj"))
        assert res.returncode == 1
        assert res.stderr == ("error: unknown [domain] key 'umx'; "
                              "allowed: umin, umax, vmin, vmax\n")

    @pytest.mark.parametrize("construct",
                             ["self", "pedal", "inverse-pedal", "offset:1/2", "conchoid:1/2"])
    def test_dual_config_under_every_construct(self, tmp_path, construct):
        # planes n.x = e with |n| = 2 around the sphere of center m = (2,0,0)
        # and radius 1: envelope points m + n/|n|
        cfg = tmp_path / "dual.cfg"
        cfg.write_text(
            "[surface]\n"
            "kind = dual\n"
            "nx = 2*cos(u)*cos(v)\n"
            "ny = 2*cos(v)*sin(u)\n"
            "nz = 2*sin(v)\n"
            "e = 2*(2*cos(u)*cos(v) + 1)\n"
            "[domain]\n"
            "umin = 0\numax = 2*pi\nvmin = -1.2\nvmax = 1.2\n")
        out = tmp_path / "dual.obj"
        res = run("sample", "--surface", str(cfg), "--construct", construct,
                  "--grid", "10x10", "--out", str(out))
        assert res.returncode == 0, res.stderr
        assert res.stdout.startswith("vertices=100 ")
        verts = np.array([[float(x) for x in l.split()[1:]]
                          for l in out.read_text().splitlines() if l.startswith("v ")])
        U, V = Domain(0.0, 2 * math.pi, -1.2, 1.2).grid(10, 10)
        unit = np.column_stack((np.cos(U) * np.cos(V), np.cos(V) * np.sin(U), np.sin(V)))
        points = np.array([2.0, 0.0, 0.0]) + unit
        expect = {
            "self": points,
            "pedal": (2 * unit[:, :1] + 1) * unit,
            "offset:1/2": points + 0.5 * unit,
            "conchoid:1/2": points * (1 + 0.5 / np.linalg.norm(points, axis=1))[:, None],
        }.get(construct)
        if expect is not None:
            assert np.max(np.abs(verts - expect)) < 1e-6


class TestExpressions:
    def test_ieee_results_instead_of_exceptions(self):
        # a pole gives inf and a negative root NaN: samples to drop, not errors
        with np.errstate(all="ignore"):
            assert parse_expr("1/sin(u)")(0.0, 0.0) == math.inf
            assert math.isnan(parse_expr("sqrt(0 - 1 - u*u)")(0.0, 0.0))
            assert math.isnan(parse_expr("(0 - 1)^0.5")(0.0, 0.0))


class TestVerify:
    def test_involutions_suite(self):
        res = run("verify", "--suite", "involutions", "--samples", "500", "--seed", "3")
        assert res.returncode == 0
        assert "alpha_roundtrip.pass=true" in res.stdout

    def test_degrees_suite(self):
        res = run("verify", "--suite", "degrees")
        assert res.returncode == 0
        assert "degrees_pluecker.pass=true" in res.stdout

    def test_deterministic_given_seed(self):
        a = run("verify", "--suite", "involutions", "--samples", "300", "--seed", "11")
        b = run("verify", "--suite", "involutions", "--samples", "300", "--seed", "11")
        assert a.stdout == b.stdout

    def test_seed_env_var(self):
        a = run("verify", "--suite", "involutions", "--samples", "300",
                env={"PEDALIS_SEED": "42"})
        b = run("verify", "--suite", "involutions", "--samples", "300", "--seed", "42")
        assert a.stdout.replace("seed=42", "") == b.stdout.replace("seed=42", "")

    def test_samples_below_one_rejected(self):
        for bad in ("0", "-5"):
            res = run("verify", "--suite", "involutions", "--samples", bad)
            assert res.returncode == 1, bad
            assert "--samples" in res.stderr
            assert "pass=" not in res.stdout

    def test_samples_not_a_number_rejected(self):
        res = run("verify", "--suite", "involutions", "--samples", "abc")
        assert res.returncode == 1
        assert "_positive_int" not in res.stderr
        assert res.stderr.endswith(
            "error: argument --samples: must be a positive integer, got 'abc'\n")
        assert res.stdout == ""

    def test_extras_suite_alone(self):
        res = run("verify", "--suite", "extras", "--seed", "5")
        assert res.returncode == 0
        names = [line.split(".", 1)[0] for line in res.stdout.splitlines()
                 if ".pass=" in line]
        assert names[0] == "envelope_paraboloid" and names[-1] == "bisector_plane"
        assert "alpha_roundtrip" not in res.stdout
        assert res.stdout.splitlines()[-1] == "suite=extras seed=5 pass=true"

    def test_all_runs_every_suite_in_order(self):
        assert list(verify.SUITES) == ["involutions", "diagrams", "gallery", "degrees",
                                       "extras"]

    def test_parser_suite_names_match_verify(self):
        # the parser lists the suites without importing verify
        assert list(cli.SUITE_NAMES) == list(verify.SUITES)

    def test_unknown_suite_rejected(self):
        res = run("verify", "--suite", "bogus")
        assert res.returncode == 1
        assert "argument --suite: invalid choice: 'bogus'" in res.stderr
        assert res.stdout == ""

    def test_negative_seed_rejected(self):
        res = run("verify", "--suite", "degrees", "--seed", "-1")
        assert res.returncode == 1
        assert res.stderr.endswith(
            "error: argument --seed: must be a non-negative integer, got '-1'\n")
        assert res.stdout == ""

    @pytest.mark.parametrize("value", ["abc", "-3"])
    def test_bad_seed_env_var_names_the_variable(self, value):
        res = run("verify", "--suite", "degrees", env={"PEDALIS_SEED": value})
        assert res.returncode == 1
        assert res.stderr == (f"error: PEDALIS_SEED must be a non-negative integer, "
                              f"got {value!r}\n")
        assert res.stdout == ""

    def test_diagram_family_without_samples_fails(self, monkeypatch):
        dom = Domain(0.0, 1.0, 0.0, 1.0)

        class Singular:
            dual = DualSurface(constant_chart([0.0, 0.0, math.nan], dom), constant_chart(1.0, dom))

        monkeypatch.setattr(verify.gallery, "get_entry", lambda name: Singular())
        results = verify._check_diagrams(None, 1)
        assert [name for name, _, _ in results] == [
            f"diagram_{name}" for name in verify.DIAGRAM_FAMILIES]
        assert not any(ok for _, _, ok in results)

    def test_wrong_pedal_foot_point_fails_the_pluecker_residuals(self, monkeypatch):
        # the "pedal construct" case of the pluecker entry samples
        # dual_to_point, so a foot point scaled by 1.0001 must not pass
        assert check_result(verify._check_gallery, "residual_pluecker")[1]
        alpha = verify.surfkit.alpha_affine
        monkeypatch.setattr(verify.surfkit, "alpha_affine", lambda n, e: 1.0001 * alpha(n, e))
        metrics, ok = check_result(verify._check_gallery, "residual_pluecker")
        assert not ok and metrics["max_residual"] > 1e-6

    @pytest.mark.parametrize("part, suite, check, key", [
        ("e", verify._check_gallery, "residual_pluecker", "max_residual"),
        ("n", verify._check_extras, "ratnorm_pluecker", "max_dev"),
    ])
    def test_scaled_tangent_plane_fails_its_check(self, monkeypatch, part, suite, check, key):
        # the pluecker entry calls tangent_planes when it builds its exact part,
        # for its "pedal of the point chart" case, so the patched entry is built afresh
        tangent_planes = verify.surfkit.tangent_planes

        def scaled(G):
            F = tangent_planes(G)
            charts = {"n": F.n, "e": F.e}
            f = charts[part]
            charts[part] = Chart(lambda u, v: 1.0001 * np.asarray(f(u, v)), domain=F.domain)
            return DualSurface(**charts)

        assert check_result(suite, check)[1]
        monkeypatch.setattr(verify.surfkit, "tangent_planes", scaled)
        monkeypatch.setattr(verify.gallery, "_CACHE", {})
        metrics, ok = check_result(suite, check)
        assert not ok and metrics[key] > 1e-6

    def test_kept_minus_inf_row_fails_the_planted_drop(self, monkeypatch):
        # what the mutant "grid drop test without abs" does: a row whose only
        # non-finite entry is -inf, below finite ones, is kept
        assert check_result(verify._check_extras, "envelope_paraboloid")[0]["planted_drop"] == 1
        grid = verify.surfkit.sample_grid

        def keeps_minus_inf(value, *args):
            return grid(lambda U, V: np.where(np.isneginf(value(U, V)), 0.0, value(U, V)), *args)

        monkeypatch.setattr(verify.surfkit, "sample_grid", keeps_minus_inf)
        metrics, ok = check_result(verify._check_extras, "envelope_paraboloid")
        assert not ok and metrics["planted_drop"] == 0

    def test_wrong_offset_family_fails_the_sphere_offset_pullback(self, monkeypatch):
        assert check_result(verify._check_gallery, "pullback_sphere-offset") == (
            {"exact": 1.0, "offset_family": 1.0}, True)
        offset = verify.hompoly.offset_dual_poly
        monkeypatch.setattr(verify.hompoly, "offset_dual_poly",
                            lambda f, d: offset(f, d) * Fraction(10001, 10000))
        metrics, ok = check_result(verify._check_gallery, "pullback_sphere-offset")
        assert not ok and metrics == {"exact": 1.0, "offset_family": 0.0}

    def test_flipped_cyclide_coupling_fails_the_pentaspherical_lift(self, monkeypatch):
        # x0^2 diag + x0 q bee in place of x0^2 diag - x0 q bee: the b's change sign
        metrics, ok = check_result(verify._check_extras, "pentaspherical_lift")
        assert ok and metrics["closed_form"] == 1.0
        form = verify.quadricpedal._cyclide_form
        monkeypatch.setattr(verify.quadricpedal, "_cyclide_form",
                            lambda space, a0, a1, a2, a3, *b: form(space, a0, a1, a2, a3,
                                                                  *(-x for x in b)))
        metrics, ok = check_result(verify._check_extras, "pentaspherical_lift")
        assert not ok and metrics["closed_form"] == 0.0

    def test_flipped_ruled_offset_support_fails_ratnorm_ruled(self, monkeypatch):
        # f.n - d*|n| in place of f.n + d*|n| is the support of the offset at -d;
        # the conic witness max_dev does not depend on d and cannot see it
        metrics, ok = check_result(verify._check_extras, "ratnorm_ruled")
        assert ok and metrics["support_dev"] < 1e-15
        surface = verify.ruledpedal.RuledOffsetSurface
        monkeypatch.setattr(verify.ruledpedal, "RuledOffsetSurface",
                            lambda R, d, domain: surface(R, -d, domain))
        metrics, ok = check_result(verify._check_extras, "ratnorm_ruled")
        assert not ok and metrics["support_dev"] == pytest.approx(1.0)
        assert metrics["max_dev"] < 1e-9

    def test_wrong_paraboloid_partial_fails_the_generic_witness(self, monkeypatch):
        # e_u of the paraboloid support carries a factor a - b, so at the
        # defaults a = b = c = 1 a scaled e_u is still 0 and only the entry
        # rebuilt at (2, 3, 1/2) can see it
        metrics, ok = check_result(verify._check_gallery, "residual_paraboloid-pedal")
        assert ok and metrics["generic_residual"] < verify.WITNESS_BOUND
        chart = verify.gallery.paraboloid_offset_chart

        def scaled(*params):
            F = chart(*params)
            e = F.e
            return DualSurface(F.n, Chart(e, lambda u, v: 1.0001 * e.du(u, v), e.dv, F.domain))

        monkeypatch.setattr(verify.gallery, "paraboloid_offset_chart", scaled)
        monkeypatch.setattr(verify.gallery, "_CACHE", {})
        metrics, ok = check_result(verify._check_gallery, "residual_paraboloid-pedal")
        assert not ok and metrics["max_residual"] < 1e-8
        assert metrics["generic_residual"] > verify.WITNESS_BOUND

    def test_verify_all_meets_the_benchmark_checker(self, monkeypatch, capsys):
        # the benchmark fails every op when this grammar breaks: a key outside
        # [a-z_]+, a 46th .pass name or a missing check
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        from checks import check_verify

        code = cli.main(["verify", "--suite", "all", "--seed", "7"])
        assert check_verify(code, capsys.readouterr().out, 7) == []

    @pytest.mark.parametrize("construct, entry, key", [
        ("point_conchoid", "pluecker", "conchoid_dev"),
        ("point_offset", "sphere-offset", "offset_dev"),
    ])
    def test_sign_flipped_construct_fails_verify_all(self, monkeypatch, capsys,
                                                     construct, entry, key):
        # the gallery families are even in d; the witnesses are odd in d
        original = getattr(verify.surfkit, construct)
        monkeypatch.setattr(verify.surfkit, construct,
                            lambda *args: original(*args[:-1], -args[-1]))
        assert cli.main(["verify", "--suite", "all", "--seed", "7"]) == 1
        out = capsys.readouterr().out.splitlines()
        value = float(next(line for line in out
                           if line.startswith(f"residual_{entry}.{key}=")).split("=")[1])
        assert value > 0.1
        assert f"residual_{entry}.pass=false" in out
        failed = [line for line in out if line.endswith(".pass=false")]
        assert failed == [f"residual_{entry}.pass=false"]

    def test_offset_witness_without_samples_fails(self, monkeypatch, capsys):
        # every sample of the d < 0 offset dropped: its NaN must fail the
        # check, not give way to the d = 1/2 value
        original = verify.surfkit.construct

        def construct(surface, kind, d=0.0):
            S = original(surface, kind, d)
            if kind == "offset" and d < 0:
                nan = lambda u, v: np.full(np.shape(u) + (3,), math.nan)
                return type("NaNSurface", (), {"domain": S.domain, "point": staticmethod(nan)})
            return S

        monkeypatch.setattr(verify.surfkit, "construct", construct)
        assert cli.main(["verify", "--suite", "all", "--seed", "7"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert "residual_sphere-offset.offset_dev=nan" in out
        failed = [line for line in out if line.endswith(".pass=false")]
        assert failed == ["residual_sphere-offset.pass=false"]
