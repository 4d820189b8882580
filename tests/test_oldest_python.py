"""The numpy-free commands on the oldest Python that pyproject.toml names (3.10).

The commands that run on the exact layer alone (``implicit`` from every
source, ``--help`` and the input errors) and ``map`` with the single-tuple
maps load no numpy, so they need only the standard library.  Each runs
under a 3.10 interpreter and under this one, and both runs must give the
same stdout, stderr and exit code.  The float layer needs numpy and is not
run here; nor is ``map --op alpha-z``, whose affine plane takes numpy's dot
products (a 3-term numpy dot rounds as a chain of fused multiply-adds,
which plain floats do not reproduce).  Where no 3.10 interpreter
runs, every test is skipped with the interpreters that were tried.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
OLDEST = (3, 10)


def _candidates():
    """python3.10 on the PATH, then the 3.10 installations of pyenv."""
    found = shutil.which("python3.10")
    if found:
        yield found
    versions = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"
    yield from map(str, sorted(versions.glob("3.10*/bin/python3.10")))


@pytest.fixture(scope="module")
def oldest():
    """Path of the first candidate that runs and reports 3.10."""
    tried = []
    for path in _candidates():
        res = subprocess.run([path, "-c", "import sys; print(*sys.version_info[:2])"],
                             capture_output=True, text=True)
        if res.returncode == 0 and res.stdout.split() == list(map(str, OLDEST)):
            return path
        tried.append(f"{path} (exit {res.returncode}, {res.stdout.strip() or 'no version'})")
    pytest.skip(f"no Python 3.10 interpreter runs here; tried: {', '.join(tried) or 'none'}")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The input files, by the names the cases use."""
    tmp = tmp_path_factory.mktemp("inputs")
    files = {
        "dense.txt": "(x0 + 2*x1 - x2/3 + x3)^4 - 7/5*x0*x1*x2*x3",
        "dual.cfg": "[surface]\nkind = quadric\nspace = dual\n"
                    "matrix = -1 -2 0 1/3; -2 -3 0 0; 0 0 1 5/2; 1/3 0 5/2 1\n",
        "point.cfg": "[surface]\nkind = quadric\nspace = point\n"
                     "matrix = 3 -2 0 0; -2 1 1/2 0; 0 1/2 1 0; 0 0 0 1\n",
    }
    for name, text in files.items():
        (tmp / name).write_text(text)
    return tmp


PEDAL = ("implicit", "--direction", "pedal")
INVERSE = ("implicit", "--direction", "inverse-pedal")
# id: (arguments, stdin, exit code); a FILE: argument names an input file
CASES = {
    "poly": ((*PEDAL, "--poly", "u0*u1^2 + u0*u2^2 - 2*u1*u2*u3"), None, 0),
    "poly-strip": ((*PEDAL, "--strip", "--poly", "u0*u1^2 + u0*u2^2 - 2*u1*u2*u3"), None, 0),
    "in-strip": ((*INVERSE, "--strip", "--in", "FILE:dense.txt"), None, 0),
    "stdin-strip": ((*PEDAL, "--strip"), "(u0 - 2*u1 + u2/3)^3 + u3^3", 0),
    "surface-dual": ((*PEDAL, "--surface", "FILE:dual.cfg"), None, 0),
    "surface-dual-strip": ((*PEDAL, "--strip", "--surface", "FILE:dual.cfg"), None, 0),
    "surface-point": ((*INVERSE, "--surface", "FILE:point.cfg"), None, 0),
    "surface-point-strip": ((*INVERSE, "--strip", "--surface", "FILE:point.cfg"), None, 0),
    "help": (("--help",), None, 0),
    "usage-error": (("implicit", "--direction", "sideways"), None, 1),
    "deep-nesting": ((*PEDAL, "--poly", "(" * 250 + "u0" + ")" * 250), None, 1),
    "map-alpha": (("map", "--op", "alpha", "--plane", "-1,0.5,-2/3,1e-3"), None, 0),
    "map-alpha-star": (("map", "--op", "alpha-star", "--point", "3,1,-2,0.25"), None, 0),
    "map-sigma-dehomogenize": (("map", "--op", "sigma", "--point", "1/3,2,-1,0",
                                "--dehomogenize"), None, 0),
    "map-pi": (("map", "--op", "pi", "--plane", "-1,0,0,1"), None, 0),
    "map-pi-star": (("map", "--op", "pi-star", "--point", "-0,7,1e-300,-5"), None, 0),
    "map-ideal-plane": (("map", "--op", "alpha", "--plane", "1,0,0,0"), None, 2),
    "map-three-fields": (("map", "--op", "alpha", "--plane", "1,0,0"), None, 1),
}


def _run(python, args, stdin):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1",
               COLUMNS="80")
    res = subprocess.run([python, "-m", "pedalis", *args], capture_output=True, text=True,
                         input=stdin, env=env, cwd=ROOT)
    return res.returncode, res.stdout, res.stderr


@pytest.mark.parametrize("case", CASES)
def test_same_output_as_this_python(oldest, inputs, case):
    args, stdin, code = CASES[case]
    args = [str(inputs / a[5:]) if a.startswith("FILE:") else a for a in args]
    got = _run(oldest, args, stdin)
    assert got[0] == code, got[2]
    assert got == _run(sys.executable, args, stdin)
