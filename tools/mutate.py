"""Mutation runner: does ``pedalis verify --suite all`` catch a wrong kernel?

    python tools/mutate.py

Run it from the root of a source checkout, with numpy installed: ``verify``
needs it.  On Python 3.10 only the mutants' rewriting and compiling has
been run, and of pedalis only the exact layer (tests/test_oldest_python.py);
the runner itself has been run on 3.11.  For each mutant in ``MUTANTS`` it copies ``src/`` to a
temporary directory, rewrites one expression of one function through
``ast`` and runs ``verify --suite all --seed 7`` on the copy.  A mutant is

* killed when verify exits non-zero (the failed checks are listed),
* surviving when verify passes,
* not compiling when the rewritten module does not compile,
* missing when its target text is no longer in its function.

The unmutated copy must pass verify first.  The rewritten module is
written back with ``ast.unparse``, so it loses its comments; nothing else
changes.  This script is not part of the test suite: it runs one verify
process per mutant.
"""

from __future__ import annotations

import ast
import copy
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7


@dataclass(frozen=True)
class Mutant:
    """Rewrite the first expression of ``function`` in ``module`` whose
    ``ast.unparse`` text is ``target``.

    ``kind`` is ``flip`` (swap + and -, or negate), ``swap`` (exchange the
    elements i and j of a tuple or call, or the branches of an if-else
    expression), ``scale`` (multiply a constant or an expression by 1.0001),
    ``shift`` (add 1 to an integer expression), ``unwrap`` (replace a
    call by its first argument), ``muldiv`` (swap * and /), ``one``
    (replace an expression by 1) or ``replace`` (replace an expression by
    the expression ``text``).
    """

    name: str
    module: str
    function: str  # "name" or "Class.method"
    target: str
    kind: str
    swap: tuple[int, int] = (0, 1)
    text: str = ""


MUTANTS = [
    # surfkit: charts, envelope and the point-form constructs
    Mutant("conchoid sign", "surfkit", "point_conchoid",
           "1.0 + d / np.sqrt(rowdot(p, p))", "flip"),
    Mutant("offset sign", "surfkit", "point_offset",
           "G.point(u, v) + d * n / np.sqrt(rowdot(n, n))[..., None]", "flip"),
    Mutant("pedal foot point scaled", "surfkit", "dual_to_point", "alpha_affine(n, e)", "scale"),
    Mutant("shifted chart sign", "surfkit", "_shift_chart", "np.asarray(e(u, v), float) + d",
           "flip"),
    Mutant("envelope rows n_u, n_v swapped", "surfkit", "envelope_solve",
           "(F.n(u, v), F.n.du(u, v), F.n.dv(u, v))", "swap", (1, 2)),
    Mutant("envelope rhs e_u, e_v swapped", "surfkit", "envelope_solve",
           "(F.e(u, v), F.e.du(u, v), F.e.dv(u, v))", "swap", (1, 2)),
    Mutant("inverse pedal e_u scaled", "surfkit", "point_to_dual",
           "2.0 * rowdot(g(u, v), g.du(u, v))", "scale"),
    Mutant("inverse pedal e_v scaled", "surfkit", "point_to_dual",
           "2.0 * rowdot(g(u, v), g.dv(u, v))", "scale"),
    Mutant("inverse pedal plane scaled", "surfkit", "point_to_dual", "rowdot(p, p)", "scale"),
    Mutant("offset_map distance sign", "surfkit", "offset_map", "d", "flip"),
    Mutant("conchoid_map distance sign", "surfkit", "conchoid_map", "d", "flip"),
    Mutant("polar point scaled", "surfkit", "PolarSurface.point",
           "r[..., None] * np.asarray(self.s(u, v), dtype=float)", "scale"),
    Mutant("dual htuple offset sign", "surfkit", "DualSurface.htuple", "-e[..., None]", "flip"),
    Mutant("tangent plane support scaled", "surfkit", "tangent_planes",
           "rowdot(np.asarray(g(u, v), float), n(u, v))", "scale"),
    Mutant("grid drop test without abs", "surfkit", "sample_grid", "np.abs(block)", "unwrap"),
    # projmaps: the projective maps
    Mutant("quadratic map sign", "projmaps", "_quadratic_rows",
           "sign * (x1 * x1 + x2 * x2 + x3 * x3)", "flip"),
    Mutant("quadratic map vector part scaled", "projmaps", "_quadratic_rows", "V[:, :1] * V",
           "scale"),
    Mutant("polarity sign", "projmaps", "pi_rows", "-img[:, 0]", "flip"),
    # the plain-float single-tuple maps, which verify's single_dev keys compare with the rows
    Mutant("scalar quadratic map sign", "projmaps", "_quadratic",
           "sign * (x1 * x1 + x2 * x2 + x3 * x3)", "flip"),
    Mutant("scalar canonical sign from the last lead component", "projmaps",
           "_HTuple.canonical", "copysign(1.0, lead)", "replace",
           text="copysign(1.0, next(c for c in reversed(v) if abs(c) >= EPS_EXCEPTIONAL))"),
    Mutant("affine foot point scaled", "projmaps", "alpha_affine",
           "np.asarray(e, dtype=float) / rowdot(n, n)", "scale"),
    # grammar: the text grammar of polynomials and config charts
    Mutant("text sum and difference swapped", "grammar", "parse_text",
           "hooks.add if op == '+' else hooks.sub", "swap"),
    # hompoly: the exact algebra
    Mutant("offset family sign", "hompoly", "offset_dual_poly", "-p * p", "flip"),
    Mutant("offset family q power", "hompoly", "offset_dual_poly", "m - j", "flip"),
    # the packed keys: e0 << 24 | e1 << 16 | e2 << 8 | e3
    Mutant("pullback variables swapped", "hompoly", "_pullback", "e & _LOW", "replace",
           text="(e >> _W & _SLOT) << 2 * _W | (e >> 2 * _W & _SLOT) << _W | e & _SLOT"),
    # inverted, not only relaxed: relaxed, the loop runs long division on the key
    # as one int, which still ends in NotDivisible where the quadform does not divide
    Mutant("division accepts a negative quotient slot", "hompoly", "_divide_terms",
           "(lead | _GUARD) - l & _GUARD != _GUARD", "replace",
           text="(lead | _GUARD) - l & _GUARD == _GUARD"),
    Mutant("eval_grid odd sign", "hompoly", "HomPoly4.eval_grid",
           "np.copysign(p, T[:, i]) if e % 2 else p", "swap"),
    Mutant("eval_grid coefficient scaled", "hompoly", "HomPoly4.eval_grid", "n / den", "scale"),
    Mutant("eval_grid coefficient times denominator", "hompoly", "HomPoly4.eval_grid",
           "n / den", "muldiv"),
    Mutant("monomial run coefficient sign", "hompoly", "_PolyHooks.monomial",
           "Fraction(int(p), int(q)) if q else int(p)", "flip"),
    # the increments later runs of a text sum: "u1^e" -> e in the u1 slot
    Mutant("run increment exponent off by one", "hompoly", "_PolyHooks._run_key",
           "e << _RUN_DEGREE | e << shift", "replace", text="e << _RUN_DEGREE | e + 1 << shift"),
    # a '-' run of a run sum keyed as '+'; no text verify parses reaches _PolyHooks.sub
    Mutant("text difference not negated", "hompoly", "_PolyHooks.monomial", "-coeff", "flip"),
    Mutant("kernel result degree off by one", "hompoly", "HomPoly4._trusted",
           "_degree(next(iter(nums)))", "shift"),
    Mutant("kernel result left unreduced", "hompoly", "HomPoly4._trusted",
           "math.gcd(den, *nums.values())", "one"),
    # every comparison of verify but focal_factorization meets at scale +-1
    Mutant("scale factor inverted", "hompoly", "HomPoly4.equals_up_to_scale",
           "(theirs[lead], mine[lead])", "swap"),
    # the construction modules
    Mutant("ruled point scaled", "ruledpedal", "RuledChart.point",
           "v * np.asarray(self.e(u), float)", "scale"),
    Mutant("ruled offset support sign", "ruledpedal", "RuledOffsetSurface.__init__",
           "rowdot(f, n) + d * (y0 / y1)", "flip"),
    Mutant("striction parameter sign", "ruledpedal", "striction_frame",
           "-rowdot(n1, n2) / rowdot(n2, n2)", "flip"),
    Mutant("polar pedal radius scaled", "ruledpedal", "polar_pedal_of_ruled",
           "rowdot(f, n) / (y0 / y1)", "scale"),
    Mutant("foot point scaled", "ruledpedal", "footpoint_curve",
           "rowdot(c, e) / rowdot(e, e)", "scale"),
    Mutant("bisector factor scaled", "quadricpedal", "bisector_from_inverse_pedal", "0.5",
           "scale"),
    Mutant("pentaspherical lift sign", "quadricpedal", "pentaspherical_point", "s - 1.0", "flip"),
    Mutant("cyclide coupling sign", "quadricpedal", "_cyclide_form",
           "x0 * x0 * diag - x0 * q * bee", "flip"),
    # the v0*v1 coupling of the named quadrics; closed_form compares the sphere's cyclide
    Mutant("quadric coupling sign", "quadricpedal", "normalized_quadric", "b1", "flip"),
    # gallery: the charts and the exact parts of the entries
    Mutant("paraboloid support sign", "gallery", "paraboloid_offset_chart",
           "-_numer(s, t) / (2.0 * af * bf * np.sin(t))", "flip"),
    # wrong analytic partials that the gallery defaults a = b = c = 1 hide;
    # residual_paraboloid-pedal.generic_residual rebuilds the entry at a != b
    Mutant("paraboloid e_s numerator over cos^2", "gallery", "paraboloid_offset_chart",
           "(af - bf) * np.sin(2.0 * s) * (ct * ct)", "muldiv"),
    Mutant("paraboloid e_s times denominator", "gallery", "paraboloid_offset_chart",
           "-dn / (2.0 * af * bf * np.sin(t))", "muldiv"),
    Mutant("paraboloid e_t 4/a", "gallery", "paraboloid_offset_chart", "4.0 * af", "muldiv"),
    # sphere-offset's dual_family, at R - d; offset_family is even in d and misses it
    Mutant("sphere offset family sign", "galleryexact", "sphere_offset", "Rf + Fraction(d)",
           "flip"),
    Mutant("parabola cyclide family scaled", "galleryexact", "parabola_cyclide",
           "4 * af * af * d * d", "scale"),
    Mutant("pluecker conchoid family scaled", "galleryexact", "pluecker",
           "w2_pt ** 2 * (X0 * X3) ** 2 * d ** 2", "scale"),
    Mutant("cylinder closed form scaled", "galleryexact", "quadratic_cylinder", "2.0 * v",
           "scale"),
]


def _function(tree: ast.Module, qualname: str):
    scope = tree
    for part in qualname.split("."):
        scope = next((node for node in scope.body
                      if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == part),
                     None)
        if scope is None:
            raise LookupError(f"no {qualname}")
    return scope


def _rewrite(node: ast.expr, mutant: Mutant) -> ast.expr:
    if mutant.kind == "flip":
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
            node.op = ast.Sub() if isinstance(node.op, ast.Add) else ast.Add()
            return node
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return node.operand
        return ast.UnaryOp(ast.USub(), node)
    if mutant.kind == "swap":
        if isinstance(node, ast.IfExp):
            node.body, node.orelse = node.orelse, node.body
            return node
        items = node.elts if isinstance(node, (ast.Tuple, ast.List)) else node.args
        i, j = mutant.swap
        items[i], items[j] = items[j], items[i]
        return node
    if mutant.kind == "scale":
        if isinstance(node, ast.Constant):
            return ast.Constant(node.value * 1.0001)
        return ast.BinOp(ast.Constant(1.0001), ast.Mult(), node)
    if mutant.kind == "shift":
        return ast.BinOp(node, ast.Add(), ast.Constant(1))
    if mutant.kind == "unwrap":
        return node.args[0]
    if mutant.kind == "muldiv":
        node.op = ast.Div() if isinstance(node.op, ast.Mult) else ast.Mult()
        return node
    if mutant.kind == "one":
        return ast.Constant(1)
    if mutant.kind == "replace":
        return ast.parse(mutant.text, mode="eval").body
    raise ValueError(f"unknown mutation kind {mutant.kind!r}")


def mutate_source(source: str, mutant: Mutant) -> str:
    """The module text with the mutant applied; LookupError if its target is missing."""
    tree = ast.parse(source)
    func = _function(tree, mutant.function)
    for parent in ast.walk(func):
        for field, value in ast.iter_fields(parent):
            values = value if isinstance(value, list) else [value]
            for k, child in enumerate(values):
                if isinstance(child, ast.expr) and ast.unparse(child) == mutant.target:
                    new = _rewrite(copy.deepcopy(child), mutant)
                    if isinstance(value, list):
                        value[k] = new
                    else:
                        setattr(parent, field, new)
                    return ast.unparse(ast.fix_missing_locations(tree))
    raise LookupError(f"{mutant.target!r} not found in {mutant.module}.{mutant.function}")


def run_verify(src: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-m", "pedalis", "verify", "--suite", "all",
                           "--seed", str(SEED)], cwd=ROOT, capture_output=True, text=True,
                          env=env, timeout=300)


def failed_checks(proc: subprocess.CompletedProcess) -> str:
    failed = [line.split(".pass=")[0] for line in proc.stdout.splitlines()
              if line.endswith(".pass=false")]
    if failed:
        return ", ".join(failed)
    lines = proc.stderr.strip().splitlines()
    return f"exit {proc.returncode}: {lines[-1] if lines else 'no output'}"


def main() -> int:
    results = {"killed": [], "surviving": [], "not compiling": [], "missing": []}
    with tempfile.TemporaryDirectory(prefix="pedalis-mutate-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        base = run_verify(src)
        if base.returncode != 0:
            print(f"unmutated verify fails ({failed_checks(base)}); nothing to measure")
            return 2
        for m in MUTANTS:
            path = src / "pedalis" / f"{m.module}.py"
            original = path.read_text()
            try:
                text = mutate_source(original, m)
                compile(text, str(path), "exec")
            except SyntaxError as exc:
                results["not compiling"].append(m.name)
                print(f"not compiling  {m.name}: {exc}")
                continue
            except LookupError as exc:
                results["missing"].append(m.name)
                print(f"missing        {m.name}: {exc}")
                continue
            path.write_text(text)
            try:
                proc = run_verify(src)
            finally:
                path.write_text(original)
            if proc.returncode != 0:
                results["killed"].append(m.name)
                print(f"killed         {m.name}: {failed_checks(proc)}")
            else:
                results["surviving"].append(m.name)
                print(f"surviving      {m.name}")
    total = len(MUTANTS)
    print(f"killed {len(results['killed'])} of {total} by verify "
          f"({100.0 * len(results['killed']) / total:.0f}%)")
    for outcome in ("surviving", "not compiling", "missing"):
        print(f"{outcome}: {', '.join(results[outcome]) or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
