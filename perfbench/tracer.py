"""Span tracing of pedalis from outside the package.

``install()`` wraps the public functions of every pedalis layer module
(and the chart evaluation methods of ``surfkit.Chart``) in timing
wrappers.  Each wrapper is bound in every ``pedalis.*`` namespace that
held the original function, so calls made through ``from .x import f``
bindings are caught as well.  Each wrapped call records a span (name,
start, end, parent span, op id) in flat in-memory arrays; ``Tracer.dump``
writes them out once the traced run ends and ``per_layer_metrics`` turns
span files into per-layer metrics.  cli_op.py and algebra_driver.py
install it in the processes they run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from array import array

import numpy as np

LAYERS = ("projmaps", "hompoly", "surfkit", "gallery", "ruledpedal", "quadricpedal",
          "sphereatlas", "cli")

# Classes whose public methods count as layer entry points.  HomPoly4
# arithmetic is left out: it runs inside every polynomial operation and is
# attributed to the hompoly function (or caller) that uses it.
_METHOD_CLASSES = {
    "projmaps": ("HPoint", "HPlane", "AffPlane", "_HTuple"),
    "ruledpedal": None,      # every public class of the module
    "quadricpedal": None,
    "sphereatlas": None,
}
_CHART_METHODS = ("__call__", "du", "dv")


class Tracer:
    """In-memory span store shared by all wrappers of one process."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op_id = 0
        self.counters: dict[str, float] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(name.split(".", 1)[0])
        return self._ids[name]

    def count(self, key: str, amount: float = 1.0):
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def dump(self, path: str):
        np.savez(
            path,
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            meta=np.array(json.dumps({"names": self.names, "counters": self.counters})),
        )


def _wrap(tracer: Tracer, fn, span: str, geometry_error, after=None):
    nid = tracer.name_id(span)
    layer = span.split(".", 1)[0]
    layer_of = tracer.layer_of
    names, parents, ops = tracer.name, tracer.parent, tracer.op
    starts, ends, stack = tracer.start, tracer.end, tracer.stack
    clock = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = len(starts)
        parent = stack[-1]
        # errors and term counts are booked once, where a call leaves its layer
        outer = parent < 0 or layer_of[names[parent]] != layer
        names.append(nid)
        parents.append(parent)
        ops.append(tracer.op_id)
        ends.append(0.0)
        stack.append(idx)
        starts.append(clock())
        try:
            result = fn(*args, **kwargs)
        except geometry_error:
            ends[idx] = clock()
            stack.pop()
            tracer.count(span + ".errors")
            if outer:
                tracer.count(layer + ".errors")
            raise
        except BaseException:
            ends[idx] = clock()
            stack.pop()
            raise
        ends[idx] = clock()
        stack.pop()
        if after is not None and outer:
            after(tracer, args, result)
        return result

    return wrapper


def _after_parse(tracer, args, result):
    tracer.count("hompoly.terms_in", len(result.terms))


def _after_format(tracer, args, result):
    tracer.count("hompoly.terms_out", len(args[0].terms))


def _after_sample_mesh(tracer, args, result):
    nu, nv = args[1], args[2]
    tracer.count("surfkit.sample_mesh.grid_points", nu * nv)
    tracer.count("surfkit.sample_mesh.vertices", len(result.vertices))


def _after_write_obj(tracer, args, result):
    target = args[1]
    if isinstance(target, (str, bytes, os.PathLike)):
        tracer.count("surfkit.write_obj.bytes", os.path.getsize(target))


# Terms cross the exact-algebra layer as text: parse_poly reads them in,
# format_poly writes them out.
_AFTER = {
    "hompoly.parse_poly": _after_parse,
    "hompoly.format_poly": _after_format,
    "surfkit.sample_mesh": _after_sample_mesh,
    "surfkit.write_obj": _after_write_obj,
}


def _public_functions(mod):
    for name, obj in vars(mod).items():
        if (not name.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__):
            yield name, obj


def install(tracer: Tracer):
    """Wrap every layer entry point in every pedalis namespace that binds it."""
    from pedalis.errors import GeometryError

    mods = {layer: importlib.import_module(f"pedalis.{layer}") for layer in LAYERS}
    replacements = {}  # id(original) -> wrapper
    for layer, mod in mods.items():
        if layer == "cli":
            fns = [("main", mod.main)]
        else:
            fns = list(_public_functions(mod))
        for name, fn in fns:
            span = f"{layer}.{name}"
            after = _AFTER.get(span)
            replacements[id(fn)] = (fn, _wrap(tracer, fn, span, GeometryError, after))
        classes = _METHOD_CLASSES.get(layer, ())
        if classes is None:
            classes = [n for n, c in vars(mod).items()
                       if inspect.isclass(c) and c.__module__ == mod.__name__
                       and not n.startswith("_")]
        for cname in classes:
            cls = getattr(mod, cname)
            for mname, attr in list(vars(cls).items()):
                if mname.startswith("_"):
                    continue
                span = f"{layer}.{cname}.{mname}"
                if isinstance(attr, classmethod):
                    setattr(cls, mname, classmethod(
                        _wrap(tracer, attr.__func__, span, GeometryError)))
                elif inspect.isfunction(attr):
                    setattr(cls, mname, _wrap(tracer, attr, span, GeometryError))
    chart = mods["surfkit"].Chart
    for mname in _CHART_METHODS:
        setattr(chart, mname, _wrap(tracer, vars(chart)[mname],
                                    f"surfkit.Chart.{mname}", GeometryError))
    for modname, mod in list(sys.modules.items()):
        if modname != "pedalis" and not modname.startswith("pedalis."):
            continue
        for attr, val in list(vars(mod).items()):
            hit = replacements.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(mod, attr, hit[1])


# -- aggregation -----------------------------------------------------------------

_HOMPOLY_GROUPS = {
    "hompoly.parse_poly": "hompoly.parse_poly",
    "hompoly.format_poly": "hompoly.format_poly",
    "hompoly.pedal_pullback": "hompoly.pullback",
    "hompoly.inverse_pedal_pullback": "hompoly.pullback",
    "hompoly.strip_exceptional": "hompoly.strip_exceptional",
    "hompoly.offset_dual_poly": "hompoly.offset_dual_poly",
}


def _group(span: str) -> str | None:
    if span in _HOMPOLY_GROUPS:
        return _HOMPOLY_GROUPS[span]
    if span.startswith("surfkit.Chart."):
        return "surfkit.chart_eval"
    if span in ("surfkit.envelope_solve", "surfkit.commutation_check",
                "surfkit.sample_mesh", "surfkit.write_obj",
                "gallery.residual_report", "gallery.get_entry"):
        return span
    return None


def per_layer_metrics(span_files) -> dict[str, float]:
    """Per-layer calls, self times and counters summed over span files."""
    calls: dict[str, float] = {}
    self_s: dict[str, float] = {}
    counters: dict[str, float] = {}
    for path in span_files:
        with np.load(path) as data:
            meta = json.loads(str(data["meta"]))
            name, parent = data["name"], data["parent"]
            dur = data["end"] - data["start"]
        for key, val in meta["counters"].items():
            counters[key] = counters.get(key, 0.0) + val
        if not len(dur):
            continue
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        own = dur - covered
        n_calls = np.bincount(name, minlength=len(meta["names"]))
        own_by_name = np.bincount(name, weights=own, minlength=len(meta["names"]))
        for i, span in enumerate(meta["names"]):
            keys = [span.split(".", 1)[0]]
            group = _group(span)
            if group is not None:
                keys.append(group)
            for key in keys:
                calls[key] = calls.get(key, 0.0) + float(n_calls[i])
                self_s[key] = self_s.get(key, 0.0) + float(own_by_name[i])

    def c(key):
        return calls.get(key, 0.0)

    def s(key):
        return self_s.get(key, 0.0)

    def n(key):
        return counters.get(key, 0.0)

    grid = n("surfkit.sample_mesh.grid_points")
    out = {
        "projmaps.calls": c("projmaps"),
        "projmaps.self_s": s("projmaps"),
        "projmaps.errors": n("projmaps.errors"),
        "hompoly.calls": c("hompoly"),
        "hompoly.self_s": s("hompoly"),
    }
    for group in ("parse_poly", "format_poly", "pullback", "strip_exceptional",
                  "offset_dual_poly"):
        out[f"hompoly.{group}.self_s"] = s(f"hompoly.{group}")
    out.update({
        "hompoly.terms_in": n("hompoly.terms_in"),
        "hompoly.terms_out": n("hompoly.terms_out"),
        "surfkit.chart_eval.calls": c("surfkit.chart_eval"),
        "surfkit.chart_eval.self_s": s("surfkit.chart_eval"),
        "surfkit.envelope_solve.calls": c("surfkit.envelope_solve"),
        "surfkit.envelope_solve.self_s": s("surfkit.envelope_solve"),
        "surfkit.envelope_solve.errors": n("surfkit.envelope_solve.errors"),
        "surfkit.commutation_check.self_s": s("surfkit.commutation_check"),
        "surfkit.sample_mesh.self_s": s("surfkit.sample_mesh"),
        "surfkit.sample_mesh.kept_ratio":
            n("surfkit.sample_mesh.vertices") / grid if grid else 0.0,
        "surfkit.write_obj.self_s": s("surfkit.write_obj"),
        "surfkit.write_obj.bytes": n("surfkit.write_obj.bytes"),
        "gallery.residual_report.calls": c("gallery.residual_report"),
        "gallery.residual_report.self_s": s("gallery.residual_report"),
        "gallery.get_entry.self_s": s("gallery.get_entry"),
        "ruledpedal.calls": c("ruledpedal"),
        "ruledpedal.self_s": s("ruledpedal"),
        "quadricpedal.calls": c("quadricpedal"),
        "quadricpedal.self_s": s("quadricpedal"),
        "sphereatlas.calls": c("sphereatlas"),
        "cli.self_s": s("cli"),
    })
    return out
