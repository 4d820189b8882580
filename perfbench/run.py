"""pedalis benchmark: closed loop, one client, one op at a time.

    python3 perfbench/run.py --workload {verify,mesh,algebra} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; the benchmark uses ``src/`` as
is, with nothing installed.  Workloads (see NOTES.md for why each exists):

* verify:  ``pedalis verify --suite all`` in a subprocess
* mesh:    ``pedalis sample`` subprocesses writing OBJ files
* algebra: exact polynomial ops through the public API, in one driver process

A run builds its seeded op list, then runs passes over it until another
pass would overrun ``--seconds`` (at least one pass).  Every op's output
is checked outside the timed region; a wrong output counts as a failed op.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` runs one
untraced and one traced pass and reports the per-layer metrics.  Human
readable ``metric`` lines precede the final JSON line.

The run is pinned to one CPU, and op times are normalized to a reference
core speed measured by the probe in speed.py; NOTES.md gives the reason.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedProbe  # noqa: E402

# no-op runs that time set-up, half before and half after the workload
SETUP_RUNS = 12
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_tail_s": "s",
             "vertices_per_s": "1/s", "terms_per_s": "1/s", "fail_frac": "ratio",
             "peak_rss_mb": "MB"}


def _reap(proc) -> int:
    """Wait for a child and return its exit code; kill it if interrupted."""
    try:
        return proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def _read_peak(path: str) -> int:
    """Peak RSS in KiB that a child wrote at exit (0 if it wrote none)."""
    try:
        with open(path, encoding="ascii") as fh:
            return int(fh.read())
    except (OSError, ValueError):
        return 0
    finally:
        if os.path.exists(path):
            os.remove(path)


class Runner:
    """Runs the ops of one workload; collects op intervals, outputs and failures."""

    def __init__(self, workload: str, seed: int, work: str):
        self.workload = workload
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""),
                        PYTHONHASHSEED="0")
        self.env.pop("PEDALIS_SEED", None)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.peak_rss_kb = 0
        self.check_rng = random.Random(seed ^ 0x5EED)
        self.selftest: dict[str, bool] = {}  # corrupted output -> checker flagged it
        self.first: dict = {}          # op index -> checked output of the first pass
        self.setup_spans: list[tuple[float, float]] = []

    def fail(self, label: str, problems: list[str]):
        self.failed += 1
        self.problems.append(f"{label}: {'; '.join(problems)}")

    def spawn(self, argv: list[str], spans: str | None = None, op_id: int = 0):
        """Run one pedalis CLI process; ((start, end), exit code, stdout)."""
        peak_path = os.path.join(self.work, "peak.txt")
        trace_args = [spans, str(op_id)] if spans else []
        cmd = [sys.executable, os.path.join(HERE, "cli_op.py"), peak_path, *trace_args,
               "--", *argv]
        with open(os.path.join(self.work, "stdout.txt"), "w+b") as out, \
                open(os.devnull, "wb") as err:
            t0 = time.perf_counter()
            code = _reap(subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env,
                                          cwd=self.work))
            t1 = time.perf_counter()
            out.seek(0)
            stdout = out.read().decode("utf-8", "replace")
        peak = _read_peak(peak_path)
        if not spans:  # the tracer's own memory is not the program's
            self.peak_rss_kb = max(self.peak_rss_kb, peak)
        return (t0, t1), code, stdout

    def noop_runs(self, count: int, warmup: bool):
        """Time ``count`` no-op CLI runs (after one untimed warm-up run if asked).

        The no-op runs count as attempted ops and their output is checked.
        """
        for i in range(count + warmup):
            span, code, stdout = self.spawn(workloads.NOOP)
            self.attempted += 1
            if code != 0 or stdout.strip() != workloads.NOOP_OUTPUT:
                self.fail("setup no-op", [f"exit {code}, output {stdout.strip()!r}"])
            if i or not warmup:
                self.setup_spans.append(span)


# -- workloads -----------------------------------------------------------------------


def run_passes(run_pass, seconds: float):
    """Call run_pass() until another pass would overrun ``seconds``."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass())
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def verify_pass(runner: Runner, ops, traced: str | None):
    spans = []
    for i, op in enumerate(ops):
        argv = ["verify", "--suite", "all", "--seed", str(op["seed"])]
        span, code, stdout = runner.spawn(argv, traced and os.path.join(traced, f"op{i}.npz"), i)
        runner.attempted += 1
        spans.append(span)
        problems = checks.check_verify(code, stdout, op["seed"])
        if problems:
            runner.fail(f"verify seed={op['seed']}", problems)
        elif not runner.selftest:
            runner.selftest = checks.selftest_verify(stdout, op["seed"])
    return {"spans": spans, "units": 0}


def mesh_check_poly(op):
    """Exact point equation of an op's surface from the gallery, or None."""
    if op["check"] is None:
        return None
    if SRC not in sys.path:
        sys.path.insert(1, SRC)
    from pedalis import gallery

    entry = gallery.get_entry("plane-conchoid" if op["surface"] == "config" else op["surface"])
    if op["check"] == "point_poly":
        poly = entry.point_poly
    elif op["check"] == "inverse_pedal_implicit":
        poly = entry.extras["result"].implicit
    else:  # point_family: the conchoid at the op's distance
        poly = entry.point_family(Fraction(op["d"]))
    return dict(poly.terms)


def mesh_pass(runner: Runner, ops, traced: str | None):
    spans, vertices = [], 0
    for i, op in enumerate(ops):
        surface = op["surface"]
        if surface == "config":
            surface = os.path.join(runner.work, f"op{i}.cfg")
            with open(surface, "w", encoding="utf-8") as fh:
                fh.write(workloads.config_text(op))
        out = os.path.join(runner.work, f"op{i}.obj")
        span, code, stdout = runner.spawn(workloads.mesh_argv(op, surface, out),
                                          traced and os.path.join(traced, f"op{i}.npz"), i)
        runner.attempted += 1
        spans.append(span)
        label = f"sample {op['surface']} {op['construct']}:{op['d']} {op['grid']}"
        obj = b""
        if code == 0 and os.path.exists(out):
            with open(out, "rb") as fh:
                obj = fh.read()
            os.remove(out)
        digest = hashlib.sha256(stdout.encode() + obj).hexdigest()
        if i in runner.first:
            # same op, same inputs: the output must repeat byte for byte
            if digest != runner.first[i][0]:
                runner.fail(label, ["output differs from the checked first pass"])
            vertices += runner.first[i][1]
            continue
        poly = mesh_check_poly(op)
        text = obj.decode("ascii", "replace")
        problems, n_vert = checks.check_obj(code, stdout, text, out, op["grid"], poly,
                                            runner.check_rng)
        if problems:
            runner.fail(label, problems)
            continue
        runner.first[i] = (digest, n_vert)
        vertices += n_vert
        if not runner.selftest:
            runner.selftest = checks.selftest_obj(code, stdout, text, out, op["grid"], poly)
    return {"spans": spans, "units": vertices}


def run_algebra(runner: Runner, ops, seconds: float, traced: str | None):
    """Run the algebra driver process; return its passes."""
    ops_path = os.path.join(runner.work, "ops.json")
    results_path = os.path.join(runner.work, "results.json")
    with open(ops_path, "w", encoding="utf-8") as fh:
        json.dump([{k: v for k, v in op.items() if k != "input"} for op in ops], fh)
    spans = traced and os.path.join(traced, "algebra.npz")
    cmd = [sys.executable, os.path.join(HERE, "algebra_driver.py"), ops_path, results_path,
           str(seconds), *([spans] if spans else [])]
    with open(os.devnull, "wb") as sink:
        code = _reap(subprocess.Popen(cmd, stdout=sink, stderr=sink, env=runner.env,
                                      cwd=runner.work))
    if code != 0:
        runner.attempted += len(ops)
        runner.failed += len(ops)
        runner.problems.append(f"algebra driver: exit code {code}")
        return []
    with open(results_path, encoding="utf-8") as fh:
        results = json.load(fh)
    if not traced:
        runner.peak_rss_kb = max(runner.peak_rss_kb, results["peak_kb"])
    terms = 0
    for i, (op, out) in enumerate(zip(ops, results["outputs"])):
        label = f"{op['kind']} degree {op['degree']}"
        if traced:
            problems = [] if out["text"] == runner.first.get(i) else \
                ["output differs from the checked untraced output"]
        else:
            problems = checks.check_algebra(op, out, runner.check_rng)
            if not problems:
                runner.first[i] = out["text"]
                if not runner.selftest:
                    runner.selftest = checks.selftest_algebra(op, out)
        if problems:
            runner.fail(label, problems)
        terms += out["text"].count(" ") // 2 + 1
    for p in results["passes"]:
        runner.attempted += len(p["spans"])
        for i in p["mismatches"]:
            runner.fail(f"algebra op {i}", ["output differs from the checked first pass"])
    return [{"spans": p["spans"], "units": terms} for p in results["passes"]]


def run_workload(runner: Runner, ops, seconds: float, traced: str | None = None):
    if runner.workload == "algebra":
        return run_algebra(runner, ops, seconds, traced)
    one_pass = verify_pass if runner.workload == "verify" else mesh_pass
    return run_passes(lambda: one_pass(runner, ops, traced), seconds)


# -- metrics -------------------------------------------------------------------------


def tail(times):
    """Highest percentile with at least ten samples beyond it: (value, pct, n)."""
    n = len(times)
    if n < 11:
        return None, None, n
    return sorted(times)[n - 11], 100.0 * (n - 10) / n, n


def pass_wall(probe: SpeedProbe, p, raw: bool = False) -> float:
    return sum(t1 - t0 if raw else probe.normalized(t0, t1) for t0, t1 in p["spans"])


def end_to_end(runner: Runner, probe: SpeedProbe, passes):
    walls = [pass_wall(probe, p) for p in passes]
    wall = statistics.median(walls)
    times = [probe.normalized(t0, t1) for p in passes for t0, t1 in p["spans"]]
    units = statistics.median(p["units"] for p in passes)
    tail_s, pct, n = tail(times)
    setup = [probe.normalized(t0, t1) for t0, t1 in runner.setup_spans]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_s,
        "vertices_per_s": units / wall if runner.workload == "mesh" else None,
        "terms_per_s": units / wall if runner.workload == "algebra" else None,
        "fail_frac": runner.failed / max(runner.attempted, 1),
        "peak_rss_mb": runner.peak_rss_kb / 1024.0,
    }
    raw_wall = statistics.median(pass_wall(probe, p, raw=True) for p in passes)
    notes = {
        "setup_s": f"median of {len(setup)} no-op runs; raw "
                   f"{statistics.median(t1 - t0 for t0, t1 in runner.setup_spans):.4g} s",
        "wall_s": f"median of {len(walls)} passes; raw {raw_wall:.4g} s",
        "op_tail_s": f"p{pct:.1f} of op_count={n}" if pct else f"op_count={n} < 11",
        "op_p50_s": f"op_count={n}",
    }
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["verify", "mesh", "algebra"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pedalis", "cli.py")):
        print(f"error: no pedalis sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if hasattr(os, "sched_setaffinity"):
        # one client on one core: the op, its process tree and the probe share it
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    probe = SpeedProbe()
    try:
        with probe:
            return _run(args, work, spec, probe)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run still uses it


def _run(args, work, spec, probe: SpeedProbe) -> int:
    runner = Runner(args.workload, args.seed, work)
    make_ops = {"verify": workloads.verify_ops, "mesh": workloads.mesh_ops,
                "algebra": workloads.algebra_ops}[args.workload]
    ops = make_ops(random.Random(f"{args.workload}:{args.seed}"))
    tracing = bool(args.trace)
    if not tracing:
        runner.noop_runs(SETUP_RUNS // 2, warmup=True)
    # a traced run makes one untraced and one traced pass over the same ops
    passes = run_workload(runner, ops, 0.0 if tracing else args.seconds)
    if not tracing:
        runner.noop_runs(SETUP_RUNS - SETUP_RUNS // 2, warmup=False)
    if tracing:
        import tracer

        traced_dir = os.path.join(work, "spans")
        os.makedirs(traced_dir)
        traced = run_workload(runner, ops, 0.0, traced_dir)
        layer = tracer.per_layer_metrics(
            [os.path.join(traced_dir, f) for f in sorted(os.listdir(traced_dir))])
        untraced_wall = pass_wall(probe, passes[0]) if passes else 0.0
        traced_wall = pass_wall(probe, traced[0]) if traced else 0.0
        if traced:
            # span times are raw seconds; bring them to the reference speed too
            scale = traced_wall / pass_wall(probe, traced[0], raw=True)
            layer = {k: v * scale if k.endswith("_s") else v for k, v in layer.items()}
        layer.update({"trace.untraced_wall_s": untraced_wall, "trace.traced_wall_s": traced_wall,
                      "trace.overhead_s": traced_wall - untraced_wall})

    selftest_ok = bool(runner.selftest) and all(runner.selftest.values())
    if not runner.selftest:
        runner.problems.append("checker self-test did not run: no output passed its check")
    for case, flagged in runner.selftest.items():
        print(f"checker self-test: {case} {'rejected' if flagged else 'MISSED'}")
    for problem in runner.problems:
        print(f"problem: {problem}")

    metrics = {}
    if passes and tracing:
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": layer[m["name"]], "unit": m["unit"]}
            print(f"layer {m['name']}={layer[m['name']]:.6g} {m['unit']}")
    elif passes:
        values, notes = end_to_end(runner, probe, passes)
        for name, value in values.items():
            shown = "n/a (does not apply)" if value is None else f"{value:.6g}"
            note = f"  ({notes[name]})" if name in notes else ""
            print(f"metric {name}={shown} {E2E_UNITS[name]}{note}")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(f"speed probe: {len(probe.points)} samples, median {probe.median() * 1e3:.3f} ms")
    correct = runner.failed == 0 and selftest_ok and bool(passes)
    print(json.dumps({"correct": correct, "attempted": max(runner.attempted, 1),
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
