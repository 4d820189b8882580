"""Long-lived driver process of the algebra workload.

    python3 perfbench/algebra_driver.py OPS.json RESULTS.json SECONDS [SPANS.npz]

Runs the ops of OPS.json through the public pedalis API, one at a time,
in passes until another pass would overrun SECONDS (at least one pass).
Each op goes from input text to output text:

* pedal:   parse_poly -> pedal_pullback -> strip_exceptional -> format_poly
* inverse: parse_poly -> inverse_pedal_pullback -> format_poly
* offset:  parse_poly -> offset_dual_poly -> format_poly

Only that chain is timed.  Afterwards, untimed, the first pass records
the raw terms of the result (and of the pullback for pedal ops) and the
raw terms of ``parse_poly(output)`` for outputs of at most ROUNDTRIP_TERMS
terms (parsing is quadratic in the term count at the seed commit, so the
largest outputs would double the run), which the benchmark checks with its
own arithmetic; later passes must reproduce the first pass's output text.
With SPANS.npz the driver installs the tracer, runs exactly one pass and
records only the output texts, so no untimed call lands in the spans.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from checks import ROUNDTRIP_TERMS  # noqa: E402
from cli_op import peak_kb  # noqa: E402


def _raw(poly):
    return [[*e, c.numerator, c.denominator] for e, c in poly.terms.items()]


def main(argv):
    ops_path, results_path, seconds = argv[0], argv[1], float(argv[2])
    spans_path = argv[3] if len(argv) > 3 else None
    if spans_path:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    import pedalis

    with open(ops_path, encoding="utf-8") as fh:
        ops = json.load(fh)

    def run(op):
        poly = pedalis.parse_poly(op["text"])
        image = stripped = None
        if op["kind"] == "pedal":
            image = pedalis.pedal_pullback(poly)
            stripped = pedalis.strip_exceptional(image)
            result = stripped.reduced
        elif op["kind"] == "inverse":
            result = pedalis.inverse_pedal_pullback(poly)
        else:
            result = pedalis.offset_dual_poly(poly, Fraction(op["d"]))
        return pedalis.format_poly(result), result, image, stripped

    passes, outputs = [], []
    start = time.perf_counter()
    while True:
        spans, mismatches = [], []
        for i, op in enumerate(ops):
            if spans_path:
                tracer.op_id = i
            t0 = time.perf_counter()
            text, result, image, stripped = run(op)
            spans.append((t0, time.perf_counter()))
            if not passes:
                out = {"text": text}
                if not spans_path:
                    out["result"] = _raw(result)
                    if len(result.terms) <= ROUNDTRIP_TERMS:
                        out["roundtrip"] = _raw(pedalis.parse_poly(text))
                    if image is not None:
                        out.update(pullback=_raw(image), r=stripped.r, k=stripped.k)
                outputs.append(out)
            elif text != outputs[i]["text"]:
                mismatches.append(i)
        passes.append({"spans": spans, "mismatches": mismatches})
        elapsed = time.perf_counter() - start
        if spans_path or elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    if spans_path:
        tracer.dump(spans_path)
    with open(results_path, "w", encoding="utf-8") as fh:
        json.dump({"passes": passes, "outputs": outputs, "peak_kb": peak_kb()}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
