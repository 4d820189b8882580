"""Run one pedalis CLI invocation and record its peak resident set size.

    python3 perfbench/cli_op.py PEAK_FILE [SPANS.npz OP_ID] -- <pedalis arguments>

This is ``python3 -m pedalis <arguments>`` plus one file write at exit: the
peak RSS in KiB goes to PEAK_FILE.  The peak is VmHWM from
/proc/self/status, the high-water mark of this process's own address
space; ``ru_maxrss`` of a child also counts the address space it was
forked from, so it would report the size of the benchmark process instead.
With SPANS.npz OP_ID the pedalis layers are traced (see tracer.py) and the
spans are written to SPANS.npz when the CLI returns.
"""

from __future__ import annotations

import os
import sys


def peak_kb() -> int:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv) -> int:
    sep = argv.index("--")
    head, cli_args = argv[:sep], argv[sep + 1:]
    tracer = None
    if len(head) == 3:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.op_id = int(head[2])
        tracing.install(tracer)
    from pedalis import cli

    sys.argv = ["pedalis", *cli_args]
    try:
        return cli.main(cli_args)
    finally:
        if tracer is not None:
            tracer.dump(head[1])
        with open(head[0], "w", encoding="ascii") as fh:
            fh.write(str(peak_kb()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
