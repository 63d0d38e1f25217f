"""Fresh-interpreter worker of the ``run_cold`` workload.

``Kernel.compile`` memoises per process, so a design is only cold in an
interpreter that has never seen it.  The harness starts this script
once per pass; it runs every design it is given exactly once and prints
one JSON document: per-design wall (with the machine's slowdown around
it, see ``calibrate.py``), simulated statistics and outputs,
and (with ``"trace": true``) the spans of the explicit layer chain that
replaces ``Session.open(...).run()``.
"""

from __future__ import annotations

import json
import sys
import time


def _op(name: str, result, **extra) -> dict:
    return dict(extra, design=name, events=result.stats.events,
                cycles=result.cycles, queries=result.stats.queries,
                scalars=result.scalars)


def main(argv) -> int:
    job = json.loads(argv[1])
    start = time.perf_counter()
    from repro import designs
    from repro.api import Session
    import_s = time.perf_counter() - start

    ops = []
    spans = counters = None
    if job.get("trace"):
        from layers import capture_chain
        from tracer import Tracer

        tracer = Tracer()
        for name, params in job["designs"]:
            with tracer.op(name), tracer.bracket():
                out = capture_chain(
                    tracer, lambda: designs.resolve(name).make(**params))
            ops.append(_op(name, out["result"], counts=out["counts"]))
        spans, counters = tracer.spans, tracer.counters
    else:
        from calibrate import slowdown

        # one sample between every two ops: op i is bracketed by the
        # samples before and after it
        before = slowdown()
        for name, params in job["designs"]:
            start = time.perf_counter()
            result = Session.open(name, trace_cache=False, **params).run()
            wall = time.perf_counter() - start
            after = slowdown()
            ops.append(_op(name, result, wall_s=wall,
                           slowdown=(before + after) / 2))
            before = after
    json.dump({"import_s": import_s, "ops": ops, "spans": spans,
               "counters": counters}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
