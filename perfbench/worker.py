"""Make a series of ``fisherkpp.cli.main`` calls in one fresh interpreter.

Usage: worker.py '<json spec>' with keys
  workload, seed  which calls to make (see workloads.py);
  skip       how many calls of the seed's sequence earlier workers made;
  min_warm   warm calls to make whatever the deadline;
  deadline   time.monotonic() after which no warm call should end;
  mode       "plain" (wrap only the integrate entry points) or "trace"
             (wrap every layer of tracer.LAYERS);
  out        directory for each call's artifacts, result.json and, in
             trace mode, spans.jsonl.

The first call is cold: it always makes the first call of the seed's
first cycle, pays for the imports and lazy initialisation, and gives the
worker's first-integration time, from which the parent takes set-up time.
The warm calls that follow take the seed's sequence from ``skip`` on. A
warm call starts only if it is among the first ``min_warm`` or, at the
pace of the call before it, ends by the deadline.

The parent sets the thread-pinning environment before this interpreter
starts, so numpy's BLAS reads it at import.
"""

import functools
import json
import os
import resource
import sys
import time
from itertools import chain, islice

import numpy as np

import tracer
import workloads


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def reference_kernel(n):
    """Time a fixed stencil-and-reduction loop on an n x n grid; a host speed gauge.

    It shares no code with fisherkpp. At the workload's grid size it does
    the same kind of array work as the program, so contention on the host
    slows both alike. The iteration count keeps it near 10 ms for any n.
    Its field is built on first use, after the cold call, so that it adds
    nothing to set-up time.
    """
    u = _reference_field(n).copy()
    t = time.perf_counter()
    acc = 0.0
    for _ in range(round(2e6 / (n * n + 3000))):
        lap = u[:-2, 1:-1] + u[2:, 1:-1] + u[1:-1, :-2] + u[1:-1, 2:] - 4 * u[1:-1, 1:-1]
        u[1:-1, 1:-1] += 1e-3 * lap
        acc += float(np.vdot(lap, lap))
    return time.perf_counter() - t


@functools.cache
def _reference_field(n):
    return np.random.default_rng(0).random((n + 2, n + 2))


def _call(main, argv, art_dir, layers, spans_fh, index):
    """One traced or plain CLI call; return its result dict."""
    tr = tracer.Tracer()
    before = resource.getrusage(resource.RUSAGE_SELF)
    with tracer.instrument(tr, layers):
        code = tr.call("cli.main", main, ([*argv, "-o", art_dir],), {})
    after = resource.getrusage(resource.RUSAGE_SELF)
    runs = [s for s in tr.spans if s.name == "stepper.integrate"]
    result = {"argv": argv, "exit": code, "integrations": [s.attrs or {} for s in runs],
              "minflt": after.ru_minflt - before.ru_minflt,
              "sys_s": after.ru_stime - before.ru_stime}
    if runs:
        result["first_integrate"] = runs[0].start
        result["wall_s"] = tr.spans[0].end - runs[0].start
        if spans_fh is not None:
            metrics = tracer.layer_metrics(tr.spans, result["wall_s"])
            metrics["cli.artifact_bytes"] = (_dir_bytes(art_dir), "B")
            metrics["trace.remainder_s"] = (tracer.self_times(tr.spans)[0], "s")
            result["layers"] = metrics
    if spans_fh is not None:
        for i, s in enumerate(tr.spans):
            spans_fh.write(json.dumps({"call": index, **s.as_dict(i)}) + "\n")
    return result


def main():
    spec = json.loads(sys.argv[1])
    import scipy

    import fisherkpp.cli

    trace = spec["mode"] == "trace"
    layers = tracer.LAYERS if trace else {
        "stepper.integrate": tracer.LAYERS["stepper.integrate"]}
    out = spec["out"]
    grid = workloads.grid_size(spec["workload"])
    cold = workloads.first_cycle(spec["workload"], spec["seed"])[0]
    warm = islice(workloads.calls(spec["workload"], spec["seed"]), spec["skip"], None)
    spans_fh = open(os.path.join(out, "spans.jsonl"), "w") if trace else None
    calls = []
    try:
        for i, (argv, betas) in enumerate(chain([cold], warm)):
            if i > spec["min_warm"] and \
                    time.monotonic() + calls[-1]["duration"] > spec["deadline"]:
                break
            t = time.monotonic()
            result = _call(fisherkpp.cli.main, argv, os.path.join(out, f"call{i:03d}"),
                           layers, spans_fh, i)
            result.update(betas=betas, cold=i == 0, duration=time.monotonic() - t)
            # after the call, so that set-up time stays clean
            result["ref_s"] = reference_kernel(grid)
            calls.append(result)
    finally:
        if spans_fh is not None:
            spans_fh.close()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    with open(os.path.join(out, "result.json"), "w") as fh:
        json.dump({"numpy": np.__version__, "scipy": scipy.__version__,
                   "maxrss_kb": usage.ru_maxrss, "calls": calls}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
