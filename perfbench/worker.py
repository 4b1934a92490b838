"""Run one set of `expwell` commands in this (fresh) interpreter.

Reads a JSON job from stdin:

    {"src": ..., "out_dir": ..., "argvs": [[...], ...], "spans": path | null}

and prints one JSON line with each op's exit code, latency, reference
time and captured output, the interpreter's peak RSS and, when ``spans``
is given, the per-layer metrics of a traced run (spans are written to
that path).

Each op calls ``expwell.cli.main`` in-process with ``--out`` pointing at
a scratch file, so argument parsing and report formatting count toward
the op.  The kernel caches are process-global and every CLI invocation
starts with them empty, so the worker refuses to start if they are not.

The speed of a shared machine drifts by tens of percent over seconds to
minutes, so between ops, at least every REF_EVERY_S of op time, the
worker times a fixed mpmath computation that does not touch expwell.
Each op is given the mean of the reference times taken just before and
just after it; its latency divided by that is its cost in reference
units, which the drift largely cancels out of.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import json
import os
import resource
import sys
import time
import traceback

import mpmath

import metrics
from tracer import LAYERS, Tracer

REF_EVERY_S = 0.5


def reference_seconds() -> float:
    """Duration of a fixed, cache-free mpmath computation (about 20 ms).

    The cyclic garbage collector is paused while it runs: a collection
    walks the whole heap, whose size depends on the program under test.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        with mpmath.workdps(40):
            total = mpmath.mpf(0)
            for i in range(1, 1501):
                v = mpmath.mpf(i) / 7
                total += v * v / (v + 1)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def main() -> int:
    job = json.load(sys.stdin)
    import expwell

    src = os.path.realpath(job["src"])
    if not os.path.realpath(expwell.__file__).startswith(src + os.sep):
        print(f"expwell imported from {expwell.__file__}, not from {src}",
              file=sys.stderr)
        return 3
    layers = {name: importlib.import_module(f"expwell.{name}") for name in LAYERS}
    series = getattr(layers["specfun"], "_series_cached", None)
    det = getattr(layers["crum"], "_wronskian_det_mp", None)
    for cached in (series, det):
        if cached is not None and cached.cache_info().currsize != 0:
            print(f"{cached.__name__} is not empty before the first op",
                  file=sys.stderr)
            return 3

    tracer = None
    if job["spans"]:
        tracer = Tracer(expwell)
        tracer.install(layers)
    main_fn = layers["cli"].main

    ops = []
    ref_before = reference_seconds()
    pending, since_ref = [], 0.0
    for i, argv in enumerate(job["argvs"]):
        out_path = os.path.join(job["out_dir"], f"{i}.json")
        captured = io.StringIO()
        rc = error = None
        t0 = time.perf_counter()
        if tracer:
            tracer.begin_op(i)
        try:
            with contextlib.redirect_stdout(captured), \
                    contextlib.redirect_stderr(captured):
                rc = main_fn(list(argv) + ["--out", out_path])
        except Exception:  # an op that raises is a failed op, not a crash
            error = traceback.format_exc(limit=3)
        finally:
            if tracer:
                tracer.end_op()
        seconds = time.perf_counter() - t0
        ops.append({"rc": rc, "error": error, "seconds": seconds,
                    "stdout": captured.getvalue(), "report": out_path})
        pending.append(ops[-1])
        since_ref += seconds
        if since_ref >= REF_EVERY_S or i == len(job["argvs"]) - 1:
            ref_after = reference_seconds()
            for rec in pending:
                rec["ref_s"] = 0.5 * (ref_before + ref_after)
            ref_before, pending, since_ref = ref_after, [], 0.0

    result = {"ops": ops,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "caches": {name: cached.cache_info()._asdict()
                         for name, cached in (("series", series), ("det", det))
                         if cached is not None}}
    if tracer:
        tracer.write(job["spans"])
        selfs = tracer.self_ns()
        result["trace"] = {
            "wall_ns": tracer.wall_ns(),
            "self_ns_total": sum(selfs.values()),
            "harness_self_ns": selfs["bench"],
            "spans": len(tracer.spans),
            "layers": metrics.layer_values(
                tracer,
                series.cache_info() if series is not None else None,
                det.cache_info() if det is not None else None),
        }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
