"""The expwell benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-spec     # regenerate BENCHMARK.json
    python3 perfbench/selftest.py             # check the benchmark itself

Run from the root of a source tree; the program is imported from its
``src/`` directory, never from an installed copy.

``--trace 0`` measures the end-to-end metrics.  The load is a closed
loop with one caller: ops run back to back, each an ``expwell`` command
called in-process through ``expwell.cli.main``.  Ops come in cost-balanced
sets (see workloads.py); each set runs in a fresh interpreter, because
the kernel caches are process-global and every CLI invocation starts
cold, and sets are run until their summed op time reaches ``--seconds``.
Op latencies are also expressed in units of a reference computation
timed next to them (see worker.py), which is what the throughput and
median latency in BENCHMARK.json use.  ``setup_s`` is timed on separate
fresh interpreters.

``--trace 1`` runs the seed's first set twice, each in a fresh
interpreter: untraced, then with every layer's public functions wrapped
in spans (tracer.py).  It reports the per-layer metrics and the tracing
overhead, and checks that the layers' self times add up to the traced
wall time.

Every op's output is checked against an independent route (scipy) after
the timed region; an op that raises, exits non-zero or fails its gate
counts as failed.  The last line of stdout is the result as JSON; the
line before it is a report with every metric's detail and the run's
provenance, also kept under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

RUN_SECONDS = 20
# each run must end within 180 s
RUN_LIMIT_S = 165.0
SETUP_SAMPLES = 3
TAIL_PERCENTILES = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0)
TAIL_BEYOND = 10

_PROBE = "import time, expwell; print(time.clock_gettime(time.CLOCK_MONOTONIC))"


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to an op failing)."""


def _env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def measure_setup(samples: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to `import expwell` done.

    Call it after a worker has imported expwell once, so that bytecode,
    which an installed program compiles once, is not compiled here.
    """
    out = []
    for _ in range(samples):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run([sys.executable, "-c", _PROBE], env=_env(),
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"import expwell failed:\n{proc.stderr}")
        out.append(float(proc.stdout.split()[-1]) - t0)
    return out


def run_set(ops: list[workloads.Op], out_dir: Path, spans: Path | None,
            timeout: float) -> dict:
    """Run ops in one fresh worker interpreter; returns its JSON result."""
    out_dir.mkdir(parents=True, exist_ok=True)
    job = {"src": str(SRC), "out_dir": str(out_dir),
           "argvs": [list(op.argv) for op in ops],
           "spans": str(spans) if spans else None}
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py")],
                              input=json.dumps(job), env=_env(),
                              capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def gate_ops(workload: workloads.Workload, ops: list[workloads.Op],
             result: dict) -> list[str | None]:
    """Failure reason of each op, None for an op that passed."""
    reasons = []
    for op, rec in zip(ops, result["ops"]):
        if rec["error"] is not None:
            reasons.append("raised: " + rec["error"].strip().splitlines()[-1])
            continue
        if rec["rc"] != 0:
            reasons.append(f"exit code {rec['rc']}: {rec['stdout'].strip()[-200:]}")
            continue
        try:
            with open(rec["report"]) as fh:
                report = json.load(fh)
        except (OSError, ValueError) as exc:
            reasons.append(f"unreadable report: {exc}")
            continue
        reasons.append(workload.gate(op, report, rec["stdout"]))
    return reasons


def failures(ops, reasons) -> list[dict]:
    return [{"argv": " ".join(op.argv), "reason": r}
            for op, r in zip(ops, reasons) if r is not None]


def tail(latencies: list[float]) -> dict:
    """The highest percentile with at least TAIL_BEYOND samples beyond it."""
    n = len(latencies)
    ordered = sorted(latencies)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= TAIL_BEYOND:
            return {"value": ordered[rank - 1], "unit": "s", "percentile": p,
                    "samples": n, "beyond": n - rank}
    return {"value": None, "unit": "s", "samples": n,
            "omitted": "too few samples for a percentile above the median"}


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def environment(seed: int) -> dict:
    import mpmath
    import numpy
    import scipy
    try:
        import numba  # noqa: F401
        have_numba = True
    except ImportError:
        have_numba = False
    return {
        "python": platform.python_version(),
        "mpmath_backend": mpmath.libmp.BACKEND,
        "numba": have_numba,
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _metric(name: str, value: float, **detail) -> dict:
    return {"value": value, "unit": metrics.UNITS[name], **detail}


def timed_run(workload: workloads.Workload, seed: int, seconds: float,
              scratch: Path) -> tuple[dict, dict, list]:
    start = time.monotonic()
    setup: list[float] = []
    ops: list[workloads.Op] = []
    reasons: list[str | None] = []
    latencies: list[float] = []
    costs: list[float] = []
    refs: list[float] = []
    rss_kb = 0
    set_walls = []
    caches: dict[str, dict] = {}
    # whole sets, until the op time is within half a set of `seconds`
    while not set_walls or \
            sum(latencies) * (1.0 + 0.5 / len(set_walls)) < seconds:
        elapsed = time.monotonic() - start
        if set_walls and elapsed + 1.5 * max(set_walls) > RUN_LIMIT_S:
            break
        set_ops = workload.make_set(seed, len(set_walls))
        t0 = time.monotonic()
        result = run_set(set_ops, scratch / str(len(set_walls)), None,
                         RUN_LIMIT_S - elapsed)
        set_walls.append(time.monotonic() - t0)
        ops += set_ops
        reasons += gate_ops(workload, set_ops, result)
        latencies += [rec["seconds"] for rec in result["ops"]]
        costs += [rec["seconds"] / rec["ref_s"] for rec in result["ops"]]
        refs += [rec["ref_s"] for rec in result["ops"]]
        rss_kb = max(rss_kb, result["maxrss_kb"])
        if not setup:
            setup = measure_setup(SETUP_SAMPLES)
        for name, info in result["caches"].items():
            total = caches.setdefault(name, {"hits": 0, "misses": 0})
            total["hits"] += info["hits"]
            total["misses"] += info["misses"]

    failed = sum(r is not None for r in reasons)
    values = {
        "setup_s": _metric("setup_s", statistics.median(setup),
                           samples=len(setup)),
        "ops_per_ref": _metric("ops_per_ref", len(costs) / sum(costs),
                               ops=len(costs)),
        "op_p50_ref": _metric("op_p50_ref", statistics.median(costs),
                              samples=len(costs)),
        "peak_rss_mb": _metric("peak_rss_mb", rss_kb / 1024.0),
    }
    wall_clock = {
        "ops_per_s": {"value": len(latencies) / sum(latencies), "unit": "1/s",
                      "ops": len(latencies), "op_seconds": sum(latencies)},
        "op_p50_s": {"value": statistics.median(latencies), "unit": "s",
                     "samples": len(latencies)},
        "op_tail_s": tail(latencies),
        "failure_ratio": {"value": failed / len(ops), "unit": "ratio",
                          "failed": failed, "attempted": len(ops)},
        "reference_s": {"value": statistics.median(refs), "unit": "s",
                        "min": min(refs), "max": max(refs)},
    }
    report = {
        "end_to_end": {**values, **wall_clock},
        "sets": len(set_walls),
        "caches": caches,
        "inputs": workloads.provenance(workload.name, ops),
        "failures": failures(ops, reasons),
    }
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed,
              "metrics": {name: {"value": values[name]["value"], "unit": unit}
                          for name, unit, *_ in metrics.END_TO_END}}
    per_op = [{"argv": " ".join(op.argv), "seconds": t, "ref": c}
              for op, t, c in zip(ops, latencies, costs)]
    return result, report, per_op


def traced_run(workload: workloads.Workload, seed: int, scratch: Path,
               spans: Path) -> tuple[dict, dict, list]:
    start = time.monotonic()
    ops = workload.make_set(seed, 0)
    plain = run_set(ops, scratch / "untraced", None, RUN_LIMIT_S)
    traced = run_set(ops, scratch / "traced", spans,
                     RUN_LIMIT_S - (time.monotonic() - start))
    reasons = gate_ops(workload, ops, plain) + gate_ops(workload, ops, traced)
    failed = sum(r is not None for r in reasons)

    trace = traced["trace"]
    plain_s = sum(rec["seconds"] for rec in plain["ops"])
    layers = dict(trace["layers"])
    # in reference units, so that machine drift between the two runs cancels
    layers["trace.overhead_ratio"] = (
        sum(rec["seconds"] / rec["ref_s"] for rec in traced["ops"])
        / sum(rec["seconds"] / rec["ref_s"] for rec in plain["ops"]) - 1.0)
    # every traced nanosecond belongs to exactly one layer (or the harness)
    accounted = trace["self_ns_total"] == trace["wall_ns"]
    report = {
        "per_layer": {name: {"value": layers[name], "unit": unit}
                      for name, unit, _ in metrics.PER_LAYER},
        "self_time_check": {"traced_wall_ns": trace["wall_ns"],
                            "self_ns_total": trace["self_ns_total"],
                            "harness_self_ns": trace["harness_self_ns"],
                            "ok": accounted},
        "untraced_wall_s": plain_s,
        "spans": {"count": trace["spans"], "path": str(spans.relative_to(ROOT))},
        "inputs": workloads.provenance(workload.name, ops),
        "failures": failures(ops + ops, reasons),
    }
    result = {"correct": failed == 0 and accounted, "attempted": 2 * len(ops),
              "failed": failed, "metrics": report["per_layer"]}
    per_op = [{"argv": " ".join(op.argv), "untraced_s": a["seconds"],
               "traced_s": b["seconds"]}
              for op, a, b in zip(ops, plain["ops"], traced["ops"])]
    return result, report, per_op


def spec() -> dict:
    """The contents of BENCHMARK.json."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in workloads.WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in metrics.END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in metrics.PER_LAYER],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json at the root and exit")
    args = parser.parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n")
        return 0
    if args.workload is None or args.seed is None or not args.seconds > 0:
        parser.error("--workload, --seed and a positive --seconds are required")
    if not (SRC / "expwell" / "__init__.py").is_file():
        print(f"error: no expwell sources under {SRC}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    scratch = STATE / "ops" / f"{tag}-{os.getpid()}"
    try:
        if args.trace:
            (STATE / "trace").mkdir(parents=True, exist_ok=True)
            result, report, per_op = traced_run(
                workload, args.seed, scratch,
                STATE / "trace" / f"{workload.name}-seed{args.seed}.jsonl")
        else:
            result, report, per_op = timed_run(workload, args.seed,
                                               args.seconds, scratch)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    report = {"workload": workload.name, "trace": args.trace,
              "environment": environment(args.seed), **report}
    (STATE / "results").mkdir(parents=True, exist_ok=True)
    with open(STATE / "results" / f"{tag}.json", "w") as fh:
        json.dump({"report": report, "result": result, "ops": per_op}, fh,
                  indent=1)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
