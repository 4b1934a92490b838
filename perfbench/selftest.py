"""Self-test of the benchmark; run from the root of a source tree:

    python3 perfbench/selftest.py

Checks that BENCHMARK.json matches the definitions here, that one op of
each workload passes its gate, that a wrong expectation is counted in
failure_ratio, that one command prints every metric with its unit, that
per-layer counts repeat between two traced runs of one seed, and that
the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import metrics
import run
import workloads

SEED = 1


def check(ok: bool, what: str, problems: list[str]) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        problems.append(what)


def bench(*args: str) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, str(run.HERE / "run.py"), *args],
                          capture_output=True, text=True, cwd=run.ROOT,
                          timeout=180)
    return proc.returncode, proc.stdout.splitlines()


def metrics_printed(lines: list[str], spec: tuple) -> bool:
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return False
    printed = result["metrics"]
    return result["correct"] and list(printed) == [m[0] for m in spec] and all(
        printed[name]["unit"] == unit
        and isinstance(printed[name]["value"], (int, float))
        for name, unit, *_ in spec)


def main() -> int:
    problems: list[str] = []
    scratch = run.STATE / "selftest"
    shutil.rmtree(scratch, ignore_errors=True)

    on_disk = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check(on_disk == run.spec(), "BENCHMARK.json matches run.spec()", problems)

    spectrum_op = None
    for name, workload in workloads.WORKLOADS.items():
        op = workload.make_set(SEED, 0)[0]
        result = run.run_set([op], scratch / name, None, 120)
        reasons = run.gate_ops(workload, [op], result)
        check(reasons == [None], f"one {name} op passes its gate {reasons}",
              problems)
        if name == "spectrum-sweep":
            spectrum_op = op

    # the same op, expecting one even state too many, must count as failed
    wrong = dict(spectrum_op.expect, n_even=spectrum_op.expect["n_even"] + 1)
    bad_op = dataclasses.replace(spectrum_op, expect=wrong)
    rigged = dataclasses.replace(workloads.WORKLOADS["spectrum-sweep"],
                                 make_set=lambda seed, index: [spectrum_op, bad_op])
    result, report, _ = run.timed_run(rigged, SEED, 1e-3, scratch / "rigged")
    ratio = report["end_to_end"]["failure_ratio"]
    check(result["failed"] * 2 == result["attempted"] and not result["correct"]
          and ratio["value"] == 0.5 and ratio["unit"] == "ratio",
          "a wrong expected state count is counted in failure_ratio", problems)

    rc, lines = bench("--workload", "scatter-points", "--seed", str(SEED),
                      "--seconds", "1", "--trace", "0")
    check(rc == 0 and metrics_printed(lines, metrics.END_TO_END),
          "trace 0 prints every end-to-end metric with its unit", problems)
    if rc == 0:
        e2e = json.loads(lines[-2])["report"]["end_to_end"]
        check(e2e["op_tail_s"]["unit"] == "s" and e2e["op_tail_s"]["value"] > 0
              and e2e["failure_ratio"]["unit"] == "ratio",
              "the report adds op_tail_s and failure_ratio with units", problems)

    counts = []
    for _ in range(2):
        rc, lines = bench("--workload", "scatter-points", "--seed", str(SEED),
                          "--seconds", "1", "--trace", "1")
        check(rc == 0 and metrics_printed(lines, metrics.PER_LAYER),
              "trace 1 prints every per-layer metric with its unit", problems)
        if rc != 0:
            break
        printed = json.loads(lines[-1])["metrics"]
        counts.append({name: printed[name]["value"]
                       for name, unit, _ in metrics.PER_LAYER
                       if unit == "count"})
    check(len(counts) == 2 and counts[0] == counts[1],
          "per-layer counts repeat between two traced runs", problems)

    # a tree holding only BENCHMARK.json and perfbench/ must be refused
    bare = scratch / "bare"
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, f"{run.HERE.name}/run.py",
                           "--workload", "scatter-points", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=bare, timeout=180)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "a tree without src/expwell exits non-zero and prints no result",
          problems)

    shutil.rmtree(scratch, ignore_errors=True)
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
