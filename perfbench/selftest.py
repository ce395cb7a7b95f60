#!/usr/bin/env python3
"""Smoke self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

Run from the root of a checkout; builds the benchmark first (see run.py).
Checks that:
  1. every metric BENCHMARK.json names is printed, with its unit, and a
     tiny run of each workload has no failed operation;
  2. a forced checksum mismatch counts as exactly one failed operation;
  3. the traced run drops no span and writes a Chrome trace with one span
     per layer call.
Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from run import BINARY, BUILD_DIR, build  # noqa: E402

TRACE_FILE = os.path.join(BUILD_DIR, "selftest-trace.json")
STAGES = 8  # profile, candidates, ..., simulate
SEQ_REPEATS = 5  # sequential runs per seq_ms sample (perfbench.cpp)
SETUP_BUILDS = 3  # timed builds of the program set per pass (perfbench.cpp)
# (programs, of which threaded, runThreaded calls per par2/par4 sample) per
# workload: two spec programs, which have parallel loops and so run three
# calls per sample, and a small fuzz draw without any. One pass each.
TINY = {"spec": (2, 2, 3), "fuzz": (3, 2, 1)}

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def bench(workload, trace, *extra):
    programs, threaded, _ = TINY[workload]
    cmd = [BINARY, "--workload", workload, "--seed", "1", "--seconds", "0",
           "--min-reps", "1", "--trace", str(trace),
           "--trace-out", TRACE_FILE, "--programs", str(programs),
           "--threaded-programs", str(threaded), *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    if proc.returncode != 0:
        check(False, f"{' '.join(cmd)} exited {proc.returncode}")
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(result, expected, what):
    printed = result["metrics"]
    for m in expected:
        got = printed.get(m["name"])
        check(got is not None and got["unit"] == m["unit"],
              f"{what}: {m['name']} printed in {m['unit']}")
    extra = sorted(set(printed) - {m["name"] for m in expected})
    check(not extra, f"{what}: no metric outside BENCHMARK.json {extra}")


def spans_by_layer(trace):
    """Counts the benchmark's own spans (process 1) per layer category."""
    counts = {}
    for e in trace["traceEvents"]:
        if e.get("pid") == 1 and e.get("ph") == "X":
            counts[e["cat"]] = counts.get(e["cat"], 0) + 1
    return counts


def main():
    if not build():
        print("selftest: build failed", file=sys.stderr)
        return 1
    with open("BENCHMARK.json") as f:
        spec = json.load(f)

    for workload in TINY:
        plain = bench(workload, 0)
        traced = bench(workload, 1)
        if plain is None or traced is None:
            continue
        check(plain["correct"] and plain["failed"] == 0,
              f"{workload}: untraced run has no failed operation")
        check(traced["correct"] and traced["failed"] == 0,
              f"{workload}: traced run has no failed operation")
        check_metrics(plain, spec["end_to_end"], f"{workload} --trace 0")
        check_metrics(traced, spec["per_layer"], f"{workload} --trace 1")

        injected = bench(workload, 0, "--inject-mismatch")
        if injected is not None:
            check(not injected["correct"] and injected["failed"] == 1 and
                  injected["attempted"] == plain["attempted"],
                  f"{workload}: a forced checksum mismatch is one failed "
                  f"operation of {plain['attempted']}")

        metrics = traced["metrics"]
        check(metrics["trace.dropped"]["value"] == 0,
              f"{workload}: traced run dropped no span")
        with open(TRACE_FILE) as f:
            spans = spans_by_layer(json.load(f))
        programs, threaded, par_calls = TINY[workload]
        # One traced pass. Per program: SETUP_BUILDS builds, two pipeline
        # runs with a child span per stage, a decode and SEQ_REPEATS
        # sequential runs. Per threaded program: a decode, an observed
        # sequential run, par_calls runtime calls at 2 and at 4 workers,
        # two more (1 worker, and no loops) and an oracle case.
        want = {
            "build": SETUP_BUILDS * programs,
            "pipeline": 2 * programs,
            "stage": 2 * STAGES * programs,
            "exec": (1 + SEQ_REPEATS) * programs + 2 * threaded,
            "runtime": (2 * par_calls + 2) * threaded,
            "oracle": threaded,
        }
        check(spans == want, f"{workload}: one span per layer call {spans}")
    print("selftest: %s" % ("all checks passed" if not failures else
                            f"{len(failures)} check(s) failed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
