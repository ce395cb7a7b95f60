#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload spec|fuzz --seed N --seconds S \
        --trace 0|1

Run from the root of a checkout. Every call configures and builds
perfbench/ (which compiles the library sources under src/) into
.bench_build/; only the first call compiles anything. The benchmark binary
then measures the workload and prints its result object as the last line of
stdout. Build output and diagnostics go to stderr. The Chrome trace of a
--trace 1 run is written to .bench_build/trace-<workload>.json.

Exits non-zero, without a result line, when the build fails (for example
when the library sources are missing) or the benchmark reports an error.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
BINARY = os.path.join(BUILD_DIR, "helix-perfbench")
# Longest a single build or benchmark run may take before it is stopped.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run_step(cmd, timeout, capture=False):
    """Runs cmd in its own process group and waits for it to end.

    On timeout (or interruption) the whole group is killed, compiler
    children included. Returns (exit code, captured stdout); without
    capture, the step's stdout goes to stderr. Temporary files go to
    .bench_build/tmp, so nothing is written outside the checkout.
    """
    tmp = os.path.abspath(os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    try:
        proc = subprocess.Popen(
            cmd, text=True, start_new_session=True, env=env,
            stdout=subprocess.PIPE if capture else sys.stderr)
    except OSError as err:
        print(f"run.py: {cmd[0]}: {err}", file=sys.stderr)
        return 1, ""
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        print(f"run.py: {' '.join(cmd)}: timed out after {timeout} s",
              file=sys.stderr)
        return 1, ""
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()


def build():
    """Configures and builds the benchmark; returns True on success.

    Both steps are incremental: after the first build they take well under
    a second.
    """
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    code, _ = run_step(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S)
    if code == 0:
        code, _ = run_step(["cmake", "--build", BUILD_DIR, "-j", jobs],
                           BUILD_TIMEOUT_S)
    return code == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["spec", "fuzz"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-out", os.path.join(BUILD_DIR,
                                       f"trace-{args.workload}.json")]
    code, out = run_step(cmd, RUN_TIMEOUT_S, capture=True)
    if code != 0:
        print(f"run.py: benchmark failed (exit {code})", file=sys.stderr)
        return code or 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
