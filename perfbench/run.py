#!/usr/bin/env python3
"""Builds and runs the Stubby benchmark.

    python3 perfbench/run.py --workload table1_optimize --seed 1 \
        --seconds 15 --trace 0

Run it from the repository root. It configures and builds the benchmark
package (perfbench/CMakeLists.txt, which builds the stubby library from
../src) in .bench_build/perfbench, then runs the benchmark program,
stubbybench, once. That prints every metric with its unit and, as its
last line, one JSON object with the keys correct, attempted, failed and
metrics. With --trace 1 the spans are also written to
.bench_build/perfbench/traces/ as Chrome trace-event JSON. `--test` builds
and runs the harness unit tests instead.

Build output goes to stderr, so the result stays the last line of stdout.
The exit code is stubbybench's: 0 when every check passed.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("table1_optimize", "table1_execute", "stubbyd_zipf")
# The first run builds; later runs find the build up to date.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: the Stubby sources (src/) are not next to "
                 "perfbench/; run it from a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target",
                    *targets], check=True, stdout=sys.stderr,
                   timeout=BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=0,
                        help="pool width (default: all hardware threads)")
    parser.add_argument("--test", action="store_true",
                        help="build and run the harness unit tests")
    args = parser.parse_args()
    if not args.test and args.workload is None:
        parser.error("--workload is required")

    try:
        if args.test:
            build(["harness_test"])
            return subprocess.run([os.path.join(BUILD, "harness_test")],
                                  timeout=RUN_TIMEOUT_S).returncode
        build(["stubbybench"])
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as err:
        sys.exit(f"run.py: build failed: {err}")

    command = [os.path.join(BUILD, "stubbybench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.threads > 0:
        command += ["--threads", str(args.threads)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: stubbybench ran past {RUN_TIMEOUT_S} s")


if __name__ == "__main__":
    sys.exit(main())
