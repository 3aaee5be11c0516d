#!/usr/bin/env python3
"""End-to-end benchmark of rab.

Usage, from the root of the repository:

    python3 e2ebench/run.py --workload repro|tournament|serve \
        --seed N --seconds S --trace 0|1

Builds rab (Release) and the benchmark program into .bench_build/, runs one
workload and passes its output through: the last line of stdout is one JSON
object with "correct", "attempted", "failed" and "metrics". Build output
goes to .bench_build/build.log. Exits non-zero when the build fails, a
check fails or the run does not finish within its time limit.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 170


def build(bench_dir, build_dir, jobs):
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        steps.append(["cmake", "-S", bench_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", str(jobs),
                  "--target", "rab_e2e", "rab_cli"])
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                sys.stderr.write("e2ebench: build failed (%s)\n" % " ".join(step))
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["repro", "tournament", "serve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.join(BUILD_DIR, "cmake")
    # Fixed thread count: 4, or fewer on a smaller machine.
    threads = max(1, min(4, os.cpu_count() or 1))
    if not build(bench_dir, build_dir, threads):
        return 1

    work_dir = os.path.join(BUILD_DIR, "work-%d" % os.getpid())
    os.makedirs(work_dir, exist_ok=True)
    env = dict(os.environ, RAB_THREADS=str(threads))
    command = [os.path.join(build_dir, "rab_e2e"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--rab", os.path.join(build_dir, "rab"),
               "--work-dir", work_dir]
    # Own process group, so a run that overstays is stopped together with
    # the `rab serve` processes it started.
    proc = subprocess.Popen(command, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.stderr.write("e2ebench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        code = 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
