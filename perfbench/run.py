#!/usr/bin/env python3
"""Entry point of the repo benchmark (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload cli-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Builds the simulator libraries, the shipped dsa_serve daemon and the
benchmark program (driver.cc) from source (CMake, into $CARGO_TARGET_DIR or
.bench_build), then runs one measurement. The program prints the result
JSON as the last line of stdout. Every child runs in its own process
group, which is killed if the run overruns its time limit.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("cli-sweep", "serve-warm", "serve-cold")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
REQUIRED_SOURCES = ("src/CMakeLists.txt", "bench/dsa_serve.cc")


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_group(cmd, timeout, **kw):
    """Runs cmd in its own process group; kills the group on overrun or on
    SIGTERM/SIGINT to this script, and always waits for it."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)

    def kill_group(*_):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    old = {s: signal.signal(s, lambda *a: (kill_group(), sys.exit(1)))
           for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        kill_group()
        proc.wait()
        fail(f"{os.path.basename(cmd[0])} exceeded {timeout} s and was killed")
    finally:
        kill_group()  # reap anything the child left in its group
        for s, h in old.items():
            signal.signal(s, h)


def build(build_dir, targets):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        rc = run_group(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S,
                       stdout=sys.stderr)
        if rc != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    rc = run_group(["cmake", "--build", build_dir, "-j", jobs, "--target", *targets],
                   BUILD_TIMEOUT_S, stdout=sys.stderr)
    if rc != 0:
        fail("build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's self-tests")
    args = ap.parse_args()
    if not args.selftest and (args.workload is None or args.seed is None
                              or args.seconds is None or args.seconds <= 0):
        ap.error("--workload, --seed and --seconds > 0 are required")

    missing = [p for p in REQUIRED_SOURCES if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        fail("run from a checkout of the repository; missing " + ", ".join(missing), 2)

    os.chdir(ROOT)
    build_dir = os.path.relpath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    # Compiler and library temporaries stay inside the checkout too.
    tmp_dir = os.path.abspath(os.path.join(build_dir, "tmp"))
    os.makedirs(tmp_dir, exist_ok=True)
    os.environ["TMPDIR"] = tmp_dir
    if args.selftest:
        build(build_dir, ["perfbench_selftest"])
        sys.exit(run_group([os.path.join(build_dir, "perfbench_selftest")], RUN_TIMEOUT_S))

    build(build_dir, ["perfbench", "dsa_serve"])
    # Relative, so the daemon's Unix socket path stays short.
    work_dir = os.path.join(build_dir, f"run-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    sys.stdout.flush()
    start = time.monotonic()
    try:
        rc = run_group([os.path.join(build_dir, "perfbench"),
                        "--workload", args.workload, "--seed", str(args.seed),
                        "--seconds", repr(args.seconds), "--trace", str(args.trace),
                        "--serve-bin", os.path.join(build_dir, "dsa_serve"),
                        "--work-dir", work_dir], RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(f"perfbench: run took {time.monotonic() - start:.1f} s", file=sys.stderr)
    sys.exit(rc)


if __name__ == "__main__":
    main()
