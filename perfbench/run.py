#!/usr/bin/env python3
"""Build and run the ldmsxx end-to-end benchmark.

    python3 perfbench/run.py --workload collect|collect_query|history \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles ../src) under
$CARGO_TARGET_DIR (default .bench_build), then idles before measuring;
later runs only check the build.
Stores, sockets and span files go to a scratch directory under the same
build root, removed when the run ends. The last line of stdout is the
result object; see perfbench/README.md.
"""
import argparse
import os
import shutil
import subprocess
import sys
import time

RUN_TIMEOUT_S = 170  # the benchmark itself; the build has its own budget
BUILD_TIMEOUT_S = 600
# After a build that compiled something, the 4-vCPU test host ran the next
# minute or two of work up to 3x slower (the first runs of every batch were
# outliers). Only the first run in a checkout builds, so it idles this long
# before it measures.
POST_BUILD_IDLE_S = 90


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(src_dir, build_dir):
    """Configure (first time) and build the driver; returns its path and
    whether it was (re)linked."""
    binary = os.path.join(build_dir, "perfbench")
    before = os.path.getmtime(binary) if os.path.exists(binary) else None
    cmds = []
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        cmds.append(["cmake", "-S", src_dir, "-B", build_dir, "-G", "Unix Makefiles",
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    cmds.append(["cmake", "--build", build_dir, "--target", "perfbench",
                 "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in cmds:
        # Build chatter goes to stderr so stdout ends with the result line.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return None, False
    return binary, os.path.getmtime(binary) != before


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["collect", "collect_query", "history"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                 os.path.join(os.path.dirname(here),
                                              ".bench_build"))
    binary, built = build(here, os.path.join(build_root, "perfbench"))
    if binary is None:
        return 1
    if built:
        log(f"built; idling {POST_BUILD_IDLE_S} s before measuring")
        time.sleep(POST_BUILD_IDLE_S)

    # Scratch data lives beside the build, inside the checkout (so the store
    # sees the checkout's filesystem). Relative, so the control socket path
    # stays under the UNIX socket length limit.
    data_dir = os.path.relpath(os.path.join(build_root, f"run-{os.getpid()}"))
    trace_dir = os.path.join(build_root, "traces")
    os.makedirs(data_dir, exist_ok=True)
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data-dir", data_dir, "--trace-dir", trace_dir]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s and was killed")
        code = 1
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
