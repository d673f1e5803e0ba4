#!/usr/bin/env python3
"""Build and run the rectpart benchmark for one workload.

    python3 perfbench/run.py --workload dense-paper|sparse-web|daemon-mix \
        --seed N --seconds S --trace 0|1

Run from the root of a rectpart checkout.  The first run configures and
builds the library and the perfbench binary (CMake, Release) under
.bench_build/; later runs only rebuild what changed.  The binary prints the
result as the last stdout line: one JSON object with the keys correct,
attempted, failed and metrics.  Exit status is the binary's (0 on success,
1 on a failed check), 2 on bad arguments or missing sources, 3 when the
build fails, 4 when the run overruns its time limit.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("dense-paper", "sparse-web", "daemon-mix")
RUN_LIMIT_S = 175  # a run must end within 180 s; the build is not in it


def fail(code, message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build(root, build_dir):
    build_dir.mkdir(parents=True, exist_ok=True)
    log = build_dir / "build.log"
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                  "-j", jobs])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=root).returncode != 0:
                tail = log.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(3, f"build failed: {' '.join(cmd)} (log: {log})")
    return build_dir / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail(2, "--seconds must be > 0 and --seed >= 0")

    root = Path(__file__).resolve().parent.parent
    for needed in ("CMakeLists.txt", "src/CMakeLists.txt"):
        if not (root / needed).is_file():
            fail(2, f"no rectpart sources: {root / needed} is missing")
    base = root / ".bench_build"
    binary = build(root, base / "perfbench")

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--out-dir", str(base / "out")]
    try:
        run = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                             timeout=RUN_LIMIT_S, text=True)
    except subprocess.TimeoutExpired:
        # subprocess.run has killed the child and waited for it.
        fail(4, f"run exceeded {RUN_LIMIT_S} s")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
