#!/usr/bin/env python3
"""Builds the simulator benchmark from this checkout's src/ and runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The build tree is .bench_build/ at the checkout root (RelWithDebInfo,
-O3 -g -DNDEBUG, the flags of the repository's own build). The benchmark's
output passes through unchanged; its last line is the JSON result. Build
logs go to stderr.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                "--untracked-files=no", "src"],
                               capture_output=True, text=True, check=True)
        return out.stdout.strip() + ("+dirty-src" if dirty.stdout.strip() else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no simulator sources under %s/src\n" % ROOT)
        return False
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def main(argv):
    target = "perfbench_selftest" if argv == ["--selftest"] else "perfbench"
    if not build(target):
        return 2
    env = dict(os.environ, PERFBENCH_COMMIT=commit())
    args = [] if target == "perfbench_selftest" else argv
    sys.stdout.flush()
    return subprocess.run([os.path.join(BUILD, target)] + args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
