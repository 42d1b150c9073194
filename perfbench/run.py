#!/usr/bin/env python3
"""Build the benchmark from this checkout's sources, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload embed-sparse --seed 1 --seconds 10 --trace 0

Build output goes to stderr, so the last line on stdout is the benchmark's
JSON result. The build directory is .bench_build/perfbench under the
repository root. Exits non-zero, printing no result, when the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "gee_perfbench")


def build():
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure += ["-G", "Ninja"] if _have("ninja") else []
    compile_ = ["cmake", "--build", BUILD, "--target", "gee_perfbench",
                "-j", str(os.cpu_count() or 1)]
    for cmd in (configure, compile_):
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def _have(program):
    return any(os.access(os.path.join(d, program), os.X_OK)
               for d in os.environ.get("PATH", "").split(os.pathsep))


def main():
    if not build():
        return 2
    sys.stdout.flush()
    # The binary resolves data and socket paths relative to the root.
    os.chdir(ROOT)
    os.execv(BINARY, [BINARY] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
