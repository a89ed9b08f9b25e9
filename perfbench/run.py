#!/usr/bin/env python3
"""Builds the archive benchmark from source and runs one workload.

    python3 perfbench/run.py --workload ingest|serve|node_loss \
        --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to .bench_build/cmake (or
$CARGO_TARGET_DIR/cmake); build output goes to stderr, so the last line
of stdout is the benchmark's JSON result. Exits non-zero, printing no
result, when the build fails or the benchmark reports a wrong byte.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TARGET = "aec_perfbench"


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(base, "cmake"))


def build():
    out = build_dir()
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            if "CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE not in f.read():
                subprocess.run(["rm", "-rf", out], check=True)
    if not os.path.exists(cache):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", TARGET, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, TARGET)


def main():
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
