#!/usr/bin/env python3
"""Builds the serving benchmark from this checkout's sources and runs it.

    python3 servebench/run.py --workload NAME --seed N --seconds S --trace 0|1

The build goes to .bench_build/servebench under the checkout root (its log
is build.log there); an up-to-date build is a no-op, and a build directory
configured from another checkout is started afresh. The benchmark's own
output, ending with its JSON result line, is passed through unchanged, and
its exit code is this script's exit code.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servebench")
BUILD_JOBS = "4"


def configured_here():
    """True when the build directory was configured from this checkout."""
    key = "CMAKE_HOME_DIRECTORY:INTERNAL="
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith(key):
                    source = line[len(key):].strip()
                    return os.path.realpath(source) == os.path.realpath(HERE)
    except OSError:
        pass
    return False


def build():
    if not configured_here():
        shutil.rmtree(BUILD, ignore_errors=True)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not configured_here():
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "servebench",
                  "-j", BUILD_JOBS])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                break
        else:
            return os.path.join(BUILD, "servebench")
    with open(log_path) as log:
        sys.stderr.write("".join(log.readlines()[-40:]))
    sys.stderr.write("servebench: build failed, see %s\n" % log_path)
    sys.exit(1)


def main():
    binary = build()
    # The library's OPAL_* switches force tracing, profiling or scalar
    # kernels process-wide; the benchmark sets those per run itself.
    env = {k: v for k, v in os.environ.items() if not k.startswith("OPAL_")}
    sys.exit(subprocess.run([binary] + sys.argv[1:], env=env,
                            cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
