#!/usr/bin/env python3
"""Build the h2h CLI and the servebench program from source, then run one
benchmark run. Run from the repository root:

    python3 servebench/run.py --workload zoo_replan --seed 1 --seconds 10 --trace 0

Build output goes to stderr; servebench's last stdout line is the result
JSON. Everything is built and written under .bench_build/ in the checkout.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "servebench")


def build():
    env = dict(os.environ, CCACHE_DISABLE="1")
    # A build system exists only after a configure step succeeded.
    if not any(os.path.exists(os.path.join(BUILD, f))
               for f in ("Makefile", "build.ninja")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release",
             # No compiler cache: it would write outside the checkout.
             "-DCCACHE_PROGRAM=CCACHE_PROGRAM-NOTFOUND"],
            check=True, stdout=sys.stderr, env=env)
    subprocess.run(
        ["cmake", "--build", BUILD, "-j", "4", "--target", "servebench",
         "h2h_cli"],
        check=True, stdout=sys.stderr, env=env)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"servebench: build failed: {e}", file=sys.stderr)
        return 1
    cmd = [os.path.join(BUILD, "servebench"), *sys.argv[1:],
           "--server", os.path.join(BUILD, "h2h", "tools", "h2h"),
           "--trace-dir", os.path.join(OUT, "traces")]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
