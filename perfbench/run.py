#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload steady --seed 1 --seconds 10 --trace 0

The Go program is built from source into .bench_build/ (the build
cache lives there too, so nothing is written outside the checkout) and
then run with the same arguments. Its last line of standard output is
the JSON result; the exit code is non-zero when the build fails or an
output check fails.
"""
import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(ROOT, ".bench_build")


def main():
    os.makedirs(OUT, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(OUT, "gocache"),
        GOMODCACHE=os.path.join(OUT, "gomodcache"),
        GOPATH=os.path.join(OUT, "gopath"),
        GOTMPDIR="",
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOTELEMETRY="off",
        GOWORK="off",
    )
    binary = os.path.join(OUT, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=BENCH, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    run = subprocess.run([binary, "--workdir", OUT] + sys.argv[1:], cwd=ROOT, env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
