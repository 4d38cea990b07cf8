#!/usr/bin/env python3
"""Build and run the RefFiL benchmark from the repository root.

    python3 perfbench/run.py --workload tcp-sync --seed 1 --seconds 15 --trace 0

The Go program lives in perfbench/ as its own module that points back at the
repository with a replace directive, so it builds from the source tree it is
run in. Every build artefact, cache and report stays under the build
directory ($CARGO_TARGET_DIR, else .bench_build) of the current directory.
Without the repository's sources next to it the build is refused and the
script exits non-zero without printing a result.
"""

import os
import shlex
import subprocess
import sys


def main():
    root = os.getcwd()
    bench = os.path.dirname(os.path.abspath(__file__))
    repo = os.path.dirname(bench)
    if not (os.path.isfile(os.path.join(repo, "go.mod"))
            and os.path.isdir(os.path.join(repo, "internal", "fl"))):
        print("perfbench: the repository sources are missing next to perfbench/", file=sys.stderr)
        return 2

    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOENV": "off",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "CGO_ENABLED": "0",
    })
    for d in ("gocache", "gopath", "tmp", "config"):
        os.makedirs(os.path.join(build, d), exist_ok=True)

    binary = os.path.join(build, "perfbench-bin")
    res = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench, env=env,
                         stdout=sys.stderr, stderr=sys.stderr)
    if res.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    command = shlex.join(["python3", os.path.relpath(os.path.abspath(__file__), root)] + sys.argv[1:])
    args = [binary, "--out", os.path.join(build, "perfbench"), "--command", command] + sys.argv[1:]
    return subprocess.run(args, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
