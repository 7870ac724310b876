#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-long --seed 1 --seconds 10 --trace 0

The Go program in this directory is compiled from source into the build
directory ($CARGO_TARGET_DIR, default .bench_build) with every Go cache
kept there too, then executed with the same arguments. Its last line of
standard output is the JSON verdict. A failed build exits non-zero
without printing one.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("sweep-long", "fleet-sweep-short", "fleet-check")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    home = os.path.join(build, "home")
    tmp = os.path.join(build, "tmp")
    for d in (home, tmp):
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ)
    env.update({
        # Keep every file the toolchain writes inside the checkout, and
        # never reach for the network: the module has no dependencies
        # beyond the repository itself.
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "HOME": home,
        "XDG_CONFIG_HOME": os.path.join(home, ".config"),
        "XDG_CACHE_HOME": os.path.join(home, ".cache"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=readonly",
        "GOWORK": "off",
        "GOTELEMETRY": "off",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(build, "perfbench-bin")
    proc = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                          stdout=sys.stderr)
    if proc.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(proc.returncode or 1)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, cwd=root, env=env).returncode)


if __name__ == "__main__":
    main()
