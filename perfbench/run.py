#!/usr/bin/env python3
"""Build the perfbench program from source and run one benchmark workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dense4-cold --seed 1 --seconds 25 --trace 0

The Go build cache, the binary and the traces of traced runs all live in
the build directory (CARGO_TARGET_DIR, default .bench_build) inside the
checkout; nothing is read or written outside the checkout. The last line
of standard output is the run's result object. The exit status is the
program's; a build failure exits with 1 before anything runs.
"""

import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 175


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    home = os.path.join(build, "home")
    tmp = os.path.join(build, "tmp")
    for d in (home, tmp):
        os.makedirs(d, exist_ok=True)

    go = shutil.which("go")
    if go is None:
        print("perfbench: no go toolchain on PATH", file=sys.stderr)
        return 1
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "go-cache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "HOME": home,
        "XDG_CONFIG_HOME": os.path.join(home, ".config"),
        "XDG_CACHE_HOME": os.path.join(home, ".cache"),
        "GOENV": "off",
        "GOFLAGS": "",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
    })
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(
        [go, "build", "-trimpath", "-buildvcs=false", "-o", binary, "."],
        cwd=here, env=env)
    if built.returncode != 0:
        print("perfbench: build failed (run from the root of a full checkout)", file=sys.stderr)
        return 1

    cmd = [binary, *sys.argv[1:], "--trace-dir", os.path.join(build, "traces")]
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
