#!/usr/bin/env python3
"""Build the benchmark from source, then run it in place of this script.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The Go build cache, the module cache
and the binary go to .bench_build/ under the current directory, so the
build writes nothing outside the checkout; the benchmark writes its
result and trace files to .bench_out/. The arguments are passed to the
benchmark unchanged (see perfbench/README.md). A failed build exits 1
without printing a result.
"""
import os
import signal
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    os.makedirs(build, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        XDG_CACHE_HOME=os.path.join(build, "cache"),
        GOENV="off",
        GOFLAGS="",
        CGO_ENABLED="0",
        GOWORK="off",
        GOPROXY="off",
        GOTOOLCHAIN="local",
    )
    binary = os.path.join(build, "perfbench")

    # A signal during the build stops the build too, and waits for it.
    proc = subprocess.Popen(["go", "build", "-o", binary, "."], cwd=here, env=env,
                            stdout=sys.stderr)

    def stop(signum, _frame):
        proc.terminate()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    if proc.wait() != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
