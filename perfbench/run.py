#!/usr/bin/env python3
"""Build and run the repository benchmark; see perfbench/README.md.

Run from the repository root:

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 20 --trace 0

Every file the build and the run write stays under .bench_build/ in the
repository: the Go build cache, the benchmark binary, and the spans and
CPU profile of traced runs. The last line of standard output is the
benchmark's JSON result.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not (os.path.isfile(os.path.join(root, "go.mod"))
            and os.path.isdir(os.path.join(root, "internal"))):
        print("perfbench: %s holds no sciera module to benchmark" % root,
              file=sys.stderr)
        return 2

    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    for var, sub in (("GOCACHE", "gocache"), ("GOMODCACHE", "gomodcache"),
                     ("GOPATH", "gopath"), ("GOTMPDIR", "tmp"),
                     ("TMPDIR", "tmp"), ("XDG_CONFIG_HOME", "config")):
        env[var] = os.path.join(build, sub)
        os.makedirs(env[var], exist_ok=True)
    env["GOTOOLCHAIN"] = "local"
    env["CGO_ENABLED"] = "0"

    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here,
                           env=env, stdout=sys.stderr)
    if built.returncode != 0:
        return built.returncode

    args = [binary, "-root", root, "-outdir", os.path.join(build, "trace")]
    proc = subprocess.Popen(args + sys.argv[1:], cwd=root, env=env)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
