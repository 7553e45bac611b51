#!/usr/bin/env python3
"""Builds the SLP benchmark program from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload t1-paper --seed 1 --seconds 20 --trace 0

Every argument is passed on to the program (see perfbench/README.md).
The build goes to $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when that is unset, relative to the checkout; build output goes to
stderr, so the program's JSON result stays the last line of stdout.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(out):
    """Configures (once) and builds the program; returns its path or None."""
    env = dict(os.environ)
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp  # Keep the compiler's temporary files in the checkout.
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)  # Retry the configure next time.
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "--target", "slp-perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        return None
    return os.path.join(out, "slp-perfbench")


def main():
    exe = build(build_dir())
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
