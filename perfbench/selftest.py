#!/usr/bin/env python3
"""Tiny-scale self-test of the benchmark.

Run from the root of a checkout:

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json, and t2-entail, which the program
keeps but BENCHMARK.json does not run, it checks that a tiny run prints
every end-to-end metric (--trace 0) and every per-layer metric
(--trace 1) by name with its unit, and that the verdict checks reject
a fabricated wrong verdict. It also checks that malformed arguments
are refused without a result. Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY = ["--seed", "3", "--seconds", "1"]
SCALE = {"vc-batch": "1"}  # Re-issues; the tables take instances per row.
EXTRA = ["t2-entail"]  # Offered by the program, not run by BENCHMARK.json.


def run(args):
    p = subprocess.run([sys.executable, os.path.join(HERE, "run.py")] + args,
                       cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return p.returncode, result, p.stderr


def fail(msg):
    print("selftest: FAIL: " + msg)
    sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for name in [w["name"] for w in spec["workloads"]] + EXTRA:
        base = ["--workload", name, "--scale", SCALE.get(name, "2")] + TINY
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            code, r, err = run(base + ["--trace", trace])
            if code != 0 or r is None or not r["correct"]:
                fail(f"{name} --trace {trace}: exit {code}\n{err[-2000:]}")
            if set(r) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{name}: result keys {sorted(r)}")
            if r["attempted"] < 1 or r["failed"] != 0:
                fail(f"{name}: attempted {r['attempted']}, failed {r['failed']}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            if got != want:
                fail(f"{name} --trace {trace}: metrics differ from "
                     f"BENCHMARK.json: missing {sorted(set(want) - set(got))}, "
                     f"extra {sorted(set(got) - set(want))}, units "
                     f"{[k for k in want if k in got and got[k] != want[k]]}")
            print(f"selftest: {name} --trace {trace}: {len(got)} metrics ok")

        code, r, _ = run(base + ["--trace", "0", "--inject-wrong-verdict"])
        if code == 0 or r is None or r["correct"] or r["failed"] < 1:
            fail(f"{name}: a fabricated wrong verdict was not rejected")
        print(f"selftest: {name}: fabricated wrong verdict rejected")

    for bad in (["--seed", "abc"], ["--seed", "1e3"], ["--scale", "1e3"],
                ["--seconds", "0"], ["--trace", "2"], ["--workload", "t9"]):
        args = ["--workload", "t2-entail", "--seed", "1", "--seconds", "1",
                "--trace", "0"]
        i = args.index(bad[0]) if bad[0] in args else len(args)
        args = args[:i] + bad + args[i + 2:]
        code, r, _ = run(args)
        if code != 2 or r is not None:
            fail(f"malformed argument {bad} was accepted (exit {code})")
    print("selftest: malformed arguments refused")
    print("selftest: PASS")


if __name__ == "__main__":
    main()
