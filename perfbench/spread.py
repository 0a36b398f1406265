#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints each end-to-end
metric's median and quartile spread (IQR over median), the way the
benchmark's bounds are checked.

    python3 perfbench/spread.py [--seeds 10] [--seconds 5] [workload ...]

Run from the repository root. Set CARGO_TARGET_DIR to reuse a build.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(workload, seed, seconds):
    cmd = ["cargo", "run", "--release", "--offline", "--quiet",
           "--manifest-path", "perfbench/Cargo.toml", "--",
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    fsync = [l.split()[2] for l in lines if l.startswith("metric machine.fsync_ms")]
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({out.returncode}):\n"
                 f"{out.stdout}\n{out.stderr}")
    return json.loads(lines[-1]), fsync


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=5)
    ap.add_argument("workloads", nargs="*")
    a = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for w in a.workloads or [x["name"] for x in bench["workloads"]]:
        values = {}
        for seed in range(1, a.seeds + 1):
            res, fsync = run(w, seed, a.seconds)
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
                + f" fsync_ms={'/'.join(fsync)}", flush=True)
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        for k, vs in values.items():
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
            print(f"{w:10} {k:12} median {med:12.5g} spread {spread:6.3f}"
                  f" (bound {bounds.get(k)})", flush=True)


if __name__ == "__main__":
    main()
