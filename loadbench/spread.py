#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints each metric's spread.

    python3 loadbench/spread.py --workload hot-spot --seeds 1-10 [--trace 0]

The spread of a metric is the distance between the first and third
quartile of its values (statistics.quantiles, n=4) as a share of their
median. Run from the repository root; the benchmark command is read from
BENCHMARK.json.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    first, last = (int(x) for x in args.seeds.split("-"))
    values = {}
    for seed in range(first, last + 1):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
        ]
        out = subprocess.run(cmd, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        steal = [l.split()[1] for l in lines if l.split()[:1] == ["host_steal_share"]]
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
            + f" (host steal {steal[0] if steal else '?'})", flush=True)
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    for k, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(k)
        flag = "" if bound is None else f" bound {bound} {'ok' if spread < bound / 3 else 'WIDE'}"
        print(f"{k:28s} median {med:.6g} spread {spread:.4f}{flag}")


if __name__ == "__main__":
    main()
