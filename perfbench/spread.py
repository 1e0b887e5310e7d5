#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics across seeds.

Runs the benchmark once per seed on one workload and prints, for every
metric, the median and the interquartile range as a share of the median —
the figure `BENCHMARK.json`'s bounds are checked against.

    python3 perfbench/spread.py --workload rag_t5 --seeds 1-10 [--trace 0]

Run from the repository root. `--bin` runs a built benchmark binary
directly instead of `cargo run`.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--bin", help="benchmark binary (default: cargo run)")
    ap.add_argument("--raw", action="store_true", help="also print every value")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    cmd = [args.bin] if args.bin else bench["command"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    passes = []
    for seed in seeds(args.seeds):
        out = subprocess.run(
            cmd + ["--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", args.trace],
            capture_output=True, text=True, check=True,
        ).stdout.strip().splitlines()
        result = json.loads(out[-1])
        header = json.loads(out[0])
        passes.append(header["passes"]["traced" if args.trace == "1" else "untraced"])
        if not result["correct"]:
            print(f"seed {seed}: incorrect", file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"timed passes per run: {min(passes)} to {max(passes)}")
    for name, vs in sorted(values.items()):
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- above bound/3"
        print(f"{name:34s} median {med:14.6g}  spread {spread:7.4f}  bound {bound}{flag}")
        if args.raw:
            print("    " + " ".join(f"{v:.6g}" for v in vs))


if __name__ == "__main__":
    main()
