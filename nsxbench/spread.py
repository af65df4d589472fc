#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 nsxbench/spread.py --workloads overlay_hot conn_setup \
        --seeds 1 2 3 4 5 --seconds 20 [--sets 2] [--trace 0] \
        [--bin path/to/nsxbench]

Within a set, each seed runs every workload in turn. For every workload
and metric it prints the median and the interquartile range as a share
of the median (statistics.quantiles(values, n=4)), the figure the bounds
in BENCHMARK.json are checked against. With --sets 2 a second set runs
afterwards on seeds offset by 1000, and the gap between the two sets'
medians is printed too, signed so that positive means the second set
reads worse. Run it from the repository root; without --bin it goes
through the command in BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_set(cmd, workloads, seeds, seconds, trace):
    """{workload: {metric: [values]}} over one set of seeds."""
    values = {w: {} for w in workloads}
    for seed in seeds:
        for w in workloads:
            argv = cmd + ["--workload", w, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", trace]
            res = subprocess.run(argv, capture_output=True, text=True)
            if res.returncode != 0:
                sys.exit(f"{w} seed {seed}: exit {res.returncode}\n{res.stderr}")
            result = json.loads(res.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{w} seed {seed}: incorrect\n{res.stderr}")
            metrics = result["metrics"]
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in metrics.items()),
                flush=True)
            for k, v in metrics.items():
                values[w].setdefault(k, []).append(v["value"])
    return values


def spread(vs):
    med = statistics.median(vs)
    if len(vs) < 2 or not med:
        return float("nan")
    q = statistics.quantiles(vs, n=4)
    return (q[2] - q[0]) / abs(med)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--sets", type=int, choices=[1, 2], default=1)
    ap.add_argument("--trace", default="0")
    ap.add_argument("--bin", help="a built nsxbench binary to run directly")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    cmd = [args.bin] if args.bin else bench["command"]
    gated = {m["name"]: m for m in bench["end_to_end"]}

    sets = [run_set(cmd, args.workloads, args.seeds, args.seconds, args.trace)]
    if args.sets == 2:
        sets.append(run_set(cmd, args.workloads, [s + 1000 for s in args.seeds],
                            args.seconds, args.trace))

    for w in args.workloads:
        print(f"== {w}")
        for k, vs in sets[0][w].items():
            m = gated.get(k)
            line = f"  {k:36s} median {statistics.median(vs):<10.6g}"
            line += f" spread {spread(vs):.4f}"
            flags = []
            if m and spread(vs) > m["bound"] / 3:
                flags.append("spread above a third of its bound")
            if len(sets) == 2:
                vs2 = sets[1][w][k]
                med1, med2 = statistics.median(vs), statistics.median(vs2)
                gap = (med2 / med1 - 1) if med1 else float("nan")
                if m and m["better"] == "higher":
                    gap = -gap
                line += f" | set 2 median {med2:<10.6g} spread {spread(vs2):.4f}"
                line += f" gap {gap:+.4f}"
                if m and spread(vs2) > m["bound"] / 3:
                    flags.append("set 2 spread above a third of its bound")
                if m and gap > m["bound"]:
                    flags.append("set 2 worse by more than the bound")
            if m:
                line += f"  bound {m['bound']}"
            print(line + "".join(f"  <-- {f}" for f in flags))


if __name__ == "__main__":
    main()
