#!/usr/bin/env python3
"""Run the benchmark in two trees, pair by pair, and count the wins.

    python3 scripts/bench_pairs.py BASE CHANGE --workload construct --seed 1 --pairs 10 --seconds 28

BASE and CHANGE are checkouts of the repository.  Each pair runs
`perfbench/run.py` once in each tree, alternating which tree goes first.
`--workload all` runs every workload in each run and groups the output by
workload.  For every end-to-end metric it prints each side's median and
quartiles and the number of pairs CHANGE won (better in the direction
BENCHMARK.json gives; ties count for neither side), and whether that
meets the gain rule: at least nine tenths of the pairs won and the
medians further apart than BASE's interquartile range.  The rule is
applied only to at least GAIN_MIN_PAIRS pairs; with fewer, BASE's
interquartile range can be 0 and one won pair would read as a gain, so
the header says so and no metric is marked `gain`.  `worse` marks a
metric whose CHANGE median is worse than BASE's by more than its
BENCHMARK.json bound, a share of BASE's median.  Above each workload's
metrics it prints each side's median round count, read from `run.py`'s
`workload NAME: N rounds` line: a faster tree fits more rounds into a
run, and `peak_rss_mb`, a high-water mark that `run.py`'s children
inherit, grows with them, so the count tells that rise from the
program's own memory.  Standard library only.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

GAIN_MIN_PAIRS = 10
ROUNDS = re.compile(r"workload (\S+): (\d+) rounds")


def run_once(tree, args):
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"error: {' '.join(cmd)} in {tree} exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    rounds = {m[1]: int(m[2]) for line in lines if (m := ROUNDS.match(line))}
    print(f"  {tree}: failed {result['failed']}/{result['attempted']} rounds {rounds} "
          + " ".join(f"{k}={v:.6g}" for k, v in values.items()), file=sys.stderr, flush=True)
    return values, rounds


def quartiles(values):
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=28)
    args = parser.parse_args()
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = {m["name"]: m for m in json.load(handle)["end_to_end"]}

    runs = ([], [])  # base, change
    rounds = ([], [])
    for i in range(args.pairs):
        print(f"pair {i + 1}/{args.pairs}", file=sys.stderr, flush=True)
        for side in (0, 1) if i % 2 == 0 else (1, 0):
            values, counts = run_once((args.base, args.change)[side], args)
            runs[side].append(values)
            rounds[side].append(counts)

    def print_rounds(workload):
        base, change = (statistics.median(r[workload] for r in side) for side in rounds)
        print(f"rounds: {base:g} -> {change:g} (median per run)")

    note = "" if args.pairs >= GAIN_MIN_PAIRS else f" (gain rule needs {GAIN_MIN_PAIRS} pairs)"
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs: median [q1, q3] base -> change{note}")
    shown = None
    for name in runs[0][0]:
        # `run.py --workload all` names a metric <workload>.<metric>
        workload, _, metric = name.rpartition(".")
        if workload != shown:
            shown = workload
            if workload:
                print(f"[{workload}]")
            print_rounds(workload or args.workload)
        sign = 1 if spec[metric]["better"] == "lower" else -1
        base = [r[name] for r in runs[0]]
        change = [r[name] for r in runs[1]]
        wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
        bq, cq = quartiles(base), quartiles(change)
        gain = (
            args.pairs >= GAIN_MIN_PAIRS
            and wins >= 0.9 * args.pairs
            and sign * (bq[1] - cq[1]) > bq[2] - bq[0]
        )
        worse = sign * (cq[1] - bq[1]) > spec[metric]["bound"] * abs(bq[1])
        print(f"{metric}: {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}] -> {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}]"
              f"  won {wins}/{args.pairs}{'  gain' if gain else ''}{'  worse' if worse else ''}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
