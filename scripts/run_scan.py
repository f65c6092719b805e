#!/usr/bin/env python3
"""Scan primitive characters by conductor and summarize least-prime ratios.

Writes the CSV (same format as `grunwald scan`) and prints decile maxima
of ratio_C so the absence of an upward trend is visible at a glance.
"""

import argparse
import time

from grunwald import scan_family, write_scan_csv
from grunwald.core_arith import Place


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-conductor", type=int, default=2000)
    parser.add_argument("--S", default="", help="comma-separated places to exclude")
    parser.add_argument("--epsilon", type=float, default=0.1)
    parser.add_argument("--out", default="scan.csv")
    args = parser.parse_args()

    S = tuple(Place.parse(part) for part in args.S.split(",") if part)
    X = args.max_conductor
    flagged = 0
    # running max of least prime, ratio_A, ratio_B over clean records
    max_p, max_a, max_b = 0, 0.0, 0.0
    deciles = [0.0] * 10  # running ratio_C maxima per conductor decile

    def tally(records):
        nonlocal flagged, max_p, max_a, max_b
        for rec in records:
            if rec.cap_exceeded:
                flagged += 1
            else:
                max_p = max(max_p, rec.least_prime)
                max_a = max(max_a, rec.ratio_a)
                max_b = max(max_b, rec.ratio_b)
                d = min(9, (rec.conductor - 1) * 10 // X)
                deciles[d] = max(deciles[d], rec.ratio_c)
            yield rec

    t0 = time.time()
    with open(args.out, "w", encoding="utf-8") as handle:
        count = write_scan_csv(tally(scan_family(X, S, args.epsilon)), handle)
    print(f"{count} primitive characters with conductor <= {X} "
          f"({time.time() - t0:.1f}s) -> {args.out}")

    print(f"flagged (cap exceeded): {flagged}")
    print(f"max least prime: {max_p}")
    print(f"max ratio_A: {max_a:.6f}")
    print(f"max ratio_B: {max_b:.6f}")
    print("ratio_C decile maxima (by conductor):")
    for i, v in enumerate(deciles):
        lo = i * X // 10 + 1
        hi = (i + 1) * X // 10
        print(f"  {lo:>5}..{hi:<5} {v:.6f}")


if __name__ == "__main__":
    main()
