"""One round of one workload, in its own process.

    python3 perfbench/child.py --workload W --seed N --trace 0|1 --workdir DIR
                               [--slice K] [--setup-only]

Sets up (import plus seeded input generation), runs the round's
operations once in a closed loop with a single client, checks every
output after the timed phase, and prints one JSON object.  A calibration
loop runs between operations to measure the host's speed.  The round runs
the operations without a slice and those of slice K (every operation when
--slice is left out).  Run from the repository root.
"""

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time

SETUP_START = time.perf_counter()
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import workloads  # noqa: E402  (imports grunwald)


# The host's speed drifts by 20-40 % over seconds to minutes.  A fixed
# pure-arithmetic loop, timed before the first operation, after the last
# and between operations at least every CALIBRATE_EVERY_S, measures the
# speed the round ran at; run.py scales each operation's time by the
# calibrations nearest to it.
CALIBRATE_LOOP = 20000
CALIBRATE_EDGE = 5
CALIBRATE_EVERY_S = 0.1
CALIBRATE_NEAREST = 5


def calibrate():
    """(when it ended, seconds it took) for one calibration loop."""
    t0 = time.perf_counter()
    x = 0
    for i in range(CALIBRATE_LOOP):
        x = (x * 31 + i) % 1000003
    t1 = time.perf_counter()
    return t1, t1 - t0


def median_seconds(calibrations):
    return statistics.median(seconds for _, seconds in calibrations)


def local_calibration(calibrations, start, latency):
    """The median of the CALIBRATE_NEAREST calibrations that ended nearest
    to the middle of an operation."""
    middle = start + latency / 2
    return median_seconds(sorted(calibrations, key=lambda c: abs(c[0] - middle))[:CALIBRATE_NEAREST])


def _checks_out(op, result):
    try:
        return op.check(result)
    except Exception:  # an output the check cannot even read is wrong
        return False


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--slice", type=int, default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    ops = workloads.build(args.workload, args.seed, args.workdir)
    selected = workloads.select(ops, args.slice)
    setup_s = time.perf_counter() - SETUP_START
    if args.setup_only:
        calibrations = [calibrate() for _ in range(CALIBRATE_EDGE)]
        print(json.dumps({"setup_s": setup_s, "setup_calibrate_s": median_seconds(calibrations)}))
        return

    tracer = None
    if args.trace:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    results, starts, latencies = [], [], []
    calibrations = [calibrate() for _ in range(CALIBRATE_EDGE)]
    for i in selected:
        if time.perf_counter() - calibrations[-1][0] >= CALIBRATE_EVERY_S:
            calibrations.append(calibrate())
        run = ops[i].run
        t0 = time.perf_counter()
        try:
            results.append(tracer.call_op(run) if tracer else run())
        except Exception as exc:  # judged after the timed phase
            results.append(exc)
        starts.append(t0)
        latencies.append(time.perf_counter() - t0)
    calibrations += [calibrate() for _ in range(CALIBRATE_EDGE)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()

    # raised: unexpected exceptions; known: KNOWN_FAILURES raised as
    # expected; wrong: outputs that failed their check.  All three count
    # as failed operations; only known ones leave the run correct.
    failures = []  # [index, category, label]
    for i, result in zip(selected, results):
        op = ops[i]
        if isinstance(result, Exception) and not op.expects_error:
            if op.is_known_failure(result):
                category = "known"
                label = f"{op.kind}: known failure: {type(result).__name__}: {op.known_failure[1]}"
            else:
                category = "raised"
                label = f"{op.kind}: raised {type(result).__name__}: {result}"
        elif not _checks_out(op, result):
            category = "wrong"
            label = f"{op.kind}: wrong output"
        else:
            continue
        failures.append([i, category, label])

    out = {
        "slices": workloads.slice_count(ops),
        "setup_s": setup_s,
        "wall_s": sum(latencies),
        "calibrate_s": median_seconds(calibrations),
        "setup_calibrate_s": median_seconds(calibrations[:CALIBRATE_EDGE]),
        "peak_rss_mb": peak_rss_mb,
        # per operation run: [index, latency, records, log2 of each
        # conductor, calibration nearby]
        "ops": [
            [
                i, t, ops[i].records, [math.log2(f) for f in ops[i].conductors],
                local_calibration(calibrations, t0, t),
            ]
            for i, t0, t in zip(selected, starts, latencies)
        ],
        "failures": failures,
    }
    if tracer:
        out["layers"] = tracer.metrics()
        tracer.dump(os.path.join(args.workdir, "spans.bin"))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
