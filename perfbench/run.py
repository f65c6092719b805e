"""Benchmark for the grunwald package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  NAME is one of construct, oracle, scan,
cli-mix, or `all` (every workload in turn, with a table per workload).

Each round is a fresh child process with one thread (perfbench/child.py):
it imports the package from src/, builds the workload's inputs from the
seed, runs its operations once in a closed loop with a single client,
and checks every output after the timed phase.  A workload whose full
list would make a long round is cut into slices; a round runs the
unsliced operations and one slice, in turn.  Rounds repeat until S
seconds have passed and every slice has run.  Each operation's latency
is its median over the rounds that ran it, each sample scaled to a
reference speed by a calibration loop timed next to it.  With --trace 1, a traced
round of every operation follows each turn of the slices; the traced
rounds give the per-layer metrics.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics (the end-to-end metrics, or the per-layer ones with
--trace 1).  The exit code is 0 when every output checked out, 1 when a
check failed, and 2 when the benchmark could not run.  See
perfbench/README.md for the metrics and the workloads.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

from layers import metric_names, metric_unit

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ("construct", "oracle", "scan", "cli-mix")
SETUP_SAMPLES = 7  # set-up is measured in at least this many processes per run
CHILD_TIMEOUT_S = 150
# Times are reported at the speed where child.py's calibration loop takes
# CALIBRATE_REF_S (about a 2-vCPU Xeon VM's median): each round's times
# are multiplied by CALIBRATE_REF_S over that round's median calibration.
# The raw figures are printed too.
CALIBRATE_REF_S = 0.002

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("records_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
    ("conductor_log2_mean", "bits"),
)


class BenchError(Exception):
    pass


def run_child(workload, seed, trace, workdir, slice_index=None, setup_only=False):
    """One child process's JSON result."""
    cmd = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(trace),
        "--workdir", workdir,
    ]
    if slice_index is not None:
        cmd += ["--slice", str(slice_index)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out, _ = proc.communicate()
    finally:
        timer.cancel()
    if proc.returncode != 0:
        raise BenchError(f"{workload} child exited with {proc.returncode}")
    return json.loads(out.decode().splitlines()[-1])


def tail(latencies):
    """The highest percentile with at least ten samples beyond it (the
    maximum when there are fewer than eleven): (value, percentile)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def measure(workload, seed, seconds, trace):
    """Rounds until `seconds` have passed and every slice has run.  Untraced
    rounds take the slices in turn; with `trace`, one traced round of every
    operation follows each full turn of the slices."""
    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    plain, traced = [], []
    slices = 1
    try:
        started = time.monotonic()
        while (
            len(plain) < slices
            or (trace and not traced)
            or time.monotonic() - started < seconds
        ):
            if trace and len(plain) >= slices * (len(traced) + 1):
                traced.append(run_child(workload, seed, 1, workdir))
            else:
                result = run_child(workload, seed, 0, workdir, slice_index=len(plain) % slices)
                result["slice"] = len(plain) % slices
                slices = result["slices"]
                plain.append(result)
        setups = [(r["setup_s"], scale(r, "setup_calibrate_s")) for r in plain + traced]
        while len(setups) < SETUP_SAMPLES:
            r = run_child(workload, seed, 0, workdir, setup_only=True)
            setups.append((r["setup_s"], scale(r, "setup_calibrate_s")))
        if traced:
            os.replace(os.path.join(workdir, "spans.bin"), os.path.join(WORK, f"spans-{workload}.bin"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return summarize(workload, plain, traced, setups)


def scale(r, key="calibrate_s"):
    """The factor that takes a round's times (key "calibrate_s") or its
    set-up time (key "setup_calibrate_s") to the reference speed."""
    return CALIBRATE_REF_S / r[key]


def one_pass(rounds, calibrated=True):
    """Each operation's median latency over `rounds` (s), and its records
    and conductors (the same in every round)."""
    latencies, records, conductors = {}, {}, {}
    for r in rounds:
        for index, seconds, count, logs, calibrate_s in r["ops"]:
            factor = CALIBRATE_REF_S / calibrate_s if calibrated else 1.0
            latencies.setdefault(index, []).append(seconds * factor)
            records[index] = count
            conductors[index] = logs
    medians = [statistics.median(ts) for ts in latencies.values()]
    return medians, sum(records.values()), [x for logs in conductors.values() for x in logs]


def peak_rss_mb(rounds):
    """The largest over the slices of each slice's median peak RSS: a
    round's peak occasionally reads several MB higher than its twins'."""
    by_slice = {}
    for r in rounds:
        by_slice.setdefault(r["slice"], []).append(r["peak_rss_mb"])
    return max(statistics.median(values) for values in by_slice.values())


def calibrated(name, r):
    """Layer metric `name` of traced round `r` at the reference speed."""
    value = r["layers"][name]
    if name.endswith("_per_s"):
        return value / scale(r)
    if name.endswith("_s"):
        return value * scale(r)
    return value


def summarize(workload, plain, traced, setups):
    # attempted and failed count one pass, like wall_s: each operation
    # once, failed when it failed in any round.  So they depend on the
    # seed only, not on how many rounds fitted in the run.
    rounds = plain + traced
    attempted = len({index for r in plain for index, *_ in r["ops"]})
    failures = {}
    for r in rounds:
        for index, category, label in r["failures"]:
            failures.setdefault(index, (category, label))
    failed = len(failures)
    errors = {}
    for category, label in failures.values():
        errors[label] = errors.get(label, 0) + 1
    unexpected = any(
        category != "known" for r in rounds for _, category, _ in r["failures"]
    )
    # each operation's median over the rounds that ran it, so the figures
    # do not depend on how many rounds fitted in the run; wall_s is one
    # pass over every operation
    medians, records, conductor_logs = one_pass(plain)
    wall_s = sum(medians)
    latencies = [1000 * t for t in medians]
    tail_ms, tail_pct = tail(latencies)
    e2e = {
        "setup_s": statistics.median(seconds * factor for seconds, factor in setups),
        "wall_s": wall_s,
        "op_p50_ms": statistics.median(latencies),
        "op_tail_ms": tail_ms,
        "records_per_s": records / wall_s,
        "peak_rss_mb": peak_rss_mb(plain),
        "ok_ratio": 1 - failed / attempted,
        "conductor_log2_mean": (
            sum(conductor_logs) / len(conductor_logs) if conductor_logs else 0.0
        ),
    }
    layers = {}
    if traced:
        for name in metric_names()[:-1]:
            layers[name] = statistics.median_low(calibrated(name, r) for r in traced)
        layers["trace.overhead_s"] = statistics.median(r["wall_s"] * scale(r) for r in traced) - wall_s
    return {
        "workload": workload,
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "rounds": len(plain),
        "slices": plain[0]["slices"],
        "traced_rounds": len(traced),
        "op_samples": len(latencies),
        "op_tail_percentile": tail_pct,
        "raw_setup_s": statistics.median(seconds for seconds, _ in setups),
        "raw_wall_s": sum(one_pass(plain, calibrated=False)[0]),
        "calibrate_ms": 1000 * statistics.median(r["calibrate_s"] for r in plain),
        "e2e": e2e,
        "layers": layers,
    }


def context(seed):
    """Machine, Python, source revision and seed, recorded with each result."""
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as handle:
                    digest.update(name.encode() + b"\0" + handle.read())
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
    }


def git_sha():
    """HEAD's commit id when the checkout is a git repository of its own, else 'unknown'."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def report(summary, trace):
    """Human-readable lines: every metric by name and unit, then failures."""
    lines = [
        f"workload {summary['workload']}: {summary['rounds']} rounds over {summary['slices']} slice(s)"
        f" (+{summary['traced_rounds']} traced), {summary['op_samples']} ops (each a median over rounds),"
        f" tail = p{summary['op_tail_percentile']:.1f},"
        f" fail_ratio = {summary['failed']}/{summary['attempted']}",
        f"  times at the reference speed; uncalibrated: setup_s {summary['raw_setup_s']:.6g} s,"
        f" wall_s {summary['raw_wall_s']:.6g} s; calibration loop median {summary['calibrate_ms']:.4g} ms"
        f" (reference {1000 * CALIBRATE_REF_S:g} ms)",
    ]
    for name, unit in END_TO_END:
        lines.append(f"  {name:<22} {summary['e2e'][name]:>16.6g} {unit}")
    if trace:
        for name, value in summary["layers"].items():
            lines.append(f"  {name:<50} {value:>16.6g}")
    for label, count in sorted(summary["errors"].items()):
        lines.append(f"  failed x{count}: {label}")
    return "\n".join(lines)


def metrics(summary, trace):
    if not trace:
        return {name: {"value": summary["e2e"][name], "unit": unit} for name, unit in END_TO_END}
    return {
        name: {"value": value, "unit": metric_unit(name)}
        for name, value in summary["layers"].items()
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "grunwald", "__init__.py")):
        print("error: src/grunwald not found; run from the repository root", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    print("context: " + json.dumps(context(args.seed)))
    summaries = []
    try:
        for name in names:
            summary = measure(name, args.seed, args.seconds, args.trace)
            print(report(summary, args.trace), flush=True)
            summaries.append(summary)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(summaries) == 1:
        values = metrics(summaries[0], args.trace)
    else:
        values = {
            f"{s['workload']}.{name}": value
            for s in summaries
            for name, value in metrics(s, args.trace).items()
        }
    correct = all(s["correct"] for s in summaries)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": values,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
