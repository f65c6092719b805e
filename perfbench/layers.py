"""Per-layer tracing from outside the library.

`Tracer.install` replaces each public function in TARGETS, under every name
a grunwald module binds it to (for example `grunwald.core_arith.factor`
and `grunwald.solver.factor`), with a wrapper that records a span: name,
start, end and the enclosing span.  Generator functions are wrapped so
that each `next()` is a span of that function.  Spans stay in memory,
in flat arrays, until `metrics()` turns them into self time, calls and
counters, and `dump()` writes them out.
"""

from __future__ import annotations

import array
import functools
import inspect
import json
import math
import sys
import time

TARGETS = {
    "core_arith": ("factor", "components", "dlog_units", "is_prime", "unit_group"),
    "characters": ("conductor", "local_component", "evaluate", "primitivize", "local_character"),
    "wang_special": ("special_case",),
    "solver": (
        "construct", "auxiliary_primes", "build_cycle", "solve_character",
        "oracle_minimal", "bound_report",
    ),
    "mult_one": ("scan_family", "write_scan_csv", "least_nonsplit_prime"),
    "powres": ("least_non_lth_power_modulus", "least_non_lth_power_modulus_with_order"),
    "cli": ("run",),
}

# Functions a caller of the package starts work with: they also report
# total_s, the time spent inside them including callees.
ENTRY_POINTS = (
    "cli.run",
    "solver.construct",
    "solver.oracle_minimal",
    "solver.bound_report",
    "wang_special.special_case",
    "mult_one.scan_family",
    "mult_one.write_scan_csv",
    "mult_one.least_nonsplit_prime",
    "powres.least_non_lth_power_modulus",
    "powres.least_non_lth_power_modulus_with_order",
)

CACHED = ("core_arith.factor", "core_arith.components")

OP = "op"  # the span around one benchmark operation
NO_PARENT = -1


def metric_names():
    """Every per-layer metric `Tracer.metrics` reports, in order."""
    names = []
    for module, functions in TARGETS.items():
        for fn in functions:
            key = f"{module}.{fn}"
            names += [f"{key}.calls", f"{key}.self_s"]
            if key in ENTRY_POINTS:
                names.append(f"{key}.total_s")
    for key in CACHED:
        names += [f"{key}.cache_entries", f"{key}.hit_ratio"]
    names += [
        "solver.auxiliary_primes.kept",
        "solver.auxiliary_primes.kept_ratio",
        "solver.construct.cycle_log2_mean",
        "solver.construct.unused_cycle_log2_mean",
        "solver.oracle_minimal.integers_per_s",
        "mult_one.scan_family.records_per_s",
        "trace.overhead_s",
    ]
    return names


def metric_unit(name):
    if name.endswith((".calls", ".cache_entries", ".kept")):
        return "count"
    if name.endswith((".hit_ratio", ".kept_ratio")):
        return "ratio"
    if name.endswith("log2_mean"):
        return "bits"
    if name.endswith("per_s"):
        return "1/s"
    return "s"


class _TracedIterator:
    """Charges the time of each next() on a generator to its function."""

    __slots__ = ("_tracer", "_name", "_it")

    def __init__(self, tracer, name, it):
        self._tracer = tracer
        self._name = name
        self._it = it

    def __iter__(self):
        return self

    def __next__(self):
        idx = self._tracer.open(self._name)
        try:
            value = next(self._it)
        except StopIteration:
            self._tracer.close(idx)
            raise
        self._tracer.close(idx)
        self._tracer.yielded[self._name] += 1
        return value


class Tracer:
    def __init__(self):
        self.names = [OP]
        self.name_ids = {OP: 0}
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.stack = [NO_PARENT]
        self.originals = {}  # key -> function
        self.patched = []  # (module, attribute, original)
        self.yielded = {}
        # (args, kwargs, result or NoSolutionBelowCap or None, seconds) per call
        self.calls = {
            key: [] for key in ("solver.construct", "solver.auxiliary_primes", "solver.oracle_minimal")
        }
        from grunwald.errors import NoSolutionBelowCap

        self.no_solution = NoSolutionBelowCap

    # ----- span recording ------------------------------------------------

    def open(self, name_id):
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self.stack[-1])
        self.span_end.append(0.0)
        self.stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.span_end[idx] = time.perf_counter()
        self.stack.pop()

    def call_op(self, run):
        """Run one benchmark operation inside an `op` span."""
        idx = self.open(0)
        try:
            return run()
        finally:
            self.close(idx)

    # ----- installing wrappers -------------------------------------------

    def _wrap(self, key, fn):
        name_id = self.name_ids[key] = len(self.names)
        self.names.append(key)
        tracer = self
        if inspect.isgeneratorfunction(fn):
            self.yielded[name_id] = 0

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                return _TracedIterator(tracer, name_id, fn(*args, **kwargs))

            return gen_wrapper
        calls = self.calls.get(key)
        no_solution = self.no_solution

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name_id)
            outcome = None  # stays None when the call raises anything else
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except no_solution as exc:
                outcome = exc
                raise
            finally:
                tracer.close(idx)
                if calls is not None:
                    seconds = tracer.span_end[idx] - tracer.span_start[idx]
                    calls.append((args, kwargs, outcome, seconds))

        return wrapper

    def install(self):
        consumers = [m for n, m in sys.modules.items() if n == "grunwald" or n.startswith("grunwald.")]
        for module_name, functions in TARGETS.items():
            for fn_name in functions:
                key = f"{module_name}.{fn_name}"
                original = getattr(sys.modules[f"grunwald.{module_name}"], fn_name)
                self.originals[key] = original
                wrapper = self._wrap(key, original)
                for consumer in consumers:
                    for attr, value in list(vars(consumer).items()):
                        if value is original:
                            setattr(consumer, attr, wrapper)
                            self.patched.append((consumer, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self.patched):
            setattr(module, attr, original)
        self.patched.clear()

    # ----- results ---------------------------------------------------------

    def dump(self, path):
        """Write the spans: a JSON header line, then the four arrays."""
        with open(path, "wb") as handle:
            header = {"names": self.names, "count": len(self.span_name),
                      "arrays": ["name:i", "parent:i", "start:d", "end:d"]}
            handle.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(handle)

    def metrics(self):
        n = len(self.span_name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        child_time = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p != NO_PARENT:
                child_time[p] += ends[i] - starts[i]
        k = len(self.names)
        calls = [0] * k
        self_s = [0.0] * k
        for i in range(n):
            name = names[i]
            calls[name] += 1
            self_s[name] += ends[i] - starts[i] - child_time[i]
        entry_ids = {self.name_ids[key] for key in ENTRY_POINTS if key in self.name_ids}
        total_s = [0.0] * k
        for i in range(n):
            name = names[i]
            if name in entry_ids and not self._inside(i, name):
                total_s[name] += ends[i] - starts[i]

        out = {}
        for key, name_id in self.name_ids.items():
            if key == OP:
                continue
            out[f"{key}.calls"] = calls[name_id]
            out[f"{key}.self_s"] = self_s[name_id]
            if key in ENTRY_POINTS:
                out[f"{key}.total_s"] = total_s[name_id]
        for key in CACHED:
            info = getattr(self.originals[key], "cache_info", None)
            entries, ratio = 0, 0.0
            if info is not None:
                info = info()
                entries = info.currsize
                lookups = info.hits + info.misses
                ratio = info.hits / lookups if lookups else 0.0
            out[f"{key}.cache_entries"] = entries
            out[f"{key}.hit_ratio"] = ratio
        out.update(self._aux_counters())
        out.update(self._construct_counters())
        searched, oracle_s = 0, 0.0
        for args, kwargs, outcome, seconds in self.calls["solver.oracle_minimal"]:
            if isinstance(outcome, self.no_solution):
                searched += args[1] if len(args) > 1 else kwargs["cap"]
            elif outcome is not None:
                searched += self._conductor(outcome.character)
            else:
                continue
            oracle_s += seconds
        out["solver.oracle_minimal.integers_per_s"] = searched / oracle_s if oracle_s else 0.0
        scan_id = self.name_ids["mult_one.scan_family"]
        scan_s = total_s[scan_id]
        out["mult_one.scan_family.records_per_s"] = (
            self.yielded[scan_id] / scan_s if scan_s else 0.0
        )
        return out

    def _inside(self, i, name):
        p = self.span_parent[i]
        while p != NO_PARENT:
            if self.span_name[p] == name:
                return True
            p = self.span_parent[p]
        return False

    def _conductor(self, chi):
        return self.originals["characters.conductor"](chi).norm

    def _aux_counters(self):
        """Primes kept, and kept / eligible primes tried up to the last kept."""
        is_prime = self.originals["core_arith.is_prime"]
        kept = tried = 0
        for args, kwargs, result, _ in self.calls["solver.auxiliary_primes"]:
            if result is None:
                continue
            m, S = args[0], args[1] if len(args) > 1 else kwargs["S"]
            l = min(q for q in range(2, m + 1) if m % q == 0)
            excluded = {v.prime for v in S if not v.is_real} | {l}

            def eligible(q):
                return q not in excluded and math.gcd(m, q - 1) > 1

            greedy = [q for q in result if eligible(q)]
            kept += len(greedy)
            if greedy:
                last = max(greedy)
                tried += sum(1 for q in range(2, last + 1) if eligible(q) and is_prime(q))
        return {
            "solver.auxiliary_primes.kept": kept,
            "solver.auxiliary_primes.kept_ratio": kept / tried if tried else 0.0,
        }

    def _construct_counters(self):
        cycles, unused = [], []
        for _, _, sol, _ in self.calls["solver.construct"]:
            if sol is None:
                continue
            cycle = sol.cycle.norm
            cycles.append(math.log2(cycle))
            unused.append(math.log2(cycle / self._conductor(sol.character)))
        return {
            "solver.construct.cycle_log2_mean": sum(cycles) / len(cycles) if cycles else 0.0,
            "solver.construct.unused_cycle_log2_mean": sum(unused) / len(unused) if unused else 0.0,
        }
