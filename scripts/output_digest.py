#!/usr/bin/env python3
"""Print a digest of the solver's exact outputs, to compare two checkouts.

    python3 scripts/output_digest.py

Prints one `name count sha256` line per output family, each hashed over
one text line per call (the `repr` of the result, or the exception's type
and message):

- `oracle_minimal`: the oracle ops of the `oracle` benchmark workload for
  seeds 1-3, then each of the 160 acceptance-matrix cells
  (`scripts/bounds_matrix.py`) at cap = construct's conductor, at cap 2000
  with exponent 2m, and at cap 60;
- `construct`: the construct ops of the `construct` workload for seeds
  1-3, then the 160 cells;
- `auxiliary_primes`: m in {2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32} times
  every S of at most four of the primes 2..13, with and without the real
  place;
- `cli`: the cli-mix ops of the `cli-mix` workload for seeds 1-3, each
  hashed as the `repr` of its (exit code, stdout) pair;
- `powres`: `least_non_lth_power_modulus_with_order(p, l, r)` for every
  prime p <= 47, l in {2, 3, 5, 7, 11, 13} and r >= 0 with l^r <= 200;
- `special_case`: the `SpecialCaseReport` over Q and Q(sqrt d) for every
  squarefree d with |d| <= 200, each m <= 64 and each of a few place sets
  with and without the real place;
- `scan`: the CSV that `write_scan_csv(scan_family(1000))` writes, hashed
  whole, with its record count in place of a call count;
- `scan_s`: the same for `scan_family(400)` with S = {2, 3, 7, infinity}
  and cap 13, so that the witness search skips places of S and passes
  its cap (flagged rows).

Equal lines in two checkouts mean byte-identical outputs.  The package is
imported from this checkout's `src/`, and the workloads are read from its
`perfbench/workloads.py`, which is not changed.  Standard library only.
"""

import hashlib
import io
import itertools
import math
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "scripts")]

import workloads  # noqa: E402
from bounds_matrix import BASE, EXPONENTS, prescriptions  # noqa: E402
from grunwald import FieldDescriptor, construct, make_instance, oracle_minimal, special_case  # noqa: E402
from grunwald.core_arith import Place, primes_stream  # noqa: E402
from grunwald.mult_one import scan_family, write_scan_csv  # noqa: E402
from grunwald.powres import least_non_lth_power_modulus_with_order  # noqa: E402
from grunwald.solver import auxiliary_primes  # noqa: E402

SEEDS = (1, 2, 3)
AUX_EXPONENTS = (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32)
AUX_PRIMES = (2, 3, 5, 7, 11, 13)
POWRES_PRIMES = tuple(itertools.takewhile(lambda p: p <= 47, primes_stream()))
POWRES_L = (2, 3, 5, 7, 11, 13)
POWRES_TOP = 200
SCAN_MAX_CONDUCTOR = 1000
SCAN_S_MAX_CONDUCTOR = 400
SCAN_S = (Place(2), Place(3), Place(7), Place(None))
SCAN_S_CAP = 13
WANG_MAX_D = 200
WANG_MAX_M = 64
WANG_PLACE_SETS = ((), (2,), (3,), (2, 3), (None,), (2, None), (7, None), (2, 3, 5, 7, None))


def outcome(call):
    try:
        return repr(call())
    except Exception as exc:  # an expected raise is an output too
        return f"{type(exc).__name__}: {exc}"


def matrix_cells():
    for m in EXPONENTS:
        for k in range(len(BASE) + 1):
            for S in itertools.combinations(BASE, k):
                yield m, make_instance(m, prescriptions(m, set(S)))


def workload_ops(name, workdir):
    for seed in SEEDS:
        yield from workloads.build(name, seed, workdir)


def oracle_lines(workdir):
    for op in workload_ops("oracle", workdir):
        yield outcome(op.run)
    for m, inst in matrix_cells():
        cap = construct(inst).conductor_norm
        yield outcome(lambda: oracle_minimal(inst, cap))
        yield outcome(lambda: oracle_minimal(inst, 2000, exponent=2 * m))
        yield outcome(lambda: oracle_minimal(inst, 60))


def construct_lines(workdir):
    for op in workload_ops("construct", workdir):
        yield outcome(op.run)
    for _, inst in matrix_cells():
        yield outcome(lambda: construct(inst))


def auxiliary_lines(workdir):
    for m in AUX_EXPONENTS:
        for k in range(5):
            for primes in itertools.combinations(AUX_PRIMES, k):
                for real in (False, True):
                    S = {Place(p) for p in primes} | ({Place(None)} if real else set())
                    yield outcome(lambda: auxiliary_primes(m, S))


def cli_lines(workdir):
    for op in workload_ops("cli-mix", workdir):
        yield outcome(op.run)


def powres_lines(workdir):
    for p in POWRES_PRIMES:
        for l in POWRES_L:
            r = 0
            while l**r <= POWRES_TOP:
                yield outcome(lambda: least_non_lth_power_modulus_with_order(p, l, r))
                r += 1


def special_case_lines(workdir):
    fields = [FieldDescriptor(), FieldDescriptor(-1)]
    for n in range(2, WANG_MAX_D + 1):
        if all(n % (p * p) for p in range(2, math.isqrt(n) + 1)):
            fields += [FieldDescriptor(n), FieldDescriptor(-n)]
    place_sets = [tuple(Place(p) for p in primes) for primes in WANG_PLACE_SETS]
    for field in fields:
        for m in range(1, WANG_MAX_M + 1):
            for S in place_sets:
                yield outcome(lambda: special_case(field, m, S))


def main():
    with tempfile.TemporaryDirectory() as workdir:
        for name, lines in (
            ("oracle_minimal", oracle_lines),
            ("construct", construct_lines),
            ("auxiliary_primes", auxiliary_lines),
            ("cli", cli_lines),
            ("powres", powres_lines),
            ("special_case", special_case_lines),
        ):
            digest = hashlib.sha256()
            count = 0
            for line in lines(workdir):
                digest.update(line.encode() + b"\n")
                count += 1
            print(f"{name} {count} {digest.hexdigest()}", flush=True)
    for name, records in (
        ("scan", scan_family(SCAN_MAX_CONDUCTOR)),
        ("scan_s", scan_family(SCAN_S_MAX_CONDUCTOR, SCAN_S, cap=SCAN_S_CAP)),
    ):
        out = io.StringIO()
        count = write_scan_csv(records, out)
        print(f"{name} {count} {hashlib.sha256(out.getvalue().encode()).hexdigest()}", flush=True)


if __name__ == "__main__":
    main()
