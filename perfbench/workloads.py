"""Seeded inputs, operations and output checks for each benchmark workload.

A workload builder returns a list of `Op`s.  `Op.run` is the only code
timed; it calls the library through module attributes looked up at call
time, so the tracer's wrappers see every call.  `Op.check` runs after the
timed phase and returns True when the output is right.  An op with a
`slice` runs only in the rounds given that slice (see `select`), so that
a round stays short while the whole list is still measured.

Cost stability across seeds: an instance's shape (exponent m, places and
conductor exponents) fixes the work the solver does, because the
auxiliary primes depend only on m and the places and the solution lattice
depends only on the shape.  So the shapes are fixed per stratum and the
seed picks the exponents: Galois twists of fixed prescriptions (which keep
the conductor and the oracle's minimum) or fresh unit and uniformizer
exponents at the shape's conductor exponents.  Shapes with 8 | m and 2 in S
are left to the Wang instance and the matrix cells, because whether they
widen to exponent 2m depends on the exponents and the widened search costs
10 to 100 times more.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import os
import random

from grunwald import characters, cli, solver
from grunwald.core_arith import Place, unit_group
from grunwald.errors import NoSolutionBelowCap, ValidationError
from grunwald.mult_one import CSV_HEADER

INF = None  # the real place in shape tuples

WANG_M = 8
WANG_CONDUCTOR = 544

# (m, ((prime or INF, conductor exponent), ...)): aux_primes dominates.
WIDE_SHAPES = (
    (3, ((2, 0), (3, 2), (5, 0), (7, 1), (11, 0), (13, 1))),
    (4, ((2, 2), (3, 0), (5, 1), (7, 0), (11, 0), (13, 1))),
    (5, ((2, 0), (3, 0), (5, 2), (7, 0), (11, 1), (INF, 0))),
    (5, ((2, 0), (3, 0), (7, 0), (11, 1), (13, 0), (31, 1))),
    (7, ((2, 0), (3, 0), (5, 0), (7, 2), (29, 1), (43, 1))),
    (8, ((3, 0), (5, 1), (7, 0), (11, 0), (13, 1), (INF, 1))),
    (9, ((2, 0), (3, 2), (5, 0), (7, 1), (11, 0), (13, 1))),
)

# The minimisation inside solve_character dominates, except for m = 25,
# where no shape of at most 3 places has a lattice above 5^5 and 4 places
# make auxiliary_primes dominate.  The m = 16, |S| = 4 shapes show two
# known limits: a solution lattice above the enumeration limit (returned
# unminimised) and a cycle above FACTOR_LIMIT, which raises
# ValidationError and counts as a failed operation (KNOWN_FAILURES).
#
# With the wide shapes, these give eleven operations of about 0.15 s or
# more, so construct's op_tail_ms (the 11th slowest) lands on them and not
# on the boundary with the 50 ms operations below.
DEEP_SHAPES = (
    (16, ((3, 0), (11, 0), (19, 1))),
    (16, ((7, 0), (13, 0), (19, 1))),
    (16, ((3, 0), (5, 0), (7, 0), (11, 0))),
    (16, ((5, 1), (13, 1), (17, 1), (29, 1))),  # raises, see KNOWN_FAILURES
    (25, ((5, 2), (7, 0), (11, 1), (31, 1))),
    (27, ((5, 0), (7, 1), (19, 1))),
    (32, ((5, 1), (13, 0), (INF, 1))),
    (32, ((7, 0), (13, 0), (INF, 1))),
)

# Each construct round runs the matrix cells, Wang, the two every-round
# shapes and one of the slices, in turn: about 2.4 s of work a round on a
# 2-vCPU Xeon VM.  The every-round shapes are the two cheapest of the
# eleven heavy operations (0.2 to 0.3 s), so op_tail_ms, which lands on
# the cheaper of them, is a median over every round.
CONSTRUCT_EVERY_ROUND = (WIDE_SHAPES[5], DEEP_SHAPES[7])
CONSTRUCT_SLICES = (
    (WIDE_SHAPES[6], WIDE_SHAPES[0], WIDE_SHAPES[1]),
    (DEEP_SHAPES[4], WIDE_SHAPES[4], WIDE_SHAPES[2]),
    (DEEP_SHAPES[1], DEEP_SHAPES[0]),
    (DEEP_SHAPES[6], DEEP_SHAPES[5], WIDE_SHAPES[3]),
    (DEEP_SHAPES[3], DEEP_SHAPES[2]),
)

# Shapes whose construct is known to raise: (m, shape) -> (exception type,
# message prefix).  The raise counts in fail_ratio but is not a wrong
# answer; any other exception from any operation is.
KNOWN_FAILURES = {
    (16, ((5, 1), (13, 1), (17, 1), (29, 1))): (ValidationError, "modulus out of range"),
}

# Acceptance-matrix cells whose oracle minimum lies between about 10^4 and
# 4.3e4, so that a round takes about 2 s.  Left out: m = 9, S = {2, 3, 5, 7}
# (+inf) at about 50 s each; m = 2, S = {2, 3, 5, 7, inf} (minimum 118020)
# and m = 9, S = {3, 5, 7} (+inf) (minimum 142569) at 1.5 to 7 s each.
ORACLE_CELLS = (
    (2, (2, 3, 5, 7)),
    (3, (2, 3, 5, 7)),
    (3, (2, 3, 5, 7, "inf")),
    *(
        (m, S)
        for m in (4, 8)
        for S in (
            (2, 3, 5), (2, 5, 7), (3, 5, 7), (2, 3, 5, 7),
            (2, 3, 5, "inf"), (2, 5, 7, "inf"), (3, 5, 7, "inf"), (2, 3, 5, 7, "inf"),
        )
    ),
)
ORACLE_CAP = 10**6  # above every minimum; the search stops at the minimum
WANG_ORACLE_CAP = 2 * 10**4  # there is no solution at exponent 8 below any cap

SCAN_MAX_CONDUCTOR = 1000
SCAN_S_POOL = (11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
SCAN_SAMPLE = 2000

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


class Op:
    """One operation: `run` is timed, `check(result)` is not.

    `check` also receives the exception when `run` raises and
    `expects_error` is set.  `known_failure` is an (exception type,
    message prefix) pair that `run` is known to raise.
    """

    __slots__ = (
        "kind", "run", "check", "expects_error", "known_failure", "records", "conductors", "slice",
    )

    def __init__(self, kind, run, check, expects_error=False, known_failure=None, records=1):
        self.kind = kind
        self.slice = None  # None: every round
        self.records = records  # output records one run produces
        self.run = run
        self.check = check
        self.expects_error = expects_error
        self.known_failure = known_failure
        self.conductors = []  # conductors of checked outputs, filled by check

    def is_known_failure(self, exc):
        if self.known_failure is None:
            return False
        kind, prefix = self.known_failure
        return isinstance(exc, kind) and str(exc).startswith(prefix)


# ----- instances -----------------------------------------------------------


def matrix_prescriptions(m, S):
    """The acceptance matrix's local characters for exponent m and places S."""
    chars = []
    for p in sorted(p for p in S if p != "inf"):
        g = math.gcd(m, p - 1)
        if p == 2 and m % 2 == 0:
            chars.append(characters.local_character(Place(2), m, 2, (m // 2,)))
        elif m % p == 0 and p > 2:
            chars.append(
                characters.local_character(Place(p), m, 2, (m // math.gcd(m, (p - 1) * p),))
            )
        elif g > 1:
            chars.append(characters.local_character(Place(p), m, 1, (m // g,)))
        else:
            chars.append(characters.unramified_local(p, m, 1))
    if "inf" in S:
        chars.append(characters.sign_local(m, 1 if m % 2 == 0 else 0))
    return chars


def wang_prescription():
    return [characters.local_character(Place(2), WANG_M, 5, (0, 1), 1)]


def twist(rng, m, chars):
    """A seeded Galois conjugate chi -> chi^u, u a unit mod m: the same
    conductors and the same minimal solution conductor."""
    u = rng.choice([u for u in range(1, m + 1) if math.gcd(u, m) == 1])
    out = []
    for psi in chars:
        if psi.place.is_real:
            out.append(psi)
        else:
            out.append(
                characters.local_character(
                    psi.place, m, psi.conductor_exponent,
                    tuple(t * u % m for t in psi.unit_exponents),
                    psi.uniformizer_exponent * u % m,
                )
            )
    return solver.make_instance(m, out)


def _unit_orders(p, k):
    if k == 0:
        return ()
    if p == 2:
        return () if k == 1 else (2,) if k == 2 else (2, 2 ** (k - 2))
    return (p ** (k - 1) * (p - 1),)


def seeded_local(rng, m, p, k):
    """A local character of exponent m at p with conductor exponent exactly
    k: seeded unit and uniformizer exponents."""
    if p is INF:
        return characters.sign_local(m, rng.randrange(2) if m % 2 == 0 else 0)
    for _ in range(1000):
        exps = []
        for o in _unit_orders(p, k):
            g = math.gcd(m, o)
            exps.append(rng.randrange(g) * (m // g))
        psi = characters.local_character(Place(p), m, k, tuple(exps), rng.randrange(m))
        if psi.conductor_exponent == k:
            return psi
    raise ValueError(f"no character of exponent {m} at {p} with conductor exponent {k}")


def seeded_instance(rng, m, shape):
    return solver.make_instance(m, [seeded_local(rng, m, p, k) for p, k in shape])


def _components_match(chi, instance):
    return all(
        characters.local_component(chi, psi.place) == psi
        for psi in instance.local_characters
    )


# ----- construct -------------------------------------------------------------


def _construct_op(instance, wang=False, known_failure=None):
    def run():
        return solver.construct(instance)

    def check(sol):
        chi = sol.character
        if sol.exponent_achieved % characters.character_order(chi):
            return False
        if not _components_match(chi, instance):
            return False
        f = characters.conductor(chi).norm
        op.conductors.append(f)
        if wang:
            return sol.exponent_achieved == 2 * WANG_M and f == WANG_CONDUCTOR
        return True

    op = Op("wang" if wang else "construct", run, check, known_failure=known_failure)
    return op


def build_construct(rng, workdir):
    ops = []
    base = (2, 3, 5, 7, "inf")
    for m in (2, 3, 4, 8, 9):
        for k in range(len(base) + 1):
            for S in itertools.combinations(base, k):
                ops.append(_construct_op(twist(rng, m, matrix_prescriptions(m, S))))
    ops.append(_construct_op(twist(rng, WANG_M, wang_prescription()), wang=True))
    for j, shapes in [(None, CONSTRUCT_EVERY_ROUND), *enumerate(CONSTRUCT_SLICES)]:
        for m, shape in shapes:
            op = _construct_op(seeded_instance(rng, m, shape), known_failure=KNOWN_FAILURES.get((m, shape)))
            op.slice = j
            ops.append(op)
    return ops


# ----- oracle ----------------------------------------------------------------


def _oracle_op(instance):
    def run():
        return solver.oracle_minimal(instance, ORACLE_CAP)

    def check(sol):
        if not _components_match(sol.character, instance):
            return False
        f = characters.conductor(sol.character).norm
        op.conductors.append(f)
        return f <= solver.construct(instance).conductor_norm

    op = Op("oracle", run, check)
    return op


def build_oracle(rng, workdir):
    wang = twist(rng, WANG_M, wang_prescription())
    ops = [
        Op(
            "wang-exponent-8",
            lambda: solver.oracle_minimal(wang, WANG_ORACLE_CAP, exponent=WANG_M),
            lambda result: isinstance(result, NoSolutionBelowCap),
            expects_error=True,
        )
    ]
    for m, S in ORACLE_CELLS:
        ops.append(_oracle_op(twist(rng, m, matrix_prescriptions(m, S))))
    return ops


# ----- scan ------------------------------------------------------------------


def _run_cli(argv):
    """cli.run with stdout and stderr captured: (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    return code, out.getvalue()


def primitive_count(N):
    """The number of primitive Dirichlet characters of conductor 2..N, from
    the multiplicative count p - 2 at p and p^(k-2) (p - 1)^2 at p^k, k >= 2."""
    least = list(range(N + 1))
    for p in range(2, math.isqrt(N) + 1):
        if least[p] == p:
            for j in range(p * p, N + 1, p):
                if least[j] == j:
                    least[j] = p
    total = 0
    for f in range(2, N + 1):
        count, n = 1, f
        while n > 1:
            p, k = least[n], 0
            while n % p == 0:
                n //= p
                k += 1
            count *= p - 2 if k == 1 else p ** (k - 2) * (p - 1) ** 2
        total += count
    return total


SCAN_ROWS = primitive_count(SCAN_MAX_CONDUCTOR)


def _check_scan_rows(path, S, rng, conductors):
    """Row count, then a seeded sample of rows re-checked for minimality."""
    sample = set(rng.sample(range(SCAN_ROWS), SCAN_SAMPLE))
    picked = []
    count = 0
    with open(path, encoding="utf-8", newline="") as handle:
        rows = csv.reader(handle)
        if next(rows) != CSV_HEADER.split(","):
            return False
        for count, row in enumerate(rows, 1):
            conductors.append(int(row[0]))
            if count - 1 in sample:
                picked.append(row)
    if count != SCAN_ROWS:
        return False
    skip = set(S)
    for row in picked:
        f, modulus, exps, _, p = (row[j] for j in range(5))
        f, p = int(f), int(p)
        if int(modulus) != f or p == 0 or f % p == 0 or p in skip:
            return False
        mu = math.lcm(*unit_group(f).orders)
        chi = characters.make_dirichlet(f, [int(t) for t in exps.split(";")], mu)
        if characters.evaluate(chi, p) == 0:
            return False
        for q in SMALL_PRIMES:
            if q >= p:
                break
            if f % q and q not in skip and characters.evaluate(chi, q) != 0:
                return False
    return True


def build_scan(rng, workdir):
    S = sorted(rng.sample(SCAN_S_POOL, 2))
    path = os.path.join(workdir, "scan.csv")
    argv = [
        "scan", "--max-conductor", str(SCAN_MAX_CONDUCTOR),
        "--S", ",".join(map(str, S)), "--out", path,
    ]
    check_rng = random.Random(rng.random())

    def check(result):
        code, out = result
        return (
            code == 0
            and f"records={SCAN_ROWS}" in out.splitlines()
            and _check_scan_rows(path, S, check_rng, op.conductors)
        )

    op = Op("scan", lambda: _run_cli(argv), check, records=SCAN_ROWS)
    return [op]


# ----- cli-mix ---------------------------------------------------------------


def _brute_powres(p, l, r):
    N = 2
    while True:
        if math.gcd(p, N) == 1:
            units = [a for a in range(1, N + 1) if math.gcd(a, N) == 1]
            powers = {pow(a, l, N) for a in units}
            if len(units) % (l**r) == 0 and p % N not in powers:
                return N
        N += 1


def _kv(out):
    return dict(line.split("=", 1) for line in out.splitlines() if "=" in line)


def _cli_op(kind, argv, check):
    return Op(kind, lambda: _run_cli(argv), lambda result: result[0] == 0 and check(_kv(result[1])))


def _places_arg(places):
    return ",".join("infinity" if p is INF else str(p) for p in places)


def _special_case_q(rng):
    m = rng.choice((2, 3, 4, 5, 8, 9, 16, 32))
    places = rng.sample((2, 3, 5, 7, 11, 13, INF), rng.randint(0, 4))
    wang = m % 8 == 0 and 2 in places  # the classical special case over Q
    argv = ["special-case", "--field", "Q", "--m", str(m), "--S", _places_arg(places)]
    return _cli_op("special-case", argv, lambda kv: kv.get("occurs") == ("true" if wang else "false"))


def _special_case_quadratic(rng):
    d = rng.choice((-1, 2, -2, 3, -3, 5, 6, 7, -7, 10, 17))
    m = rng.choice((2, 4, 8, 16, 32))
    places = rng.sample((2, 3, 5, 7, INF), rng.randint(0, 3))
    argv = ["special-case", "--field", f"Qsqrt:{d}", "--m", str(m), "--S", _places_arg(places)]
    return _cli_op("special-case-quadratic", argv, lambda kv: kv.get("occurs") in ("true", "false"))


def _powres(rng, with_order):
    p = rng.choice(SMALL_PRIMES)
    l = rng.choice((2, 3, 5, 7) if not with_order else (2, 3))
    r = rng.randint(1, 2) if with_order else 0
    argv = ["powres", "--p", str(p), "--l", str(l)] + (["--r", str(r)] if with_order else [])
    return _cli_op("powres", argv, lambda kv: kv.get("N") == str(_brute_powres(p, l, r)))


def _powres_bad(rng):
    p = rng.choice((1, 4, 6, 9, 15, 21, 25))
    argv = ["powres", "--p", str(p), "--l", "3"]
    return Op("powres-bad", lambda: _run_cli(argv), lambda result: result[0] == 2)


def _least_prime(rng):
    """A valid nontrivial character with modulus up to 10^6, built from a
    seeded factorization (no library call while generating)."""
    while True:
        factors = {}
        N = 1
        for p in sorted(rng.sample(SMALL_PRIMES[:12] + (101, 211, 401, 1009, 4001), rng.randint(1, 3))):
            k = rng.randint(1, 3 if p < 14 else 1)
            if N * p**k > 10**6:
                break
            factors[p] = k
            N *= p**k
        orders = [o for p, k in sorted(factors.items()) for o in _unit_orders(p, k)]
        if orders:
            break
    lam = math.lcm(*orders)
    exps = [rng.randrange(o) * (lam // o) for o in orders]
    if not any(exps):
        exps[-1] = lam // orders[-1]
    exclude = sorted(rng.sample(SMALL_PRIMES[:6], rng.randint(0, 2)))
    argv = [
        "least-prime", "--modulus", str(N), "--exponents", ",".join(map(str, exps)),
        "--exclude", ",".join(map(str, exclude)),
    ]

    def check(kv):
        chi = characters.primitivize(characters.make_dirichlet(N, exps, lam))
        f = chi.modulus
        p = int(kv.get("prime", 0))
        if p < 2 or f % p == 0 or p in exclude or characters.evaluate(chi, p) == 0:
            return False
        return all(
            characters.evaluate(chi, q) == 0
            for q in SMALL_PRIMES
            if q < p and f % q and q not in exclude
        )

    return _cli_op("least-prime", argv, check)


def _has_level(m, p, k):
    """Whether p has a character of exponent m with conductor exponent k."""
    if p == 2:
        return k >= 2 and m % 2 ** max(1, k - 2) == 0
    if k == 1:
        return math.gcd(m, p - 1) > 1
    return m % p ** (k - 1) == 0


def _small_instances(count=20):
    """Fixed prescriptions with at most 3 places, the same for every seed:
    (m, local characters)."""
    rng = random.Random("cli-mix instances")
    out = []
    for _ in range(count):
        m = rng.choice((2, 3, 4, 5, 7, 8, 9))
        shape = []
        for p in rng.sample((2, 3, 5, 7, 11, 13, INF), rng.randint(1, 3)):
            levels = [0] + [k for k in (1, 2, 3) if p is not INF and _has_level(m, p, k)]
            shape.append((p, rng.choice(levels)))
        out.append((m, seeded_instance(rng, m, shape).local_characters))
    return out


SMALL_INSTANCES = _small_instances()


def _instance_file(rng, workdir, command, index):
    m, chars = SMALL_INSTANCES[index % len(SMALL_INSTANCES)]
    instance = twist(rng, m, chars)
    path = os.path.join(workdir, f"{command}{index}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(solver.instance_to_dict(instance), handle)
    return instance, path


def _construct_cli(rng, workdir, index, report):
    command = "report" if report else "construct"
    instance, path = _instance_file(rng, workdir, command, index)
    argv = [command, "--instance", path]

    def check(kv):
        if report and "shape_ratio" not in kv:
            return False
        mu = int(kv["exponent_modulus"])
        chi = characters.make_dirichlet(
            int(kv["modulus"]), [int(t) for t in kv["exponents"].split(";") if t], mu
        )
        f = int(kv["conductor"])
        op.conductors.append(f)
        return (
            characters.conductor(chi).norm == f
            and mu % characters.character_order(chi) == 0
            and _components_match(chi, instance)
        )

    op = _cli_op(command, argv, check)
    return op


CLI_MIX = (
    ("special-case", 300),
    ("special-case-quadratic", 200),
    ("powres", 150),
    ("powres-order", 150),
    ("powres-bad", 20),
    ("least-prime", 300),
    ("construct", 100),
    ("report", 100),
)


def build_cli_mix(rng, workdir):
    ops = []
    for kind, count in CLI_MIX:
        for i in range(count):
            if kind == "special-case":
                ops.append(_special_case_q(rng))
            elif kind == "special-case-quadratic":
                ops.append(_special_case_quadratic(rng))
            elif kind in ("powres", "powres-order"):
                ops.append(_powres(rng, kind == "powres-order"))
            elif kind == "powres-bad":
                ops.append(_powres_bad(rng))
            elif kind == "least-prime":
                ops.append(_least_prime(rng))
            else:
                ops.append(_construct_cli(rng, workdir, i, kind == "report"))
    rng.shuffle(ops)
    return ops


BUILDERS = {
    "construct": build_construct,
    "oracle": build_oracle,
    "scan": build_scan,
    "cli-mix": build_cli_mix,
}


def build(workload, seed, workdir):
    return BUILDERS[workload](random.Random(f"{workload}:{seed}"), workdir)


def slice_count(ops):
    return 1 + max((op.slice for op in ops if op.slice is not None), default=0)


def select(ops, slice_index):
    """Indices of the ops one round runs: those without a slice, and those
    of slice `slice_index` (every op when it is None)."""
    return [
        i for i, op in enumerate(ops)
        if slice_index is None or op.slice is None or op.slice == slice_index
    ]
