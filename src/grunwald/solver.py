"""Construction of global characters with prescribed local components.

Given a prime-power exponent m and finitely many prescribed local
characters, build a Dirichlet character realizing all of them at once.
First the exponent mu to solve at is decided (_exponent): the special case
of Wang makes it 2m for obstructed data, and m otherwise; the instance is
rescaled to mu once, and every later step reads mu as its exponent.  Then
pick auxiliary primes that rigidify the relevant S-unit classes, assemble
a cycle (the working modulus), and solve a linear system over Z/mu for the
exponent vector, returning the solution of least conductor mod the cycle
(or, when the solution lattice exceeds _KERNEL_LIMIT elements, the
particular solution, flagged minimised=False).  _solve_mod is the one
Z/l^rho linear-algebra routine: it solves that system, and it gives
auxiliary_primes the kernel each kept prime cuts the survivors down to.

oracle_minimal is the independent ground truth: exhaustive enumeration of
primitive characters by increasing conductor, sharing no search logic
with the constructive path.  Both solve one problem, stated once: the
exponent (_exponent), one linear check per prescribed place (_checks),
and _verify_solution, which every answer of either passes.  The oracle
visits only the conductors F0 * g that the prescribed local conductors
admit (see _admissible_conductors), and tests each from the
factorization the sieve yields.  First an order test (_reaches_orders):
every check's target, of additive order n in Z/mu, must lie in the chain
of subgroups g's components can reach, which on a prime q of g to the
first power is one pow of the power-residue symbol.  Only the f that
pass it are enumerated against the linear checks alone, each q^1
contributing one symbol per check, read from
core_arith.power_residue_table, the table auxiliary_primes also reads.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .characters import (
    CycleValue,
    DirichletCharacter,
    LocalCharacter,
    _slice_conductor_exponent,
    character_order,
    conductor,
    evaluate_local,
    local_character,
    local_component,
    primitive_slots,
    primitivize,
)
from .core_arith import (
    FactoredInteger,
    Place,
    components,
    dlog_units,
    power_residue_table,
    prime_power,
    primes_stream,
    unit_group,
    unit_orders,
)
from .errors import (
    InternalContradictionError,
    NoSolutionBelowCap,
    SearchCapError,
    ValidationError,
)
from .wang_special import FieldDescriptor, special_case

_KERNEL_LIMIT = 1 << 20
_AUX_PRIME_CAP = 10**6


@dataclass(frozen=True)
class GrunwaldInstance:
    """Exponent m = l^r plus prescribed local characters at distinct places."""

    m: int
    local_characters: tuple[LocalCharacter, ...]

    def __post_init__(self):
        prime_power(self.m)
        keys = [psi.place.sort_key() for psi in self.local_characters]
        if len(set(keys)) != len(keys):
            raise ValidationError("prescribed places must be distinct")
        if sorted(keys) != keys:
            raise ValidationError("prescribed places must be sorted")
        for psi in self.local_characters:
            if psi.exponent_modulus != self.m:
                raise ValidationError(
                    "local characters must be normalized to the instance exponent"
                )

    @property
    def places(self) -> tuple[Place, ...]:
        return tuple(psi.place for psi in self.local_characters)

    @property
    def finite_primes(self) -> tuple[int, ...]:
        return tuple(p.prime for p in self.places if not p.is_real)


def make_instance(m: int, local_characters):
    """Normalize prescribed characters to exponent modulus m and sort them."""
    prime_power(m)
    rebuilt = []
    for psi in local_characters:
        old = psi.exponent_modulus
        if psi.place.is_real:
            rebuilt.append(local_character(psi.place, m, sign_exponent=psi.sign_exponent))
            continue
        exps = tuple(_rescale(t, old, m, psi.place) for t in psi.unit_exponents)
        unif = _rescale(psi.uniformizer_exponent, old, m, psi.place)
        rebuilt.append(
            local_character(psi.place, m, psi.conductor_exponent, exps, unif)
        )
    rebuilt.sort(key=lambda s: s.place.sort_key())
    return GrunwaldInstance(m, tuple(rebuilt))


def _rescale(t: int, old: int, new: int, place: Place) -> int:
    num = t * new
    if num % old:
        raise ValidationError(
            f"local character at {place} has order not dividing {new}"
        )
    return (num // old) % new


@dataclass(frozen=True)
class GrunwaldSolution:
    character: DirichletCharacter
    exponent_achieved: int
    special_case_flag: bool
    aux_primes: tuple[int, ...]
    cycle: CycleValue
    # False when the solution lattice exceeded _KERNEL_LIMIT elements and
    # the particular solution was returned without the least-conductor search
    minimised: bool = True

    @property
    def conductor_norm(self) -> int:
        return conductor(self.character).norm


def p_star_basis(m: int, S) -> tuple[int, ...]:
    """Generators of the S-units-mod-m-th-powers group: -1 (m even) and S."""
    prime_power(m)
    primes = sorted({v.prime for v in S if not v.is_real})
    head = [-1] if m % 2 == 0 else []
    return tuple(head + primes)


def auxiliary_primes(m: int, S) -> tuple[int, ...]:
    """Primes outside S that cut the survivor subgroup down, found by
    subgroup elimination.

    The survivors are the elements of G = Z/2 x (Z/m)^k, the exponent
    vectors on p_star_basis (the Z/2 factor belongs to -1), whose basis
    product is a local m-th power at every chosen prime.  They form a
    subgroup, kept as at most |basis| generators.  A prime q is chosen
    when the power map G -> F_q*/F_q*^m = Z/g, g = gcd(m, q - 1), is
    nonzero on some generator.  The kernel then comes from _solve_mod: one
    row over Z/m, the generators' values scaled by m/g so that the
    g-multiples stay in it, and each kernel vector, mapped back onto the
    generators, is a new generator.  The values of that map are read from
    core_arith.power_residue_table, the table the oracle reads; its zeta is
    the canonical generator's power, but any primitive g-th root would do,
    since another one multiplies every value by one unit mod g and so
    keeps the kernel.  The search stops once every
    generator lies in the allowed subgroup: the trivial class, plus the
    a0 class when the special case occurs.  For non-cyclic 2-power
    exponents the prime 2 (when 2 is outside S) or a prime q = +-3 mod 8
    (when 2 is in S, so sqrt 2 stays out of Q_q) is additionally required.
    """
    l, r = prime_power(m)
    S = frozenset(S)
    s_primes = {v.prime for v in S if not v.is_real}
    basis = p_star_basis(m, S)
    ranges = [2 if b == -1 else m for b in basis]
    gens = [tuple(int(i == j) for j in range(len(basis))) for i in range(len(basis))]
    zero = (0,) * len(basis)
    allowed = {zero}
    report = special_case(FieldDescriptor(), m, S)
    if report.occurs:
        vec = [0] * len(basis)
        vec[basis.index(2)] = m // 2
        allowed.add(tuple(vec))

    chosen: list[int] = []
    for q in primes_stream():
        if all(h in allowed for h in gens):
            break
        if q > _AUX_PRIME_CAP:
            raise SearchCapError(f"auxiliary-prime search passed {_AUX_PRIME_CAP}")
        if q == l or q in s_primes:
            continue
        g = math.gcd(m, q - 1)
        if g == 1:
            continue
        exp = (q - 1) // g
        beta = [pow(b % q, exp, q) for b in basis]
        images = [
            math.prod(pow(bq, e, q) for bq, e in zip(beta, h)) % q for h in gens
        ]
        if all(z == 1 for z in images):
            continue
        chosen.append(q)
        _, logs = power_residue_table(q, g)
        kernel = _solve_mod([[logs[z] * (m // g) for z in images]], [0], l, r)[1]
        cols = tuple(zip(*gens))
        gens = [
            h
            for c in kernel
            if (h := tuple(sum(map(operator.mul, c, col)) % n for col, n in zip(cols, ranges)))
            != zero
        ]

    if l == 2 and r >= 3:
        if 2 not in s_primes:
            chosen.append(2)
        elif not any(q % 8 in (3, 5) for q in chosen):
            for q in primes_stream():
                if q % 8 in (3, 5) and q not in s_primes and q not in chosen:
                    chosen.append(q)
                    break
    return tuple(chosen)


def build_cycle(instance: GrunwaldInstance, aux) -> CycleValue:
    """The working modulus for the instance's exponent m = l^rho: product
    of the prescribed conductors, the l-power headroom l^(rho+2), and one
    factor per auxiliary prime.  For obstructed data pass the instance
    _exponent rescales to 2m, as construct does."""
    l, rho = prime_power(instance.m)
    exps: dict[int, int] = {}
    for psi in instance.local_characters:
        if psi.place.is_real or psi.conductor_exponent == 0:
            continue
        p = psi.place.prime
        exps[p] = exps.get(p, 0) + psi.conductor_exponent
    exps[l] = exps.get(l, 0) + rho + 2
    for q in aux:
        exps[q] = exps.get(q, 0) + 1
    pairs = tuple(sorted(exps.items()))
    value = math.prod(p**e for p, e in pairs)
    real_bit = 1 if instance.m % 2 == 0 or any(v.is_real for v in instance.places) else 0
    return CycleValue(FactoredInteger(value, pairs), real_bit)


def obstruction_exponent(instance: GrunwaldInstance, report=None) -> int:
    """Zeta-exponent of the product of prescribed values at a0 (0 = unobstructed)."""
    if report is None:
        report = special_case(FieldDescriptor(), instance.m, set(instance.places))
    if not report.occurs:
        return 0
    return (
        sum(evaluate_local(psi, report.a0) for psi in instance.local_characters)
        % instance.m
    )


def _exponent(instance: GrunwaldInstance, exponent: int | None):
    """(report, instance at mu): the Wang report for the prescribed places,
    and the instance rescaled to the exponent mu to solve at.  With
    exponent None mu is the Wang dichotomy, 2m for obstructed data and m
    otherwise; an explicit exponent must be a multiple of m.  When mu = m
    the instance itself comes back, not a rebuilt copy."""
    m = instance.m
    report = special_case(FieldDescriptor(), m, set(instance.places))
    if exponent is None:
        obstructed = report.occurs and obstruction_exponent(instance, report) != 0
        exponent = 2 * m if obstructed else m
    elif exponent % m:
        raise ValidationError("exponent must be a multiple of the instance exponent")
    if exponent == m:
        return report, instance
    return report, make_instance(exponent, instance.local_characters)


def _checks(instance: GrunwaldInstance) -> list[tuple[int, int]]:
    """One (x, want) per prescribed place, in order: a character of the
    instance's exponent mu meets the place's uniformizer value (x = p),
    resp. sign (x = -1), when its exponent vector dotted with the discrete
    logs of x is want mod mu."""
    mu = instance.m
    return [
        (-1, psi.sign_exponent * (mu // 2) % mu)
        if psi.place.is_real
        else (psi.place.prime, psi.uniformizer_exponent % mu)
        for psi in instance.local_characters
    ]


def _assemble_rows(instance: GrunwaldInstance, M: int):
    """Linear constraints mod mu = instance.m on the exponent vector of a
    character mod M."""
    mu = instance.m
    comps = components(M)
    ug = unit_group(M)
    n = len(ug.generators)
    rows: list[list[int]] = []
    rhs: list[int] = []
    for i, o in enumerate(ug.orders):
        row = [0] * n
        row[i] = o % mu
        rows.append(row)
        rhs.append(0)
    for psi, (x, want) in zip(instance.local_characters, _checks(instance)):
        row = [0] * n
        for c in comps:
            if c.prime == x:
                # the character's own CRT factor at p inverts the prescribed unit part
                for h, g in enumerate(c.local_generators):
                    unit = [0] * n
                    unit[c.offset + h] = 1
                    rows.append(unit)
                    rhs.append(-evaluate_local(psi, Fraction(g)) % mu)
                continue
            for h, e in enumerate(dlog_units(c.prime_power, x)):
                row[c.offset + h] = e % mu
        rows.append(row)
        rhs.append(want)
    return rows, rhs


def _solve_mod(rows, rhs, l: int, rho: int):
    """The solutions of rows . x = rhs mod mu = l^rho, as (part, basis,
    ranges): the points part + sum c_i basis_i, 0 <= c_i < ranges_i; or
    None when there is none.

    Row reduction picks globally minimal-valuation pivots, the first in
    row-major order over the open rows and columns.  Pivot rows are frozen
    once selected, so every entry of a pivot row in a then-open column
    keeps valuation >= the pivot's; consistency then depends only on the
    constant column, never on branch choices.  Each pivot keeps its row's
    nonzero terms in the columns still open, which is all back
    substitution reads.  It gives part (free columns 0), one basis vector
    per free column (range mu), and one per pivot of valuation v > 0
    (range l^v): the l^(rho-v) multiples its division by l^v leaves open.
    """
    mu = l**rho
    A = [[x % mu for x in row] for row in rows]
    b = [x % mu for x in rhs]
    open_rows = list(range(len(A)))
    open_cols = list(range(len(A[0]) if A else 0))
    n = len(open_cols)
    pivots: list[tuple[int, int, int, list[tuple[int, int]]]] = []
    while True:
        best, lv = None, mu  # lv = l^v for the best entry's valuation v
        for i in open_rows:
            row = A[i]
            for j in open_cols:
                if row[j] % lv:
                    best, lv = (i, j), math.gcd(row[j], mu)
                    if lv == 1:
                        break
            if lv == 1:
                break
        if best is None:
            break
        i, j = best
        open_rows.remove(i)
        open_cols.remove(j)
        row = A[i]
        inv = pow(row[j] // lv, -1, mu)
        terms = [(c, t * inv % mu) for c in open_cols if (t := row[c])]
        b[i] = b[i] * inv % mu
        for r in open_rows:
            other = A[r]
            if not other[j]:
                continue
            if other[j] % lv:
                raise InternalContradictionError("pivot minimality violated")
            f = other[j] // lv
            for c, t in terms:
                other[c] = (other[c] - f * t) % mu
            b[r] = (b[r] - f * b[i]) % mu
        pivots.append((j, lv, b[i], terms))

    if any(b[i] for i in open_rows) or any(bi % lv for _, lv, bi, _ in pivots):
        return None

    def backsub(particular, free_col=-1, branch=-1):
        x = [0] * n
        if free_col >= 0:
            x[free_col] = 1
        for t in range(len(pivots) - 1, -1, -1):
            j, lv, bi, terms = pivots[t]
            R = (bi * particular - sum(x[c] * e for c, e in terms)) % mu
            if R % lv:
                raise InternalContradictionError("branch-dependent inconsistency")
            x[j] = (R // lv + (mu // lv if t == branch else 0)) % mu
        return x

    basis = [backsub(0, free_col=j) for j in open_cols]
    ranges = [mu] * len(open_cols)
    for t, (_, lv, _, _) in enumerate(pivots):
        if lv > 1:
            basis.append(backsub(0, branch=t))
            ranges.append(lv)
    return backsub(1), basis, ranges


def _minimal_candidate(part, basis, ranges, M, mu):
    """(x, True) for the lattice point x = part + sum c_i basis_i,
    0 <= c_i < ranges_i, of least (conductor norm, exponent vector); or
    (part, False) when the lattice has more than _KERNEL_LIMIT points.

    Depth-first branch and bound.  The norm is the product over the CRT
    components of M of p^(e_p) >= 1, and a component's factor is final once
    the last basis vector touching its coordinates is fixed; so the product
    of the finished factors bounds every completion from below, and a
    subtree is skipped only when it exceeds the best norm (ties are walked,
    keeping the exponent-vector tiebreak).  Densest basis vectors go first,
    which finishes components early.  The visiting order does not change
    the point set, hence not the result.
    """
    comps = components(M)
    if math.prod(ranges, start=1) > _KERNEL_LIMIT:
        return tuple(part), False
    tables: list[dict] = [{} for _ in comps]

    def factor_of(k, x):
        c = comps[k]
        sl = tuple(x[c.offset : c.offset + len(c.orders)])
        val = tables[k].get(sl)
        if val is None:
            val = c.prime ** _slice_conductor_exponent(c.prime, sl, mu)
            tables[k][sl] = val
        return val

    steps = sorted(
        ((r, [(j, v) for j, v in enumerate(vec) if v]) for r, vec in zip(ranges, basis)),
        key=lambda step: -len(step[1]),
    )
    owner = [k for k, c in enumerate(comps) for _ in c.orders]
    last = [-1] * len(comps)
    for d, (_, touched) in enumerate(steps):
        for j, _ in touched:
            last[owner[j]] = d
    depth = len(steps)
    finished = [[k for k in range(len(comps)) if last[k] == d] for d in range(depth)]
    best = None

    def rec(d, x, bound):
        nonlocal best
        if d == depth:
            score = (bound, tuple(x))
            if best is None or score < best:
                best = score
            return
        r, touched = steps[d]
        done = finished[d]
        y = list(x)
        for c in range(r):
            if c:
                for j, v in touched:
                    y[j] = (y[j] + v) % mu
            norm = bound
            for k in done:
                norm *= factor_of(k, y)
            if best is None or norm <= best[0]:
                rec(d + 1, y, norm)

    start = list(part)
    rec(0, start, math.prod((factor_of(k, start) for k in range(len(comps)) if last[k] < 0), start=1))
    return best[1], True


def solve_character(
    instance: GrunwaldInstance,
    cycle: CycleValue,
    aux_primes=(),
    exponent: int | None = None,
) -> GrunwaldSolution:
    """Solve for a character mod the given cycle matching all prescribed data.

    The exponent is the one _exponent decides: with exponent None the Wang
    dichotomy, so obstructed data is solved at 2m, and the cycle must have
    been built for 2m (construct does that).  An explicit exponent skips
    the decision (used by tests to demonstrate infeasibility at the
    unwidened exponent).
    """
    report, inst = _exponent(instance, exponent)
    return _solve(report, inst, cycle, tuple(aux_primes))


def _solve(report, instance: GrunwaldInstance, cycle: CycleValue, aux) -> GrunwaldSolution:
    """The minimal character mod the cycle for an instance already at the
    exponent mu = instance.m that _exponent decided, with its report."""
    mu = instance.m
    l, rho = prime_power(mu)
    M = cycle.finite_part.value
    lattice = _solve_mod(*_assemble_rows(instance, M), l, rho)
    if lattice is None:
        raise InternalContradictionError(
            f"no exponent-{mu} character exists modulo the cycle {cycle}"
        )
    vec, minimised = _minimal_candidate(*lattice, M, mu)
    chi = primitivize(DirichletCharacter(M, mu, tuple(vec)))
    solution = GrunwaldSolution(chi, mu, report.occurs, aux, cycle, minimised)
    _verify_solution(instance, solution)
    return solution


def _verify_solution(instance: GrunwaldInstance, solution: GrunwaldSolution) -> None:
    chi = solution.character
    mu = solution.exponent_achieved
    if mu % character_order(chi):
        raise InternalContradictionError("solution order exceeds the exponent")
    for psi in instance.local_characters:
        got = local_component(chi, psi.place)
        if got != psi:
            raise InternalContradictionError(
                f"local component mismatch at {psi.place}: {got} != {psi}"
            )


def construct(instance: GrunwaldInstance) -> GrunwaldSolution:
    """The exponent mu first, then the auxiliary primes and the cycle at
    mu, then the minimal character mod the cycle."""
    report, inst = _exponent(instance, None)
    aux = auxiliary_primes(inst.m, set(inst.places))
    return _solve(report, inst, build_cycle(inst, aux), aux)


_SIEVE_FIRST_BLOCK = 1 << 6
_SIEVE_BLOCK = 1 << 12
_SLOT_CACHE_SIZE = 1 << 10


def _prescribed_head(instance: GrunwaldInstance) -> tuple[tuple[int, int], ...]:
    """(p, k) for every prescribed prime with conductor exponent k > 0:
    the factorization of F0."""
    return tuple(
        (psi.place.prime, psi.conductor_exponent)
        for psi in instance.local_characters
        if not psi.place.is_real and psi.conductor_exponent
    )


def _admissible_conductors(instance: GrunwaldInstance, cap: int):
    """Yield (f, factorization) for every conductor f <= cap a primitive
    character of the instance's exponent mu with the prescribed local data
    could have, in increasing order.

    f = F0 * g: F0 fixes the prescribed conductor exponents, g is coprime
    to S and built from q^1 (q odd, gcd(mu, q-1) > 1), l^a (l odd,
    2 <= a <= r+1) and 2^a (mu even, 2 <= a <= r+2), where mu = l^r.
    g is factored by a segmented sieve whose blocks start _SIEVE_FIRST_BLOCK
    wide and double up to _SIEVE_BLOCK, so a search that stops early
    sieves little past where it stops.
    """
    mu = instance.m
    l_mu, r_mu = prime_power(mu)
    s_primes = set(instance.finite_primes)
    head = _prescribed_head(instance)
    f0 = math.prod(p**k for p, k in head)

    def exponent_range(q):
        if q in s_primes:
            return None
        if q == 2:
            return (2, r_mu + 2) if mu % 2 == 0 else None
        if q == l_mu:
            return (2, r_mu + 1)
        return (1, 1) if math.gcd(mu, q - 1) > 1 else None

    limit = cap // f0
    stream = primes_stream()
    sieve_primes: list[tuple[int, tuple[int, int] | None]] = []
    pending = next(stream)
    lo, width = 1, _SIEVE_FIRST_BLOCK
    while lo <= limit:
        hi = min(lo + width, limit + 1)
        while pending * pending < hi:
            sieve_primes.append((pending, exponent_range(pending)))
            pending = next(stream)
        n = hi - lo
        rest = list(range(lo, hi))
        found: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        alive = bytearray(b"\x01") * n
        for q, allowed in sieve_primes:
            start = -lo % q
            if allowed is None:
                alive[start::q] = bytes(len(range(start, n, q)))
                continue
            low, high = allowed
            for i in range(start, n, q):
                if not alive[i]:
                    continue
                v, a = rest[i] // q, 1
                while v % q == 0:
                    v //= q
                    a += 1
                if low <= a <= high:
                    rest[i] = v
                    found[i].append((q, a))
                else:
                    alive[i] = 0
        for i in range(n):
            if not alive[i]:
                continue
            # what is left is 1 or a prime above every sieve prime
            v = rest[i]
            if v > 1:
                allowed = exponent_range(v)
                if allowed is None or allowed[0] > 1:
                    continue
                found[i].append((v, 1))
            yield f0 * (lo + i), tuple(sorted(head + tuple(found[i])))
        lo, width = hi, min(2 * width, _SIEVE_BLOCK)


def _prescribed_block(instance: GrunwaldInstance):
    """The F0 part of every oracle pass, computed once per search.

    Returns (fixed, targets, orders).  fixed maps each ramified prescribed
    prime p to its only possible unit slot, (-t) mod mu for each unit
    exponent t at the instance's exponent mu.  targets
    has one (x, want) per check of _checks, want less what the fixed slots
    contribute to it.  F0's components carry the same generators in
    every f = F0 * g, since dlog_units(p^k, x) depends only on p^k, so
    these constants hold for every f.  orders has one (x, n, n // l) per
    check whose want has additive order n > 1 in Z/mu, mu = l^r: the input
    of _reaches_orders.
    """
    mu = instance.m
    l, _ = prime_power(mu)
    head = _prescribed_head(instance)
    by_prime = {psi.place.prime: psi for psi in instance.local_characters}
    fixed = {p: tuple(-t % mu for t in by_prime[p].unit_exponents) for p, _ in head}
    targets = []
    for x, want in _checks(instance):
        for p, k in head:
            if p != x:
                want -= sum(e * t for e, t in zip(dlog_units(p**k, x), fixed[p]))
        targets.append((x, want % mu))
    orders = tuple(
        (x, n, n // l) for x, want in targets if (n := mu // math.gcd(want, mu)) > 1
    )
    return fixed, targets, orders


@lru_cache(maxsize=_SLOT_CACHE_SIZE)
def _component_reach(p: int, a: int, mu: int, x: int) -> int:
    """Order of the subgroup of Z/mu that the exponent-mu characters of
    (Z/p^a)^* give the check on x: max over generators j of
    g_j / gcd(dlog_j(x), g_j), g_j = gcd(mu, o_j).  Cached, at most
    _SLOT_CACHE_SIZE entries; only l^a and 2^a come here, so keys are few."""
    reach = 1
    for o, d in zip(unit_orders(p, a), dlog_units(p**a, x)):
        g = math.gcd(mu, o)
        reach = max(reach, g // math.gcd(d, g))
    return reach


def _reaches_orders(factors, mu: int, block) -> bool:
    """False when no character of conductor f = F0 * g can pass the
    oracle's checks, judged from g's factorization alone.

    Generator j of a component of g takes slots that are multiples of
    mu / g_j, g_j = gcd(mu, o_j), so the component's share of the check
    on x ranges over the subgroup of Z/mu of order
    max_j g_j / gcd(dlog_j(x), g_j).  Subgroups of the cyclic l-group
    Z/mu form a chain, so g's components together reach only the largest
    of them; the check's target, of order n, lies in it only if some
    component reaches order n.  On q^1 that order is the order of the
    g_q-th power-residue symbol x^((q-1)/g_q), g_q = gcd(mu, q - 1), so it
    is >= n exactly when g_q >= n and the symbol's (n/l)-th power is not
    1: one pow, no table.  l^a and 2^a go through _component_reach.
    Passing is necessary, not sufficient: _oracle_pass_pruned decides.
    """
    fixed, _, orders = block
    for x, n, below in orders:
        for p, a in factors:
            if p in fixed:
                continue
            if a == 1:
                g = math.gcd(mu, p - 1)
                if g >= n and pow(x % p, (p - 1) // g * below, p) != 1:
                    break
            elif _component_reach(p, a, mu, x) >= n:
                break
        else:
            return False
    return True


def _oracle_pass_pruned(f, factors, mu, block):
    """The least exponent vector (lexicographic) of a character of exact
    conductor f that meets the linear checks, as a character, or None.

    factors is f's factorization as _admissible_conductors yields it, so f
    is neither factored nor decomposed here.  Only the components of
    g = f / F0 are enumerated, against the targets of the prescribed
    block, and the first slot combination that meets them all is returned
    with the fixed F0 slots spliced back in component order.  Nothing else
    is checked: the F0 slots carry the prescribed unit parts and every
    slot is primitive, so the checks are the whole local data, and
    oracle_minimal passes the answer through _verify_solution.  On a q^1
    component the slots are multiples of mu / gcd(mu, q - 1), so a check
    needs only dlog(x) mod that gcd: the power-residue symbol of x at q,
    read from power_residue_table.  l^a and 2^a components take full
    dlog_units rows.
    The order test is not repeated here: oracle_minimal calls this only
    for the f that pass _reaches_orders, and an f that fails it returns
    None here too, since no slot choice reaches its target.
    """
    fixed, targets, _ = block
    vec: list[int] = []
    free: list[int] = []  # positions in vec of g's generators
    choices: list[tuple[int, ...]] = []
    rows: list[list[int]] = [[] for _ in targets]
    for p, a in factors:
        sl = fixed.get(p)
        if sl is not None:
            vec.extend(sl)
            continue
        slots = primitive_slots(p, a, mu)
        free.extend(range(len(vec), len(vec) + len(slots)))
        vec.extend([0] * len(slots))
        choices.extend(slots)
        if a == 1:
            e, logs = power_residue_table(p, math.gcd(mu, p - 1))
            for row, (x, _) in zip(rows, targets):
                row.append(logs[pow(x % p, e, p)])
        else:
            for row, (x, _) in zip(rows, targets):
                row.extend(dlog_units(p**a, x))
    checks = [(row, want) for row, (_, want) in zip(rows, targets)]
    for combo in itertools.product(*choices):
        for row, want in checks:
            if sum(map(operator.mul, row, combo)) % mu != want:
                break
        else:
            for j, t in zip(free, combo):
                vec[j] = t
            return DirichletCharacter(f, mu, tuple(vec))
    return None


def oracle_minimal(
    instance: GrunwaldInstance,
    cap: int,
    exponent: int | None = None,
) -> GrunwaldSolution:
    """Exhaustive minimal solution: first matching primitive character by
    increasing conductor, then lexicographic exponent vector.

    Only the admissible conductors F0 * g are visited (see
    _admissible_conductors); every character of exact conductor f with
    the prescribed unit parts is tried on each.  The F0 part of each test
    is fixed once per search (see _prescribed_block); since F0's slots are
    single-valued, lexicographic order over g's slots is the order over
    the whole vector.  Each f is tested from the factorization the sieve
    yields with it: first the order test (_reaches_orders), which skips
    f when some check's target has an order that no component of g can
    reach, before any table is built or slot enumerated; it rejects only
    f where the enumeration would find nothing, so the answer is the same.
    The f that pass are enumerated with power-residue rows on g's q^1
    components (see _oracle_pass_pruned), and the first character found
    goes through _verify_solution, as construct's answer does, so a linear
    check that disagreed with local_component would raise
    InternalContradictionError rather than be skipped.
    """
    if cap < 1:
        raise ValidationError(f"bad search cap {cap}")
    report, inst = _exponent(instance, exponent)
    mu = inst.m
    block = _prescribed_block(inst)
    for f, factors in _admissible_conductors(inst, cap):
        if not _reaches_orders(factors, mu, block):
            continue
        chi = _oracle_pass_pruned(f, factors, mu, block)
        if chi is not None:
            solution = GrunwaldSolution(chi, mu, report.occurs, (), conductor(chi))
            _verify_solution(inst, solution)
            return solution
    raise NoSolutionBelowCap(f"no exponent-{mu} solution with conductor <= {cap}")


@dataclass(frozen=True)
class BoundReport:
    """Quantities entering the conductor bounds, plus the achieved value.

    log_shape is the unconditional log-conductor shape m*(n_places+D)*
    log(N_S*m); power_exponent the polynomial exponent E1*(1/2+eps); and
    grh_shape the conditional shape (log(N_S*l))^(2(e+delta)).  The
    implied constants are not effective, so only ratios are reported.
    """

    e: int
    class_generators: int
    delta: int
    delta_prime: int
    e1: int
    selmer_rank: int
    n_places: int
    norm_s: int
    epsilon: float
    log_shape: float
    power_exponent: float
    grh_shape: float
    achieved_log_conductor: float
    shape_ratio: float


def bound_report(
    instance: GrunwaldInstance,
    solution: GrunwaldSolution,
    epsilon: float = 0.1,
) -> BoundReport:
    if epsilon <= 0:
        raise ValidationError("epsilon must be positive")
    l, _ = prime_power(instance.m)
    m = instance.m
    finite = [v for v in instance.places if not v.is_real]
    n_places = len(finite) + 1  # the real place always counts
    class_gens = 0
    delta_prime = 1 if l % 2 else 0
    delta = 0 if m == 2 else 1
    e = n_places + class_gens - delta_prime
    phi = m - m // l
    e1 = phi * e + delta
    norm_s = math.prod(v.prime for v in finite)
    log_shape = m * (n_places + class_gens) * math.log(norm_s * m)
    achieved = math.log(conductor(solution.character).norm)
    return BoundReport(
        e=e,
        class_generators=class_gens,
        delta=delta,
        delta_prime=delta_prime,
        e1=e1,
        selmer_rank=e,
        n_places=n_places,
        norm_s=norm_s,
        epsilon=epsilon,
        log_shape=log_shape,
        power_exponent=e1 * (0.5 + epsilon),
        grh_shape=math.log(norm_s * l) ** (2 * (e + delta)),
        achieved_log_conductor=achieved,
        shape_ratio=achieved / log_shape,
    )


_INSTANCE_KEYS = {"m", "places", "field"}
_PLACE_KEYS = {
    "place",
    "conductor_exponent",
    "unit_exponents",
    "uniformizer_exponent",
    "sign_exponent",
}


def instance_from_dict(data: dict) -> GrunwaldInstance:
    if not isinstance(data, dict):
        raise ValidationError("instance record must be a mapping")
    for key in data:
        if key not in _INSTANCE_KEYS:
            raise ValidationError(f"unknown key '{key}'")
    if "m" not in data:
        raise ValidationError("missing key 'm'")
    try:
        m = int(data["m"])
    except (TypeError, ValueError):
        raise ValidationError(f"bad exponent entry {data['m']!r}") from None
    if "field" in data and not FieldDescriptor.parse(data["field"]).is_rational:
        raise ValidationError("solving is implemented over Q only")
    chars = []
    for rec in data.get("places", []):
        if not isinstance(rec, dict):
            raise ValidationError("place record must be a mapping")
        for key in rec:
            if key not in _PLACE_KEYS:
                raise ValidationError(f"unknown key '{key}'")
        if "place" not in rec:
            raise ValidationError("missing key 'place'")
        try:
            place = Place.parse(str(rec["place"]))
            chars.append(
                local_character(
                    place,
                    m,
                    int(rec.get("conductor_exponent", 0)),
                    tuple(int(t) for t in rec.get("unit_exponents", ())),
                    int(rec.get("uniformizer_exponent", 0)),
                    int(rec.get("sign_exponent", 0)),
                )
            )
        except (TypeError, ValueError):
            raise ValidationError(f"bad place record {rec!r}") from None
    return make_instance(m, chars)


def instance_to_dict(instance: GrunwaldInstance) -> dict:
    places = []
    for psi in instance.local_characters:
        places.append(
            {
                "place": str(psi.place),
                "conductor_exponent": psi.conductor_exponent,
                "unit_exponents": list(psi.unit_exponents),
                "uniformizer_exponent": psi.uniformizer_exponent,
                "sign_exponent": psi.sign_exponent,
            }
        )
    return {"m": instance.m, "places": places}
