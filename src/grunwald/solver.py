"""Construction of global characters with prescribed local components.

Given a prime-power exponent m and finitely many prescribed local
characters, build a Dirichlet character realizing all of them at once.
First the exponent mu to solve at is decided (_exponent): the special case
of Wang makes it 2m for obstructed data, and m otherwise; the instance is
rescaled to mu once, and every later step reads mu as its exponent.  Then
pick auxiliary primes that rigidify the relevant S-unit classes (they
depend only on mu and the finite places, so each such pair is searched
once per process), assemble a cycle (the working modulus), and solve a
linear system over Z/mu for the free slots of the exponent vector,
returning the character of least conductor mod the cycle (or, when the
solution lattice exceeds _KERNEL_LIMIT elements, the particular solution,
flagged minimised=False).  That search, _minimal_candidate, works out
each component's norm factor p^level from one generator's value t by the
closed form of the conductor rule that characters keeps, _level_scale: a
fixed power of p divided by gcd(t, q), q the p-part of mu, so a node
costs the same at every mu.  It prunes by the
finished factors times a lower bound on each component still open: the
factor its last coordinate must take when the coset the remaining steps
leave it in excludes 0.  _solve_mod
is the one Z/l^rho routine for systems; the kernel of the single row each
kept auxiliary prime cuts the survivors down by has a closed form,
_row_kernel.

oracle_minimal is the independent ground truth: exhaustive enumeration of
primitive characters by increasing conductor, sharing no search logic
with the constructive path.  Both solve one problem, stated once: the
exponent (_exponent); the fixed slots and per-place targets, which both
take from _prescribed_block, on F0 for the oracle and on the cycle for
construct; and _verify_solution, which every answer of either passes.
The oracle visits only the conductors F0 * g that the prescribed local
conductors and characters.conductor_levels admit (see
_admissible_conductors), and tests each from the factorization the
sieve yields.  First an order test (_reaches_orders):
every target, of additive order n in Z/mu, must lie in the chain of
subgroups g's components can reach, which on a prime q of g to the first
power is one pow of the power-residue symbol.  Only the f that pass it
are enumerated against the targets alone, each q^1 contributing one
symbol per target, read from core_arith.power_residue_table, the table
auxiliary_primes also reads.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import namedtuple
from functools import lru_cache

from .characters import (
    CycleValue,
    DirichletCharacter,
    _level_scale,
    character_order,
    conductor,
    conductor_levels,
    evaluate_local,
    local_character,
    local_component,
    primitive_slots,
    primitivize,
)
from .core_arith import (
    CheckedRecord,
    FactoredInteger,
    Place,
    components,
    dlog_units,
    power_residue_table,
    prime_power,
    primes_stream,
    unit_orders,
)
from .errors import (
    InternalContradictionError,
    NoSolutionBelowCap,
    SearchCapError,
    ValidationError,
    check_epsilon,
)
from .wang_special import FieldDescriptor, special_case

_KERNEL_LIMIT = 1 << 20
_AUX_PRIME_CAP = 10**6


class GrunwaldInstance(CheckedRecord, namedtuple("GrunwaldInstance", "m local_characters")):
    """Exponent m = l^r plus prescribed local characters at distinct places."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
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
        return self

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


class GrunwaldSolution(
    namedtuple(
        "GrunwaldSolution",
        "character exponent_achieved special_case_flag aux_primes cycle minimised",
        defaults=(True,),
    )
):
    """minimised is False when the solution lattice exceeded _KERNEL_LIMIT
    elements and the particular solution was returned without the
    least-conductor search."""

    __slots__ = ()

    @property
    def conductor_norm(self) -> int:
        return conductor(self.character).norm


def p_star_basis(m: int, S) -> tuple[int, ...]:
    """Generators of the S-units-mod-m-th-powers group: -1 (m even) and S."""
    prime_power(m)
    primes = sorted({v.prime for v in S if not v.is_real})
    head = [-1] if m % 2 == 0 else []
    return tuple(head + primes)


# (m, finite primes of S) pairs whose auxiliary primes are kept.  Every
# benchmark workload solves fewer than 100 pairs per process; the bound
# keeps a long-running caller from growing the memo without limit.
_AUX_CACHE_SIZE = 256


def auxiliary_primes(m: int, S) -> tuple[int, ...]:
    """Primes outside S that cut the survivor subgroup down, found by
    subgroup elimination (see _auxiliary_primes).

    The answer depends only on m and the finite primes of S: the real
    place enters neither p_star_basis nor Wang's test over Q.  So each
    (m, finite primes) pair is searched once per process, S with or
    without the real place sharing one search, and kept in a memo of at
    most _AUX_CACHE_SIZE pairs.
    """
    return _auxiliary_primes(m, tuple(sorted({v.prime for v in S if not v.is_real})))


@lru_cache(maxsize=_AUX_CACHE_SIZE)
def _auxiliary_primes(m: int, s_primes: tuple[int, ...]) -> tuple[int, ...]:
    """auxiliary_primes for the place set of the finite primes s_primes.

    The survivors are the elements of G = Z/2 x (Z/m)^k, the exponent
    vectors on p_star_basis (the Z/2 factor belongs to -1), whose basis
    product is a local m-th power at every chosen prime.  They form a
    subgroup, kept as at most |basis| generators.  A prime q is chosen
    when the power map G -> F_q*/F_q*^m = Z/g, g = gcd(m, q - 1), is
    nonzero on some generator.  The kernel is then one row over Z/m, the
    generators' values scaled by m/g so that the g-multiples stay in it,
    taken in closed form by _row_kernel; each of its generators, mapped
    back onto the survivor generators, is a new one.  The values of that
    map are read from core_arith.power_residue_table, the table the oracle
    reads; its zeta is the canonical generator's power, but any primitive
    g-th root would do, since another one multiplies every value by one
    unit mod g and so keeps the kernel.  The kept primes depend only on
    the survivor subgroup, never on the generators spanning it.  The
    search stops once every generator lies in the allowed subgroup: the
    trivial class, plus the a0 class when the special case occurs.  For
    non-cyclic 2-power exponents the prime 2 (when 2 is outside S) or a
    prime q = +-3 mod 8 (when 2 is in S, so sqrt 2 stays out of Q_q) is
    additionally required.
    """
    l, r = prime_power(m)
    S = frozenset(Place(p) for p in s_primes)
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
        j, kernel = _row_kernel([logs[z] * (m // g) for z in images], l, r)
        pivot = gens[j]
        gens = [
            h
            for c, k, t in kernel
            if (h := tuple((k * a + t * b) % n for a, b, n in zip(gens[c], pivot, ranges)))
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


def _row_kernel(row, l: int, r: int) -> tuple[int, list[tuple[int, int, int]]]:
    """The kernel of one row of entries in [0, m), {x : row . x = 0 mod
    m = l^r}, in closed form, as (j, gens): each (c, k, t) in gens is the
    generator k e_c + t e_j.

    The pivot j is the first entry of least valuation v, a_j = l^v u, the
    pivot _solve_mod picks; every a_c is then l^v b_c, and row . x = 0
    says x_j = -u^-1 sum b_c x_c mod l^(r - v).  So the kernel is spanned
    by e_c - b_c u^-1 e_j for c != j and by l^(r - v) e_j, which is e_j
    for a zero row and 0, left out, when v = 0.
    """
    m = l**r
    lv, j = min((math.gcd(a, m), c) for c, a in enumerate(row))
    u = row[j] // lv
    inv = pow(u, -1, m) if u else 0
    gens = [(c, 1, -(a // lv) * inv % m) for c, a in enumerate(row) if c != j]
    if lv > 1:
        gens.append((j, m // lv, 0))
    return j, gens


def _prescribed_head(instance: GrunwaldInstance) -> tuple[tuple[int, int], ...]:
    """(p, k) for every prescribed prime with conductor exponent k > 0:
    the factorization of F0."""
    return tuple(
        (psi.place.prime, psi.conductor_exponent)
        for psi in instance.local_characters
        if not psi.place.is_real and psi.conductor_exponent
    )


def build_cycle(instance: GrunwaldInstance, aux) -> CycleValue:
    """The working modulus for the instance's exponent m = l^rho: product
    of the prescribed conductors, the l-power headroom l^(rho+2), and one
    factor per auxiliary prime.  For obstructed data pass the instance
    _exponent rescales to 2m, as construct does."""
    l, rho = prime_power(instance.m)
    exps = dict(_prescribed_head(instance))
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


def _prescribed_block(instance: GrunwaldInstance, comps):
    """(fixed, targets, orders): what the prescribed data fix in every
    character mod M, comps = components(M), at the instance's exponent mu;
    M is F0 for oracle_minimal and the cycle for construct.

    fixed maps the prime p of each component at a prescribed place to its
    only possible slots: the character's CRT factor at p inverts the
    prescribed unit part, so generator g takes -psi(g), the unit exponents
    t mod p^k restated on the component's generators (-t when it is p^k,
    0 when k = 0).  targets has one (x, want) per prescribed place, in
    order: a character meets its uniformizer value (x = p), resp. sign
    (x = -1), when its other slots dotted with the discrete logs of x are
    want, the prescribed value less the fixed slots' share.  F0's
    components carry the same generators in every f = F0 * g, so the
    oracle's block holds for every f.  orders has one (x, n, n // l) per
    target of additive order n > 1 in Z/mu = Z/l^r: _reaches_orders' input.
    """
    mu = instance.m
    l, _ = prime_power(mu)
    by_prime = {psi.place.prime: psi for psi in instance.local_characters}
    fixed = {}
    for c in comps:
        if (psi := by_prime.get(c.prime)) is not None:
            pk = c.prime**psi.conductor_exponent
            fixed[c.prime] = tuple(
                -sum(map(operator.mul, psi.unit_exponents, dlog_units(pk, g))) % mu
                for g in c.local_generators
            )
    targets = []
    for psi in instance.local_characters:
        if psi.place.is_real:
            x, want = -1, psi.sign_exponent * (mu // 2)
        else:
            x, want = psi.place.prime, psi.uniformizer_exponent
        for c in comps:
            if c.prime in fixed and c.prime != x:
                want -= sum(map(operator.mul, dlog_units(c.prime_power, x), fixed[c.prime]))
        targets.append((x, want % mu))
    orders = tuple(
        (x, n, n // l) for x, want in targets if (n := mu // math.gcd(want, mu)) > 1
    )
    return fixed, targets, orders


def _assemble_rows(instance: GrunwaldInstance, comps):
    """(rows, rhs, fixed): linear constraints mod mu = instance.m on the
    free slots of a character mod M, comps = components(M), the slots of
    components at no prescribed place; _splice puts _prescribed_block's
    fixed slots back.  One order row per free generator, then one row per
    prescribed place on its target."""
    fixed, targets, _ = _prescribed_block(instance, comps)
    free = [c for c in comps if c.prime not in fixed]
    orders = [o for c in free for o in c.orders]
    rows = [[o if j == i else 0 for j in range(len(orders))] for i, o in enumerate(orders)]
    rhs = [0] * len(orders)
    for x, want in targets:
        rows.append([e for c in free for e in dlog_units(c.prime_power, x)])
        rhs.append(want)
    return rows, rhs, fixed


def _splice(layout, fixed, vec) -> list[int]:
    """The exponent vector that is fixed[p] on the component at each p in
    fixed and vec, in order, on the others; layout has one (p, slot
    count) pair per component, in component order."""
    rest = iter(vec)
    return [t for p, n in layout for t in fixed.get(p) or itertools.islice(rest, n)]


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
    the last basis vector touching its coordinates is fixed.  A component
    not final yet is bounded from below by what the steps left can still
    reach on its last coordinate.  After step d that coordinate is y, and
    the later steps add multiples of their entries v there, so every value
    t it can end at lies in the coset y + gZ/mu, g = gcd(mu, those v) (g =
    mu when no later step touches it).  g divides mu = l^r, so g is a
    power of l; when g does not divide y, v_l(y) < v_l(g) <= v_l(g k) for
    every k, hence t != 0 and v_l(t) = v_l(y): gcd(t, mu) = gcd(y, mu), and
    the factor, read from t by _level_scale, is top // gcd(y, q) at every
    completion.  Otherwise it is at least 1.  So a child is skipped only
    when the finished factors times these bounds exceed the best norm
    (ties are walked, keeping the exponent-vector tiebreak).  Densest
    basis vectors go first, which finishes components early; one reverse
    pass over the sorted steps gives, for every depth, the components
    that become final there and the g of those still open.  The visiting
    order does not change the point set, hence not the result.

    A component's factor is worked out from the coordinates, which stay
    reduced mod mu, by the closed form of _level_scale: from its last
    generator's value when that is nonzero, else from its first
    generator's (1 when that is zero too, and always so on a one-generator
    component).  A component without generators (mod 2) has factor 1 and
    is left out.
    """
    if math.prod(ranges, start=1) > _KERNEL_LIMIT:
        return tuple(part), False
    if not basis:
        return tuple(part), True
    readers = []  # (last coordinate, its scale, first coordinate, its scale, q)
    owner = {}  # coordinate -> index of its component's reader
    for c in components(M):
        if n := len(c.orders):
            top, q = _level_scale(c.prime, n - 1, mu)
            low, _ = _level_scale(c.prime, 0, mu)
            for j in range(c.offset, c.offset + n):
                owner[j] = len(readers)
            readers.append((c.offset + n - 1, top, c.offset, low, q))
    steps = sorted(
        ((r, [(j, v) for j, v in enumerate(vec) if v]) for r, vec in zip(ranges, basis)),
        key=lambda step: -len(step[1]),
    )
    depth = len(steps)
    # finished[d]: readers of the components whose factor is final after
    # step d; moving[d] and still[d]: (last, g, top, q) for each component
    # still open after it with g > 1, whose last coordinate step d does and
    # does not touch; static: readers of the components no step moves
    finished = [[] for _ in range(depth)]
    moving = [[] for _ in range(depth)]
    still = [[] for _ in range(depth)]
    gaps = {}  # reader index -> g over the steps after the current one
    for d in range(depth - 1, -1, -1):
        touched = steps[d][1]
        moved = {j for j, _ in touched}
        for k, g in gaps.items():
            if g > 1:
                last, top, _, _, q = readers[k]
                (moving if last in moved else still)[d].append((last, g, top, q))
        for j, v in touched:
            k = owner[j]
            if k not in gaps:
                gaps[k] = mu
                finished[d].append(readers[k])
            if j == readers[k][0]:
                gaps[k] = math.gcd(gaps[k], v)
    static = [reader for k, reader in enumerate(readers) if k not in gaps]
    best_norm, best = math.inf, None

    def norm_of(done, x, norm):
        for last, top, first, low, q in done:
            if t := x[last]:
                norm *= top // math.gcd(t, q)
            elif s := x[first]:
                norm *= low // math.gcd(s, q)
        return norm

    def rec(d, x, bound):
        nonlocal best_norm, best
        if d == depth:
            if bound < best_norm or (bound == best_norm and tuple(x) < best):
                best_norm, best = bound, tuple(x)
            return
        r, touched = steps[d]
        done, move = finished[d], moving[d]
        floor = bound  # the factors and bounds step d leaves as they are
        for last, g, top, q in still[d]:
            if (t := x[last]) % g:
                floor *= top // math.gcd(t, q)
        y = list(x)
        for c in range(r):
            if c:
                for j, v in touched:
                    y[j] = (y[j] + v) % mu
            gain = norm_of(done, y, 1)
            low = floor * gain
            if low > best_norm:
                continue
            for last, g, top, q in move:
                if (t := y[last]) % g:
                    low *= top // math.gcd(t, q)
            if low <= best_norm:
                rec(d + 1, y, bound * gain)

    start = list(part)
    rec(0, start, norm_of(static, start, 1))
    return best, True


def solve_character(
    instance: GrunwaldInstance,
    cycle: CycleValue,
    aux_primes=(),
) -> GrunwaldSolution:
    """The character _solve finds mod the cycle, at the exponent _exponent
    decides: 2m for obstructed Wang data, so the cycle must be built at 2m."""
    report, inst = _exponent(instance, None)
    return _solve(report, inst, cycle, tuple(aux_primes))


def _solve(report, instance: GrunwaldInstance, cycle: CycleValue, aux) -> GrunwaldSolution:
    """The minimal character mod the cycle for an instance already at the
    exponent mu = instance.m that _exponent decided, with its report."""
    mu = instance.m
    l, rho = prime_power(mu)
    M = cycle.finite_part.value
    comps = components(M)
    rows, rhs, fixed = _assemble_rows(instance, comps)
    lattice = _solve_mod(rows, rhs, l, rho)
    if lattice is None:
        raise InternalContradictionError(
            f"no exponent-{mu} character exists modulo the cycle {cycle}"
        )
    part, basis, ranges = lattice
    layout = [(c.prime, len(c.orders)) for c in comps]
    zeros = {p: (0,) * len(sl) for p, sl in fixed.items()}
    part, basis = _splice(layout, fixed, part), [_splice(layout, zeros, b) for b in basis]
    vec, minimised = _minimal_candidate(part, basis, ranges, M, mu)
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


def _admissible_conductors(instance: GrunwaldInstance, cap: int):
    """Yield (f, factorization) for every conductor f <= cap a primitive
    character of the instance's exponent mu with the prescribed local data
    could have, in increasing order.

    f = F0 * g: F0 fixes the prescribed conductor exponents, and g is
    coprime to S with a in conductor_levels(q, mu) for every q^a exactly
    dividing it.  g is factored by a segmented sieve whose blocks start
    _SIEVE_FIRST_BLOCK wide and double up to _SIEVE_BLOCK, so a search
    that stops early sieves little past where it stops; it reads each
    sieve prime's levels once, and the leftover prime's on each g.
    """
    mu = instance.m
    s_primes = set(instance.finite_primes)
    head = _prescribed_head(instance)
    f0 = math.prod(p**k for p, k in head)
    limit = cap // f0
    stream = primes_stream()
    sieve_primes: list[tuple[int, range]] = []
    pending = next(stream)
    lo, width = 1, _SIEVE_FIRST_BLOCK
    while lo <= limit:
        hi = min(lo + width, limit + 1)
        while pending * pending < hi:
            levels = range(0) if pending in s_primes else conductor_levels(pending, mu)
            sieve_primes.append((pending, levels))
            pending = next(stream)
        n = hi - lo
        rest = list(range(lo, hi))
        found: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        alive = bytearray(b"\x01") * n
        for q, levels in sieve_primes:
            start = -lo % q
            if not levels:
                alive[start::q] = bytes(len(range(start, n, q)))
                continue
            low, high = levels[0], levels[-1]
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
                if v in s_primes or 1 not in conductor_levels(v, mu):
                    continue
                found[i].append((v, 1))
            yield f0 * (lo + i), tuple(sorted(head + tuple(found[i])))
        lo, width = hi, min(2 * width, _SIEVE_BLOCK)


def _component_reach(p: int, a: int, mu: int, x: int) -> int:
    """Order of the subgroup of Z/mu that the exponent-mu characters of
    (Z/p^a)^* give the check on x: max over generators j of
    g_j / gcd(dlog_j(x), g_j), g_j = gcd(mu, o_j)."""
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
    with the fixed F0 slots put back by _splice, as construct's are.
    Nothing else is checked: the F0 slots carry the prescribed unit parts
    and every slot is primitive, so the checks are the whole local data,
    and oracle_minimal passes the answer through _verify_solution.  On a q^1
    component the slots are multiples of mu / gcd(mu, q - 1), so a check
    needs only dlog(x) mod that gcd: the power-residue symbol of x at q,
    read from power_residue_table.  l^a and 2^a components take full
    dlog_units rows.
    The order test is not repeated here: oracle_minimal calls this only
    for the f that pass _reaches_orders, and an f that fails it returns
    None here too, since no slot choice reaches its target.
    """
    fixed, targets, _ = block
    choices: list[list[int]] = []
    rows: list[list[int]] = [[] for _ in targets]
    for p, a in factors:
        if p in fixed:
            continue
        choices.extend(primitive_slots(p, a, mu))
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
            layout = [(p, len(unit_orders(p, a))) for p, a in factors]
            return DirichletCharacter(f, mu, tuple(_splice(layout, fixed, combo)))
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
    f0 = math.prod(p**k for p, k in _prescribed_head(inst))
    block = _prescribed_block(inst, components(f0))
    for f, factors in _admissible_conductors(inst, cap):
        if not _reaches_orders(factors, mu, block):
            continue
        chi = _oracle_pass_pruned(f, factors, mu, block)
        if chi is not None:
            solution = GrunwaldSolution(chi, mu, report.occurs, (), conductor(chi))
            _verify_solution(inst, solution)
            return solution
    raise NoSolutionBelowCap(f"no exponent-{mu} solution with conductor <= {cap}")


class BoundReport(
    namedtuple(
        "BoundReport",
        "e delta delta_prime e1 n_places norm_s epsilon log_shape power_exponent"
        " grh_shape achieved_log_conductor shape_ratio",
    )
):
    """Quantities entering the conductor bounds, plus the achieved value.

    log_shape is the unconditional log-conductor shape m*n_places*
    log(N_S*m); power_exponent the polynomial exponent E1*(1/2+eps); and
    grh_shape the conditional shape (log(N_S*l))^(2(e+delta)).  The
    implied constants are not effective, so only ratios are reported.
    """

    __slots__ = ()


def bound_report(
    instance: GrunwaldInstance,
    solution: GrunwaldSolution,
    epsilon: float = 0.1,
) -> BoundReport:
    check_epsilon(epsilon)
    l, _ = prime_power(instance.m)
    m = instance.m
    finite = [v for v in instance.places if not v.is_real]
    n_places = len(finite) + 1  # the real place always counts
    delta_prime = 1 if l % 2 else 0
    delta = 0 if m == 2 else 1
    e = n_places - delta_prime
    phi = m - m // l
    e1 = phi * e + delta
    norm_s = math.prod(v.prime for v in finite)
    log_shape = m * n_places * math.log(norm_s * m)
    achieved = math.log(conductor(solution.character).norm)
    return BoundReport(
        e=e,
        delta=delta,
        delta_prime=delta_prime,
        e1=e1,
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


def _int_entry(value) -> int:
    """An integer of an instance record: only a JSON integer, so booleans,
    floats and strings are refused, not read as numbers."""
    if type(value) is not int:
        raise TypeError(value)
    return value


def instance_from_dict(data: dict) -> GrunwaldInstance:
    if not isinstance(data, dict):
        raise ValidationError("instance record must be a mapping")
    for key in data:
        if key not in _INSTANCE_KEYS:
            raise ValidationError(f"unknown key '{key}'")
    if "m" not in data:
        raise ValidationError("missing key 'm'")
    try:
        m = _int_entry(data["m"])
    except TypeError:
        raise ValidationError(f"bad exponent entry {data['m']!r}") from None
    if "field" in data and not FieldDescriptor.parse(data["field"]).is_rational:
        raise ValidationError("solving is implemented over Q only")
    places = data.get("places", [])
    if not isinstance(places, list):  # a JSON list, never a string read as one
        raise ValidationError(f"bad places entry {places!r}")
    chars = []
    for rec in places:
        if not isinstance(rec, dict):
            raise ValidationError("place record must be a mapping")
        for key in rec:
            if key not in _PLACE_KEYS:
                raise ValidationError(f"unknown key '{key}'")
        if "place" not in rec:
            raise ValidationError("missing key 'place'")
        try:
            units = rec.get("unit_exponents", [])
            if not isinstance(units, list):
                raise TypeError(units)
            place = Place.parse(str(rec["place"]))
            chars.append(
                local_character(
                    place,
                    m,
                    _int_entry(rec.get("conductor_exponent", 0)),
                    tuple(_int_entry(t) for t in units),
                    _int_entry(rec.get("uniformizer_exponent", 0)),
                    _int_entry(rec.get("sign_exponent", 0)),
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
