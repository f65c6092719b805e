"""Constructive Grunwald-Wang solver and the exhaustive reference oracle.

Main correctness route: take a character we already know, read off its
local components at a few places, hand them to the solver as an instance,
and require an exact local match.  The oracle pass and the constructive
pass must agree on minimal conductors wherever we can afford both.
"""

import itertools
import math
import operator
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grunwald import (
    BoundReport,
    DirichletCharacter,
    FieldDescriptor,
    GrunwaldInstance,
    auxiliary_primes,
    bound_report,
    build_cycle,
    character_order,
    conductor,
    construct,
    instance_from_dict,
    instance_to_dict,
    local_character,
    local_component,
    make_instance,
    obstruction_exponent,
    oracle_minimal,
    p_star_basis,
    sign_local,
    solve_character,
    special_case,
    unramified_local,
)
from grunwald.characters import _slice_conductor_exponent
from grunwald.core_arith import (
    FACTOR_LIMIT,
    Place,
    components,
    dlog_units,
    factor,
    is_prime,
    prime_power,
    primes_stream,
    unit_orders,
)
from grunwald.errors import (
    InternalContradictionError,
    NoSolutionBelowCap,
    SearchCapError,
    ValidationError,
)
from grunwald.solver import (
    _KERNEL_LIMIT,
    _SIEVE_BLOCK,
    _SIEVE_FIRST_BLOCK,
    _admissible_conductors,
    _assemble_rows,
    _auxiliary_primes,
    _component_reach,
    _exponent,
    _level_scale,
    _minimal_candidate,
    _oracle_pass_pruned,
    _prescribed_block,
    _reaches_orders,
    _row_kernel,
    _solve,
    _solve_mod,
    _splice,
)

from reference import iter_characters, unit_row_system

INF = Place(None)


def places(*ps):
    return tuple(Place(p) for p in ps)


WANG_PSI = local_character(
    Place(2), 8, conductor_exponent=5, unit_exponents=(0, 1), uniformizer_exponent=1
)


# --- auxiliary primes --------------------------------------------------------

def power_residue(basis, m, exps, q):
    """(prod b^e)^((q - 1) / gcd(m, q - 1)) mod q: 1 iff prod b^e is an
    m-th power at q."""
    t = (q - 1) // math.gcd(m, q - 1)
    val = 1
    for b, e in zip(basis, exps):
        if e:
            val = val * pow(b % q, e * t, q) % q
    return val


def brute_survivors(m, S, qs):
    """Survivor vectors of the power map after cutting by each prime in qs."""
    basis = p_star_basis(m, S)
    ranges = [2 if b == -1 else m for b in basis]
    vectors = {
        (exps, tuple(power_residue(basis, m, exps, q) for q in qs))
        for exps in _product(ranges)
    }
    return basis, vectors


def allowed_survivors(m, S):
    """The trivial class, plus the a0 = 2^(m/2) class in the special case."""
    basis = p_star_basis(m, S)
    zero = (0,) * len(basis)
    allowed = {zero}
    if m % 8 == 0 and Place(2) in S:
        a0_vec = list(zero)
        a0_vec[basis.index(2)] = m // 2
        allowed.add(tuple(a0_vec))
    return allowed


def reference_auxiliary_primes(m, S, cap=10**6):
    """The set-based greedy search: all 2 * m^|S| exponent vectors are kept
    as a set and filtered by every prime tried (exponential in |S|)."""
    l, r = prime_power(m)
    S = frozenset(S)
    s_primes = {v.prime for v in S if not v.is_real}
    basis = p_star_basis(m, S)
    ranges = [2 if b == -1 else m for b in basis]
    survivors = set(itertools.product(*(range(n) for n in ranges)))
    allowed = {tuple(0 for _ in basis)}
    report = special_case(FieldDescriptor(), m, S)
    if report.occurs:
        vec = [0] * len(basis)
        vec[basis.index(2)] = m // 2
        allowed.add(tuple(vec))

    chosen = []
    for q in primes_stream():
        if survivors <= allowed:
            break
        if q > cap:
            raise SearchCapError(f"auxiliary-prime search passed {cap}")
        if q == l or q in s_primes:
            continue
        g = math.gcd(m, q - 1)
        if g == 1:
            continue
        exp = (q - 1) // g
        beta = [pow(b % q, exp, q) for b in basis]
        kernel = {
            vec
            for vec in survivors
            if math.prod(pow(bq, e, q) for bq, e in zip(beta, vec)) % q == 1
        }
        if len(kernel) < len(survivors):
            chosen.append(q)
            survivors = kernel

    if l == 2 and r >= 3:
        if 2 not in s_primes:
            chosen.append(2)
        elif not any(q % 8 in (3, 5) for q in chosen):
            for q in primes_stream():
                if q % 8 in (3, 5) and q not in s_primes and q not in chosen:
                    chosen.append(q)
                    break
    return tuple(chosen)


def _product(ranges):
    if not ranges:
        yield ()
        return
    for head in range(ranges[0]):
        for tail in _product(ranges[1:]):
            yield (head,) + tail


AUX_FIXTURES = [
    (2, (), (3,)),
    (3, (5,), (7,)),
    (2, (5,), (3, 11)),
    (3, (7,), (13,)),
    (16, (2,), (3, 5, 17)),
    (8, (2,), (3, 5)),
    (4, (2,), (3, 5)),
    (9, (3,), (7, 19)),
    (8, (3,), (5, 7, 17, 2)),
]


@pytest.mark.parametrize("m,S,want", AUX_FIXTURES)
def test_auxiliary_primes_fixtures(m, S, want):
    assert auxiliary_primes(m, places(*S)) == want


@pytest.mark.parametrize("m,S,want", AUX_FIXTURES)
def test_auxiliary_primes_ignore_the_real_place(m, S, want):
    # each side searched cold, then both share one memo entry
    _auxiliary_primes.cache_clear()
    finite = auxiliary_primes(m, places(*S))
    _auxiliary_primes.cache_clear()
    assert auxiliary_primes(m, places(*S) + (INF,)) == finite == want
    auxiliary_primes(m, places(*S))
    assert _auxiliary_primes.cache_info().currsize == 1


def test_auxiliary_primes_kill_survivors():
    # after cutting by the returned primes, the only elements of the span
    # of the basis that look like m-th powers at every q are the allowed ones
    for m, S in [(2, ()), (4, (2,)), (8, (2,)), (9, (3,)), (3, (5,))]:
        qs = [q for q in auxiliary_primes(m, places(*S)) if q != 2]
        basis, vectors = brute_survivors(m, places(*S), qs)
        survivors = {exps for exps, vec in vectors if all(v == 1 for v in vec)}
        assert survivors <= allowed_survivors(m, places(*S)), (m, S, survivors)


AUX_M = (2, 3, 4, 5, 8, 9, 16, 25, 27)
AUX_POOL = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def _aux_max_places(m):
    # keep the reference's 2 * m^|S| vectors at most 2^16
    k = 0
    while 2 * m ** (k + 1) <= 1 << 16 and k < len(AUX_POOL):
        k += 1
    return k


@given(
    m=st.sampled_from(AUX_M),
    primes=st.lists(st.sampled_from(AUX_POOL), unique=True, max_size=len(AUX_POOL)),
    with_two=st.booleans(),
    real=st.booleans(),
)
@example(m=8, primes=[3], with_two=True, real=False)
@example(m=16, primes=[5, 13], with_two=True, real=True)
@example(m=8, primes=[3, 5, 7], with_two=True, real=True)
@example(m=27, primes=[3, 5, 7], with_two=False, real=False)
@example(m=25, primes=[], with_two=False, real=True)
@settings(max_examples=80, deadline=None)
def test_auxiliary_primes_match_reference(m, primes, with_two, real):
    # with_two puts 2 in S, which for 8 | m is the special case; the search
    # runs cold, then the memo must give the same answer warm
    chosen = ([2] if with_two else []) + [p for p in primes if p != 2]
    chosen = chosen[: _aux_max_places(m)]
    S = places(*chosen) + ((INF,) if real else ())
    want = reference_auxiliary_primes(m, S)
    _auxiliary_primes.cache_clear()
    assert auxiliary_primes(m, S) == want
    hits = _auxiliary_primes.cache_info().hits
    assert auxiliary_primes(m, S) == want
    assert _auxiliary_primes.cache_info().hits == hits + 1


def test_auxiliary_primes_memo_is_keyed_on_the_place_set():
    # many place sets per exponent, swept cold from one cleared memo and
    # again warm: a memo that confused two keys answers one of them wrong
    cases = []
    for m in AUX_M:
        k = _aux_max_places(m)
        for chosen in ((), (2,), (3,), (2, 3), (5, 7, 11), (2, 13, 31), AUX_POOL):
            S = places(*chosen[:k])
            cases += [(m, S), (m, S + (INF,))]
    # S and S + (INF,) share a reference answer as they share a memo entry
    reference = {}
    for m, S in cases:
        key = (m, frozenset(v for v in S if not v.is_real))
        if key not in reference:
            reference[key] = reference_auxiliary_primes(m, S)
    want = [reference[m, frozenset(v for v in S if not v.is_real)] for m, S in cases]
    _auxiliary_primes.cache_clear()
    assert [auxiliary_primes(m, S) for m, S in cases] == want
    assert [auxiliary_primes(m, S) for m, S in cases] == want
    info = _auxiliary_primes.cache_info()
    assert info.misses == info.currsize == len(reference)
    assert info.maxsize is not None


def row_kernel_span(row, l, r):
    """The subgroup of (Z/l^r)^n that _row_kernel's generators span."""
    m = l**r
    n = len(row)
    j, gens = _row_kernel(row, l, r)
    span = {(0,) * n}
    for c, k, t in gens:
        vec = [0] * n
        vec[c] += k
        vec[j] += t
        span = {tuple((x + i * v) % m for x, v in zip(pt, vec)) for pt in span for i in range(m)}
    return span


@st.composite
def kernel_rows(draw):
    """(row, l, r): l^r <= 81 and 1-5 entries of every valuation, with at
    most 6561 points in (Z/l^r)^n to sweep."""
    l = draw(st.sampled_from((2, 3, 5)))
    r = draw(st.integers(1, {2: 6, 3: 4, 5: 2}[l]))
    m = l**r
    n = draw(st.integers(1, max(k for k in range(1, 6) if m**k <= 6561)))
    entry = st.builds(lambda v, u: l**v * u % m, st.integers(0, r), st.integers(0, m - 1))
    return draw(st.lists(entry, min_size=n, max_size=n)), l, r


@given(kernel_rows())
@example(([2, 1], 2, 2))  # the first nonzero entry is no pivot: 1 is
@example(([0, 6, 3], 3, 2))
@example(([4], 2, 3))  # only l^(r - v) e_j spans the kernel
@example(([2, 4, 6], 2, 3))
@example(([0, 0], 5, 1))  # a zero row: everything
@settings(max_examples=200, deadline=None)
def test_row_kernel_is_the_kernel(case):
    # against brute force, and against _solve_mod's lattice as a point set
    row, l, r = case
    m = l**r
    n = len(row)
    want = {
        x for x in itertools.product(range(m), repeat=n)
        if sum(map(operator.mul, row, x)) % m == 0
    }
    span = row_kernel_span(row, l, r)
    assert span == want
    _, basis, ranges = _solve_mod([row], [0], l, r)
    assert span == {
        tuple(sum(c * v[i] for c, v in zip(cs, basis)) % m for i in range(n))
        for cs in itertools.product(*(range(k) for k in ranges))
    }


@pytest.mark.parametrize(
    "m,S,want",
    [
        # the wide and deep construct shapes of perfbench/workloads.py
        (3, (2, 3, 5, 7, 11, 13), (19, 31, 37, 43, 61, 67)),
        (4, (2, 3, 5, 7, 11, 13), (17, 19, 23, 29, 31, 37, 41, 53, 89)),
        (5, (2, 3, 5, 7, 11, "inf"), (31, 41, 61, 71, 101)),
        (5, (2, 3, 7, 11, 13, 31), (41, 61, 71, 101, 131, 151)),
        (7, (2, 3, 5, 7, 29, 43), (71, 113, 127, 197, 211, 239)),
        (8, (3, 5, 7, 11, 13, "inf"), (17, 19, 23, 29, 31, 37, 41, 53, 73, 89, 137, 2)),
        (9, (2, 3, 5, 7, 11, 13), (19, 31, 37, 43, 61, 67, 73, 109, 127, 181)),
        (16, (3, 11, 19), (5, 7, 13, 17, 41, 73, 97, 113, 2)),
        (16, (7, 13, 19), (3, 5, 11, 17, 29, 41, 73, 97, 113, 2)),
        (16, (3, 5, 7, 11), (13, 17, 19, 29, 37, 41, 73, 89, 97, 113, 257, 2)),
        (16, (5, 13, 17, 29), (3, 7, 11, 19, 23, 37, 41, 61, 73, 89, 97, 113, 241, 257, 2)),
        (25, (5, 7, 11, 31), (41, 61, 71, 101, 151, 251, 701)),
        (27, (5, 7, 19), (13, 31, 37, 43, 73, 109, 163, 271)),
        (32, (5, 13, "inf"), (3, 7, 11, 17, 37, 41, 97, 257, 2)),
        (32, (7, 13, "inf"), (3, 5, 17, 41, 97, 193, 2)),
    ],
)
def test_auxiliary_primes_benchmark_shapes(m, S, want):
    S = tuple(INF if p == "inf" else Place(p) for p in S)
    assert auxiliary_primes(m, S) == want


@pytest.mark.parametrize(
    "m,S",
    [
        (16, (3, 5, 7, 11, 13, 17)),
        (16, (2, 3, 5, 7, 11, "inf")),
        (9, (2, 3, 5, 7, 11, 13, 17, 19)),
        (27, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)),
    ],
)
def test_auxiliary_primes_polynomial_in_places(m, S):
    # 2 * m^|S| is 3.4e7 to 4.1e14 here, far beyond a survivor set
    S = tuple(INF if p == "inf" else Place(p) for p in S)
    s_primes = {v.prime for v in S if not v.is_real}
    l, r = prime_power(m)
    aux = auxiliary_primes(m, S)
    assert len(set(aux)) == len(aux)
    for q in aux:
        assert is_prime(q)
        if q == 2 and l == 2 and r >= 3:
            continue  # the forced prime 2
        assert q not in s_primes and q != l
        assert math.gcd(m, q - 1) > 1

    # largest gcd(m, q - 1) first: only q with gcd m is nonzero on the
    # l-torsion swept below, so most vectors fail after one or two primes
    qs = sorted((q for q in aux if q != 2), key=lambda q: -math.gcd(m, q - 1))
    basis = p_star_basis(m, S)
    ranges = [2 if b == -1 else m for b in basis]
    allowed = allowed_survivors(m, S)

    def check(exps):
        if all(power_residue(basis, m, exps, q) == 1 for q in qs):
            assert tuple(exps) in allowed, (m, S, exps)

    rng = random.Random(m * 1000 + len(S))
    for _ in range(10_000):
        # l^j * (random vector), sparse or dense
        scale = l ** rng.randrange(r)
        width = rng.choice((1, 2, len(basis)))
        exps = [0] * len(basis)
        for i in rng.sample(range(len(basis)), width):
            exps[i] = scale * rng.randrange(ranges[i]) % ranges[i]
        check(exps)
    # Exhaustively: a survivor group outside `allowed` has an element of
    # order l outside it, or (special case, allowed = {0, a0}) an element
    # y with l * y = a0.  So the l-torsion, and its coset of a0 / 2 when
    # a0 is there, must contain no survivor outside `allowed`.
    torsion = [[n // l * c for c in range(l)] for n in ranges]
    shifts = {tuple(a // 2 for a in vec) for vec in allowed}
    for shift in shifts:
        for exps in itertools.product(*torsion):
            check([(e + t) % n for e, t, n in zip(exps, shift, ranges)])


def test_p_star_basis():
    assert p_star_basis(2, places()) == (-1,)
    assert p_star_basis(3, places()) == ()
    assert p_star_basis(4, places(2, 5)) == (-1, 2, 5)
    assert p_star_basis(9, places(3, 7)) == (3, 7)


def test_aux_primes_are_fresh_primes():
    for m, S in [(8, (2,)), (9, (3, 7)), (4, (2, 3, 5))]:
        aux = auxiliary_primes(m, places(*S))
        assert len(set(aux)) == len(aux)
        for q in aux:
            assert is_prime(q)
            assert q not in S or q == 2  # the forced prime 2 may overlap


# --- cycles ------------------------------------------------------------------

def test_build_cycle_wang():
    inst = make_instance(8, [WANG_PSI])
    aux = auxiliary_primes(16, places(2))
    cyc = build_cycle(make_instance(16, [WANG_PSI]), aux)
    assert str(cyc) == "2^11*3*5*17*infinity"
    assert cyc.norm == 2**11 * 3 * 5 * 17


def test_build_cycle_empty_odd():
    inst = make_instance(3, [])
    cyc = build_cycle(inst, auxiliary_primes(3, ()))
    assert str(cyc) == "3^3"  # no real bit for odd exponent


# --- the Wang instance -------------------------------------------------------

def test_wang_instance_is_obstructed():
    inst = make_instance(8, [WANG_PSI])
    assert obstruction_exponent(inst) == 4  # chi_2(16) = zeta_8^4 = -1
    report, at_mu = _exponent(inst, None)
    assert report.occurs
    assert at_mu == make_instance(16, [WANG_PSI])


@pytest.mark.parametrize(
    "inst",
    [
        make_instance(8, [unramified_local(3, 8, 1)]),
        make_instance(8, [unramified_local(2, 8, 2)]),  # special case, unobstructed
        make_instance(3, []),
    ],
)
def test_exponent_keeps_unobstructed_instance(inst):
    # the common path solves the instance as it stands: no rebuild at m
    report, at_mu = _exponent(inst, None)
    assert at_mu is inst
    assert _exponent(inst, inst.m)[1] is inst


def test_wang_solution_conductor_544():
    inst = make_instance(8, [WANG_PSI])
    sol = construct(inst)
    assert sol.exponent_achieved == 16
    assert sol.special_case_flag
    assert sol.aux_primes == (3, 5, 17)
    assert sol.minimised
    assert conductor(sol.character).norm == 544
    got = local_component(sol.character, Place(2))
    assert got == WANG_PSI  # scale-invariant comparison at exponent 16
    # solve_character solves at 16 in the cycle it is given, built at 16
    cycle = build_cycle(make_instance(16, [WANG_PSI]), sol.aux_primes)
    assert solve_character(inst, cycle, sol.aux_primes) == sol
    assert repr(sol) == (
        f"GrunwaldSolution(character={sol.character!r}, exponent_achieved=16,"
        f" special_case_flag=True, aux_primes=(3, 5, 17), cycle={sol.cycle!r},"
        " minimised=True)"
    )
    with pytest.raises(AttributeError):
        sol.minimised = False


def test_wang_oracle_agrees_at_doubled_exponent():
    inst = make_instance(8, [WANG_PSI])
    sol = oracle_minimal(inst, 1000, exponent=16)
    assert conductor(sol.character).norm == 544


def test_wang_unsolvable_at_exponent_eight():
    inst = make_instance(8, [WANG_PSI])
    aux = auxiliary_primes(8, places(2))
    cyc = build_cycle(inst, aux)
    with pytest.raises(InternalContradictionError):
        _solve(*_exponent(inst, 8), cyc, tuple(aux))
    # the exponent is still decided as 16, but the m-cycle is not swapped
    with pytest.raises(
        InternalContradictionError,
        match=r"no exponent-16 character exists modulo the cycle 2\^10\*3\*5\*infinity",
    ):
        solve_character(inst, cyc, aux)
    with pytest.raises(NoSolutionBelowCap):
        oracle_minimal(inst, 3000, exponent=8)


def test_echelon_rejects_pivot_not_dividing_constant():
    # 2x = 1 mod 4 has no solution: the pivot's valuation 1 does not divide 1
    assert _solve_mod([[2]], [1], 2, 2) is None
    assert _solve_mod([[2]], [2], 2, 2) is not None


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_solve_mod_lattice_is_the_solution_set(data):
    # against brute force over (Z/l^rho)^n: the lattice points are exactly
    # the solutions, each once, and None comes back exactly when there is none
    l = data.draw(st.sampled_from((2, 3, 5)))
    rho = data.draw(st.integers(min_value=1, max_value=3))
    mu = l**rho
    n = data.draw(st.integers(min_value=1, max_value=3 if mu <= 27 else 2))
    # entries of every valuation, not only units
    entry = st.builds(lambda v, u: l**v * u % mu, st.integers(0, rho), st.integers(0, mu - 1))
    k = data.draw(st.integers(min_value=1, max_value=3))  # no rows, no column count
    rows = [data.draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(k)]
    rhs = data.draw(st.lists(entry, min_size=k, max_size=k))
    want = {
        x
        for x in itertools.product(range(mu), repeat=n)
        if all(sum(map(operator.mul, row, x)) % mu == b for row, b in zip(rows, rhs))
    }
    lattice = _solve_mod(rows, rhs, l, rho)
    if lattice is None:
        assert not want
        return
    part, basis, ranges = lattice
    points = [
        tuple((p + sum(c * v[j] for c, v in zip(cs, basis))) % mu for j, p in enumerate(part))
        for cs in itertools.product(*(range(r) for r in ranges))
    ]
    assert set(points) == want
    assert len(points) == len(want)


def test_truncated_minimisation_is_flagged():
    # m = 16, S = {3, 5, 7, 11}: the solution lattice has more than
    # _KERNEL_LIMIT elements, so the particular solution comes back as is
    inst = make_instance(16, [unramified_local(p, 16, t) for p, t in ((3, 1), (5, 3), (7, 0), (11, 5))])
    sol = construct(inst)
    assert not sol.minimised
    for psi in inst.local_characters:
        assert local_component(sol.character, psi.place) == psi


def test_construct_answers_cycle_above_factor_limit():
    # m = 16, S = {5, 13, 17, 29}: the cycle is 98 bits, above FACTOR_LIMIT,
    # but every prime of it is at most 257, so trial division splits it.  The
    # lattice has 2^23 points, above _KERNEL_LIMIT, so it is not minimised.
    inst = make_instance(
        16, [local_character(Place(p), 16, 1, (16 // math.gcd(16, p - 1),), 1) for p in (5, 13, 17, 29)]
    )
    sol = construct(inst)
    cycle = sol.cycle.finite_part
    assert cycle.value == 169002172968141624210734194560 > FACTOR_LIMIT
    assert max(p for p, _ in cycle.factors) == 257
    assert not sol.minimised
    for psi in inst.local_characters:
        assert local_component(sol.character, psi.place) == psi
    assert oracle_minimal(inst, cap=sol.conductor_norm).conductor_norm <= sol.conductor_norm


# --- least-conductor search over the solution lattice ------------------------

def reference_minimal_candidate(part, basis, ranges, M, mu):
    """Exhaustive walk: the norm of every lattice point, least
    (norm, exponent vector) kept."""
    comps = components(M)
    tables: list[dict] = [{} for _ in comps]

    def norm_of(x):
        total = 1
        for c, tab in zip(comps, tables):
            sl = tuple(x[c.offset : c.offset + len(c.orders)])
            val = tab.get(sl)
            if val is None:
                val = c.prime ** _slice_conductor_exponent(c.prime, sl, mu)
                tab[sl] = val
            total *= val
        return total

    total = math.prod(ranges, start=1)
    if total > _KERNEL_LIMIT:
        return tuple(part), False
    best = None
    depth = len(basis)

    def rec(d, x):
        nonlocal best
        if d == depth:
            score = (norm_of(x), tuple(x))
            if best is None or score < best:
                best = score
            return
        vec = basis[d]
        y = list(x)
        for c in range(ranges[d]):
            rec(d + 1, y)
            if c + 1 < ranges[d]:
                y = [(a + v) % mu for a, v in zip(y, vec)]

    rec(0, list(part))
    return best[1], True


@st.composite
def synthetic_lattices(draw):
    """(part, basis, ranges, M, mu): M a product of small prime powers, each
    basis vector supported on a random set of its CRT components (possibly
    none), ranges l^v with product <= 2^12."""
    l, r = draw(st.sampled_from([(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1)]))
    mu = l**r
    M = 1
    for p, top in ((2, 5), (3, 3), (5, 2), (7, 2), (11, 1), (13, 1), (17, 1)):
        M *= p ** draw(st.integers(min_value=0, max_value=top))
    comps = components(M)
    n = sum(len(c.orders) for c in comps)
    coord = st.integers(min_value=0, max_value=mu - 1)
    part = draw(st.lists(coord, min_size=n, max_size=n))
    basis, ranges, points = [], [], 1
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        v = draw(st.integers(min_value=1, max_value=r))
        if points * l**v > 1 << 12:
            break
        points *= l**v
        support = draw(st.sets(st.sampled_from(range(len(comps))))) if comps else set()
        vec = [0] * n
        for k in support:
            for j in range(comps[k].offset, comps[k].offset + len(comps[k].orders)):
                vec[j] = draw(coord)
        basis.append(vec)
        ranges.append(l**v)
    return part, basis, ranges, M, mu


@given(synthetic_lattices())
# no basis at all; a zero vector and a component (7) nothing touches
@example(((3, 1, 2), [], [], 16 * 7, 4))
@example(((3, 1, 2), [[0, 0, 0], [2, 0, 0]], [4, 2], 16 * 7, 4))
# every point has norm 16; the smaller exponent vector is visited second
@example(((2, 1), [[2, 0]], [2], 16, 4))
@example(((1, 1, 2), [[0, 1, 0], [1, 0, 0], [0, 0, 1]], [8, 2, 8], 32 * 9, 8))
@settings(max_examples=150, deadline=None)
def test_minimal_candidate_matches_exhaustive(lattice):
    assert _minimal_candidate(*lattice) == reference_minimal_candidate(*lattice)


def test_level_scale_matches_the_conductor_rule():
    # the norm factor _minimal_candidate works out on every slice of
    # (Z/p^k)^*: from the last generator's value when nonzero, else from
    # the first generator's, 1 when every value is 0
    for p in (2, 3, 5, 7):
        for k in range(1, 6):
            n = len(unit_orders(p, k))
            if not n:
                continue
            for mu in (2, 4, 8, 16, 32, 3, 9, 27, 5, 25, 7):
                (top, q), (low, q0) = _level_scale(p, n - 1, mu), _level_scale(p, 0, mu)
                assert q == q0
                for sl in itertools.product(range(mu), repeat=n):
                    if sl[-1]:
                        got = top // math.gcd(sl[-1], q)
                    else:
                        got = low // math.gcd(sl[0], q) if sl[0] else 1
                    assert got == p ** _slice_conductor_exponent(p, sl, mu), (p, k, mu, sl)


def test_minimal_candidate_at_a_large_exponent():
    # a 256-point lattice at mu = 2^40 mod M = 2^5 * 3 * 17: each node's
    # norm factors cost the same at every mu, so this is as quick as at
    # mu = 16, the least mu these values fit in
    mu = 1 << 40
    M = 2**5 * 3 * 17
    assert [(c.prime, c.orders) for c in components(M)] == [(2, (2, 8)), (3, (2,)), (17, (16,))]
    part = [mu // 2, 3 * mu // 8, 0, 5 * mu // 16]
    basis = [
        [mu // 2, 0, 0, 0],
        [0, mu // 8, 0, 0],
        [0, 0, mu // 2, 0],
        [0, 0, 0, mu // 16],
    ]
    ranges = [2, 8, 2, 16]
    got = _minimal_candidate(part, basis, ranges, M, mu)
    assert got == reference_minimal_candidate(part, basis, ranges, M, mu)
    assert got == ((0, 0, 0, 0), True)
    # mod 17 only 5..12 times mu/16 stay reachable, each of conductor 17
    ranges[3] = 8
    got = _minimal_candidate(part, basis, ranges, M, mu)
    assert got == reference_minimal_candidate(part, basis, ranges, M, mu)
    assert got == ((0, 0, 0, 5 * mu // 16), True)


def test_minimal_candidate_deep_lattice():
    # the 3^10-point lattice of an m = 27 instance at S = {5, 7, 19}
    rng = random.Random(27)
    chars = [
        unramified_local(5, 27, rng.randrange(27)),
        local_character(Place(7), 27, 1, (9 * rng.randrange(1, 3),), rng.randrange(27)),
        local_character(Place(19), 27, 1, (3 * rng.randrange(1, 9),), rng.randrange(27)),
    ]
    inst = make_instance(27, chars)
    cycle = build_cycle(inst, auxiliary_primes(27, set(inst.places)))
    M = cycle.finite_part.value
    part, basis, ranges = free_slot_lattice(inst, M)
    assert math.prod(ranges) == 3**10
    got = _minimal_candidate(part, basis, ranges, M, 27)
    assert got == reference_minimal_candidate(part, basis, ranges, M, 27)
    assert got[1]


# --- round trip: prescriptions sampled from known characters -----------------

@given(st.data())
@settings(max_examples=40, deadline=None)
def test_construct_matches_sampled_local_data(data):
    N = data.draw(st.sampled_from([5, 7, 8, 9, 15, 16, 20, 21, 24, 40]))
    chars = list(iter_characters(N))
    chi = chars[data.draw(st.integers(min_value=0, max_value=len(chars) - 1))]
    m = character_order(chi)
    if m == 1 or len(factor(m).factors) != 1:
        return  # solver wants prime-power exponent
    pool = [Place(p) for p, _ in factor(N).factors] + [Place(3), Place(11), INF]
    pool = [v for v in pool if v.is_real or math.gcd(v.prime, N) == 1 or N % v.prime == 0]
    k = data.draw(st.integers(min_value=1, max_value=min(3, len(pool))))
    chosen = sorted(set(data.draw(st.sampled_from(pool)) for _ in range(k)), key=Place.sort_key)
    prescriptions = [local_component(chi, v) for v in chosen]
    inst = make_instance(m, prescriptions)
    sol = construct(inst)
    if sol.exponent_achieved == m:
        for psi in inst.local_characters:
            assert local_component(sol.character, psi.place) == psi


# --- the free-slot system against the unit-row reference --------------------

def free_slot_lattice(instance, M):
    """The lattice _solve minimises mod M: _assemble_rows' free-slot system
    solved, its fixed slots spliced into part and zeros into each basis
    vector."""
    comps = components(M)
    rows, rhs, fixed = _assemble_rows(instance, comps)
    part, basis, ranges = _solve_mod(rows, rhs, *prime_power(instance.m))
    layout = [(c.prime, len(c.orders)) for c in comps]
    zeros = {p: (0,) * len(sl) for p, sl in fixed.items()}
    return _splice(layout, fixed, part), [_splice(layout, zeros, b) for b in basis], ranges


def lattice_points(part, basis, ranges, mu):
    return {
        tuple((x + sum(c * vec[j] for c, vec in zip(cs, basis))) % mu for j, x in enumerate(part))
        for cs in itertools.product(*map(range, ranges))
    }


@st.composite
def sampled_instances(draw):
    """Prescriptions read off a known character of prime-power order m, as
    in test_construct_matches_sampled_local_data, with the prime l of m in
    the pool too: ramified at l when the character is, unramified when
    not."""
    N = draw(st.sampled_from([5, 7, 8, 9, 15, 16, 20, 21, 24, 40]))
    chars = [
        chi
        for chi in iter_characters(N)
        if (m := character_order(chi)) > 1 and len(factor(m).factors) == 1
    ]
    chi = draw(st.sampled_from(chars))
    l, _ = prime_power(character_order(chi))
    pool = [Place(p) for p, _ in factor(N).factors] + [Place(l), Place(3), Place(11), INF]
    chosen = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True))
    return make_instance(character_order(chi), [local_component(chi, v) for v in chosen])


# chi_2(16) = 4c mod m at the uniformizer value c, and 0 at the other places:
# obstructed Wang data for odd c at m = 8 and for c != 0 mod 4 at m = 16
wang_instances = st.builds(
    lambda m, k, c, extra: admissible_instance(m, [(2, k, c), *extra]),
    st.sampled_from([8, 16]),
    st.sampled_from([0, 2, 3, 4, 5]),
    st.integers(min_value=1, max_value=7),
    st.lists(st.sampled_from([(3, 0, 1), (5, 1, 1), (None, 0, 1)]), unique=True),
)


@given(st.one_of(sampled_instances(), wang_instances))
@example(make_instance(8, [WANG_PSI]))  # obstructed: solved at 16, l = 2 ramified
@example(make_instance(9, [local_character(Place(3), 9, 2, (3,), 1), unramified_local(7, 9, 1)]))
@example(make_instance(4, [unramified_local(2, 4, 1), sign_local(4, 1)]))  # l unramified
@settings(max_examples=60, deadline=None)
def test_free_slot_system_matches_unit_rows(instance):
    # construct's cycle: the free-slot lattice with the fixed slots spliced
    # in has as many points as the unit-row lattice, the same least point
    # and, when small enough to list, the same points
    _, inst = _exponent(instance, None)
    mu = inst.m
    M = build_cycle(inst, auxiliary_primes(mu, set(inst.places))).norm
    want = _solve_mod(*unit_row_system(inst, M), *prime_power(mu))
    got = free_slot_lattice(inst, M)
    size = math.prod(want[2])
    assert math.prod(got[2]) == size
    if size <= _KERNEL_LIMIT:
        assert _minimal_candidate(*got, M, mu) == _minimal_candidate(*want, M, mu)
    if size <= 1 << 10:
        assert lattice_points(*got, mu) == lattice_points(*want, mu)


# --- oracle vs constructive dominance ----------------------------------------

@pytest.mark.parametrize(
    "m,prescribe",
    [
        (2, [(3, 1)]),
        (2, [(3, 1), (5, 1)]),
        (4, [(5, 1)]),
        (3, [(7, 2)]),
        (8, [("inf", 1)]),
        (9, [(19, 3)]),
    ],
)
def test_oracle_never_beaten_by_construct(m, prescribe):
    chars = []
    for p, t in prescribe:
        if p == "inf":
            chars.append(sign_local(m, t))
        else:
            g = math.gcd(m, p - 1)
            if g > 1:
                chars.append(local_character(Place(p), m, conductor_exponent=1, unit_exponents=(m // g * t,)))
            else:
                chars.append(unramified_local(p, m, t))
    inst = make_instance(m, chars)
    sol = construct(inst)
    n = conductor(sol.character).norm
    best = oracle_minimal(inst, n)
    assert conductor(best.character).norm <= n
    # and the oracle's answer satisfies the same prescriptions
    for psi in inst.local_characters:
        assert local_component(best.character, psi.place) == psi


# --- reference oracle: every character mod every f <= cap --------------------

def reference_filter(instance, fac, mu):
    """The conductor shapes the generated oracle may visit, checked on one
    factorization: the prescribed exponents exactly, and outside S only
    q^1 (gcd(mu, q - 1) > 1), l^a (l odd, a <= r + 1) and 2^a (2 <= a <= r + 2)."""
    l_mu, r_mu = prime_power(mu)
    prescribed = {
        psi.place.prime: psi for psi in instance.local_characters if not psi.place.is_real
    }
    fdict = dict(fac)
    for p, psi in prescribed.items():
        if fdict.get(p, 0) != psi.conductor_exponent:
            return False
    for q, a in fac:
        if q in prescribed:
            continue
        if q == 2:
            if mu % 2 or not (a == 2 or 3 <= a <= r_mu + 2):
                return False
        elif a == 1:
            if math.gcd(mu, q - 1) == 1:
                return False
        elif q != l_mu or a > r_mu + 1:
            return False
    return True


def full_oracle(instance, cap, exponent=None):
    """First matching character by conductor, then exponent vector, found by
    enumerating every character mod every f <= cap: no conductor filter."""
    m = instance.m
    if exponent is None:
        mu = 2 * m if obstruction_exponent(instance) else m
    else:
        mu = exponent
    for f in range(1, cap + 1):
        if f > 1 and f % 4 == 2:
            continue
        for chi in iter_characters(f, mu):
            if conductor(chi).norm != f:
                continue
            if all(
                local_component(chi, psi.place) == psi
                for psi in instance.local_characters
            ):
                return chi
    return None


def unramified_instance(m, spec):
    """Exponent m with an unramified character of uniformizer value t at
    each (p, t) of spec."""
    return make_instance(m, [unramified_local(p, m, t) for p, t in spec])


def test_oracle_prune_matches_full_enumeration():
    # the generated oracle against full enumeration; the fifth and sixth
    # cases mix a ramified with a real place and take the Wang instance at
    # 16.  The last five have least conductors 5*41, 5*41, 13*41, 8*5*13 and
    # 4*5*17: two unprescribed q^1 factors with gcd(mu, q - 1) >= 4, the
    # last two also a power of 2, so their checks read power-residue rows;
    # at 41 the canonical generator's zeta is not the least element of order g
    cases = [
        (make_instance(4, [local_character(Place(5), 4, conductor_exponent=1, unit_exponents=(1,))]), 400, None),
        (make_instance(2, [sign_local(2, 1)]), 400, None),
        (make_instance(3, [unramified_local(2, 3, 1)]), 400, None),
        (make_instance(8, [unramified_local(3, 8, 1)]), 400, None),
        (make_instance(4, [local_character(Place(5), 4, conductor_exponent=1, unit_exponents=(2,)), sign_local(4, 1)]), 400, None),
        (make_instance(8, [WANG_PSI]), 600, 16),
        (unramified_instance(8, [(3, 5), (7, 1)]), 600, None),
        (unramified_instance(4, [(2, 3), (3, 2), (19, 3)]), 600, None),
        (unramified_instance(4, [(2, 3), (19, 2), (23, 2)]), 600, None),
        (unramified_instance(4, [(3, 3), (7, 0), (11, 1), (23, 3)]), 600, None),
        (unramified_instance(8, [(3, 3), (11, 3), (19, 6)]), 600, None),
    ]
    for inst, cap, exponent in cases:
        want = full_oracle(inst, cap, exponent)
        assert want is not None
        assert oracle_minimal(inst, cap, exponent=exponent).character == want


# moduli per exponent whose characters ramify at two or more primes
MULTI_PRIME_MODULI = {
    2: (15, 20, 21, 24, 35, 40, 56, 105),
    3: (63, 91, 117, 133),
    4: (15, 20, 39, 40, 52, 65, 80),
    8: (48, 51, 68, 85, 96),
    9: (133, 171, 189),
}


@st.composite
def multi_prime_instances(draw):
    """(instance, cap, exponent): the local components of a character mod N
    at a prime where it ramifies and one or two more primes (ramified or
    not), optionally the real place; an unramified uniformizer value may be
    redrawn, so that no solution need lie below the cap."""
    m = draw(st.sampled_from(sorted(MULTI_PRIME_MODULI)))
    N = draw(st.sampled_from(MULTI_PRIME_MODULI[m]))
    chars = [chi for chi in iter_characters(N, m) if conductor(chi).norm > 1]
    chi = draw(st.sampled_from(chars))
    ramified = [p for p, _ in conductor(chi).finite_part.factors]
    first = draw(st.sampled_from(ramified))
    pool = sorted(({p for p, _ in factor(N).factors} | {2, 3, 5, 7, 11, 13}) - {first})
    others = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=2, unique=True))
    chosen = [Place(p) for p in sorted([first] + others)]
    if draw(st.booleans()):
        chosen.append(INF)
    local = []
    for v in chosen:
        psi = local_component(chi, v)
        if not v.is_real and psi.conductor_exponent == 0 and draw(st.booleans()):
            psi = unramified_local(v.prime, m, draw(st.integers(0, m - 1)))
        local.append(psi)
    exponent = draw(st.sampled_from([None, 2 * m] if m % 2 == 0 else [None]))
    return make_instance(m, local), N, exponent


@given(multi_prime_instances())
@settings(max_examples=40, deadline=None)
def test_oracle_matches_full_enumeration_multi_prime(case):
    # several prescribed primes, one of them ramified: the fixed F0 slots
    # and their share of every check must be placed where the full vector has them
    inst, cap, exponent = case
    want = full_oracle(inst, cap, exponent)
    if want is None:
        with pytest.raises(NoSolutionBelowCap):
            oracle_minimal(inst, cap, exponent=exponent)
    else:
        assert oracle_minimal(inst, cap, exponent=exponent).character == want


# --- the admissible conductors against the reference filter -----------------

def admissible_instance(m, spec):
    """An instance of exponent m with one local character per (place, k, c):
    conductor exponent at most k at a finite place (unit exponents scaled by
    c, so the normalized exponent may drop), the sign c at the real place."""
    chars = []
    for p, k, c in spec:
        if p is None:
            chars.append(sign_local(m, c if m % 2 == 0 else 0))
            continue
        orders = unit_orders(p, k)
        exps = tuple(c * (i + 1) * (m // math.gcd(m, o)) for i, o in enumerate(orders))
        chars.append(local_character(Place(p), m, k, exps, c))
    return make_instance(m, chars)


def f0_of(instance):
    return math.prod(
        psi.place.prime**psi.conductor_exponent
        for psi in instance.local_characters
        if not psi.place.is_real
    )


def assert_admissible_matches(instance, mu, cap):
    got = list(_admissible_conductors(make_instance(mu, instance.local_characters), cap))
    facs = [(f, factor(f).factors) for f in range(1, cap + 1)]
    assert got == [(f, fac) for f, fac in facs if reference_filter(instance, fac, mu)]


admissible_specs = st.lists(
    st.tuples(
        st.sampled_from([None, 2, 3, 5, 7, 11, 13, 17]),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=1, max_value=5),
    ),
    max_size=4,
    unique_by=lambda t: t[0],
).map(lambda spec: sorted(spec, key=lambda t: (t[0] is None, t[0] or 0)))


@given(
    m=st.sampled_from([2, 3, 4, 5, 8, 9, 16]),
    spec=admissible_specs,
    doubled=st.booleans(),
    cap_kind=st.sampled_from(["below", "equal", "above"]),
    mult=st.integers(min_value=1, max_value=12),
    extra=st.integers(min_value=0, max_value=3000),
)
@example(m=8, spec=[(2, 3, 1), (3, 0, 1), (None, 0, 1)], doubled=True, cap_kind="below", mult=1, extra=0)
@example(m=9, spec=[(3, 2, 1), (7, 1, 1), (None, 0, 1)], doubled=False, cap_kind="equal", mult=1, extra=0)
@example(m=16, spec=[(5, 1, 1), (13, 0, 2)], doubled=False, cap_kind="above", mult=1, extra=2000)
# caps of a few F0: the whole block lies below the square of 3 resp. 2
@example(m=9, spec=[(7, 1, 1)], doubled=False, cap_kind="above", mult=8, extra=0)
@example(m=4, spec=[(5, 1, 1)], doubled=False, cap_kind="above", mult=3, extra=0)
@settings(max_examples=60, deadline=None)
def test_admissible_conductors_match_reference_filter(m, spec, doubled, cap_kind, mult, extra):
    inst = admissible_instance(m, spec)
    f0 = f0_of(inst)
    cap = {
        "below": max(1, f0 - 1 - extra % f0),
        "equal": f0,
        "above": min(f0 * mult + extra % f0, 20000),
    }[cap_kind]
    # the widened exponent 2m only arises for 2-power m (the special case)
    assert_admissible_matches(inst, 2 * m if doubled and m % 2 == 0 else m, cap)


def sieve_block_ends():
    """The last g of each growing sieve block: 64, 192, 448, ..., 8128."""
    ends, g, width = [], 0, _SIEVE_FIRST_BLOCK
    while width <= _SIEVE_BLOCK:
        g += width
        ends.append(g)
        width *= 2
    return ends


@pytest.mark.parametrize(
    "m,spec",
    [
        (4, [(3, 0, 1), (None, 0, 1)]),  # F0 = 1: several sieve blocks
        (3, []),
        (4, [(5, 1, 1), (None, 0, 1)]),  # F0 = 5
    ],
)
def test_admissible_conductors_span_sieve_blocks(m, spec):
    # past the ramp, and at every ramp boundary +-1 (a block boundary
    # skipped or repeated shows there)
    inst = admissible_instance(m, spec)
    f0 = f0_of(inst)
    top = f0 * (3 * _SIEVE_BLOCK + 17)
    assert top > f0 * sieve_block_ends()[-1] + _SIEVE_BLOCK
    # reference_filter demands the prescribed exponents, so F0 divides f
    want = [(f, factor(f).factors) for f in range(f0, top + 1, f0)]
    want = [(f, fac) for f, fac in want if reference_filter(inst, fac, m)]
    assert list(_admissible_conductors(inst, top)) == want
    for g in sieve_block_ends():
        for cap in (f0 * (g - 1), f0 * g, f0 * (g + 1)):
            got = list(_admissible_conductors(inst, cap))
            assert got == [(f, fac) for f, fac in want if f <= cap], (g, cap)


# --- the order test against the reach of every slot ------------------------

def reference_reaches(instance, f, mu, targets):
    """The order test recomputed from the full decomposition of g = f / F0:
    every check's target must lie in the subgroup of Z/mu that g's generators
    span, each generator j stepping by (mu / g_j) * dlog_j(x), g_j =
    gcd(mu, o_j); that subgroup is the multiples of the gcd of the steps."""
    g = f // f0_of(instance)
    for x, want in targets:
        logs = dlog_units(g, x)
        step = mu
        for c in components(g):
            for j, o in enumerate(c.orders):
                step = math.gcd(step, mu // math.gcd(mu, o) * logs[c.offset + j])
        if want % step:
            return False
    return True


@given(
    m=st.sampled_from([2, 3, 4, 5, 8, 9, 16]),
    spec=admissible_specs,
    doubled=st.booleans(),
)
@example(m=4, spec=[(3, 0, 1)], doubled=False)
@example(m=16, spec=[(3, 0, 1), (5, 0, 3), (None, 0, 1)], doubled=True)
@example(m=9, spec=[(2, 0, 1), (7, 0, 1)], doubled=False)
@settings(max_examples=60, deadline=None)
def test_order_test_rejects_only_empty_passes(m, spec, doubled):
    # every admissible f up to a few hundred times F0: the test says what
    # the slot subgroups say, and no character of a rejected f passes
    inst = admissible_instance(m, spec)
    mu = 2 * m if doubled and m % 2 == 0 else m
    at_mu = make_instance(mu, inst.local_characters)
    block = _prescribed_block(at_mu, components(f0_of(inst)))
    for f, factors in _admissible_conductors(at_mu, f0_of(inst) * 300):
        reaches = _reaches_orders(factors, mu, block)
        assert reaches == reference_reaches(inst, f, mu, block[1]), f
        if not reaches:
            assert _oracle_pass_pruned(f, factors, mu, block) is None, f


@pytest.mark.parametrize(
    "inst,least,free",
    [
        # chi(3) = i: 3 is a non-square mod 5, so q = 5 reaches order 4
        (unramified_instance(4, [(3, 1)]), 5, (5, 1)),
        # with 5 prescribed, 2^4 alone reaches order 4: 3 is a square mod 13
        (unramified_instance(4, [(3, 1), (5, 1)]), 16, (2, 4)),
        # with 7 prescribed, 3^2 alone reaches order 3 (before q = 13)
        (unramified_instance(3, [(2, 1), (7, 1)]), 9, (3, 2)),
    ],
)
def test_order_test_is_tight(inst, least, free):
    # the least conductor's one free component reaches exactly each target's
    # order, so a strict comparison, or a symbol raised one power of l too
    # far, would skip it and the oracle would answer a larger conductor
    mu = inst.m
    block = _prescribed_block(inst, components(f0_of(inst)))
    assert [n for _, n, _ in block[2]] == [_component_reach(*free, mu, x) for x, _, _ in block[2]]
    want = full_oracle(inst, 200)
    assert conductor(want).norm == least == free[0] ** free[1]
    assert oracle_minimal(inst, 200).character == want
    assert _reaches_orders((free,), mu, block)


def test_order_test_without_targets_keeps_every_conductor():
    # the ramified 5 shifts the checks on 3 and -1 to want 0; the check
    # on 5 is its uniformizer value 0: nothing to reach, nothing skipped
    m = 4
    inst = make_instance(
        m,
        [
            unramified_local(3, m, 1),
            local_character(Place(5), m, conductor_exponent=1, unit_exponents=(1,)),
            sign_local(m, 1),
        ],
    )
    block = _prescribed_block(inst, components(f0_of(inst)))
    assert [want for _, want in block[1]] == [0, 0, 0]
    assert block[2] == ()
    assert all(_reaches_orders(fac, m, block) for _, fac in _admissible_conductors(inst, 2000))
    assert oracle_minimal(inst, 200).character == full_oracle(inst, 200)


# --- the prescribed block against local_component ---------------------------

@given(
    m=st.sampled_from([2, 3, 4, 5, 8, 9, 16, 27]),
    spec=admissible_specs,
    doubled=st.booleans(),
)
@example(m=8, spec=[(2, 5, 1)], doubled=True)  # 2^k, k >= 3: e = k in F0
@example(m=16, spec=[(2, 3, 1), (3, 0, 1), (None, 0, 1)], doubled=False)
@example(m=9, spec=[(3, 2, 1), (7, 1, 2)], doubled=False)  # e = k + rho + 2 at l
@example(m=4, spec=[(2, 2, 1)], doubled=False)  # one unit exponent, two generators mod 2^6
@example(m=4, spec=[(2, 0, 1), (5, 1, 1)], doubled=False)  # k = 0 at l
@example(m=3, spec=[(3, 0, 2), (7, 1, 1)], doubled=False)
@settings(max_examples=60, deadline=None)
def test_prescribed_block_inverts_the_unit_part(m, spec, doubled):
    # F0's components (e = k) and the cycle's (e = k + rho + 2 at l): the
    # fixed slots on (Z/p^e)^* are the character whose local component at
    # p is the prescribed unit part with uniformizer value 0
    mu = 2 * m if doubled and m % 2 == 0 else m
    inst = make_instance(mu, admissible_instance(m, spec).local_characters)
    by_prime = {psi.place.prime: psi for psi in inst.local_characters}
    for M in (f0_of(inst), build_cycle(inst, ()).norm):
        comps = components(M)
        fixed = _prescribed_block(inst, comps)[0]
        assert set(fixed) == {c.prime for c in comps if c.prime in by_prime}
        for c in comps:
            if c.prime in fixed:
                psi = by_prime[c.prime]
                chi = DirichletCharacter(c.prime_power, mu, fixed[c.prime])
                want = local_character(
                    Place(c.prime), mu, psi.conductor_exponent, psi.unit_exponents, 0
                )
                assert local_component(chi, Place(c.prime)) == want


def test_oracle_cap_raises():
    inst = make_instance(9, [unramified_local(2, 9, 1)])
    with pytest.raises(NoSolutionBelowCap):
        oracle_minimal(inst, 5)
    wang = make_instance(8, [WANG_PSI])  # F0 = 2^5 exceeds the cap
    with pytest.raises(NoSolutionBelowCap, match="no exponent-16 solution with conductor <= 31"):
        oracle_minimal(wang, 31)


# --- bound report -------------------------------------------------------------

E1_TABLE = {(3, 1): 3, (3, 2): 7, (5, 1): 5, (7, 1): 7, (2, 1): 2, (2, 2): 5, (2, 3): 9}


@pytest.mark.parametrize("l,r", sorted(E1_TABLE))
def test_e1_septet(l, r):
    m = l**r
    inst = make_instance(m, [unramified_local(11, m, 1)])
    sol = construct(inst)
    rep = bound_report(inst, sol)
    want = E1_TABLE[(l, r)]
    # closed forms: l odd -> phi(l^r) + 1; l = 2 -> 2 (r = 1), 2^r + 1 (r >= 2)
    closed = (l - 1) * l ** (r - 1) + 1 if l % 2 else (2 if r == 1 else 2**r + 1)
    assert want == closed
    assert rep.e1 == want
    assert rep.e == rep.n_places - rep.delta_prime
    assert rep.n_places == 2


def test_bound_report_shapes():
    inst = make_instance(8, [WANG_PSI])
    sol = construct(inst)
    rep = bound_report(inst, sol)
    assert isinstance(rep, BoundReport)
    assert rep.norm_s == 2
    assert rep.n_places == 2
    assert rep.e == 2 and rep.delta == 1 and rep.delta_prime == 0
    assert rep.e1 == 4 * 2 + 1
    assert rep.achieved_log_conductor == pytest.approx(math.log(544))
    assert rep.log_shape == pytest.approx(8 * 2 * math.log(2 * 8))
    assert rep.shape_ratio == pytest.approx(math.log(544) / (16 * math.log(16)))
    assert rep.power_exponent == pytest.approx(rep.e1 * (0.5 + rep.epsilon))
    assert rep.grh_shape == pytest.approx(math.log(2 * 2) ** (2 * (rep.e + rep.delta)))
    assert repr(rep).startswith(
        "BoundReport(e=2, delta=1, delta_prime=0, e1=9, n_places=2, norm_s=2, epsilon=0.1,"
        f" log_shape={rep.log_shape!r}, power_exponent={rep.power_exponent!r},"
        f" grh_shape={rep.grh_shape!r}, achieved_log_conductor="
    )
    with pytest.raises(AttributeError):
        rep.epsilon = 0.2


def test_bound_report_delta_refinement():
    inst = make_instance(3, [unramified_local(7, 3, 1)])
    sol = construct(inst)
    assert bound_report(inst, sol).delta == 1


# --- instance (de)serialization -----------------------------------------------

def test_instance_round_trip():
    inst = make_instance(8, [WANG_PSI, sign_local(8, 1)])
    blob = instance_to_dict(inst)
    again = instance_from_dict(blob)
    assert again == inst


def test_instance_from_dict_validation():
    with pytest.raises(ValidationError, match="instance record must be a mapping"):
        instance_from_dict([4])
    with pytest.raises(ValidationError, match="bad exponent entry 'four'"):
        instance_from_dict({"m": "four", "places": []})
    # JSON floats and booleans are refused, not truncated or read as 0 and 1
    with pytest.raises(ValidationError, match="bad exponent entry 4.9"):
        instance_from_dict({"m": 4.9, "places": []})
    with pytest.raises(ValidationError, match="bad exponent entry 4.0"):
        instance_from_dict({"m": 4.0, "places": []})
    with pytest.raises(ValidationError, match="bad exponent entry True"):
        instance_from_dict({"m": True, "places": []})
    for key, value in (
        ("conductor_exponent", 1.7),
        ("unit_exponents", [1.2]),
        ("uniformizer_exponent", 1.0),
        ("sign_exponent", True),
    ):
        with pytest.raises(ValidationError, match="bad place record"):
            instance_from_dict({"m": 4, "places": [{"place": 5, key: value}]})
    with pytest.raises(ValidationError, match="place record must be a mapping"):
        instance_from_dict({"m": 4, "places": [3]})
    with pytest.raises(ValidationError, match="missing key 'place'"):
        instance_from_dict({"m": 4, "places": [{"conductor_exponent": 1}]})
    with pytest.raises(ValidationError, match="bad place record"):
        instance_from_dict({"m": 4, "places": [{"place": 5, "conductor_exponent": "one"}]})
    with pytest.raises(ValidationError, match="missing key 'm'"):
        instance_from_dict({"places": []})
    with pytest.raises(ValidationError, match="unknown key"):
        instance_from_dict({"m": 4, "places": [], "junk": 1})
    with pytest.raises(ValidationError, match="unknown key"):
        instance_from_dict({"m": 4, "places": [{"place": 3, "weird": 2}]})
    with pytest.raises(ValidationError):
        instance_from_dict({"m": 6, "places": []})  # not a prime power
    with pytest.raises(ValidationError):
        # duplicate place
        instance_from_dict(
            {"m": 4, "places": [{"place": 3, "value": 1}, {"place": 3, "value": 1}]}
        )


@pytest.mark.parametrize(
    "blob, message",
    [
        ({"m": "4", "places": []}, "bad exponent entry '4'"),
        ({"m": 4, "places": ""}, "bad places entry ''"),
        ({"m": 4, "places": {}}, "bad places entry {}"),
        ({"m": 4, "places": [{"place": 5, "conductor_exponent": 1, "unit_exponents": "1"}]}, "bad place record"),
        ({"m": 4, "places": [{"place": 2, "conductor_exponent": 4, "unit_exponents": "01"}]}, "bad place record"),
        ({"m": 4, "places": [{"place": 5, "conductor_exponent": "1", "unit_exponents": [1]}]}, "bad place record"),
        ({"m": 4, "places": [{"place": 5, "uniformizer_exponent": "3"}]}, "bad place record"),
        ({"m": 4, "places": [{"place": "infinity", "sign_exponent": "1"}]}, "bad place record"),
    ],
)
def test_instance_from_dict_refuses_strings(blob, message):
    # only a JSON list passes for places and unit_exponents, and only a JSON
    # integer for an integer field: a string is neither read as digits nor
    # parsed as a number
    with pytest.raises(ValidationError, match=message):
        instance_from_dict(blob)


def test_make_instance_rejects_mixed_moduli():
    with pytest.raises(ValidationError, match="normalized to the instance exponent"):
        GrunwaldInstance(4, (unramified_local(3, 8, 1),))
    at3, at5 = unramified_local(3, 4, 1), unramified_local(5, 4, 1)
    with pytest.raises(ValidationError, match="^prescribed places must be sorted$"):
        GrunwaldInstance(4, (at5, at3))
    with pytest.raises(ValidationError, match="^prescribed places must be distinct$"):
        GrunwaldInstance(m=4, local_characters=(at3, unramified_local(3, 4, 2)))
    inst = GrunwaldInstance(4, (at3,))
    assert repr(inst) == f"GrunwaldInstance(m=4, local_characters=({at3!r},))"
    with pytest.raises(AttributeError):
        inst.m = 8
    # replacing a field builds through the constructor, so it is checked too
    with pytest.raises(ValidationError, match="^prescribed places must be sorted$"):
        inst._replace(local_characters=(at5, at3))
    with pytest.raises(ValidationError, match="normalized to the instance exponent"):
        inst._replace(m=8)
    with pytest.raises(ValidationError, match="^not a prime power: 6$"):
        inst._replace(m=6)
    # but make_instance rescales compatible data
    inst = make_instance(4, [unramified_local(3, 8, 2)])
    assert inst.local_characters[0].exponent_modulus == 4
    with pytest.raises(ValidationError):
        make_instance(4, [unramified_local(3, 8, 1)])  # zeta_8 is not exponent 4


def test_conductor_radical_bound_wang():
    # constructed conductor divides l^(r+1) times the radical of its support
    inst = make_instance(8, [WANG_PSI])
    sol = construct(inst)
    n = conductor(sol.character).norm
    radical = math.prod((p for p, _ in factor(n).factors), start=1)
    assert n <= 2**4 * radical
