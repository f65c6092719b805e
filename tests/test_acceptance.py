"""Acceptance gate: seven end-to-end checks, one per stated requirement.

Each test prints a single PASS line (visible with -s) summarizing what was
established and how long it took.  Frozen constants marked "first run"
were produced by this code base's own initial execution and pin the
behaviour down for regressions; everything else is re-derived on the fly
by brute force.
"""

import itertools
import math
import time
from fractions import Fraction

import pytest

from grunwald import (
    FieldDescriptor,
    bound_report,
    conductor,
    construct,
    evaluate,
    is_mth_power_rational,
    least_non_lth_power_modulus,
    least_non_lth_power_modulus_with_order,
    local_character,
    local_component,
    make_dirichlet,
    make_instance,
    oracle_minimal,
    scan_family,
    special_case,
    unit_group,
    unramified_local,
)
from grunwald.core_arith import Place, factor, primes_stream, valuation
from grunwald.errors import NoSolutionBelowCap

from bounds_matrix import prescriptions  # the acceptance matrix's local characters
from reference import iter_characters, ratio_c_decile_maxima, verify_product_formula

Q = FieldDescriptor(1)
INF = Place(None)

WANG_PSI = local_character(
    Place(2), 8, conductor_exponent=5, unit_exponents=(0, 1), uniformizer_exponent=1
)
WANG_MINIMAL_CONDUCTOR = 544  # = 2^5 * 17, agreed by solver and oracle
SCAN_RATIO_B_BASELINE = 1.9311526627965039  # first run: conductor <= 2000, S empty, eps 0.1
SHAPE_RATIO_FIRST_RUN = 0.7924812503605781  # first run over the solver matrix below


def test_wang_obstruction_minimal_conductor():
    started = time.monotonic()
    inst = make_instance(8, [WANG_PSI])

    with pytest.raises(NoSolutionBelowCap):
        oracle_minimal(inst, 10**5, exponent=8)

    sol = construct(inst)
    assert sol.exponent_achieved == 16
    assert conductor(sol.character).norm == WANG_MINIMAL_CONDUCTOR
    assert local_component(sol.character, Place(2)) == WANG_PSI  # exact 2-adic match

    check = oracle_minimal(inst, WANG_MINIMAL_CONDUCTOR, exponent=16)
    assert conductor(check.character).norm == WANG_MINIMAL_CONDUCTOR

    elapsed = time.monotonic() - started
    assert elapsed <= 300
    print(
        f"wang obstruction PASS: no exponent-8 character below 10^5; construct reaches "
        f"conductor {WANG_MINIMAL_CONDUCTOR} at exponent 16 with exact 2-adic component "
        f"[{elapsed:.1f}s]"
    )


def test_special_case_detection_fixtures():
    started = time.monotonic()

    rep = special_case(Q, 8, (Place(2),))
    assert rep.occurs and rep.a0 == 16

    assert special_case(FieldDescriptor(7), 8, ()).occurs

    rep = special_case(Q, 4, (Place(2),))
    assert not rep.occurs and rep.failed_condition == "c"

    rep = special_case(Q, 8, ())
    assert not rep.occurs and rep.failed_condition == "d"
    assert rep.S0 == frozenset((Place(2),))

    x = Fraction(16)
    assert valuation(16, 2) % 8 != 0  # so 16 is no 8th power in Q_2
    for p in itertools.takewhile(lambda q: q <= 10**4, primes_stream()):
        # a unit at odd p is an 8th power in Q_p iff it is one mod p
        assert p == 2 or pow(16, (p - 1) // math.gcd(8, p - 1), p) == 1, p
    assert not is_mth_power_rational(x, 8)

    elapsed = time.monotonic() - started
    print(
        "special case PASS: special-case fixtures exact; 16 is an 8th power in Q_p for "
        f"every odd p <= 10^4 but not in Q nor Q_2 [{elapsed:.1f}s]"
    )


def test_e1_bound_table():
    started = time.monotonic()
    expected = {(3, 1): 3, (3, 2): 7, (5, 1): 5, (7, 1): 7, (2, 1): 2, (2, 2): 5, (2, 3): 9}
    for (l, r), want in sorted(expected.items()):
        m = l**r
        closed = (l - 1) * l ** (r - 1) + 1 if l % 2 else (2 if r == 1 else 2**r + 1)
        assert want == closed
        inst = make_instance(m, [unramified_local(11, m, 1)])
        rep = bound_report(inst, construct(inst))
        assert rep.e1 == want, (l, r, rep.e1)
    elapsed = time.monotonic() - started
    print(f"E1 table PASS: E1 = {sorted(expected.values())} across the seven (l, r) pairs [{elapsed:.1f}s]")


def test_product_formula_bulk():
    started = time.monotonic()
    moduli = [
        3, 4, 5, 7, 8, 9, 12, 16, 21, 24, 36, 40, 45, 60, 72, 100, 144, 200, 243,
        256, 360, 500, 512, 625, 729, 1000, 1024, 2000, 2048, 2187, 3125, 4096, 4999, 5000,
    ]
    rationals = []
    for i, (n, d) in enumerate(itertools.product((2, 3, 5, 7, 10, 16, 17, 30, 49, 121), (1, 2, 3, 8, 15))):
        rationals.append(Fraction(-n if i % 2 else n, d))
    assert len(rationals) == 50

    checked = 0
    for N in moduli:
        for chi in itertools.islice(iter_characters(N), 24):
            for x in rationals:
                assert verify_product_formula(chi, x), (N, chi.exponents, x)
            checked += 1
    assert checked >= 500

    elapsed = time.monotonic() - started
    assert elapsed <= 60
    print(
        f"product formula PASS: exact for {checked} characters "
        f"(moduli up to 5000) x 50 rationals [{elapsed:.1f}s]"
    )


def test_solver_matrix_bounds():
    started = time.monotonic()
    base = [2, 3, 5, 7, "inf"]
    lr = {2: (2, 1), 4: (2, 2), 8: (2, 3), 3: (3, 1), 9: (3, 2)}
    worst = 0.0
    cells = 0
    for m, (l, r) in sorted(lr.items()):
        for k in range(len(base) + 1):
            for S in itertools.combinations(base, k):
                inst = make_instance(m, prescriptions(m, set(S)))
                sol = construct(inst)
                n = conductor(sol.character).norm

                if sol.exponent_achieved == m:  # exact local match when unwidened
                    for psi in inst.local_characters:
                        assert local_component(sol.character, psi.place) == psi, (m, S)

                radical = math.prod((p for p, _ in factor(n).factors), start=1)
                assert n <= l ** (r + 1) * radical, (m, S, n)

                best = oracle_minimal(inst, n)
                assert conductor(best.character).norm <= n, (m, S)

                worst = max(worst, bound_report(inst, sol).shape_ratio)
                cells += 1

    assert cells == 160
    assert worst <= 1.0  # bounded across the matrix
    assert worst <= SHAPE_RATIO_FIRST_RUN + 1e-9

    elapsed = time.monotonic() - started
    assert elapsed <= 600
    print(
        f"solver matrix PASS: {cells} cells sound, conductor bound and oracle dominance hold; "
        f"max shape ratio {worst:.6f} [{elapsed:.1f}s]"
    )


def test_least_prime_scan_stability():
    started = time.monotonic()
    small_primes = list(itertools.takewhile(lambda p: p < 200, primes_stream()))
    mu_cache = {}
    count = 0
    worst_b = 0.0

    def checked(records):
        # one pass over the scan: each record is checked, then counted
        # into the worst ratio_b and (by the caller) the decile maxima
        nonlocal count, worst_b
        for rec in records:
            assert not rec.cap_exceeded, rec
            f = rec.conductor
            mu = mu_cache.get(f)
            if mu is None:
                mu = mu_cache.setdefault(f, math.lcm(*unit_group(f).orders))
            chi = make_dirichlet(f, rec.char_exponents, mu)
            p = rec.least_prime
            assert f % p, rec  # p does not divide the conductor
            assert evaluate(chi, p) != 0, rec  # chi(p) != 1
            for q in small_primes:  # independent minimality re-check
                if q >= p:
                    break
                if f % q:
                    assert evaluate(chi, q) == 0, (rec, q)
            count += 1
            worst_b = max(worst_b, rec.ratio_b)
            yield rec

    deciles = ratio_c_decile_maxima(checked(scan_family(2000)), 2000)
    assert count > 0
    assert all(v > 0 for v in deciles)
    assert max(deciles[1:]) <= deciles[0]  # no upward trend in ratio_C

    assert worst_b <= SCAN_RATIO_B_BASELINE + 1e-12

    elapsed = time.monotonic() - started
    assert elapsed <= 300
    print(
        f"least-prime scan PASS: {count} primitive characters <= 2000 validated; "
        f"ratio_C deciles non-increasing from {deciles[0]:.3f}; max ratio_B {worst_b:.6f} "
        f"within first-run baseline [{elapsed:.1f}s]"
    )


def test_power_residue_moduli():
    started = time.monotonic()

    def brute(p, l, r=0):
        N = 2
        while True:
            if math.gcd(p, N) == 1:
                units = [a for a in range(1, N + 1) if math.gcd(a, N) == 1]
                powers = {pow(a, l, N) for a in units}
                if len(units) % (l**r) == 0 and p % N not in powers:
                    return N
            N += 1

    fixtures = [((2, 3), 7), ((2, 2), 3), ((3, 2), 4)]
    for (p, l), want in fixtures:
        ans = least_non_lth_power_modulus(p, l)
        assert ans.modulus == want == brute(p, l)
        # character-existence cross-check: minimal conductor of a character
        # with chi(p) = zeta_l equals the least modulus
        inst = make_instance(l, [unramified_local(p, l, 1)])
        sol = oracle_minimal(inst, want + 10)
        assert conductor(sol.character).norm == want

    ans = least_non_lth_power_modulus_with_order(2, 2, 2)
    assert ans.modulus == 5 == brute(2, 2, 2)
    # the witness at N = 5: an order-4 character nontrivial on 2
    chi = make_dirichlet(5, (1,), 4)
    assert evaluate(chi, 2) != 0 and conductor(chi).finite_part.value == 5

    elapsed = time.monotonic() - started
    print(
        "power residues PASS: (2,3)->7, (2,2)->3, (3,2)->4, (2,2,r=2)->5 against brute force "
        f"and character existence [{elapsed:.1f}s]"
    )
