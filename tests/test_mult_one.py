"""Least nonsplit primes and the conductor-family scan.

least_nonsplit_prime is checked against a naive prime-by-prime loop using
only evaluate(); the scan's per-conductor character lists are checked
against the generic character iterator, and its witnesses against a
search on a table of every unit (reference.unit_dlog_table).
"""

import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grunwald import (
    CSV_HEADER,
    conductor,
    evaluate,
    least_nonsplit_prime,
    make_dirichlet,
    primitivize,
    scan_family,
    unit_group,
    write_scan_csv,
)
from grunwald.core_arith import Place, primes_stream
from grunwald.errors import NoWitnessError, SearchCapError, ValidationError
from reference import iter_characters, ratio_c_decile_maxima, unit_dlog_table


def naive_least_nonsplit(chi, skip=()):
    prim = primitivize(chi)
    for p in primes_stream():
        if p in skip or prim.modulus % p == 0:
            continue
        if evaluate(prim, p) != 0:
            return p, evaluate(prim, p)


@pytest.mark.parametrize("N", [3, 4, 5, 8, 12, 16, 35, 72, 100])
def test_least_nonsplit_matches_naive(N):
    for chi in iter_characters(N):
        if all(t == 0 for t in chi.exponents):
            with pytest.raises(NoWitnessError):
                least_nonsplit_prime(chi)
            continue
        got = least_nonsplit_prime(chi)
        want_p, want_t = naive_least_nonsplit(chi)
        assert (got.prime, got.value_exponent) == (want_p, want_t)
        assert got.norm == got.prime


def test_least_nonsplit_excludes_s():
    chi = make_dirichlet(8, (1, 1), 2)
    base = least_nonsplit_prime(chi)
    moved = least_nonsplit_prime(chi, (Place(base.prime),))
    assert moved.prime > base.prime
    p, t = naive_least_nonsplit(chi, {base.prime})
    assert moved.prime == p
    assert repr(base) == "PrimeWitness(prime=5, norm=5, value_exponent=1)"
    with pytest.raises(AttributeError):
        base.prime = 3


def test_least_nonsplit_trivial_raises():
    with pytest.raises(NoWitnessError):
        least_nonsplit_prime(make_dirichlet(60, (0, 0, 0), 1))


def test_least_nonsplit_cap():
    chi = make_dirichlet(3, (1,), 2)
    with pytest.raises(SearchCapError):
        least_nonsplit_prime(chi, (Place(2),), cap=4)  # witness would be 5


def test_bad_search_cap_is_validation_error():
    chi = make_dirichlet(3, (1,), 2)
    for cap in (0, -5):
        with pytest.raises(ValidationError, match=f"bad search cap {cap}"):
            least_nonsplit_prime(chi, cap=cap)
        with pytest.raises(ValidationError, match=f"bad search cap {cap}"):
            next(scan_family(20, cap=cap))


def test_analytic_conductor():
    # the scan's A = N(chi) * N_S: N_S multiplies the finite places of S,
    # and the real place adds nothing
    for S, norm in [((), 1), ((Place(2), Place(7)), 14), ((Place(None),), 1)]:
        rec = next(rec for rec in scan_family(10, S=S) if rec.conductor == 5)
        assert rec.s_norm == norm
        assert rec.log_a == pytest.approx(math.log(5 * norm))


def test_scan_counts_and_primitivity():
    records = list(scan_family(60))
    by_f = {}
    for rec in records:
        by_f.setdefault(rec.conductor, []).append(rec)
    for f in range(1, 61):
        # explicit conductor filter, independent of the scan's slot rule
        want = sum(1 for chi in iter_characters(f) if conductor(chi).norm == f) if f > 2 and f % 4 != 2 else 0
        assert len(by_f.get(f, [])) == want, f
    # all witnesses validate against a prime-by-prime loop on evaluate(),
    # which shares no witness search with the scan
    for rec in records:
        mu = math.lcm(*unit_group(rec.conductor).orders)
        chi = make_dirichlet(rec.conductor, rec.char_exponents, mu)
        assert conductor(chi).finite_part.value == rec.conductor
        assert naive_least_nonsplit(chi)[0] == rec.least_prime


def table_least_prime(f, exps, skip=(), cap=10**8):
    """The least prime <= cap outside skip where the character mod f with
    exponents exps is nonzero, read from unit_dlog_table; 0 past cap."""
    table = unit_dlog_table(f)
    mu = math.lcm(1, *unit_group(f).orders)
    for p in primes_stream():
        if p > cap:
            return 0
        vec = table.get(p % f)
        if p not in skip and vec is not None and sum(t * e for t, e in zip(exps, vec)) % mu:
            return p


@pytest.mark.parametrize("S, cap", [((), 10**8), ((Place(2), Place(7), Place(None)), 13)])
def test_scan_matches_unit_enumeration(S, cap):
    # the scan's witnesses (dlog_units) against a search on a table of every
    # unit mod f, which takes no discrete log; cap 13 flags some records
    skip = {v.prime for v in S if not v.is_real}
    flagged = 0
    for rec in scan_family(150, S=S, cap=cap):
        want = table_least_prime(rec.conductor, rec.char_exponents, skip, cap)
        assert rec.least_prime == want, rec
        assert rec.cap_exceeded == (want == 0)
        flagged += rec.cap_exceeded
    assert (flagged > 0) == (cap == 13)


def test_scan_record_ratios():
    rec = next(iter(scan_family(10)))
    assert rec.conductor == 3 and rec.least_prime == 2
    A = 3.0
    assert rec.log_a == pytest.approx(math.log(A))
    assert rec.ratio_a == pytest.approx(math.log(2) / math.log(A))
    assert rec.ratio_b == pytest.approx(2 / 3 ** 0.6)
    assert rec.ratio_c == pytest.approx(2 / math.log(A) ** 2)
    assert repr(rec) == (
        "ScanRecord(conductor=3, modulus=3, char_exponents=(1,), s_norm=1, least_prime=2,"
        f" log_a={rec.log_a!r}, ratio_a={rec.ratio_a!r}, ratio_b={rec.ratio_b!r},"
        f" ratio_c={rec.ratio_c!r}, cap_exceeded=False)"
    )
    with pytest.raises(AttributeError):
        rec.cap_exceeded = True


def test_scan_with_s_skips_places():
    # excluding 2 pushes every witness to an odd prime and scales A by 2
    records = list(scan_family(30, S=(Place(2),)))
    assert records and all(rec.least_prime != 2 for rec in records)
    for rec in records:
        assert rec.s_norm == 2
        assert rec.log_a == pytest.approx(math.log(2 * rec.conductor))


def test_scan_rejects_bad_epsilon():
    with pytest.raises(ValidationError, match="epsilon must be positive"):
        next(iter(scan_family(10, epsilon=0.0)))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError, match="epsilon must be finite"):
            next(iter(scan_family(10, epsilon=bad)))


def test_decile_maxima():
    records = list(scan_family(100))
    dec = ratio_c_decile_maxima(records, 100)
    assert len(dec) == 10
    for rec in records:
        d = min(9, (rec.conductor - 1) * 10 // 100)
        assert rec.ratio_c <= dec[d]
    assert max(dec) == max(rec.ratio_c for rec in records)
    # a flagged record counts in no decile, whatever its ratios say
    flagged = records[0]._replace(ratio_c=1e9, cap_exceeded=True)
    assert ratio_c_decile_maxima(records + [flagged], 100) == dec


def test_csv_format():
    records = list(scan_family(20))
    buf = io.StringIO()
    count = write_scan_csv(records, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == CSV_HEADER
    assert CSV_HEADER == "conductor,modulus,char_exponents,S,least_prime,log_A,ratio_A,ratio_B,ratio_C"
    assert count == len(records) == len(lines) - 1
    first = lines[1].split(",")
    assert first[0] == "3" and first[4] == "2"
    # float fields parse back exactly (repr round trip)
    assert float(first[5]) == records[0].log_a


def test_csv_deterministic():
    a, b = io.StringIO(), io.StringIO()
    write_scan_csv(list(scan_family(40)), a)
    write_scan_csv(list(scan_family(40)), b)
    assert a.getvalue() == b.getvalue()
