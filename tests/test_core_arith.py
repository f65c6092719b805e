"""Arithmetic layer: primality, factorization, unit groups, discrete logs,
and local m-th powers as the common kernel of the local characters.

Reference answers come from brute force (trial division, full residue
enumeration), never from the functions under test.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grunwald.core_arith import (
    FACTOR_LIMIT,
    FactoredInteger,
    Place,
    components,
    dlog_units,
    factor,
    is_prime,
    power_residue_table,
    prime_power,
    primes_stream,
    unit_group,
    unit_residue,
    valuation,
    valuation_rational,
)
from grunwald.characters import evaluate_local, local_character, sign_local, unramified_local
from grunwald.errors import NonUnitError, ValidationError
from reference import crt_generators, is_square_rational, unit_dlog_table


def trial_division_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


def test_is_prime_exhaustive_small():
    for n in range(-5, 5000):
        assert is_prime(n) == trial_division_prime(n), n


@given(st.integers(min_value=0, max_value=10**7))
def test_is_prime_matches_trial_division(n):
    assert is_prime(n) == trial_division_prime(n)


def test_is_prime_large_known():
    assert is_prime(2**61 - 1)  # Mersenne
    assert not is_prime(2**67 - 1)  # 193707721 * 761838257287
    assert is_prime(10**18 + 9)
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7


def test_is_prime_refuses_above_psi13():
    # Miller-Rabin proves primality only below psi_13 ~ 3.3e24 (about 2^81.4)
    with pytest.raises(ValidationError, match="cannot certify"):
        is_prime(2**89 - 1)
    # a refusal is raised, so the cache keeps nothing and refuses again
    with pytest.raises(ValidationError, match="cannot certify"):
        is_prime(2**89 - 1)
    with pytest.raises(ValidationError):
        Place(2**89 - 1)
    # a failing base still proves a composite above psi_13, so factor splits it
    assert not is_prime((2**61 - 1) * (2**31 - 1))
    assert factor((2**61 - 1) * (2**31 - 1)).factors == ((2**31 - 1, 1), (2**61 - 1, 1))


def test_primes_stream_prefix():
    stream = primes_stream()
    got = [next(stream) for _ in range(100)]
    want = [n for n in range(2, 542) if trial_division_prime(n)]
    assert got == want


@given(st.integers(min_value=1, max_value=10**9))
def test_factor_recomposes(n):
    fi = factor(n)
    assert fi.value == n
    assert math.prod(p**e for p, e in fi.factors) == n
    for p, e in fi.factors:
        assert trial_division_prime(p) or p > 10**6  # big ones certified by is_prime
        assert e >= 1


def test_factor_str():
    assert str(factor(544)) == "2^5*17"
    assert str(factor(1)) == "1"
    assert str(factor(30)) == "2*3*5"
    # semiprimes whose factors both pass the trial-division primes (<= 1223)
    # are split by Pollard rho
    for p, q in ((1229, 1231), (10**6 + 3, 10**6 + 33), (2**30 - 35, 2**31 - 1)):
        assert factor(p * q).factors == ((p, 1), (q, 1))


def test_factor_limit_bounds_the_rho_cofactor():
    # FACTOR_LIMIT bounds what trial division leaves to Pollard rho, not n:
    # a 109-bit n whose primes are all trial-division primes is split
    n = 2**100 * 3**5 * 257
    assert n > FACTOR_LIMIT
    assert str(factor(n)) == "2^100*3^5*257"
    comps = components(n)
    assert [(c.prime, c.exponent) for c in comps] == [(2, 100), (3, 5), (257, 1)]
    assert repr(comps[2]) == (
        "UnitComponent(prime=257, exponent=1, prime_power=257,"
        " local_generators=(3,), orders=(256,), offset=3)"
    )
    with pytest.raises(AttributeError):
        comps[2].offset = 0
    for g, o in zip(crt_generators(n), unit_group(n).orders):
        assert pow(g, o, n) == 1
        assert all(pow(g, o // q, n) != 1 for q, _ in factor(o).factors)
    # a 122-bit cofactor is left after trial division, so it is refused
    with pytest.raises(ValidationError, match="factor target out of range"):
        factor((2**61 - 1) ** 2)
    for bad in (0, -6):
        with pytest.raises(ValidationError, match="factor target out of range"):
            factor(bad)


def test_factored_integer_rejects_garbage():
    with pytest.raises(ValidationError, match="^bad factorization for 12$"):
        FactoredInteger(12, ((4, 1), (3, 1)))
    with pytest.raises(ValidationError, match="^factors do not recompose 12$"):
        FactoredInteger(12, ((2, 1), (3, 1)))
    with pytest.raises(ValidationError, match="^bad factorization for 12$"):
        FactoredInteger(value=12, factors=((3, 1), (2, 2)))  # unsorted
    n = FactoredInteger(12, ((2, 2), (3, 1)))
    assert repr(n) == "FactoredInteger(value=12, factors=((2, 2), (3, 1)))"
    with pytest.raises(AttributeError):
        n.value = 13
    # replacing a field builds through the constructor, so it is checked too
    with pytest.raises(ValidationError, match="^factors do not recompose 13$"):
        n._replace(value=13)
    with pytest.raises(ValidationError, match="^bad factorization for 12$"):
        n._replace(factors=((3, 1), (2, 2)))
    assert n._replace(value=18, factors=((2, 1), (3, 2))) == FactoredInteger(18, ((2, 1), (3, 2)))


def test_valuation():
    assert valuation(48, 2) == 4
    assert valuation(48, 3) == 1
    assert valuation(48, 5) == 0
    assert valuation_rational(Fraction(3, 8), 2) == -3
    assert valuation_rational(Fraction(-9, 5), 3) == 2


@given(st.integers(min_value=2, max_value=10**6))
def test_prime_power_detection(n):
    try:
        p, r = prime_power(n)
    except ValidationError:
        assert len(factor(n).factors) > 1
    else:
        assert is_prime(p) and p**r == n


def brute_unit_orders(N):
    return [a % N for a in range(1, N + 1) if math.gcd(a, N) == 1]


@pytest.mark.parametrize("N", list(range(1, 257)) + [360, 512, 720, 1024, 2048, 4095])
def test_unit_group_generates(N):
    ug = unit_group(N)
    assert repr(ug) == f"UnitGroupStructure(orders={ug.orders!r})"
    with pytest.raises(AttributeError):
        ug.orders = ()
    units = set(brute_unit_orders(N))
    assert math.prod(ug.orders, start=1) == len(units)
    generated = {1 % N}
    for g, o in zip(crt_generators(N), ug.orders):
        # g really has the claimed order
        assert pow(g, o, N) == 1 % N
        for q in {p for p, _ in factor(o).factors}:
            assert pow(g, o // q, N) != 1
        generated = {x * pow(g, e, N) % N for x in generated for e in range(o)}
    assert generated == units


@pytest.mark.parametrize("N", [10**6, 999983, 2**19, 3**12, 750000])
def test_unit_group_generates_large(N):
    ug = unit_group(N)
    phi = 1
    for p, e in factor(N).factors:
        phi *= (p - 1) * p ** (e - 1)
    assert math.prod(ug.orders, start=1) == phi
    count = 1
    seen = {1}
    for g, o in zip(crt_generators(N), ug.orders):
        new = set()
        x = 1
        for _ in range(o - 1):
            x = x * g % N
            new.add(x)
        assert 1 not in new  # exact order
        seen = {a * b % N for a in seen for b in new} | seen
        count *= o
    assert len(seen) == count == phi


@given(st.integers(min_value=2, max_value=3000), st.data())
def test_dlog_units_round_trip(N, data):
    ug = unit_group(N)
    exps = tuple(data.draw(st.integers(min_value=0, max_value=o - 1)) for o in ug.orders)
    x = 1
    for g, e in zip(crt_generators(N), exps):
        x = x * pow(g, e, N) % N
    assert dlog_units(N, x) == exps


def test_dlog_units_matches_unit_enumeration():
    # baby-step giant-step against a table of every unit, built on the
    # CRT-lifted generators with no discrete log taken
    for f in range(1, 301):
        table = unit_dlog_table(f)
        assert len(table) == math.prod(unit_group(f).orders, start=1)
        for x, exps in table.items():
            assert dlog_units(f, x) == exps, (f, x)


def test_dlog_units_rejects_non_unit():
    with pytest.raises(NonUnitError):
        dlog_units(12, 4)
    # a refusal is raised, so the cache keeps nothing and refuses again
    with pytest.raises(NonUnitError):
        dlog_units(12, 4)
    with pytest.raises(NonUnitError):
        dlog_units(12, 16)


def test_dlog_units_reads_x_mod_n():
    # one answer for x, x + N and x - N, whichever is asked first
    for N in range(1, 120):
        for x in range(N):
            if math.gcd(x, N) != 1:
                continue
            first = dlog_units(N, x + N) if x % 2 else dlog_units(N, x - N)
            assert dlog_units(N, x) == first == dlog_units(N, x + N) == dlog_units(N, x - N)
            assert dlog_units(N, x - 5 * N) == first


def test_power_residue_table_matches_dlog_units():
    # the symbol's log must be the discrete log on components(q)'s own
    # generator reduced mod g, not on some other generator of the g-th roots
    exponent = 2**6 * 3**3 * 5**2 * 7
    targets = [-1] + list(itertools.takewhile(lambda p: p <= 61, primes_stream()))
    for q in itertools.takewhile(lambda p: p < 3000, primes_stream()):
        if q == 2:
            continue
        logs_of = {x: dlog_units(q, x)[0] for x in targets if x % q}
        n = math.gcd(q - 1, exponent)
        for g in range(2, n + 1):
            if n % g:
                continue
            e, logs = power_residue_table(q, g)
            assert e == (q - 1) // g and len(logs) == g
            for x, d in logs_of.items():
                assert logs[pow(x % q, e, q)] == d % g, (q, g, x)
    assert power_residue_table.cache_info().maxsize is not None


@given(st.fractions(min_value=-(10**4), max_value=10**4, max_denominator=10**4))
def test_square_recognized(x):
    assert is_square_rational(x * x)
    assert not is_square_rational(-(x * x)) or x == 0


def test_square_rejects():
    assert is_square_rational(Fraction(16)) and is_square_rational(Fraction(0))
    assert not is_square_rational(Fraction(2))
    assert not is_square_rational(Fraction(8, 9)) and not is_square_rational(Fraction(9, 8))
    assert is_square_rational(Fraction(9, 4))
    assert not is_square_rational(Fraction(-9, 4))
    assert is_square_rational(Fraction(10**40, 7**20)) and not is_square_rational(10**40 + 1)


def test_unit_residue():
    # strips the p-part and inverts the denominator mod p^k
    assert unit_residue(Fraction(48), 2, 3) == 3  # 48 = 2^4 * 3
    assert unit_residue(Fraction(1, 3), 5, 2) == pow(3, -1, 25)
    with pytest.raises(ValidationError):
        unit_residue(Fraction(0), 3, 2)


def test_place_basics():
    assert Place.parse("infinity").is_real
    assert Place.parse("7") == Place(7)
    with pytest.raises(ValidationError, match="^not a prime: 10$"):
        Place(10)
    with pytest.raises(ValidationError, match="^not a prime: 1$"):
        Place(prime=1)
    assert repr(Place(7)) == "Place(prime=7)" and repr(Place()) == "Place(prime=None)"
    # the field tuple's hash, so sets of places keep their iteration order
    assert hash(Place(7)) == hash((7,)) and hash(Place()) == hash((None,))
    with pytest.raises(AttributeError):
        Place(7).prime = 11
    # replacing a field builds through the constructor, so it is checked too
    with pytest.raises(ValidationError, match="^not a prime: 4$"):
        Place(2)._replace(prime=4)
    assert Place(2)._replace(prime=3) == Place(3) and Place(2)._replace(prime=None).is_real
    ordering = sorted([Place(None), Place(5), Place(2)], key=Place.sort_key)
    assert [v.prime for v in ordering] == [2, 5, None]


# --- local characters detect local powers, against a Hensel brute force ----

def brute_power_in_qp(x: Fraction, p: int, m: int) -> bool:
    """x in (Q_p^x)^m by enumerating y^m over residues mod p^K.

    K = v_p(m^2) + 1 suffices: a unit u is an m-th power in Z_p iff it is
    one mod p^(2 v_p(m) + 1) (Hensel, f(y) = y^m - u).
    """
    assert x != 0
    result = True
    for l, r in factor(m).factors:
        lr = l**r
        v = valuation_rational(x, p)
        if v % lr:
            result = False
            continue
        K = 2 * valuation(lr, p) + 1
        u = unit_residue(x, p, K)
        pK = p**K
        powers = {pow(y, lr, pK) for y in range(1, pK) if y % p}
        if u % pK not in powers:
            result = False
    return result


LOCAL_GRID = [
    Fraction(n, d) * Fraction(p) ** k
    for n in (-7, -3, -1, 1, 2, 3, 5, 9, 16, 25)
    for d in (1, 3, 4)
    for p in (1,)
    for k in (0,)
]


def killed_by_local_characters(x: Fraction, v: Place, m: int) -> bool:
    """Every local character of exponent m at v is trivial at x.

    Q_v^x / (Q_v^x)^m is finite of exponent m, so this holds exactly when
    x is an m-th power in Q_v.  At a prime p the characters are generated
    by the unramified one with value zeta_m at p and one per generator of
    (Z/p^K)^x, K = v_p(m) + 1 (p odd) or v_2(m) + 2: the units that are 1
    mod p^K are m-th powers.
    """
    if v.is_real:
        return m % 2 == 1 or evaluate_local(sign_local(m, 1), x) == 0
    p = v.prime
    K = valuation(m, p) + (2 if p == 2 else 1)
    orders = unit_group(p**K).orders
    chars = [unramified_local(p, m, 1)]
    for j, o in enumerate(orders):
        exps = [0] * len(orders)
        exps[j] = m // math.gcd(m, o)
        chars.append(local_character(v, m, K, tuple(exps)))
    return all(evaluate_local(psi, x) == 0 for psi in chars)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
@pytest.mark.parametrize("m", [2, 3, 4, 5, 8, 9])
def test_lth_power_local_matches_brute(p, m):
    place = Place(p)
    xs = {q * Fraction(p) ** k for q in LOCAL_GRID for k in (-2, -1, 0, 1, 2, 3, 8)}
    for x in sorted(xs):
        got = killed_by_local_characters(x, place, m)
        assert got == brute_power_in_qp(x, p, m), (x, p, m)


def test_lth_power_local_real_place():
    real = Place(None)
    assert killed_by_local_characters(Fraction(-8), real, 3)
    assert not killed_by_local_characters(Fraction(-8), real, 2)
    assert killed_by_local_characters(Fraction(8), real, 2)


def test_sixteen_is_an_eighth_power_at_odd_primes():
    # the classical witness: locally an 8th power away from 2, globally not
    for p in (3, 5, 7, 11, 13, 17, 97):
        assert brute_power_in_qp(Fraction(16), p, 8)
        assert killed_by_local_characters(Fraction(16), Place(p), 8)
    assert not brute_power_in_qp(Fraction(16), 2, 8)
    assert not killed_by_local_characters(Fraction(16), Place(2), 8)
