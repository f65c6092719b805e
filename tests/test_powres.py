"""Least modulus where p fails to be an l-th power residue.

Each answer is re-derived by sheer enumeration over every smaller
modulus, and cross-checked against character existence: p is a non-l-th
power mod N exactly when some order-l character mod N is nontrivial on p,
so the minimal such N equals the minimal conductor over solutions of the
matching character-construction instance.
"""

import math

import pytest

from grunwald import (
    PowerResidueAnswer,
    conductor,
    least_non_lth_power_modulus,
    least_non_lth_power_modulus_with_order,
    make_instance,
    oracle_minimal,
    unramified_local,
)
from grunwald.errors import ValidationError

PRIMES = [2, 3, 5, 7, 11, 13]


def brute_least(p, l, r=0):
    """Scan N = 2, 3, ... directly from the definition."""
    N = 2
    while True:
        if math.gcd(p, N) == 1:
            phi = sum(1 for a in range(1, N + 1) if math.gcd(a, N) == 1)
            powers = {pow(a, l, N) for a in range(1, N + 1) if math.gcd(a, N) == 1}
            if phi % (l**r) == 0 and p % N not in powers:
                return N
        N += 1


def brute_certificate(p, l, N):
    """(phi, power count, class order) mod N from the definitions; the
    order of p's class is found by walking p, p^2, ... to an l-th power."""
    units = [a for a in range(1, N + 1) if math.gcd(a, N) == 1]
    powers = {pow(a, l, N) for a in units}
    order, x = 1, p % N
    while x not in powers:
        x = x * p % N
        order += 1
    return len(units), len(powers), order


@pytest.mark.parametrize("p,l,want", [(2, 3, 7), (2, 2, 3), (3, 2, 4)])
def test_fixtures(p, l, want):
    ans = least_non_lth_power_modulus(p, l)
    assert ans.modulus == want == brute_least(p, l)


def test_fixture_with_order():
    ans = least_non_lth_power_modulus_with_order(2, 2, 2)
    assert ans.modulus == 5 == brute_least(2, 2, 2)


def test_certificate_contents():
    ans = least_non_lth_power_modulus(2, 3)
    assert isinstance(ans, PowerResidueAnswer)
    assert ans.modulus == 7
    assert ans.phi == 6
    assert ans.power_count == 2  # cubes mod 7 are {1, 6}
    assert ans.class_order == 3  # 2 generates a cube class of order 3
    assert ans.phi % ans.power_count == 0
    assert repr(ans) == "PowerResidueAnswer(modulus=7, phi=6, power_count=2, class_order=3)"
    with pytest.raises(AttributeError):
        ans.modulus = 8


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("l", PRIMES)
def test_matches_brute_matrix(p, l):
    ans = least_non_lth_power_modulus(p, l)
    assert ans.modulus == brute_least(p, l)
    assert (ans.phi, ans.power_count, ans.class_order) == brute_certificate(p, l, ans.modulus)


@pytest.mark.parametrize("p,l,r", [(2, 2, 2), (2, 2, 3), (3, 3, 2), (5, 2, 2), (2, 3, 2)])
def test_matches_brute_with_order(p, l, r):
    ans = least_non_lth_power_modulus_with_order(p, l, r)
    assert ans.modulus == brute_least(p, l, r)
    assert (ans.phi, ans.power_count, ans.class_order) == brute_certificate(p, l, ans.modulus)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("l", [2, 3, 5, 7])
def test_character_existence_cross_check(p, l):
    # prescribe chi(p) = zeta_l, unramified at p; minimal conductor over
    # all global solutions equals the least modulus from the power test
    inst = make_instance(l, [unramified_local(p, l, 1)])
    want = least_non_lth_power_modulus(p, l).modulus
    sol = oracle_minimal(inst, want + 10)
    assert conductor(sol.character).norm == want


def test_validation():
    with pytest.raises(ValidationError):
        least_non_lth_power_modulus(4, 3)
    with pytest.raises(ValidationError):
        least_non_lth_power_modulus(3, 6)
    with pytest.raises(ValidationError):
        least_non_lth_power_modulus_with_order(3, 2, -1)
