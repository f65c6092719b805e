"""Special case of Wang: detection and the element a0."""

import itertools
import math
from fractions import Fraction

import pytest

from grunwald import (
    FieldDescriptor,
    s_invariant,
    special_case,
)
from grunwald.core_arith import Place, primes_stream, valuation
from grunwald.errors import ValidationError
from grunwald.wang_special import _field_data

Q = FieldDescriptor(1)


def S(*primes):
    return tuple(Place(p) for p in primes)


def test_field_descriptor():
    assert FieldDescriptor.parse("Q") == Q == FieldDescriptor() and Q.is_rational
    f7 = FieldDescriptor.parse("Qsqrt:7")
    assert f7.d == 7 and not f7.is_rational and str(f7) == "Q(sqrt 7)"
    with pytest.raises(ValidationError):
        FieldDescriptor(12)
    with pytest.raises(ValidationError, match="cannot parse field 'Qsqrt:x'"):
        FieldDescriptor.parse("Qsqrt:x")
    # a parsed d that is not squarefree keeps the squarefree check's message
    with pytest.raises(ValidationError, match="d not squarefree: 4"):
        FieldDescriptor.parse("Qsqrt:4")


def test_s_invariant():
    # s = max with eta_{2^s} in K: 2 over Q, 3 exactly for Q(sqrt 2)
    assert s_invariant(Q) == 2
    assert s_invariant(FieldDescriptor(2)) == 3
    assert s_invariant(FieldDescriptor(7)) == 2
    assert s_invariant(FieldDescriptor(-1)) == 2


def test_special_case_fixture_q_8_2():
    rep = special_case(Q, 8, S(2))
    assert rep.occurs
    assert rep.a0 == 16
    assert rep.S0 == frozenset(S(2))
    assert rep.failed_condition is None


def test_special_case_fixture_qsqrt7():
    # Q_2(sqrt 7) = Q_2(i), so -1 is a local square and S0 is empty
    rep = special_case(FieldDescriptor(7), 8, ())
    assert rep.occurs
    assert rep.S0 == frozenset()


def test_special_case_fixture_q_4_2():
    rep = special_case(Q, 4, S(2))
    assert not rep.occurs
    assert rep.failed_condition == "c"  # v_2(4) = s = 2, not greater


def test_special_case_fixture_q_8_empty():
    rep = special_case(Q, 8, ())
    assert not rep.occurs
    assert rep.S0 == frozenset(S(2))
    assert rep.failed_condition == "d"


def test_special_case_over_q_iff_two_in_s():
    for m in (8, 16, 32):
        for primes in [(), (3,), (2,), (2, 5), (3, 7)]:
            rep = special_case(Q, m, S(*primes))
            assert rep.occurs == (2 in primes)


def test_special_case_over_q_grid():
    # the per-field part is cached; m and S still decide every answer
    places = (2, 3, 5, 7, None)
    for m in range(1, 65):
        for k in range(len(places) + 1):
            for chosen in itertools.combinations(places, k):
                rep = special_case(Q, m, S(*chosen))
                assert rep.occurs == (m % 8 == 0 and 2 in chosen), (m, chosen)
    assert _field_data.cache_info().maxsize is not None


def test_special_case_needs_eight():
    for m in (2, 3, 4, 5, 9, 12):
        assert not special_case(Q, m, S(2)).occurs


def test_special_case_condition_b():
    # -1 is a global square in Q(i): condition (b) fails whatever S is
    rep = special_case(FieldDescriptor(-1), 8, S(2))
    assert not rep.occurs
    assert rep.failed_condition == "b"


def test_special_case_irrational_a0():
    rep = special_case(FieldDescriptor(2), 16, S(2))
    assert rep.occurs
    assert rep.a0 is None
    assert rep.a0_coords == (Fraction(9232), Fraction(6528))  # (2 + sqrt 2)^8


def test_a0_is_m_half_power_of_critical_element():
    for m in (8, 16):
        rep = special_case(Q, m, S(2))
        assert rep.a0 == Fraction(2) ** (m // 2)


def test_sixteen_eighth_power_profile():
    x = Fraction(16)
    assert valuation(16, 2) % 8 != 0  # so 16 is no 8th power in Q_2
    for p in itertools.takewhile(lambda q: q < 10**4, primes_stream()):
        # a unit at odd p is an 8th power in Q_p iff it is one mod p
        assert p == 2 or pow(16, (p - 1) // math.gcd(8, p - 1), p) == 1, p
    assert x > 0  # an 8th power in R
    assert all(y**8 != x for y in range(3))  # a rational 8th root would be an integer
