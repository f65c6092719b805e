"""Square detection in completions of Q(sqrt d) above 2.

For rational x the answer has a closed form that only needs plain Q_2
square tests: x is a square in Q_2(sqrt d) iff x or x/d is a square in
Q_2.  That identity (plus exact global squares and a few algebraic
fixtures) is the reference.  An irrational element is decided only at a
single place and only when its norm is a nonsquare in Q_2, which covers
the critical elements of the special case; every other irrational element
must be refused, never answered.  The square tests live in
`tests/reference.py`, the reference for `special_case`'s closed form.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grunwald.errors import ValidationError
from reference import is_square_in_q2, is_square_in_quadratic_field, two_adic_square_profile

SQUAREFREE = [-10, -7, -6, -5, -3, -2, -1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 21, 33, 41, 57, 73]


def brute_q2_square(x: Fraction) -> bool:
    """Hensel: a 2-adic unit is a square iff it is 1 mod 8."""
    assert x != 0
    v = 0
    while x.numerator % 2 == 0:
        x /= 2
        v += 1
    while x.denominator % 2 == 0:
        x *= 2
        v -= 1
    if v % 2:
        return False
    num = x.numerator * pow(x.denominator, -1, 8) % 8
    return num == 1


@given(st.fractions(min_value=-(10**5), max_value=10**5, max_denominator=10**4))
def test_q2_square_matches_hensel(x):
    if x == 0:
        return
    assert is_square_in_q2(x) == brute_q2_square(x)


@pytest.mark.parametrize("d", SQUAREFREE)
def test_rational_elements_closed_form(d):
    xs = [Fraction(n, den) for n in range(-24, 25) if n for den in (1, 2, 3, 8)]
    for x in xs:
        want = is_square_in_q2(x) or is_square_in_q2(x / d)
        profile = two_adic_square_profile(x, Fraction(0), d)
        assert profile == (want,) * len(profile), (x, d)


@pytest.mark.parametrize("d", [17, 33, 41, 73, -7, -15])
def test_split_primes_give_two_coherent_places(d):
    # d = 1 mod 8: sqrt(d) lies in Q_2, the algebra splits into two copies
    for x in (Fraction(5), Fraction(-1), Fraction(2), Fraction(12), Fraction(9, 4)):
        profile = two_adic_square_profile(x, Fraction(0), d)
        assert len(profile) == 2
        assert profile[0] == profile[1] == is_square_in_q2(x)


@pytest.mark.parametrize("d", [-1, -2, 2, 3, 5, 6, 7, 11, 13, 21])
def test_nonsplit_gives_one_place(d):
    assert len(two_adic_square_profile(Fraction(3), Fraction(0), d)) == 1


def test_global_squares_are_local_squares():
    for d in SQUAREFREE:
        for a, b in [(3, 1), (1, 1), (2, 5), (7, 2), (0, 1), (5, 0)]:
            x0 = Fraction((a * a + b * b * d))
            x1 = Fraction(2 * a * b)
            # (a + b sqrt d)^2 expanded; skip the zero element
            if x0 == 0 and x1 == 0:
                continue
            assert is_square_in_quadratic_field(x0, x1, d)
            if x1 == 0:
                for ok in two_adic_square_profile(x0, x1, d):
                    assert ok, (d, a, b)
            else:
                # an irrational square has a square norm: refused
                with pytest.raises(ValidationError):
                    two_adic_square_profile(x0, x1, d)


def test_algebraic_fixtures():
    # -1 is a square in Q_2(i) and in Q_2(sqrt 7) = Q_2(i), not in Q_2(sqrt 3)
    assert two_adic_square_profile(Fraction(-1), Fraction(0), -1) == (True,)
    assert two_adic_square_profile(Fraction(-1), Fraction(0), 7) == (True,)
    assert two_adic_square_profile(Fraction(-1), Fraction(0), 3) == (False,)
    # sqrt 2 is no square: its norm -2 is no square in Q_2
    assert two_adic_square_profile(Fraction(0), Fraction(1), 2) == (False,)
    # 2 + sqrt 2 and its negative, the critical elements over Q(sqrt 2):
    # both nonsquares in Q_2(sqrt 2), by their norm 2
    assert two_adic_square_profile(Fraction(2), Fraction(1), 2) == (False,)
    assert two_adic_square_profile(Fraction(-2), Fraction(-1), 2) == (False,)


def test_split_irrational_element_is_refused():
    # 1 + sqrt 17 sits at two places above 2; neither is decided
    with pytest.raises(ValidationError, match="not implemented"):
        two_adic_square_profile(Fraction(1), Fraction(1), 17)


def test_square_norm_element_is_refused():
    # (2 + sqrt 2)^2 = 6 + 4 sqrt 2 has norm 4, a square: not decided
    with pytest.raises(ValidationError, match="not implemented"):
        two_adic_square_profile(Fraction(6), Fraction(4), 2)
    # nor is i = zeta_4 in Q_2(i), of norm 1
    with pytest.raises(ValidationError, match="not implemented"):
        two_adic_square_profile(Fraction(0), Fraction(1), -1)


def profile_or_none(x0, x1, d):
    try:
        return two_adic_square_profile(x0, x1, d)
    except ValidationError:
        return None


def test_multiplicative_consistency():
    # square class arithmetic: x square, y square => x*y square;
    # x square, y nonsquare => x*y nonsquare (per place), wherever both
    # elements are decided
    decided = 0
    for d in (2, 3, -1, 5, -7, 17):
        elems = [
            (Fraction(1), Fraction(1)),
            (Fraction(3), Fraction(0)),
            (Fraction(2), Fraction(1)),
            (Fraction(0), Fraction(1)),
            (Fraction(-1), Fraction(2)),
        ]
        for a0, a1 in elems:
            sq0 = a0 * a0 + a1 * a1 * d
            sq1 = 2 * a0 * a1
            for b0, b1 in elems:
                p0 = sq0 * b0 + sq1 * b1 * d
                p1 = sq0 * b1 + sq1 * b0
                if (p0, p1) == (0, 0) or (b0, b1) == (0, 0):
                    continue
                got = profile_or_none(p0, p1, d)
                want = profile_or_none(b0, b1, d)
                if got is not None and want is not None:
                    assert got == want, (d, (a0, a1), (b0, b1))
                    decided += 1
    assert decided >= 77  # of 150 pairs; the rest meet a refused element


def test_rejects_bad_d():
    with pytest.raises(ValidationError):
        two_adic_square_profile(Fraction(3), Fraction(0), 12)  # not squarefree
    with pytest.raises(ValidationError):
        two_adic_square_profile(Fraction(3), Fraction(0), 0)
    # d = 1 degenerates to Q itself and is allowed
    assert two_adic_square_profile(Fraction(9), Fraction(0), 1) == (True,)
    assert two_adic_square_profile(Fraction(3), Fraction(0), 1) == (False,)


def test_exact_global_square_test():
    assert is_square_in_quadratic_field(Fraction(6), Fraction(4), 2)
    assert not is_square_in_quadratic_field(Fraction(2), Fraction(1), 2)
    assert is_square_in_quadratic_field(Fraction(-4), Fraction(0), -1)  # (2i)^2
    assert is_square_in_quadratic_field(Fraction(9), Fraction(0), 5)
    assert not is_square_in_quadratic_field(Fraction(3), Fraction(0), 5)
