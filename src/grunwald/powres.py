"""Least modulus applications of the character construction.

For a prime p and a prime l: the least N with p outside the l-th powers
of the unit group mod N, optionally requiring l^r | phi(N).  Both are
decided by direct enumeration; the character-theoretic cross-checks live
in the test suite.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .core_arith import factor, is_prime
from .errors import ValidationError


class PowerResidueAnswer(
    namedtuple("PowerResidueAnswer", "modulus phi power_count class_order")
):
    """The least modulus plus its certificate data."""

    __slots__ = ()


def _phi(n: int) -> int:
    return math.prod(q ** (e - 1) * (q - 1) for q, e in factor(n).factors)


def _lth_powers(n: int, l: int) -> set[int]:
    return {pow(x, l, n) for x in range(1, n) if math.gcd(x, n) == 1}


def least_non_lth_power_modulus(p: int, l: int) -> PowerResidueAnswer:
    """Least N >= 2 with gcd(p, N) = 1 and p not an l-th power mod N."""
    return least_non_lth_power_modulus_with_order(p, l, 0)


def least_non_lth_power_modulus_with_order(p: int, l: int, r: int = 1) -> PowerResidueAnswer:
    """Least N as above with the extra requirement l^r | phi(N)."""
    if not is_prime(p):
        raise ValidationError(f"{p} is not prime")
    if not is_prime(l):
        raise ValidationError(f"{l} is not prime")
    if r < 0:
        raise ValidationError(f"bad order exponent {r}")
    n = 2
    while True:
        if math.gcd(p, n) == 1 and _phi(n) % l**r == 0:
            powers = _lth_powers(n, l)
            if p % n not in powers:
                # (Z/n)*/(Z/n)*^l has exponent l, a prime, so p's class has order l
                return PowerResidueAnswer(n, _phi(n), len(powers), l)
        n += 1
