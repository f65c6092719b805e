"""Least modulus applications of the character construction.

For a prime p and a prime l: the least N with p outside the l-th powers
of the unit group mod N, optionally requiring l^r | phi(N).  Both walk
N = 2, 3, ... and test phi(N) first.  On the N that pass, p is an l-th
power exactly when gcd(l, o_j) divides dlog_j(p) on every canonical
generator of (Z/N)^*, of order o_j, and the l-th powers number
phi(N) / prod gcd(l, o_j).  The character-theoretic cross-checks and the
enumeration from the definitions live in the test suite.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .core_arith import dlog_units, factor, is_prime, unit_orders
from .errors import ValidationError


class PowerResidueAnswer(
    namedtuple("PowerResidueAnswer", "modulus phi power_count class_order")
):
    """The least modulus plus its certificate data."""

    __slots__ = ()


def _phi(n: int) -> int:
    return math.prod(q ** (e - 1) * (q - 1) for q, e in factor(n).factors)


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
        if math.gcd(p, n) == 1 and (phi := _phi(n)) % l**r == 0:
            gs = [math.gcd(l, o) for q, e in factor(n).factors for o in unit_orders(q, e)]
            if any(d % g for d, g in zip(dlog_units(n, p), gs)):
                # (Z/n)*/(Z/n)*^l has exponent l, a prime, so p's class has order l
                return PowerResidueAnswer(n, phi, phi // math.prod(gs), l)
        n += 1
