"""Finite-order characters of completions of Q and Dirichlet characters.

Values are stored as zeta-exponents: a character value exp(2*pi*i*t/m) is
represented by the residue t mod m, so all arithmetic stays exact.  The
local-global dictionary follows one fixed normalization: at a ramified
prime the local character inverts the CRT factor on units, and the value
on a uniformizer p collects the complementary CRT factors at p.  That
convention is pinned down by the product-formula tests; flipping it would
flip the sign in three places: the unit exponents and the uniformizer sum
in local_component below, and the fixed slots of solver._prescribed_block
(-psi(g) on each generator g), which both solvers read.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .core_arith import (
    CheckedRecord,
    FactoredInteger,
    Place,
    components,
    dlog_units,
    unit_group,
    unit_orders,
    unit_residue,
    valuation,
    valuation_rational,
)
from .errors import ValidationError


class CycleValue(namedtuple("CycleValue", "finite_part real_bit")):
    """A formal cycle of Q: a finite part (a FactoredInteger) and a
    real-place bit."""

    __slots__ = ()

    @property
    def norm(self) -> int:
        return self.finite_part.value

    def __str__(self) -> str:
        text = str(self.finite_part)
        return text + "*infinity" if self.real_bit else text


def _lift(p: int, j: int) -> int:
    """Generator j of (Z/p^k)^* reaches level v_p(order of its value) plus
    this: 2 on the 5-generator mod 2^k, 1 on every other."""
    return 2 if p == 2 and j == 1 else 1


def _slice_conductor_exponent(p: int, exps: tuple[int, ...], m: int) -> int:
    """Conductor exponent of the character with the given value exponents
    on the canonical generators of (Z/p^k)^*: the largest level of a
    nonzero value, which is the last one's, since mod 2^k the sign
    generator stops at level 2 and the 5-generator starts there."""
    for j in range(len(exps) - 1, -1, -1):
        t = exps[j] % m
        if t:
            return valuation(m // math.gcd(m, t), p) + _lift(p, j)
    return 0


def primitive_slots(p: int, k: int, mu: int) -> list[list[int]]:
    """Per-generator exponent choices, each ascending, whose product is
    exactly the exponent-mu characters of (Z/p^k)^* with conductor
    exponent k, in lex order.

    Generator j of order o takes c * (mu / g), g = gcd(mu, o), 0 <= c < g,
    a value of order g / gcd(g, c).  Only the last generator reaches level
    k (mod 2^k the sign generator stops at 2), so the others are free and
    the last keeps the c != 0 whose order has p-part p^(k - lift).  Since
    v_p(g) <= k - lift, those are the c prime to p when p^(k - lift) | g.
    Mod 2 nothing is primitive: one empty slot.
    """
    orders = unit_orders(p, k)
    if not orders:
        return [[]]
    *free, last = orders
    slots = [[c * (mu // g) for c in range(g)] for g in (math.gcd(mu, o) for o in free)]
    g = math.gcd(mu, last)
    keep = range(1, g) if g % p ** (k - _lift(p, len(free))) == 0 else ()
    slots.append([c * (mu // g) for c in keep if c % p])
    return slots


def _minimize_unit_part(
    p: int, k: int, exps: tuple[int, ...], m: int
) -> tuple[int, tuple[int, ...]]:
    """(k', exps') for the exponent-m character of (Z/p^k)^* with the given
    exponents: its conductor exponent k' and its exponents mod p^k'."""
    kp = _slice_conductor_exponent(p, exps, m)
    if kp == k:
        return k, tuple(t % m for t in exps)
    if kp == 0:
        return 0, ()
    new = []
    for g in components(p**kp)[0].local_generators:
        vec = dlog_units(p**k, g)
        new.append(sum(t * e for t, e in zip(exps, vec)) % m)
    return kp, tuple(new)


def _reduced(t: int, m: int) -> tuple[int, int]:
    """t/m mod 1 in lowest terms, as (numerator, denominator)."""
    t %= m
    g = math.gcd(t, m)
    return t // g, m // g


class LocalCharacter(
    namedtuple(
        "LocalCharacter",
        "place exponent_modulus conductor_exponent unit_exponents"
        " uniformizer_exponent sign_exponent",
    )
):
    """Finite-order character of Q_p^* or R^*, of exponent dividing
    exponent_modulus, with minimal conductor exponent.

    Equality is scale invariant: the same character written with a larger
    exponent modulus compares equal, each value exponent t read as t/m mod
    1, a reduced (numerator, denominator) pair.  `__ne__` is spelled out,
    since the tuple's own would compare the raw fields.
    """

    __slots__ = ()

    def _key(self):
        m = self.exponent_modulus
        if self.place.is_real:
            return (None, self.sign_exponent % 2)
        return (
            self.place.prime,
            self.conductor_exponent,
            tuple(_reduced(t, m) for t in self.unit_exponents),
            _reduced(self.uniformizer_exponent, m),
        )

    def __eq__(self, other):
        if not isinstance(other, LocalCharacter):
            return NotImplemented
        return self._key() == other._key()

    def __ne__(self, other):
        if not isinstance(other, LocalCharacter):
            return NotImplemented
        return self._key() != other._key()

    def __hash__(self):
        return hash(self._key())


def local_character(
    place: Place,
    m: int,
    conductor_exponent: int = 0,
    unit_exponents: tuple[int, ...] = (),
    uniformizer_exponent: int = 0,
    sign_exponent: int = 0,
) -> LocalCharacter:
    """Build and normalize a local character (conductor exponent minimized)."""
    if m < 1:
        raise ValidationError(f"bad exponent modulus {m}")
    if place.is_real:
        sign = sign_exponent % 2
        if sign and m % 2:
            raise ValidationError("sign character needs an even exponent modulus")
        if tuple(unit_exponents) or uniformizer_exponent:
            raise ValidationError("real place carries only a sign")
        return LocalCharacter(place, m, sign, (), 0, sign)
    if sign_exponent:
        raise ValidationError("sign exponent only applies to the real place")
    k = conductor_exponent
    if k < 0:
        raise ValidationError(f"bad conductor exponent {k}")
    p = place.prime
    exps = tuple(t % m for t in unit_exponents)
    orders = unit_orders(p, k)
    if len(exps) != len(orders):
        raise ValidationError(
            f"expected {len(orders)} unit exponents mod {p}^{k}, got {len(exps)}"
        )
    for t, o in zip(exps, orders):
        if t * o % m:
            raise ValidationError("unit exponents incompatible with generator orders")
    k, exps = _minimize_unit_part(p, k, exps, m)
    return LocalCharacter(place, m, k, exps, uniformizer_exponent % m, 0)


def unramified_local(p: int, m: int, value_exponent: int) -> LocalCharacter:
    return local_character(Place(p), m, 0, (), value_exponent)


def sign_local(m: int, sign_exponent: int) -> LocalCharacter:
    return local_character(Place(None), m, 0, (), 0, sign_exponent)


class DirichletCharacter(
    CheckedRecord, namedtuple("DirichletCharacter", "modulus exponent_modulus exponents")
):
    """Character of (Z/modulus)^* as exponents on the canonical generators."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        orders = unit_group(self.modulus).orders
        if len(self.exponents) != len(orders):
            raise ValidationError(
                f"expected {len(orders)} exponents mod {self.modulus}, "
                f"got {len(self.exponents)}"
            )
        for t, o in zip(self.exponents, orders):
            if not 0 <= t < self.exponent_modulus:
                raise ValidationError("exponents must be reduced")
            if t * o % self.exponent_modulus:
                raise ValidationError(
                    "exponents incompatible with unit-group orders"
                )
        return self


def make_dirichlet(N: int, exponents, m: int) -> DirichletCharacter:
    if m < 1:
        raise ValidationError(f"bad exponent modulus {m}")
    return DirichletCharacter(N, m, tuple(t % m for t in exponents))


def evaluate(chi: DirichletCharacter, n: int) -> int | None:
    """Zeta-exponent of chi(n), or None for the extended-by-zero values."""
    if math.gcd(n, chi.modulus) != 1:
        return None
    vec = dlog_units(chi.modulus, n)
    return sum(t * e for t, e in zip(chi.exponents, vec)) % chi.exponent_modulus


def character_order(chi: DirichletCharacter) -> int:
    g = chi.exponent_modulus
    for t in chi.exponents:
        g = math.gcd(g, t)
    return chi.exponent_modulus // g


def conductor_exponents(chi: DirichletCharacter) -> tuple[tuple[int, int], ...]:
    """Minimal (prime, exponent) pairs for the cycle through which chi factors."""
    out = []
    for c in components(chi.modulus):
        sl = chi.exponents[c.offset : c.offset + len(c.orders)]
        kp = _slice_conductor_exponent(c.prime, sl, chi.exponent_modulus)
        if kp:
            out.append((c.prime, kp))
    return tuple(out)


def conductor(chi: DirichletCharacter) -> CycleValue:
    pairs = conductor_exponents(chi)
    value = math.prod(p**k for p, k in pairs)
    bit = 0
    if chi.modulus > 2:
        bit = 0 if evaluate(chi, chi.modulus - 1) == 0 else 1
    return CycleValue(FactoredInteger(value, pairs), bit)


def primitivize(chi: DirichletCharacter) -> DirichletCharacter:
    """The primitive character inducing chi (same exponent modulus): each
    CRT component restricted to its conductor by _minimize_unit_part."""
    f, exps = 1, []
    for c in components(chi.modulus):
        sl = chi.exponents[c.offset : c.offset + len(c.orders)]
        kp, new = _minimize_unit_part(c.prime, c.exponent, sl, chi.exponent_modulus)
        f *= c.prime**kp
        exps.extend(new)
    return DirichletCharacter(f, chi.exponent_modulus, tuple(exps))


def local_component(chi: DirichletCharacter, v: Place) -> LocalCharacter:
    """The local component of the idele-class character attached to chi."""
    m = chi.exponent_modulus
    if v.is_real:
        bit = conductor(chi).real_bit
        return LocalCharacter(v, m, bit, (), 0, bit)
    p = v.prime
    comps = components(chi.modulus)
    mine = None
    for c in comps:
        if c.prime == p:
            mine = c
            break
    if mine is None:
        return local_character(v, m, 0, (), evaluate(chi, p))
    sl = chi.exponents[mine.offset : mine.offset + len(mine.orders)]
    unit_exps = tuple((-t) % m for t in sl)
    unif = 0
    for c in comps:
        if c.prime == p:
            continue
        vec = dlog_units(c.prime_power, p)
        csl = chi.exponents[c.offset : c.offset + len(c.orders)]
        unif += sum(t * e for t, e in zip(csl, vec))
    return local_character(v, m, mine.exponent, unit_exps, unif % m)


def evaluate_local(chi_v: LocalCharacter, x: Fraction) -> int:
    """Zeta-exponent of the local character at a nonzero rational x."""
    x = Fraction(x)
    if x == 0:
        raise ValidationError("local evaluation at zero")
    m = chi_v.exponent_modulus
    if chi_v.place.is_real:
        return chi_v.sign_exponent * (m // 2) % m if x < 0 else 0
    p = chi_v.place.prime
    a = valuation_rational(x, p)
    total = a * chi_v.uniformizer_exponent
    k = chi_v.conductor_exponent
    if k:
        u = unit_residue(x, p, k)
        vec = dlog_units(p**k, u)
        total += sum(t * e for t, e in zip(chi_v.unit_exponents, vec))
    return total % m
