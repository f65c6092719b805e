"""Exact integer and p-adic primitives.

Primality, factorization, unit groups of residue rings, discrete
logarithms, power-residue tables, and the p-adic valuation and unit
residue of a rational.  Everything is exact integer/rational arithmetic;
no floating point.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .errors import (
    InternalContradictionError,
    NonUnitError,
    SearchCapError,
    ValidationError,
)

# Largest cofactor that factor leaves, after trial division, to Pollard rho.
FACTOR_LIMIT = 1 << 96

# Entries kept by each of the is_prime, factor, components and dlog_units
# caches.  The bound keeps a long-running caller from growing them without
# limit; no benchmark workload comes near it.  After one pass of every
# operation of a workload (seed 5) they hold, in that order: construct 39,
# 224, 186 and 445 entries; oracle 16, 54, 29 and 63; scan 168, 999, 998
# and 1,464; cli-mix 37, 304, 254 and 306.
_CACHE_SIZE = 1 << 14

# Miller-Rabin witnesses.  The first thirteen primes (so these eighteen) are
# a proven deterministic set below psi_13 (Sorenson & Webster, Math. Comp. 86
# (2017)); above it a failing base still proves n composite.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)
_PSI_13 = 3317044064679887385961981


@lru_cache(maxsize=_CACHE_SIZE)
def is_prime(n: int) -> bool:
    """Miller-Rabin on _MR_WITNESSES, a proof below psi_13 ~ 3.3e24.  An n at
    or above psi_13 that passes every base raises ValidationError (and,
    being raised, is not cached)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _PSI_13:
        raise ValidationError(f"cannot certify {n} prime: it is above psi_13")
    return True


def primes_stream():
    """Yield 2, 3, 5, 7, ... indefinitely (incremental sieve)."""
    yield 2
    sieve: dict[int, int] = {}
    n = 3
    while True:
        p = sieve.pop(n, 0)
        if not p:
            yield n
            sieve[n * n] = n
        else:
            nxt = n + 2 * p
            while nxt in sieve:
                nxt += 2 * p
            sieve[nxt] = p
        n += 2


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of odd composite n (Brent's cycle variant).

    The polynomial offsets are tried in a fixed order, so the returned
    factor is deterministic.
    """
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise InternalContradictionError(f"rho exhausted all offsets on {n}")


_SMALL_PRIMES = tuple(itertools.islice(primes_stream(), 200))


class CheckedRecord:
    """Mixin for a namedtuple record whose constructor checks its fields:
    _make, which the namedtuple's replace method calls, builds through the
    constructor too, where the namedtuple's own would skip the check."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class FactoredInteger(CheckedRecord, namedtuple("FactoredInteger", "value factors")):
    """A positive integer together with its prime factorization: value, and
    factors as sorted (prime, exponent) pairs."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        prod, prev = 1, 1
        for p, e in self.factors:
            if p <= prev or e < 1 or not is_prime(p):
                raise ValidationError(f"bad factorization for {self.value}")
            prev = p
            prod *= p**e
        if self.value < 1 or prod != self.value:
            raise ValidationError(f"factors do not recompose {self.value}")
        return self

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        return "*".join(f"{p}^{e}" if e > 1 else str(p) for p, e in self.factors)


@lru_cache(maxsize=_CACHE_SIZE)
def factor(n: int) -> FactoredInteger:
    if n < 1:
        raise ValidationError(f"factor target out of range: {n}")
    remaining = n
    found: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > remaining:
            break
        while remaining % p == 0:
            found[p] = found.get(p, 0) + 1
            remaining //= p
    if remaining > FACTOR_LIMIT:
        raise ValidationError(f"factor target out of range: {n}")
    if remaining > 1:
        stack = [remaining]
        while stack:
            v = stack.pop()
            if is_prime(v):
                found[v] = found.get(v, 0) + 1
            else:
                d = _pollard_rho(v)
                stack += [d, v // d]
    return FactoredInteger(n, tuple(sorted(found.items())))


def valuation(n: int, p: int) -> int:
    if n == 0:
        raise ValidationError("valuation of zero")
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


class Place(CheckedRecord, namedtuple("Place", "prime", defaults=(None,))):
    """A place of Q: a finite prime, or the real place encoded as prime=None."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.prime is not None and not is_prime(self.prime):
            raise ValidationError(f"not a prime: {self.prime}")
        return self

    @classmethod
    def parse(cls, text: str) -> "Place":
        if text == "infinity":
            return cls(None)
        try:
            value = int(text)
        except ValueError:
            raise ValidationError(f"bad place {text!r}") from None
        return cls(value)

    @property
    def is_real(self) -> bool:
        return self.prime is None

    def sort_key(self) -> tuple[int, int]:
        return (1, 0) if self.prime is None else (0, self.prime)

    def __str__(self) -> str:
        return "infinity" if self.prime is None else str(self.prime)


class UnitGroupStructure(namedtuple("UnitGroupStructure", "orders")):
    """Orders of the canonical generators of (Z/N)^* (see dlog_units)."""

    __slots__ = ()


class UnitComponent(
    namedtuple(
        "UnitComponent", "prime exponent prime_power local_generators orders offset"
    )
):
    """The p-part of (Z/N)^* for one prime power p^k dividing N exactly.

    `local_generators` are its canonical generators as residues mod p^k,
    of the given `orders`; `offset` locates this component's slots in the
    full exponent vector.
    """

    __slots__ = ()


def _primitive_root_mod_pk(p: int, k: int) -> int:
    pk = p**k
    phi = pk // p * (p - 1)
    qs = [q for q, _ in factor(phi).factors]
    g = 2
    while True:
        if g % p and all(pow(g, phi // q, pk) != 1 for q in qs):
            return g
        g += 1


def unit_orders(p: int, k: int) -> tuple[int, ...]:
    """Orders of the canonical generators of (Z/p^k)^*: none mod 1 and 2,
    -1 mod 4, -1 and 5 mod 2^k (k >= 3), a primitive root for odd p."""
    if p**k <= 2:
        return ()
    if p == 2:
        return (2,) if k == 2 else (2, 2 ** (k - 2))
    return (p ** (k - 1) * (p - 1),)


@lru_cache(maxsize=_CACHE_SIZE)
def components(N: int) -> tuple[UnitComponent, ...]:
    out = []
    offset = 0
    for p, k in factor(N).factors:
        pk = p**k
        orders = unit_orders(p, k)
        if p == 2:
            local: tuple[int, ...] = (pk - 1, 5)[: len(orders)]
        else:
            local = (_primitive_root_mod_pk(p, k),)
        out.append(UnitComponent(p, k, pk, local, orders, offset))
        offset += len(local)
    return tuple(out)


def unit_group(N: int) -> UnitGroupStructure:
    return UnitGroupStructure(tuple(o for c in components(N) for o in c.orders))


# Baby steps kept by one BSGS table, so orders up to 2^32.  Every benchmark
# and test order is far below it; a larger one is refused, not allocated.
_BSGS_LIMIT = 1 << 16


@lru_cache(maxsize=512)
def _bsgs_table(g: int, modulus: int, order: int):
    m = math.isqrt(order - 1) + 1 if order > 1 else 1
    if m > _BSGS_LIMIT:
        raise SearchCapError(f"order {order} needs over {_BSGS_LIMIT} BSGS baby steps")
    table: dict[int, int] = {}
    x = 1
    for j in range(m):
        table.setdefault(x, j)
        x = x * g % modulus
    return m, table, pow(g, -m, modulus)


def _bsgs(g: int, x: int, modulus: int, order: int) -> int:
    m, table, giant = _bsgs_table(g, modulus, order)
    y = x % modulus
    for i in range(m + 1):
        j = table.get(y)
        if j is not None:
            return (i * m + j) % order
        y = y * giant % modulus
    raise NonUnitError(f"{x} not in the subgroup of {g} mod {modulus}")


def dlog_units(N: int, x: int) -> tuple[int, ...]:
    """Exponent vector of x on the canonical generators of (Z/N)^*.

    Those are the local generators of components(N), in order, each lifted
    by CRT to the unit mod N that is 1 modulo the other prime powers; the
    vector is read one prime power at a time and never needs the lifts.
    Vectors are cached on (N, x mod N), at most _CACHE_SIZE of them; a
    non-unit raises NonUnitError on every call, since raising caches
    nothing.
    """
    return _dlog_units(N, x % N)


@lru_cache(maxsize=_CACHE_SIZE)
def _dlog_units(N: int, x: int) -> tuple[int, ...]:
    """dlog_units for a residue 0 <= x < N."""
    if N == 1:
        return ()
    if math.gcd(x, N) != 1:
        raise NonUnitError(f"gcd({x}, {N}) != 1")
    out: list[int] = []
    for c in components(N):
        xi = x % c.prime_power
        if c.prime == 2:
            if c.exponent == 1:
                continue
            if c.exponent == 2:
                out.append(0 if xi == 1 else 1)
                continue
            a = 0 if xi % 4 == 1 else 1
            y = (-xi) % c.prime_power if a else xi
            out.append(a)
            out.append(_bsgs(5, y, c.prime_power, c.orders[1]))
        else:
            out.append(_bsgs(c.local_generators[0], xi, c.prime_power, c.orders[0]))
    return tuple(out)


# Tables kept by power_residue_table, each of g <= mu entries.
_RESIDUE_CACHE_SIZE = 1 << 10


@lru_cache(maxsize=_RESIDUE_CACHE_SIZE)
def power_residue_table(q: int, g: int) -> tuple[int, dict[int, int]]:
    """(e, logs) for an odd prime q and g | q - 1, with e = (q - 1) / g.

    x^e mod q is the g-th power-residue symbol of a unit x, and logs maps
    it to dlog(x) mod g on the canonical generator gamma of (Z/q)^*, the
    primitive root components(q) uses: logs is built from zeta = gamma^e,
    of exact order g, so logs[pow(x, e, q)] == dlog_units(q, x)[0] % g.
    The cache holds at most _RESIDUE_CACHE_SIZE tables, so at most
    _RESIDUE_CACHE_SIZE * g entries, g <= mu for every caller.
    """
    e = (q - 1) // g
    zeta = pow(_primitive_root_mod_pk(q, 1), e, q)
    logs: dict[int, int] = {}
    power = 1
    for i in range(g):
        logs[power] = i
        power = power * zeta % q
    return e, logs


def prime_power(m: int) -> tuple[int, int]:
    """Write m = l^r with r >= 1, or raise for non prime powers."""
    if m < 2:
        raise ValidationError(f"not a prime power: {m}")
    pairs = factor(m).factors
    if len(pairs) != 1:
        raise ValidationError(f"not a prime power: {m}")
    return pairs[0]


def valuation_rational(x: Fraction, p: int) -> int:
    x = Fraction(x)
    if x == 0:
        raise ValidationError("valuation of zero")
    num, den = abs(x.numerator), x.denominator
    if num % p == 0:
        return valuation(num, p)
    return -valuation(den, p) if den % p == 0 else 0


def unit_residue(x: Fraction, p: int, k: int) -> int:
    """The unit part x * p^{-v(x)} reduced mod p^k."""
    x = Fraction(x)
    v = valuation_rational(x, p)
    num, den = x.numerator, x.denominator
    if v > 0:
        num //= p**v
    elif v < 0:
        den //= p ** (-v)
    pk = p**k
    return num * pow(den, -1, pk) % pk
