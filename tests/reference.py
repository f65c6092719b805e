"""Reference implementations that tests check `grunwald` against.

None of these runs in the package: each is the independent side of a
comparison, or a check the tests apply to the package's answers.
"""

import itertools
import math
from fractions import Fraction

from grunwald.characters import (
    DirichletCharacter,
    conductor,
    evaluate_local,
    local_component,
    primitive_slots,
)
from grunwald.core_arith import Place, components, dlog_units, factor, unit_group
from grunwald.errors import ValidationError


def verify_product_formula(chi: DirichletCharacter, x: Fraction) -> bool:
    """Check that the local values of x sum to zero (chi trivial on Q^*)."""
    x = Fraction(x)
    if x == 0:
        raise ValidationError("product formula at zero")
    primes = {p for p, _ in conductor(chi).finite_part.factors}
    primes |= {p for p, _ in factor(abs(x.numerator)).factors}
    primes |= {p for p, _ in factor(x.denominator).factors}
    total = evaluate_local(local_component(chi, Place(None)), x)
    for p in sorted(primes):
        total += evaluate_local(local_component(chi, Place(p)), x)
    return total % chi.exponent_modulus == 0


def iter_characters(N: int, exponent: int | None = None, primitive_only: bool = False):
    """All characters mod N of exponent dividing `exponent`, in lex order.

    exponent None means every character (exponent lcm of the generator
    orders).  With primitive_only, only those of conductor exactly N,
    taken from `characters.primitive_slots`.
    """
    orders = unit_group(N).orders
    mu = exponent if exponent is not None else math.lcm(1, *orders)
    if primitive_only:
        slots = [s for c in components(N) for s in primitive_slots(c.prime, c.exponent, mu)]
    else:
        slots = [range(0, mu, mu // math.gcd(mu, o)) for o in orders]
    for combo in itertools.product(*slots):
        yield DirichletCharacter(N, mu, combo)


def unit_row_system(instance, M: int):
    """(rows, rhs): linear constraints mod mu = instance.m on every slot of
    a character mod M, the system the solver's free-slot one is checked
    against.  One order row per generator; per prescribed place, one unit
    row pinning each slot of M's component at that place to the inverse
    of the prescribed unit part (-evaluate_local on the generator), then
    one row for the place's uniformizer value, resp. sign, on the discrete
    logs of p, resp. -1, over the other components."""
    mu = instance.m
    comps = components(M)
    orders = unit_group(M).orders
    n = len(orders)
    rows, rhs = [], []
    for i, o in enumerate(orders):
        row = [0] * n
        row[i] = o % mu
        rows.append(row)
        rhs.append(0)
    for psi in instance.local_characters:
        if psi.place.is_real:
            x, want = -1, psi.sign_exponent * (mu // 2) % mu
        else:
            x, want = psi.place.prime, psi.uniformizer_exponent % mu
        row = [0] * n
        for c in comps:
            if c.prime == x:
                for h, g in enumerate(c.local_generators):
                    unit = [0] * n
                    unit[c.offset + h] = 1
                    rows.append(unit)
                    rhs.append(-evaluate_local(psi, Fraction(g)) % mu)
                continue
            for h, e in enumerate(dlog_units(c.prime_power, x)):
                row[c.offset + h] = e % mu
        rows.append(row)
        rhs.append(want)
    return rows, rhs


def ratio_c_decile_maxima(records, max_conductor: int) -> list[float]:
    """Max ratio_c per conductor decile (flagged records ignored)."""
    out = [0.0] * 10
    for rec in records:
        if rec.cap_exceeded:
            continue
        d = min(9, (rec.conductor - 1) * 10 // max_conductor)
        out[d] = max(out[d], rec.ratio_c)
    return out
