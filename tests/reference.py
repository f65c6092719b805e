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
from grunwald.core_arith import Place, components, factor, unit_group
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
        slots = [s for c in components(N) for s in primitive_slots(c, mu)]
    else:
        slots = [range(0, mu, mu // math.gcd(mu, o)) for o in orders]
    for combo in itertools.product(*slots):
        yield DirichletCharacter(N, mu, combo)


def ratio_c_decile_maxima(records, max_conductor: int) -> list[float]:
    """Max ratio_c per conductor decile (flagged records ignored)."""
    out = [0.0] * 10
    for rec in records:
        if rec.cap_exceeded:
            continue
        d = min(9, (rec.conductor - 1) * 10 // max_conductor)
        out[d] = max(out[d], rec.ratio_c)
    return out
