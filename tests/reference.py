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
from grunwald.core_arith import (
    Place,
    components,
    dlog_units,
    factor,
    unit_group,
    unit_residue,
    valuation_rational,
)
from grunwald.errors import ValidationError
from grunwald.wang_special import _require_squarefree


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


def crt_generators(N: int) -> tuple[int, ...]:
    """The canonical generators of (Z/N)^* as residues mod N: each local
    generator of components(N), lifted by CRT to be 1 modulo the
    complementary part, in the order of dlog_units' exponent vector."""
    out = []
    for c in components(N):
        pk = c.prime_power
        cof = N // pk
        if cof == 1:
            out += c.local_generators
        else:
            inv = pow(cof, -1, pk)
            out += ((1 + cof * ((g - 1) * inv % pk)) % N for g in c.local_generators)
    return tuple(out)


def unit_dlog_table(f: int) -> dict[int, tuple[int, ...]]:
    """residue -> exponent vector on the canonical generators, by direct
    enumeration of the unit group (no baby-step giant-step)."""
    generators = crt_generators(f)
    table = {1 % f: (0,) * len(generators)}
    for idx, (g, o) in enumerate(zip(generators, unit_group(f).orders)):
        base = list(table.items())
        x = 1
        for e in range(1, o):
            x = x * g % f
            for res, vec in base:
                w = list(vec)
                w[idx] = e
                table[res * x % f] = tuple(w)
    return table


def ratio_c_decile_maxima(records, max_conductor: int) -> list[float]:
    """Max ratio_c per conductor decile (flagged records ignored)."""
    out = [0.0] * 10
    for rec in records:
        if rec.cap_exceeded:
            continue
        d = min(9, (rec.conductor - 1) * 10 // max_conductor)
        out[d] = max(out[d], rec.ratio_c)
    return out


def is_square_rational(x: Fraction) -> bool:
    x = Fraction(x)
    return x >= 0 and all(math.isqrt(n) ** 2 == n for n in (x.numerator, x.denominator))


def is_square_in_q2(x: Fraction) -> bool:
    x = Fraction(x)
    if x == 0:
        return True
    return valuation_rational(x, 2) % 2 == 0 and unit_residue(x, 2, 3) == 1


def two_adic_square_profile(
    x0: Fraction, x1: Fraction, d: int
) -> tuple[bool, ...]:
    """Squareness of x0 + x1*sqrt(d) in each completion of Q(sqrt d) above 2.

    d = 1 denotes the base field Q (a single place); split d (d = 1 mod 8)
    has two places, every other d one.  Decided for rational elements, and
    for irrational ones at a single place whose norm is not a square in
    Q_2 (the norm of a square is a square).  That covers every element
    special_case tests; any other element raises ValidationError.
    """
    x0, x1 = Fraction(x0), Fraction(x1)
    if d == 1:
        return (is_square_in_q2(x0 + x1),)
    _require_squarefree(d)
    if x0 == 0 and x1 == 0:
        raise ValidationError("square test of zero")
    if x1 == 0:
        if d % 8 == 1:
            r = is_square_in_q2(x0)
            return (r, r)
        return (is_square_in_q2(x0) or is_square_in_q2(x0 * d),)
    if d % 8 != 1 and not is_square_in_q2(x0 * x0 - x1 * x1 * d):
        return (False,)
    raise ValidationError(
        f"2-adic square test of {x0} + {x1}*sqrt({d}) is not implemented"
    )


def is_square_in_quadratic_field(x0: Fraction, x1: Fraction, d: int) -> bool:
    """Exact squareness of x0 + x1*sqrt(d) in the field Q(sqrt d); d=1 means Q."""
    x0, x1 = Fraction(x0), Fraction(x1)
    if d == 1:
        return x0 + x1 >= 0 and is_square_rational(x0 + x1)
    _require_squarefree(d)
    if x1 == 0:
        return is_square_rational(x0) or (x0 != 0 and is_square_rational(x0 / d))
    n = x0 * x0 - x1 * x1 * d
    if n < 0 or not is_square_rational(n):
        return False
    t = Fraction(math.isqrt(n.numerator), math.isqrt(n.denominator))
    return any(
        w != 0 and is_square_rational(w) for w in ((x0 + t) / 2, (x0 - t) / 2)
    )


def wang_field_reference(d: int):
    """(s, condition (b), S0) of Wang's special case over Q(sqrt d), d = 1
    for Q, from the square tests above on -1 and +-(2 + eta_{2^s}):
    s = 3 iff eta_8 = sqrt 2 lies in the field."""
    if is_square_in_quadratic_field(Fraction(2), Fraction(0), d):
        s, eta = 3, Fraction(1)
    else:
        s, eta = 2, Fraction(0)
    elements = ((Fraction(-1), Fraction(0)), (Fraction(2), eta), (Fraction(-2), -eta))
    cond_b = not any(is_square_in_quadratic_field(x0, x1, d) for x0, x1 in elements)
    profiles = [two_adic_square_profile(x0, x1, d) for x0, x1 in elements]
    offending = any(not any(at_place) for at_place in zip(*profiles))
    return s, cond_b, frozenset({Place(2)}) if offending else frozenset()
