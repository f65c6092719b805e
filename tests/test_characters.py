"""Dirichlet characters: values, conductors, local components.

The conductor oracle is direct: the smallest f | N such that the
character is constant on residue classes mod f.  Everything else leans on
multiplicativity and the global product formula.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grunwald import (
    DirichletCharacter,
    character_order,
    conductor,
    evaluate,
    evaluate_local,
    local_character,
    local_component,
    make_dirichlet,
    primitivize,
    sign_local,
    unramified_local,
)
from grunwald.characters import (
    LocalCharacter,
    _slice_conductor_exponent,
    conductor_levels,
    primitive_slots,
)
from grunwald.core_arith import Place, components, primes_stream, unit_group
from grunwald.errors import ValidationError
from reference import iter_characters, verify_product_formula


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def brute_conductor(chi) -> int:
    """Smallest f | N with chi(a) = chi(b) whenever a = b mod f; f = N
    always qualifies, so the proper divisors are tried, each until a
    residue class takes two values."""
    N = chi.modulus
    units = [a for a in range(1, N + 1) if math.gcd(a, N) == 1]
    for f in divisors(N)[:-1]:
        seen: dict[int, int] = {}
        for a in units:
            if seen.setdefault(a % f, v := evaluate(chi, a)) != v:
                break
        else:
            return f
    return N


@pytest.mark.parametrize("N", list(range(1, 61)) + [72, 80, 90, 100, 125, 128, 243, 256])
def test_conductor_matches_brute(N):
    for chi in iter_characters(N):
        assert conductor(chi).finite_part.value == brute_conductor(chi), chi


@pytest.mark.parametrize("N", list(range(1, 61)) + [72, 80, 90, 100])
def test_character_count(N):
    ug = unit_group(N)
    assert sum(1 for _ in iter_characters(N)) == math.prod(ug.orders, start=1)


def brute_primitive_count(N):
    # inclusion-exclusion over induced characters: #primitive(N) =
    # #characters(N) - sum over proper divisors of #primitive(d)
    memo = {}

    def count(n):
        if n not in memo:
            total = math.prod(unit_group(n).orders, start=1)
            memo[n] = total - sum(count(d) for d in divisors(n)[:-1])
        return memo[n]

    return count(N)


@pytest.mark.parametrize("N", [1, 3, 4, 5, 8, 9, 12, 16, 24, 40, 45, 100])
def test_primitive_count(N):
    got = sum(1 for _ in iter_characters(N, primitive_only=True))
    assert got == brute_primitive_count(N)


def reference_primitive_slices(comp, mu):
    """Every exponent-mu slice of the component, kept when its conductor
    exponent is exactly the component's (the full product, filtered)."""
    slots = [range(0, mu, mu // math.gcd(mu, o)) for o in comp.orders]
    return [
        sl
        for sl in itertools.product(*slots)
        if _slice_conductor_exponent(comp.prime, sl, mu) == comp.exponent
    ]


def test_primitive_slots_match_conductor_filter():
    seen = set()
    for N in range(1, 3001):
        for c in components(N):
            if c.prime_power in seen:
                continue  # the slots depend on p^k and mu only
            seen.add(c.prime_power)
            lcm = math.lcm(1, *c.orders)
            for mu in (1, 2, 3, 4, 5, 8, 9, 16, 25, 27, 32, lcm, 2 * lcm):
                slots = primitive_slots(c.prime, c.exponent, mu)
                assert len(slots) == max(1, len(c.orders)), (c, mu)
                assert all(s == sorted(s) for s in slots), (c, mu)
                got = list(itertools.product(*slots))
                assert got == reference_primitive_slices(c, mu), (c.prime_power, mu)


def test_primitive_slots_edge_cases():
    # N = 1: one empty character; 2 and 2 * odd: no primitive character
    assert [chi.exponents for chi in iter_characters(1, primitive_only=True)] == [()]
    assert primitive_slots(2, 1, 4) == [[]]
    for N in (2, 6, 10, 30, 90, 398):
        assert list(iter_characters(N, primitive_only=True)) == []
    # mu coprime to p - 1 (and to p when k > 1): nothing of exact conductor p^k
    assert primitive_slots(7, 1, 5) == [[]]
    assert primitive_slots(7, 2, 5) == [[]]
    assert primitive_slots(7, 2, 3) == [[]]  # needs 7 | mu
    assert primitive_slots(7, 2, 21) == [[c for c in range(1, 21) if c % 7]]
    # 2^k, k >= 3: free sign slot, odd exponent on the 5-generator
    assert primitive_slots(2, 4, 4) == [[0, 2], [1, 3]]
    assert primitive_slots(2, 4, 2) == [[0, 1], []]


def test_conductor_levels_match_brute_conductor():
    # the k at which some character mod p^k of exponent dividing mu has
    # conductor p^k by the definition, at composite mu too; the last
    # characters in lex order take the largest values, so a primitive
    # one, when there is one, comes early in the reversed walk
    for p in itertools.takewhile(lambda p: p <= 2000, primes_stream()):
        k = 1
        while p**k <= 2000:
            for mu in (2, 3, 4, 5, 6, 8, 9, 12, 21, 24, 60, 120):
                chars = list(iter_characters(p**k, mu))
                want = any(brute_conductor(chi) == p**k for chi in reversed(chars))
                assert (k in conductor_levels(p, mu)) == want, (p, k, mu)
                assert all(primitive_slots(p, k, mu)) == want, (p, k, mu)
            k += 1
    assert conductor_levels(2, 120) == range(2, 6)
    assert conductor_levels(3, 60) == range(1, 3)
    assert conductor_levels(7, 5) == range(0) == conductor_levels(2, 21)


@pytest.mark.parametrize("mu", [None, 2, 3, 4, 6, 8, 9, 12])
def test_iter_characters_primitive_matches_conductor_filter(mu):
    for N in range(1, 121):
        want = [chi for chi in iter_characters(N, mu) if conductor(chi).norm == N]
        assert list(iter_characters(N, mu, primitive_only=True)) == want, N


@given(st.integers(min_value=1, max_value=400), st.data())
@settings(max_examples=60)
def test_multiplicative(N, data):
    chars = list(iter_characters(N))
    chi = chars[data.draw(st.integers(min_value=0, max_value=len(chars) - 1))]
    a = data.draw(st.integers(min_value=1, max_value=10**6))
    b = data.draw(st.integers(min_value=1, max_value=10**6))
    va, vb, vab = evaluate(chi, a), evaluate(chi, b), evaluate(chi, a * b)
    if math.gcd(a * b, N) > 1:
        assert vab is None
    else:
        assert vab == (va + vb) % chi.exponent_modulus


def test_evaluate_trivial_and_non_unit():
    chi = make_dirichlet(12, (0, 0), 1)
    assert evaluate(chi, 35) == 0
    assert evaluate(chi, 4) is None
    assert evaluate(chi, -1) == 0


def test_character_order_and_pow():
    chi = make_dirichlet(5, (1,), 4)  # injective on (Z/5)*, order 4
    assert character_order(chi) == 4
    sq = make_dirichlet(5, (2,), 4)  # chi^2
    assert character_order(sq) == 2
    assert evaluate(sq, 2) == (2 * evaluate(chi, 2)) % 4
    assert character_order(make_dirichlet(5, (4,), 4)) == 1  # chi^4


def test_primitivize_agrees_with_original():
    for N in (45, 60, 72, 100, 96, 378):
        for chi in iter_characters(N):
            prim = primitivize(chi)
            assert prim.modulus == conductor(chi).finite_part.value
            for a in range(1, N):
                if math.gcd(a, N) == 1:
                    assert evaluate(prim, a) == evaluate(chi, a)
            # primitive means conductor equals modulus
            assert brute_conductor(prim) == prim.modulus


@given(st.integers(min_value=1, max_value=300), st.data())
@settings(max_examples=40)
def test_product_formula_random(N, data):
    chars = list(iter_characters(N))
    chi = chars[data.draw(st.integers(min_value=0, max_value=len(chars) - 1))]
    num = data.draw(st.integers(min_value=-(10**4), max_value=10**4).filter(bool))
    den = data.draw(st.integers(min_value=1, max_value=10**3))
    assert verify_product_formula(chi, Fraction(num, den))


def test_local_component_unramified():
    chi = make_dirichlet(5, (1,), 4)
    lc = local_component(chi, Place(3))
    assert lc.conductor_exponent == 0
    # unramified value at 3 is chi(3)
    assert lc.uniformizer_exponent == evaluate(chi, 3)
    assert evaluate_local(lc, Fraction(9)) == (2 * evaluate(chi, 3)) % 4


def test_local_component_real():
    chi = make_dirichlet(4, (1,), 2)  # the odd character mod 4
    lc = local_component(chi, Place(None))
    assert lc.sign_exponent == 1
    assert evaluate_local(lc, Fraction(-3)) == 1  # exponent of -1 in += mod 2
    even = make_dirichlet(5, (2,), 4)
    assert local_component(even, Place(None)).sign_exponent == 0


def test_conductor_real_bit():
    odd = make_dirichlet(4, (1,), 2)
    assert str(conductor(odd)) == "2^2*infinity"
    assert conductor(odd).norm == 4
    even = make_dirichlet(8, (0, 1), 2)  # chi_8: even
    assert str(conductor(even)) == "2^3"
    assert repr(conductor(odd)) == (
        "CycleValue(finite_part=FactoredInteger(value=4, factors=((2, 2),)), real_bit=1)"
    )
    with pytest.raises(AttributeError):
        conductor(odd).real_bit = 0


def test_local_character_validation():
    with pytest.raises(ValidationError):
        local_character(Place(5), 4, conductor_exponent=1, unit_exponents=(1, 2))
    with pytest.raises(ValidationError):
        local_character(Place(5), 3, conductor_exponent=1, unit_exponents=(1,))
    with pytest.raises(ValidationError):
        sign_local(3, 1)  # odd exponent modulus cannot see the sign
    # scale invariance of equality: same character at doubled modulus
    a = unramified_local(7, 4, 1)
    b = unramified_local(7, 8, 2)
    assert a == b and hash(a) == hash(b)
    assert not a != b  # on the scale-invariant key too, not the raw fields
    assert a != unramified_local(7, 8, 1)
    assert not a == unramified_local(7, 8, 1)
    assert repr(a) == (
        "LocalCharacter(place=Place(prime=7), exponent_modulus=4, conductor_exponent=0,"
        " unit_exponents=(), uniformizer_exponent=1, sign_exponent=0)"
    )
    with pytest.raises(AttributeError):
        a.uniformizer_exponent = 2


def test_local_data_reject_malformed_input():
    five, real = Place(5), Place(None)
    cases = [
        (lambda: local_character(five, 0), "bad exponent modulus 0"),
        (lambda: local_character(real, 2, 0, (1,)), "real place carries only a sign"),
        (lambda: local_character(real, 2, 0, (), 1), "real place carries only a sign"),
        (lambda: local_character(five, 2, 0, (), 0, 1), "sign exponent only applies to the real place"),
        (lambda: local_character(five, 2, -1), "bad conductor exponent -1"),
        (lambda: make_dirichlet(5, (1,), 0), "bad exponent modulus 0"),
        (lambda: evaluate_local(unramified_local(5, 2, 1), Fraction(0)), "local evaluation at zero"),
    ]
    for build, message in cases:
        with pytest.raises(ValidationError, match=f"^{message}$"):
            build()


def test_local_character_equality_is_scale_invariant():
    # one ramified character written at m, 2m and 4m is one element of a set
    for m in (2, 3, 4, 8, 9):
        for t in range(m):
            scaled = [
                local_character(Place(7), m * s, 1, (t * (m // math.gcd(6, m)) % m * s,), 5 * s)
                for s in (1, 2, 4)
            ]
            a, b, c = scaled
            assert a == b == c and hash(a) == hash(b) == hash(c), (m, t)
            assert not (a != b or b != c)
            assert len(set(scaled)) == 1
    signs = [sign_local(2 * s, 1) for s in (1, 2, 4)]
    assert len(set(signs)) == 1 and signs[0] != sign_local(4, 0)
    # a value exponent t and t + m are one value
    assert unramified_local(7, 4, 1) == LocalCharacter(Place(7), 4, 0, (), 5, 0)
    assert len({unramified_local(7, 8, 2), unramified_local(7, 8, 6)}) == 2


def test_local_character_conductor_is_minimized():
    # exponents that factor through a smaller level get trimmed
    psi = local_character(Place(3), 2, conductor_exponent=2, unit_exponents=(3,))
    assert psi.conductor_exponent == 1
    triv = local_character(Place(3), 2, conductor_exponent=2, unit_exponents=(0,))
    assert triv.conductor_exponent == 0


def test_make_dirichlet_validation():
    with pytest.raises(ValidationError):
        make_dirichlet(5, (1, 2), 4)  # wrong vector length
    with pytest.raises(ValidationError):
        make_dirichlet(5, (1,), 3)  # 4*1 not divisible by 3
    with pytest.raises(ValidationError, match="^exponents must be reduced$"):
        DirichletCharacter(5, 4, (7,))  # not reduced mod 4
    with pytest.raises(ValidationError, match="^exponents must be reduced$"):
        DirichletCharacter(modulus=5, exponent_modulus=4, exponents=(-1,))
    chi = make_dirichlet(5, (1,), 4)
    assert repr(chi) == "DirichletCharacter(modulus=5, exponent_modulus=4, exponents=(1,))"
    with pytest.raises(AttributeError):
        chi.exponents = (2,)
    # replacing a field builds through the constructor, so it is checked too
    with pytest.raises(ValidationError, match="^exponents must be reduced$"):
        chi._replace(exponents=(7,))
    with pytest.raises(ValidationError, match="^expected 2 exponents mod 8, got 1$"):
        chi._replace(modulus=8)
    assert chi._replace(exponents=(2,)) == make_dirichlet(5, (2,), 4)
