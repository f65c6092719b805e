"""Detection of the special case in the Grunwald-Wang theorem.

The base field is Q or a quadratic field Q(sqrt d).  A report says whether
the special case occurs for a given exponent m and place set S, and if so
exhibits the distinguished element a0 whose coset measures the failure:
a0 = (2 + eta)^{m/2} where eta generates the maximal real 2-power
cyclotomic subfield (eta = 0 over Q, eta = sqrt 2 over Q(sqrt 2)).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .core_arith import (
    Place,
    _require_squarefree,
    is_square_in_quadratic_field,
    two_adic_square_profile,
    valuation,
)
from .errors import ValidationError


@dataclass(frozen=True)
class FieldDescriptor:
    """Q (d = 1) or the quadratic field Q(sqrt d) for squarefree d."""

    d: int = 1

    def __post_init__(self):
        if self.d != 1:
            _require_squarefree(self.d)

    @staticmethod
    def parse(text: str) -> "FieldDescriptor":
        if text == "Q":
            return FieldDescriptor()
        if text.startswith("Qsqrt:"):
            try:
                d = int(text[6:])
            except ValueError:
                pass
            else:
                _require_squarefree(d)  # Qsqrt:1 is no quadratic field; Q is "Q"
                return FieldDescriptor(d)
        raise ValidationError(f"cannot parse field '{text}'")

    @property
    def is_rational(self) -> bool:
        return self.d == 1

    def __str__(self) -> str:
        return "Q" if self.d == 1 else f"Q(sqrt {self.d})"


def s_invariant(field: FieldDescriptor) -> int:
    """Largest s with zeta + 1/zeta in the field for a 2^s-th root of unity.

    eta_4 = 0 lies in Q, so s >= 2 always; eta_8 = sqrt 2 only enters for
    d = 2, and eta_16 already has degree 4, out of reach of our fields.
    """
    return 3 if field.d == 2 else 2


@dataclass(frozen=True)
class SpecialCaseReport:
    occurs: bool
    s: int
    a0: Fraction | None
    a0_coords: tuple[Fraction, Fraction] | None
    S0: frozenset[Place]
    failed_condition: str | None


def _critical_elements(field: FieldDescriptor, s: int):
    """-1 and +-(2 + eta_{2^s}) as coordinate pairs x0 + x1*sqrt(d)."""
    if s == 2:
        return ((Fraction(-1), Fraction(0)), (Fraction(2), Fraction(0)),
                (Fraction(-2), Fraction(0)))
    return ((Fraction(-1), Fraction(0)), (Fraction(2), Fraction(1)),
            (Fraction(-2), Fraction(-1)))


def _power_coords(x0: Fraction, x1: Fraction, d: int, n: int):
    a, b = Fraction(1), Fraction(0)
    for _ in range(n):
        a, b = a * x0 + b * x1 * d, a * x1 + b * x0
    return a, b


_FIELD_CACHE_SIZE = 64


@lru_cache(maxsize=_FIELD_CACHE_SIZE)
def _field_data(field: FieldDescriptor):
    """The part of special_case that depends on the field alone: s, the
    critical elements, condition (b), and S0 (the places above 2 where
    every critical element stays locally nonsquare)."""
    s = s_invariant(field)
    d = field.d
    elements = _critical_elements(field, s)
    cond_b = all(not is_square_in_quadratic_field(x0, x1, d) for x0, x1 in elements)
    profiles = [two_adic_square_profile(x0, x1, d) for x0, x1 in elements]
    offending = any(
        all(not prof[i] for prof in profiles) for i in range(len(profiles[0]))
    )
    S0 = frozenset({Place(2)}) if offending else frozenset()
    return s, elements, cond_b, S0


def special_case(field: FieldDescriptor, m: int, S) -> SpecialCaseReport:
    """Decide whether exponent m is special for the place set S.

    The special case needs all of: (b) -1 and +-(2 + eta) are nonsquares
    in the field, (c) 2^{s+1} divides m, (d) every place above 2 where
    those elements stay locally nonsquare already lies in S.
    """
    if m < 1:
        raise ValidationError(f"bad exponent {m}")
    s, elements, cond_b, S0 = _field_data(field)
    cond_c = m % 2 == 0 and valuation(m, 2) > s
    cond_d = S0 <= frozenset(S)

    failed = None
    if not cond_b:
        failed = "b"
    elif not cond_c:
        failed = "c"
    elif not cond_d:
        failed = "d"
    if failed is not None:
        return SpecialCaseReport(False, s, None, None, S0, failed)

    x0, x1 = _power_coords(*elements[1], field.d, m // 2)
    if x1 == 0:
        return SpecialCaseReport(True, s, x0, None, S0, None)
    return SpecialCaseReport(True, s, None, (x0, x1), S0, None)
