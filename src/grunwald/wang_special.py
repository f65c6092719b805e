"""Detection of the special case in the Grunwald-Wang theorem.

The base field is Q or a quadratic field Q(sqrt d).  A report says whether
the special case occurs for a given exponent m and place set S, and if so
exhibits the distinguished element a0 whose coset measures the failure:
a0 = (2 + eta)^{m/2} where eta generates the maximal real 2-power
cyclotomic subfield (eta = 0 over Q, eta = sqrt 2 over Q(sqrt 2)).  All
the special case reads from the field (s, condition (b) and the places
S0) is a closed form in d, proved in `special_case`.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .core_arith import CheckedRecord, Place, factor, valuation
from .errors import ValidationError


def _require_squarefree(d: int) -> None:
    if d in (0, 1):
        raise ValidationError(f"d must be squarefree, not 0 or 1: {d}")
    if any(e > 1 for _, e in factor(abs(d)).factors):
        raise ValidationError(f"d not squarefree: {d}")


class FieldDescriptor(CheckedRecord, namedtuple("FieldDescriptor", "d", defaults=(1,))):
    """Q (d = 1) or the quadratic field Q(sqrt d) for squarefree d."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.d != 1:
            _require_squarefree(self.d)
        return self

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


class SpecialCaseReport(
    namedtuple("SpecialCaseReport", "occurs s a0 a0_coords S0 failed_condition")
):
    __slots__ = ()


def _power_coords(x0: int, x1: int, d: int, n: int) -> tuple[Fraction, Fraction]:
    a, b = 1, 0
    for _ in range(n):
        a, b = a * x0 + b * x1 * d, a * x1 + b * x0
    return Fraction(a), Fraction(b)


_TWO = frozenset({Place(2)})


def special_case(field: FieldDescriptor, m: int, S) -> SpecialCaseReport:
    """Decide whether exponent m is special for the place set S.

    The special case needs all of: (b) -1 and +-(2 + eta) are nonsquares
    in the field, (c) 2^{s+1} divides m, (d) every place above 2 where
    those elements stay locally nonsquare (the set S0) already lies in S.
    Over Q(sqrt d), with d = 1 for Q, (b) and S0 depend on d alone:

    - (b) holds iff d is neither -1 nor -2.  A rational x is a square in
      Q(sqrt d) iff x or d*x is a rational square, as (a + b sqrt d)^2 is
      rational only when ab = 0.  So for s = 2 the elements -1, 2, -2 are
      squares only for d = -1, 2, -2, and d = 2 has s = 3.  Over
      Q(sqrt 2), 2 +- sqrt 2 has norm 2, no rational square.
    - S0 is empty iff d = 7 (mod 8), or d = 2d' != 2 with d' = +-1
      (mod 8); otherwise S0 = {2}.  A 2-adic unit is a square iff it is
      1 mod 8, so -1, 2 and -2 are nonsquares in Q_2: that settles Q and
      every split d = 1 (mod 8).  In a nonsplit Q_2(sqrt d) a rational x
      is a square iff x or d*x is a square in Q_2, and of -d, 2d, -2d
      only -d (d odd) or +-2d = +-4d' (d even) can be.  Over Q(sqrt 2),
      -1 stays a nonsquare (-1, -2 are nonsquares in Q_2) and
      2 +- sqrt 2 has norm 2, no square in Q_2.
    """
    if m < 1:
        raise ValidationError(f"bad exponent {m}")
    d = field.d
    s = s_invariant(field)
    empty = d % 8 == 7 or (d % 2 == 0 and d != 2 and d // 2 % 8 in (1, 7))
    S0 = frozenset() if empty else _TWO

    failed = None
    if d in (-1, -2):
        failed = "b"
    elif valuation(m, 2) <= s:
        failed = "c"
    elif not S0 <= frozenset(S):
        failed = "d"
    if failed is not None:
        return SpecialCaseReport(False, s, None, None, S0, failed)

    x0, x1 = _power_coords(2, 1 if d == 2 else 0, d, m // 2)
    if x1 == 0:
        return SpecialCaseReport(True, s, x0, None, S0, None)
    return SpecialCaseReport(True, s, None, (x0, x1), S0, None)
