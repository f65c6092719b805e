"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: validation errors exit 2, exhausted
search caps exit 3, internal contradictions exit 4.
"""

import math


class GrunwaldError(Exception):
    """Base class for package errors."""


class ValidationError(GrunwaldError, ValueError):
    """Malformed input: bad character data, bad instance files, domain errors."""


class NonUnitError(ValidationError):
    """Discrete logarithm requested for a residue that is not a unit."""


class NoWitnessError(ValidationError):
    """A witness was requested for an element that provably has none."""


class SearchCapError(GrunwaldError):
    """A bounded search ran out of budget before reaching its target."""


class NoSolutionBelowCap(SearchCapError):
    """Exhaustive enumeration found no matching character below the cap."""


class InternalContradictionError(GrunwaldError):
    """A state the underlying theorems forbid; indicates a bug, not bad input."""


def check_epsilon(epsilon: float) -> None:
    """Refuse an epsilon the bound shapes N^(1/2 + epsilon) cannot take:
    NaN, +-inf and values <= 0."""
    if not math.isfinite(epsilon):
        raise ValidationError(f"epsilon must be finite, not {epsilon}")
    if epsilon <= 0:
        raise ValidationError("epsilon must be positive")
