"""Effective Grunwald–Wang constructions for Dirichlet characters over Q.

Build characters with prescribed local behaviour at finitely many places,
decide the special case of Wang, measure how small the conductor can be
made, and scan character families for least-nonsplit-prime statistics.
"""

from .characters import (
    CycleValue,
    DirichletCharacter,
    LocalCharacter,
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
from .core_arith import (
    FactoredInteger,
    Place,
    dlog_units,
    factor,
    is_prime,
    primes_stream,
    unit_group,
    valuation,
)
from .errors import (
    GrunwaldError,
    InternalContradictionError,
    NonUnitError,
    NoSolutionBelowCap,
    NoWitnessError,
    SearchCapError,
    ValidationError,
)
from .mult_one import (
    CSV_HEADER,
    PrimeWitness,
    ScanRecord,
    least_nonsplit_prime,
    scan_family,
    write_scan_csv,
)
from .powres import (
    PowerResidueAnswer,
    least_non_lth_power_modulus,
    least_non_lth_power_modulus_with_order,
)
from .solver import (
    BoundReport,
    GrunwaldInstance,
    GrunwaldSolution,
    auxiliary_primes,
    bound_report,
    build_cycle,
    construct,
    instance_from_dict,
    instance_to_dict,
    make_instance,
    obstruction_exponent,
    oracle_minimal,
    p_star_basis,
    solve_character,
)
from .wang_special import (
    FieldDescriptor,
    SpecialCaseReport,
    s_invariant,
    special_case,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
