"""Least nonsplit prime for a character, and the family-scan harness.

The scan walks every primitive character up to a conductor bound, finds
the least prime outside S where the character is unramified and nontrivial,
and reports that prime against three bound shapes of the analytic
conductor A = N(chi) * N_S: logarithmic (ratio_a), polynomial with an
epsilon of room (ratio_b), and squared-logarithmic (ratio_c).  Only the
shapes are meaningful — the implied constants are not effective — so the
output is ratio statistics, never pass/fail thresholds.

least_nonsplit_prime and the scan read a character's value at p from
dlog_units(f, p), taken once per prime and conductor by one witness
search.  The tests check that search against a table built by enumerating
the unit group (tests/reference.py).
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple

from .characters import DirichletCharacter, character_order, primitive_slots, primitivize
from .core_arith import components, dlog_units, primes_stream
from .errors import NoWitnessError, SearchCapError, ValidationError, check_epsilon

CSV_HEADER = "conductor,modulus,char_exponents,S,least_prime,log_A,ratio_A,ratio_B,ratio_C"


class PrimeWitness(namedtuple("PrimeWitness", "prime norm value_exponent")):
    __slots__ = ()


def _witness_search(f: int, skip, cap: int):
    """least(exps, mu): (p, t) for the least prime p <= cap outside skip and
    prime to f where the character mod f with exponents exps (zeta_mu) has
    the value t != 0, or None.  Each p gets dlog_units(f, p) once, however
    many characters mod f ask."""
    primes = (p for p in primes_stream() if p not in skip and f % p)
    logs: list[tuple[int, tuple[int, ...]]] = []

    def least(exps, mu):
        i = 0
        while True:
            if i == len(logs):
                p = next(primes)
                if p > cap:
                    return None
                logs.append((p, dlog_units(f, p)))
            p, vec = logs[i]
            t = sum(e * v for e, v in zip(exps, vec)) % mu
            if t:
                return p, t
            i += 1

    return least


def least_nonsplit_prime(chi: DirichletCharacter, S=(), cap: int = 10**8) -> PrimeWitness:
    """Least prime outside S, coprime to the conductor, where chi != 1."""
    if cap < 1:
        raise ValidationError(f"bad search cap {cap}")
    prim = primitivize(chi)
    if character_order(prim) == 1:
        raise NoWitnessError("the trivial character is 1 at every prime")
    skip = {v.prime for v in S if not v.is_real}
    found = _witness_search(prim.modulus, skip, cap)(prim.exponents, prim.exponent_modulus)
    if found is None:
        raise SearchCapError(f"no witness prime up to {cap}")
    p, t = found
    return PrimeWitness(p, p, t)


class ScanRecord(
    namedtuple(
        "ScanRecord",
        "conductor modulus char_exponents s_norm least_prime log_a ratio_a ratio_b"
        " ratio_c cap_exceeded",
        defaults=(False,),
    )
):
    __slots__ = ()


def scan_family(max_conductor: int, S=(), epsilon: float = 0.1, cap: int = 10**8):
    """Yield one ScanRecord per primitive character of conductor <= the
    bound, ordered by (conductor, exponent vector).

    A record whose witness search passes cap is emitted with least_prime 0
    and zero ratios, flagged, and the scan continues.
    """
    check_epsilon(epsilon)
    if cap < 1:
        raise ValidationError(f"bad search cap {cap}")
    skip = {v.prime for v in S if not v.is_real}
    norm_s = math.prod(skip, start=1)
    for f in range(3, max_conductor + 1):
        comps = components(f)
        mu = math.lcm(*(o for c in comps for o in c.orders))
        slots = [s for c in comps for s in primitive_slots(c.prime, c.exponent, mu)]
        if not all(slots):  # no primitive character mod f, e.g. f = 2 mod 4
            continue
        least = _witness_search(f, skip, cap)
        log_a = math.log(f * norm_s)
        denom_b = f ** (0.5 + epsilon) * norm_s**epsilon
        for exps in itertools.product(*slots):
            found = least(exps, mu)
            if found is None:
                yield ScanRecord(f, f, exps, norm_s, 0, log_a, 0.0, 0.0, 0.0, True)
                continue
            p = found[0]
            yield ScanRecord(
                f,
                f,
                exps,
                norm_s,
                p,
                log_a,
                math.log(p) / log_a,
                p / denom_b,
                p / log_a**2,
            )


def write_scan_csv(records, out) -> int:
    """Write records as CSV (header mandatory); returns the record count."""
    out.write(CSV_HEADER + "\n")
    count = 0
    for rec in records:
        out.write(
            ",".join(
                (
                    str(rec.conductor),
                    str(rec.modulus),
                    ";".join(map(str, rec.char_exponents)),
                    str(rec.s_norm),
                    str(rec.least_prime),
                    repr(rec.log_a),
                    repr(rec.ratio_a),
                    repr(rec.ratio_b),
                    repr(rec.ratio_c),
                )
            )
            + "\n"
        )
        count += 1
    return count
