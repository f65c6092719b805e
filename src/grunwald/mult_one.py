"""Least nonsplit prime for a character, and the family-scan harness.

The scan walks every primitive character up to a conductor bound, finds
the least prime outside S where the character is unramified and nontrivial,
and reports that prime against three bound shapes of the analytic
conductor A = N(chi) * N_S: logarithmic (ratio_a), polynomial with an
epsilon of room (ratio_b), and squared-logarithmic (ratio_c).  Only the
shapes are meaningful — the implied constants are not effective — so the
output is ratio statistics, never pass/fail thresholds.

The scan deliberately computes its discrete logarithms by direct unit
enumeration per modulus, independent of the baby-step giant-step tables
used elsewhere, so tests can cross-validate the two routes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .characters import (
    DirichletCharacter,
    character_order,
    evaluate,
    primitive_slots,
    primitivize,
)
from .core_arith import components, primes_stream, unit_group
from .errors import NoWitnessError, SearchCapError, ValidationError

CSV_HEADER = "conductor,modulus,char_exponents,S,least_prime,log_A,ratio_A,ratio_B,ratio_C"


@dataclass(frozen=True)
class PrimeWitness:
    prime: int
    norm: int
    value_exponent: int


def least_nonsplit_prime(chi: DirichletCharacter, S=(), cap: int = 10**8) -> PrimeWitness:
    """Least prime outside S, coprime to the conductor, where chi != 1."""
    if cap < 1:
        raise ValidationError(f"bad search cap {cap}")
    prim = primitivize(chi)
    if character_order(prim) == 1:
        raise NoWitnessError("the trivial character is 1 at every prime")
    skip = {v.prime for v in S if not v.is_real}
    f = prim.modulus
    for p in primes_stream():
        if p > cap:
            raise SearchCapError(f"no witness prime up to {cap}")
        if p in skip or f % p == 0:
            continue
        t = evaluate(prim, p)
        if t:
            return PrimeWitness(p, p, t)


@dataclass(frozen=True)
class ScanRecord:
    conductor: int
    modulus: int
    char_exponents: tuple[int, ...]
    s_norm: int
    least_prime: int
    log_a: float
    ratio_a: float
    ratio_b: float
    ratio_c: float
    cap_exceeded: bool = False


def _dlog_table(f: int) -> dict[int, tuple[int, ...]]:
    """residue -> exponent vector on the canonical generators, by direct
    enumeration of the unit group (no baby-step giant-step)."""
    ug = unit_group(f)
    table = {1 % f: (0,) * len(ug.generators)}
    for idx, (g, o) in enumerate(zip(ug.generators, ug.orders)):
        base = list(table.items())
        x = 1
        for e in range(1, o):
            x = x * g % f
            for res, vec in base:
                w = list(vec)
                w[idx] = e
                table[res * x % f] = tuple(w)
    return table


def scan_family(max_conductor: int, S=(), epsilon: float = 0.1, cap: int = 10**8):
    """Yield one ScanRecord per primitive character of conductor <= the
    bound, ordered by (conductor, exponent vector).

    A record whose witness search passes cap is emitted with least_prime 0
    and zero ratios, flagged, and the scan continues.
    """
    if epsilon <= 0:
        raise ValidationError("epsilon must be positive")
    if cap < 1:
        raise ValidationError(f"bad search cap {cap}")
    skip = {v.prime for v in S if not v.is_real}
    norm_s = math.prod(skip, start=1)
    for f in range(3, max_conductor + 1):
        if f % 4 == 2:
            continue
        comps = components(f)
        slots: list[list[int]] = []
        mu = math.lcm(*(o for c in comps for o in c.orders))
        for c in comps:
            slots.extend(primitive_slots(c.prime, c.exponent, mu))
        table = _dlog_table(f)
        candidates: list[tuple[int, tuple[int, ...]]] = []
        stream = primes_stream()

        def candidate(i: int):
            while len(candidates) <= i:
                p = next(stream)
                if p > cap:
                    return None
                if p in skip:
                    continue
                vec = table.get(p % f)
                if vec is not None:
                    candidates.append((p, vec))
            return candidates[i]

        log_a = math.log(f * norm_s)
        denom_b = f ** (0.5 + epsilon) * norm_s**epsilon
        for exps in itertools.product(*slots):
            i = 0
            found = None
            while True:
                cand = candidate(i)
                if cand is None:
                    break
                p, vec = cand
                if sum(t * e for t, e in zip(exps, vec)) % mu:
                    found = p
                    break
                i += 1
            if found is None:
                yield ScanRecord(f, f, exps, norm_s, 0, log_a, 0.0, 0.0, 0.0, True)
                continue
            yield ScanRecord(
                f,
                f,
                exps,
                norm_s,
                found,
                log_a,
                math.log(found) / log_a,
                found / denom_b,
                found / log_a**2,
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
