"""Command-line surface.

Exit codes: 0 success, 2 validation problem (bad flags, malformed files,
impossible requests), 3 search cap exhausted, 4 internal contradiction
(a should-be-impossible state; report it).  All output is deterministic:
key=value lines on stdout, diagnostics as a single `error: ...` line on
stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .characters import character_order, conductor, make_dirichlet
from .core_arith import Place, unit_group
from .errors import GrunwaldError, SearchCapError, ValidationError, check_epsilon
from .mult_one import least_nonsplit_prime, scan_family, write_scan_csv
from .powres import least_non_lth_power_modulus, least_non_lth_power_modulus_with_order
from .solver import bound_report, construct, instance_from_dict, oracle_minimal
from .wang_special import FieldDescriptor, special_case


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(message)


def _parse_places(text: str) -> tuple[Place, ...]:
    if not text:
        return ()
    places = [Place.parse(part.strip()) for part in text.split(",")]
    if len(set(places)) != len(places):
        raise ValidationError(f"duplicate place in '{text}'")
    return tuple(sorted(places, key=Place.sort_key))


def _parse_ints(text: str) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValidationError(f"cannot parse integer list '{text}'") from None


def _load_instance(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ValidationError(f"cannot read instance file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"cannot parse instance file: {exc}") from None
    return instance_from_dict(data)


def _bool(flag: bool) -> str:
    return "true" if flag else "false"


def _print_solution(solution) -> None:
    chi = solution.character
    print(f"modulus={chi.modulus}")
    print(f"exponent_modulus={chi.exponent_modulus}")
    print("exponents=" + ";".join(map(str, chi.exponents)))
    print(f"order={character_order(chi)}")
    print(f"conductor={conductor(chi).norm}")
    print(f"exponent_achieved={solution.exponent_achieved}")
    print(f"special_case={_bool(solution.special_case_flag)}")
    print("aux_primes=" + ",".join(map(str, solution.aux_primes)))
    print(f"cycle={solution.cycle}")


def _cmd_construct(args) -> int:
    instance = _load_instance(args.instance)
    if args.method == "oracle":
        solution = oracle_minimal(instance, args.cap)
    else:
        solution = construct(instance)
    _print_solution(solution)
    return 0


def _cmd_special_case(args) -> int:
    field = FieldDescriptor.parse(args.field)
    report = special_case(field, args.m, _parse_places(args.S))
    print(f"occurs={_bool(report.occurs)}")
    print(f"s={report.s}")
    if report.occurs:
        if report.a0 is not None:
            print(f"a0={report.a0}")
        else:
            x0, x1 = report.a0_coords
            print(f"a0_coords={x0}+{x1}*sqrt({field.d})")
    print("S0=" + ",".join(str(v.prime) for v in sorted(report.S0, key=Place.sort_key)))
    if not report.occurs:
        print(f"failed_condition={report.failed_condition}")
    return 0


def _cmd_least_prime(args) -> int:
    orders = unit_group(args.modulus).orders
    exponent_modulus = args.exponent_modulus
    if exponent_modulus is None:
        exponent_modulus = math.lcm(1, *orders)
    chi = make_dirichlet(args.modulus, _parse_ints(args.exponents), exponent_modulus)
    witness = least_nonsplit_prime(chi, _parse_places(args.exclude), args.cap)
    print(f"prime={witness.prime}")
    print(f"norm={witness.norm}")
    print(f"value_exponent={witness.value_exponent}")
    return 0


def _cmd_scan(args) -> int:
    S = _parse_places(args.S)
    # checked here too, so that bad input never creates or truncates --out
    check_epsilon(args.epsilon)
    if args.cap < 1:
        raise ValidationError(f"bad search cap {args.cap}")
    flagged = 0
    maxima = None

    def tally(records):
        # running flagged count and ratio maxima while the CSV streams out
        nonlocal flagged, maxima
        for rec in records:
            if rec.cap_exceeded:
                flagged += 1
            elif maxima is None:
                maxima = [rec.ratio_a, rec.ratio_b, rec.ratio_c]
            else:
                # plain comparisons: this runs once per CSV row
                if rec.ratio_a > maxima[0]:
                    maxima[0] = rec.ratio_a
                if rec.ratio_b > maxima[1]:
                    maxima[1] = rec.ratio_b
                if rec.ratio_c > maxima[2]:
                    maxima[2] = rec.ratio_c
            yield rec

    records = scan_family(args.max_conductor, S, args.epsilon, args.cap)
    with open(args.out, "w", encoding="utf-8") as handle:
        count = write_scan_csv(tally(records), handle)
    print(f"records={count}")
    print(f"flagged={flagged}")
    for name, value in zip(("ratio_a", "ratio_b", "ratio_c"), maxima or [0.0] * 3):
        print(f"max_{name}={value!r}")
    return 0


def _cmd_powres(args) -> int:
    if args.r is None:
        answer = least_non_lth_power_modulus(args.p, args.l)
    else:
        answer = least_non_lth_power_modulus_with_order(args.p, args.l, args.r)
    print(f"N={answer.modulus}")
    print(f"phi={answer.phi}")
    print(f"power_count={answer.power_count}")
    print(f"class_order={answer.class_order}")
    return 0


def _cmd_report(args) -> int:
    instance = _load_instance(args.instance)
    # checked before construct, so that bad input prints no solution lines
    check_epsilon(args.epsilon)
    solution = construct(instance)
    _print_solution(solution)
    report = bound_report(instance, solution, args.epsilon)
    for name, value in zip(report._fields, report):
        print(f"{name}={value!r}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="grunwald", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="solve an instance file")
    p.add_argument("--instance", required=True)
    p.add_argument("--method", choices=("constructive", "oracle"), default="constructive")
    p.add_argument("--cap", type=int, default=100000)
    p.set_defaults(handler=_cmd_construct)

    p = sub.add_parser("special-case", help="decide the special case of Wang")
    p.add_argument("--field", default="Q")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--S", default="")
    p.set_defaults(handler=_cmd_special_case)

    p = sub.add_parser("least-prime", help="least nonsplit prime of a character")
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--exponents", default="")
    p.add_argument("--exclude", default="")
    p.add_argument("--exponent-modulus", type=int, default=None)
    p.add_argument("--cap", type=int, default=10**8)
    p.set_defaults(handler=_cmd_least_prime)

    p = sub.add_parser("scan", help="scan primitive characters, write CSV")
    p.add_argument("--max-conductor", type=int, required=True)
    p.add_argument("--S", default="")
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--out", required=True)
    p.add_argument("--cap", type=int, default=10**8)
    p.set_defaults(handler=_cmd_scan)

    p = sub.add_parser("powres", help="least modulus where p is not an l-th power")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--r", type=int, default=None)
    p.set_defaults(handler=_cmd_powres)

    p = sub.add_parser("report", help="construct plus bound quantities")
    p.add_argument("--instance", required=True)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.set_defaults(handler=_cmd_report)
    return parser


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except GrunwaldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ValidationError):
            return 2
        return 3 if isinstance(exc, SearchCapError) else 4


def console_main() -> None:
    sys.exit(run(sys.argv[1:]))
