"""Batch command-line front end.

Subcommands: build, verify, search, census, riesel, pi, psi.
Exit codes: 0 success, 1 I/O, parse or domain failure (a file that cannot
be read or written, a malformed .pm file, an argument out of range, an
input past a size cap, an empty census window), 2 prime search exhausted,
3 verification failure (a matrix that is not Hadamard, or a census or psi
whose two routes disagree), 4 covering gap.  FAILURES is the one table of
them: main alone catches them and prints one stderr line each, such as
"I/O error: <OSError text>" for any file or "check failed: <text>" for a
self-check.  An argument argparse cannot parse, or a missing or unknown
one, never reaches FAILURES: argparse prints its usage and an error line
and exits 2, the code of an exhausted prime search.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import census, construct, solver
from .errors import (CoverageGap, DomainError, NoPrimeInRange, PmParseError,
                     SelfCheckError)
from .jsonio import canonical_json
from .matrix import is_hadamard, read_matrix, write_matrix

EXIT_OK = 0
EXIT_IO = 1
EXIT_NO_PRIME = 2
EXIT_NOT_HADAMARD = 3
EXIT_COVERAGE_GAP = 4
EPSILON_DIGITS_MAX = 4300  # str() of an int with more digits raises ValueError

# (exception type, exit code, stderr line).  main prints the line of the
# first entry whose type matches, so a subclass must stand above its base.
FAILURES = (
    (NoPrimeInRange, EXIT_NO_PRIME,
     "no prime in window m = {0.m_lo}..{0.m_hi} for k = {0.k}"),
    (CoverageGap, EXIT_COVERAGE_GAP, "coverage gap: {0}"),
    (PmParseError, EXIT_IO, "parse error: {0}"),
    (OSError, EXIT_IO, "I/O error: {0}"),
    (DomainError, EXIT_IO, "domain error: {0}"),
    (SelfCheckError, EXIT_NOT_HADAMARD, "check failed: {0}"),
)


def _fraction(text):
    try:
        # An a/b literal with a side past EPSILON_DIGITS_MAX digits fails in
        # int().  A decimal one, worth digits * 10**shift, is refused from its
        # text, before Fraction computes 10**exponent.
        if "/" not in text:
            mantissa, _, exponent = text.lower().replace("_", "").partition("e")
            whole, _, decimals = mantissa.strip().lstrip("+-").partition(".")
            shift = int(exponent or 0) - len(decimals)
            numerator = len((whole + decimals).lstrip("0")) + max(shift, 0)
            if max(numerator, 1 - shift) > EPSILON_DIGITS_MAX:  # 10**-shift: 1 - shift digits
                raise ValueError
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _write_text(path, text):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)


def _emit(args, payload):
    """Write payload as canonical JSON to --out, if given, then to stdout."""
    text = canonical_json(payload)
    if args.out:
        _write_text(args.out, text)
    sys.stdout.write(text)


def cmd_build(args):
    plan = construct.plan_for(args.k, args.epsilon,
                              allow_probable=not args.strict_primality)
    order = plan.claimed_order
    exponent = (order // args.k).bit_length() - 1
    if args.out:
        _write_text(args.out, canonical_json(plan.to_json_dict()))
        if order <= construct.MAX_ORDER:
            write_matrix(construct.build_plan(plan), args.out + ".pm")
    print(f"order {order} = 2^{exponent} * {args.k} (certified={plan.certified})")
    return EXIT_OK


def cmd_verify(args):
    matrix = read_matrix(args.path)
    ok = is_hadamard(matrix)
    print(f"order {matrix.n}: {'Hadamard' if ok else 'NOT Hadamard'}")
    return EXIT_OK if ok else EXIT_NOT_HADAMARD


def cmd_search(args):
    result = solver.find_m(args.k, args.epsilon,
                           allow_probable=not args.strict_primality)
    _emit(args, result.to_json_dict())
    return EXIT_OK if result.found_m is not None else EXIT_NO_PRIME


def cmd_census(args):
    report = census.density_report(
        args.x, args.epsilon, allow_probable=not args.strict_primality
    )
    _emit(args, report.to_json_dict())
    return EXIT_OK


def cmd_riesel(args):
    cert = solver.riesel_certificate(
        args.k0, args.step, args.cover,
        spot_check_r=range(args.r_max + 1),
        spot_check_m=range(args.m_max + 1),
    )
    _emit(args, cert.to_json_dict())
    return EXIT_OK


def cmd_pi(args):
    print(census.pi_count(args.x, args.q, args.a))
    return EXIT_OK


def cmd_psi(args):
    value = census.psi(args.x, args.q, args.a)
    print(f"{value:.9g}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hadcensus",
        description="Hadamard matrix constructions and prime-density censuses",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", help="output file path")
        p.add_argument("--strict-primality", action="store_true",
                       help="reject probable primes")

    p = sub.add_parser("build", help="plan a Hadamard matrix for odd k; --out gets "
                       "the plan and, up to order 2^16, the matrix as <out>.pm")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--epsilon", type=_fraction, required=True)
    add_common(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("verify", help="check a .pm file for the Hadamard property")
    p.add_argument("path")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="find the smallest window exponent m")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--epsilon", type=_fraction, required=True)
    add_common(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("census", help="full density report for (x, epsilon)")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--epsilon", type=_fraction, required=True)
    add_common(p)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("riesel", help="covering-set certificate for a family")
    p.add_argument("--k0", type=int, default=509203)
    p.add_argument("--step", type=int, default=11184810)
    p.add_argument("--cover", type=int, nargs="+",
                   default=[3, 5, 7, 13, 17, 241])
    p.add_argument("--r-max", type=int, default=9)
    p.add_argument("--m-max", type=int, default=500)
    p.add_argument("--out", help="output file path")
    p.set_defaults(func=cmd_riesel)

    p = sub.add_parser("pi", help="count primes <= x congruent to a mod q")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.set_defaults(func=cmd_pi)

    p = sub.add_parser("psi", help="Chebyshev psi(x; q, a)")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.set_defaults(func=cmd_psi)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(kind for kind, _, _ in FAILURES) as exc:
        code, line = next((c, t) for k, c, t in FAILURES if isinstance(exc, k))
        print(line.format(exc), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
