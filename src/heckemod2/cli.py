"""Command-line front end: emits the m(a,b), T_p and theta tables in text
or CSV form and runs the named verification suites.

Exit codes: 0 ok, 1 verification or computation failure, 2 usage error.
All output is sorted before emission, so identical invocations produce
byte-identical results.
"""

from __future__ import annotations

import argparse
import sys

from .checks import SUITES, run_suite
from .mbasis import MBasis
from .spaces import (DeltaCoords, LevelExhausted, NotInSpan,
                     expand_in_delta_basis, within_cap)
from .theta import theta_coords, theta_level

USAGE_ERROR = 2
FAILURE = 1


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return USAGE_ERROR


def _graded(indices):
    """Graded order, higher x-power first within a degree."""
    return sorted(indices, key=lambda ij: (ij[0] + ij[1], -ij[0]))


def _monomial(i: int, j: int) -> str:
    if i == j == 0:
        return "1"
    parts = []
    if i:
        parts.append("x" if i == 1 else f"x^{i}")
    if j:
        parts.append("y" if j == 1 else f"y^{j}")
    return "*".join(parts)


def cmd_m_table(args) -> int:
    if args.degree < 0:
        return _usage_error("--degree must be >= 0")
    table = MBasis()
    table.ensure_degree(args.degree)
    for d in range(args.degree + 1):
        for a in range(d, -1, -1):
            b = d - a
            exps = " ".join(str(e) for e in table.element(a, b).support_exponents())
            if args.format == "csv":
                print(f"{a},{b},{exps}")
            else:
                print(f"({a},{b}): {exps}")
    return 0


def cmd_tp_table(args) -> int:
    if args.p_max < 3:
        return _usage_error("--p-max must be at least 3")
    if args.degree < 0:
        return _usage_error("--degree must be >= 0")
    # each a_ij(p) is a frobenian function of p, so at a fixed degree few
    # distinct expansions recur over many primes: format each one once
    bodies = {}
    for p, monomials in MBasis().tp_table(args.p_max, args.degree).items():
        body = bodies.get(monomials)
        if body is None:
            graded = _graded(monomials)
            if args.format == "csv":
                body = "".join(f",{i} {j}" for i, j in graded)
            else:
                body = " + ".join(_monomial(i, j) for i, j in graded) or "0"
            bodies[monomials] = body
        if args.format == "csv":
            print(f"{p}{body}")
        else:
            print(f"T_{p} = {body} + O(deg {args.degree + 1})")
    return 0


def cmd_theta_table(args) -> int:
    if args.n_max < 1:
        return _usage_error("--n-max must be >= 1")
    if args.precision < 0:
        return _usage_error("--precision must be >= 0")
    level = within_cap((args.precision + 1) // 2)
    # each family needs a deeper level than the last, so the walk stops at
    # the first family over the cap, however large n_max is
    for n in range(1, args.n_max + 1):
        level = max(level, within_cap(theta_level(n, args.c)))
    for n in range(1, args.n_max + 1):
        for t in range(2 ** (n - 1) + 1):
            coords = theta_coords(t, n, args.c, level)
            exps = " ".join(str(e) for e in coords.support_exponents())
            if args.format == "csv":
                print(f"{args.c},{n},{t},{exps}")
            else:
                print(f"theta(t={t}, n={n}, c={args.c}): {exps}")
    return 0


def cmd_code_of(args) -> int:
    k = args.k
    if k < 1 or k % 2 == 0:
        return _usage_error(f"{k} is not an odd positive integer")
    a, b = MBasis().code_of(k)
    print(f"{a},{b}")
    return 0


def cmd_decompose(args) -> int:
    try:
        if args.file == "-":
            text = sys.stdin.read()
        else:
            with open(args.file) as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        return _usage_error(str(exc))
    try:
        exponents = [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        return _usage_error("input must be a comma-separated list of integers")
    if not exponents or any(e < 1 or e % 2 == 0 for e in exponents):
        return _usage_error("exponents must be odd positive integers")
    table = MBasis()
    table.ensure_level((max(exponents) + 1) // 2)
    coords = 0
    for e in exponents:
        coords ^= 1 << ((e - 1) // 2)
    # honest round trip through the q-expansion
    series = DeltaCoords(coords, table.level).to_series(2 * table.level - 1)
    expanded = expand_in_delta_basis(series, table.level)
    if expanded.coords != coords:
        print("error: q-expansion round trip failed", file=sys.stderr)
        return FAILURE
    m_support = _graded(table.coefficients(expanded))
    delta_exps = " ".join(str(e) for e in expanded.support_exponents())
    if args.format == "csv":
        print(f"delta,{delta_exps}")
        print(",".join(["m"] + [f"{a} {b}" for a, b in m_support]))
    else:
        print(f"delta-basis: {delta_exps}")
        print("m-basis: " + (" + ".join(f"m({a},{b})" for a, b in m_support) or "0"))
    return 0


def cmd_verify(args) -> int:
    if args.precision is not None:
        if args.precision < 0:
            return _usage_error("--precision must be >= 0")
        within_cap((args.precision + 1) // 2)
    results = run_suite(args.suite, precision=args.precision)
    failed = [r for r in results if not r.passed]
    for r in results:
        print(r.line())
        print(f"{r.name}  ({r.seconds:.1f}s)", file=sys.stderr)
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return FAILURE if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heckemod2",
        description="Exact mod-2 Hecke computations: tables and verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fmt = {"choices": ("text", "csv"), "default": "text",
           "help": "output format (default text)"}

    p = sub.add_parser("m-table", help="support of m(a,b) for a+b <= degree")
    p.add_argument("--degree", type=int, default=3, help="max a+b (default 3)")
    p.add_argument("--format", **fmt)
    p.set_defaults(func=cmd_m_table)

    p = sub.add_parser("tp-table",
                       help="T_p as a series in x = T_3, y = T_5")
    p.add_argument("--p-max", type=int, default=17,
                   help="largest prime (default 17)")
    p.add_argument("--degree", type=int, default=12,
                   help="max total degree (default 12)")
    p.add_argument("--format", **fmt)
    p.set_defaults(func=cmd_tp_table)

    p = sub.add_parser("theta-table",
                       help="delta-basis support of the theta series")
    p.add_argument("--n-max", type=int, default=3, help="largest n (default 3)")
    p.add_argument("--c", type=int, choices=(2, 4), default=2,
                   help="form parameter: 2 for x^2+2y^2, 4 for x^2+4y^2")
    p.add_argument("--precision", type=int, default=0,
                   help="minimum series precision for the expansion "
                        "(raised to the bound that certifies every row)")
    p.add_argument("--format", **fmt)
    p.set_defaults(func=cmd_theta_table)

    p = sub.add_parser("code-of",
                       help="the index (a,b) whose m(a,b) peaks at delta^k")
    p.add_argument("k", type=int)
    p.set_defaults(func=cmd_code_of)

    p = sub.add_parser("decompose",
                       help="expand a sum of delta powers (odd exponent "
                            "list from FILE or '-') in both bases")
    p.add_argument("file")
    p.add_argument("--format", **fmt)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("verify", help="run a named verification suite "
                                      "(per-check seconds go to stderr)")
    p.add_argument("--suite", choices=sorted(SUITES), default="all")
    p.add_argument("--precision", type=int, default=None,
                   help="working precision for the series-comparison "
                        "checks (default 4096)")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (LevelExhausted, NotInSpan) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAILURE


if __name__ == "__main__":
    sys.exit(main())
