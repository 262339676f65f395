"""Correctness oracles for heckemod2 CLI output.

None of these use heckemod2: each checks a command's stdout against
published values or closed forms computed here with plain integer
arithmetic.  ``check(argv, stdin, stdout)`` returns a list of problems;
an empty list means the output is correct.
"""

from __future__ import annotations

import re
from math import isqrt

# m(a,b) for a+b <= 3 as delta-power exponent supports (published table)
M_PUBLISHED = {
    (0, 0): (1,), (1, 0): (3,), (0, 1): (5,),
    (2, 0): (9,), (1, 1): (7,), (0, 2): (17,),
    (3, 0): (11,), (2, 1): (13,), (1, 2): (11, 19), (0, 3): (13, 21),
}

# theta series for n <= 3 as delta-power exponent supports, keyed by
# (c, n, t) (published table)
THETA_PUBLISHED = {
    (2, 1, 0): (1,), (2, 1, 1): (),
    (2, 2, 0): (1,), (2, 2, 1): (3,), (2, 2, 2): (),
    (2, 3, 0): (1,), (2, 3, 1): (3, 11), (2, 3, 2): (9,), (2, 3, 3): (11,),
    (2, 3, 4): (),
    (4, 1, 0): (1,), (4, 1, 1): (),
    (4, 2, 0): (1,), (4, 2, 1): (5,), (4, 2, 2): (),
    (4, 3, 0): (1,), (4, 3, 1): (5, 13, 21), (4, 3, 2): (17,),
    (4, 3, 3): (13, 21), (4, 3, 4): (),
}

VERIFY_CHECKS = 21
_TIMING = re.compile(r"  \(\d+\.\ds\)$")


def code_of(k: int) -> tuple[int, int]:
    """Nicolas-Serre code of delta^k: the bits of k-1 at odd positions
    1, 3, 5, ... are the binary digits of a, those at even positions
    2, 4, 6, ... the digits of b."""
    n = k - 1
    a = b = 0
    i = 0
    while n >> (2 * i + 1):
        a |= ((n >> (2 * i + 1)) & 1) << i
        b |= ((n >> (2 * i + 2)) & 1) << i
        i += 1
    return a, b


def exponent_of_code(a: int, b: int) -> int:
    """Inverse of code_of: the dominant exponent of m(a,b)."""
    k = 1
    i = 0
    while a >> i or b >> i:
        k += ((a >> i) & 1) << (2 * i + 1)
        k += ((b >> i) & 1) << (2 * i + 2)
        i += 1
    return k


def odd_primes(bound: int) -> list[int]:
    sieve = bytearray([1]) * (bound + 1)
    for d in range(2, isqrt(bound) + 1):
        if sieve[d]:
            sieve[d * d::d] = bytes(len(sieve[d * d::d]))
    return [p for p in range(3, bound + 1, 2) if sieve[p]]


def odd_b_representation(p: int, c: int) -> bool:
    """Is p = a^2 + c*b^2 with b odd?"""
    b = 1
    while c * b * b <= p:
        r = p - c * b * b
        if isqrt(r) ** 2 == r:
            return True
        b += 2
    return False


def tp_low_degree(p: int) -> set[tuple[int, int]]:
    """Monomials x^i y^j, i+j <= 2, of T_p by the five Frobenian criteria
    (T_p has no constant term: p is never an odd square)."""
    out = set()
    if p % 8 == 3:
        out.add((1, 0))
    if p % 8 == 5:
        out.add((0, 1))
    if p % 16 == 7:
        out.add((1, 1))
    if odd_b_representation(p, 8):
        out.add((2, 0))
    if odd_b_representation(p, 16):
        out.add((0, 2))
    return out


PARITY = {1: (0, 0), 3: (1, 0), 5: (0, 1), 7: (1, 1)}


def normalize(argv: list[str], stdout: str) -> str:
    """Stdout with run-dependent parts removed: `verify` prints each
    check's wall time as a trailing ``(N.Ns)``."""
    if argv[0] != "verify":
        return stdout
    return "\n".join(_TIMING.sub("", line) for line in stdout.split("\n"))


def _option(argv: list[str], name: str, default: int) -> int:
    return int(argv[argv.index(name) + 1]) if name in argv else default


def _exponents(field: str) -> tuple[int, ...]:
    return tuple(int(e) for e in field.split())


def _check_m_table(argv, stdin, lines):
    degree = _option(argv, "--degree", 3)
    want = [(a, d - a) for d in range(degree + 1) for a in range(d, -1, -1)]
    if len(lines) != len(want):
        return [f"m-table: {len(lines)} rows, expected {len(want)}"]
    problems = []
    for line, (a, b) in zip(lines, want):
        fa, fb, fe = line.split(",")
        exps = _exponents(fe)
        if (int(fa), int(fb)) != (a, b):
            problems.append(f"m-table: row {line!r} out of order, expected ({a},{b})")
        elif not exps or list(exps) != sorted(set(exps)) or any(e % 2 == 0 for e in exps):
            problems.append(f"m-table: m({a},{b}) support {exps} is not odd and ascending")
        elif exps[-1] != exponent_of_code(a, b):
            problems.append(f"m-table: m({a},{b}) tops out at {exps[-1]}, "
                            f"expected {exponent_of_code(a, b)}")
        elif (a, b) in M_PUBLISHED and exps != M_PUBLISHED[(a, b)]:
            problems.append(f"m-table: m({a},{b}) = {exps}, published "
                            f"{M_PUBLISHED[(a, b)]}")
        elif b == 0 and a & (a - 1) == 0 and a and exps != (1 + 2 * a * a,):
            # m(2^r, 0) = delta^(1 + 2^(2r+1))
            problems.append(f"m-table: m({a},0) = {exps}, expected ({1 + 2 * a * a},)")
    return problems


def _check_code_of(argv, stdin, lines):
    k = int(argv[1])
    want = "%d,%d" % code_of(k)
    return [] if lines == [want] else [f"code-of {k}: got {lines}, expected {want}"]


def _check_decompose(argv, stdin, lines):
    reduced = set()
    for tok in stdin.replace(",", " ").split():
        reduced ^= {int(tok)}
    if len(lines) != 2 or not lines[0].startswith("delta,") or not lines[1].startswith("m"):
        return [f"decompose: malformed output {lines}"]
    delta = _exponents(lines[0][len("delta,"):])
    if delta != tuple(sorted(reduced)):
        return [f"decompose: delta line {delta} is not the XOR-reduced "
                f"input {tuple(sorted(reduced))}"]
    m_support = [tuple(int(x) for x in f.split()) for f in lines[1].split(",")[1:]]
    # distinct m(a,b) have distinct dominant exponents, so the sum's top
    # exponent is the largest dominant exponent of its terms
    top = max((exponent_of_code(a, b) for a, b in m_support), default=None)
    if top != (max(reduced) if reduced else None):
        return [f"decompose: m-basis terms top out at {top}, input at "
                f"{max(reduced) if reduced else None}"]
    return []


def _check_tp_table(argv, stdin, lines):
    p_max = _option(argv, "--p-max", 17)
    degree = _option(argv, "--degree", 12)
    primes = odd_primes(p_max)
    if len(lines) != len(primes):
        return [f"tp-table: {len(lines)} rows, expected {len(primes)}"]
    problems = []
    for line, p in zip(lines, primes):
        fields = line.split(",")
        monomials = {tuple(int(x) for x in f.split()) for f in fields[1:]}
        low = {(i, j) for i, j in monomials if i + j <= 2}
        if int(fields[0]) != p:
            problems.append(f"tp-table: row for {fields[0]}, expected {p}")
        elif degree >= 2 and low != tp_low_degree(p):
            problems.append(f"tp-table: T_{p} degree <= 2 part {sorted(low)}, "
                            f"criteria give {sorted(tp_low_degree(p))}")
        elif any((i % 2, j % 2) != PARITY[p % 8] or i + j > degree
                 for i, j in monomials):
            problems.append(f"tp-table: T_{p} has a monomial outside parity "
                            f"class {PARITY[p % 8]} or above degree {degree}")
    return problems


def _check_theta_table(argv, stdin, lines):
    n_max = _option(argv, "--n-max", 3)
    c = _option(argv, "--c", 2)
    want = [(n, t) for n in range(1, n_max + 1) for t in range(2 ** (n - 1) + 1)]
    if len(lines) != len(want):
        return [f"theta-table: {len(lines)} rows, expected {len(want)}"]
    problems = []
    for line, (n, t) in zip(lines, want):
        fc, fn, ft, fe = line.split(",")
        exps = _exponents(fe)
        if t == 0:
            expected = (1,)
        elif t == 1 << (n - 1):
            expected = ()
        elif n >= 2 and t == 1 << (n - 2):
            expected = (1 + (1 << (2 * n - 2 if c == 4 else 2 * n - 3)),)
        else:
            expected = THETA_PUBLISHED.get((c, n, t))
        if (int(fc), int(fn), int(ft)) != (c, n, t):
            problems.append(f"theta-table: row {line[:40]!r} out of order, "
                            f"expected ({c},{n},{t})")
        elif any(e % 2 == 0 for e in exps) or list(exps) != sorted(set(exps)):
            problems.append(f"theta-table: ({t},{n}) support is not odd and ascending")
        elif expected is not None and exps != expected:
            problems.append(f"theta-table: theta({t},{n},{c}) = {exps[:8]}, "
                            f"expected {expected}")
    return problems


def _check_verify(argv, stdin, lines):
    passed = [line for line in lines if line.startswith("PASS  ")]
    footer = f"{VERIFY_CHECKS}/{VERIFY_CHECKS} checks passed"
    if len(passed) != VERIFY_CHECKS or len(lines) != VERIFY_CHECKS + 1 \
            or lines[-1] != footer:
        return [f"verify: {len(passed)} PASS lines of {len(lines)}, "
                f"last line {lines[-1:]}"]
    return []


_ORACLES = {
    "m-table": _check_m_table,
    "code-of": _check_code_of,
    "decompose": _check_decompose,
    "tp-table": _check_tp_table,
    "theta-table": _check_theta_table,
    "verify": _check_verify,
}


def check(argv: list[str], stdin: str, stdout: str) -> list[str]:
    """Problems with the stdout of `heckemod2 ARGV < STDIN`."""
    lines = stdout.splitlines()
    try:
        return _ORACLES[argv[0]](argv, stdin, lines)
    except (ValueError, IndexError) as exc:
        return [f"{argv[0]}: unparsable output ({exc})"]
