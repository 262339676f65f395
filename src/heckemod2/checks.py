"""Named verification checks behind the CLI `verify` command and the
acceptance test suite.

Each check re-derives one theorem-level statement at finite truncation.
Its body returns the failures it found and the bound it certifies, and
`_check` turns that into a named, timed CheckResult; the frozen tables here
are the published example values the computations must reproduce.
"""

from __future__ import annotations

import functools
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from math import prod

from .gf2 import lowest_bit, parity, prefix_ranks, rank
from .mbasis import (MBasis, chain_coefficients, code_exponent, code_level,
                     frobenian_report, odd_b_representations,
                     parity_pattern_holds, stacked_kernel_is_trivial)
from .primes import odd_prime_factors, odd_primes
from .series import F2Series, delta_pow, hecke
from .spaces import (AlgebraSpan, DeltaCoords, check_divisibility,
                     commutant_dimension, hecke_matrix,
                     level_nilpotency_indices)
from .theta import (boundary, hecke_mismatches, t_of_prime, theta_coords,
                    theta_families, theta_series, verify_composition_group,
                    verify_hecke_on_theta, verify_kernel_characterization,
                    verify_span_equality, verify_theta_identities)

# m(a,b) for a+b <= 3, as delta-basis exponent supports
M_TABLE_SMALL = {
    (0, 0): (1,), (1, 0): (3,), (0, 1): (5,),
    (2, 0): (9,), (1, 1): (7,), (0, 2): (17,),
    (3, 0): (11,), (2, 1): (13,), (1, 2): (11, 19), (0, 3): (13, 21),
}

# published prefixes of T_p as series in x = T_3, y = T_5, complete through
# the listed total degree
TP_PRINTED = {
    7: ({(1, 1), (3, 1), (5, 1), (3, 3), (1, 7), (7, 3), (1, 9), (11, 1),
         (9, 3), (7, 5), (13, 1), (5, 9), (3, 11)}, 14),
    11: ({(1, 0), (3, 0), (1, 2), (5, 0), (3, 2), (1, 4), (3, 4), (1, 6),
          (7, 2), (9, 2), (7, 4), (3, 8), (1, 10), (11, 2)}, 13),
    13: ({(0, 1), (2, 1), (0, 3), (4, 1), (0, 5), (6, 1), (4, 3), (2, 5),
          (6, 3), (2, 7), (0, 9), (10, 1), (8, 3), (6, 5), (0, 11)}, 11),
    17: ({(2, 0), (0, 2), (2, 2), (6, 0), (4, 2), (0, 6), (6, 2), (4, 4),
          (2, 6), (10, 0), (10, 2), (6, 6), (4, 8), (2, 10)}, 12),
}

# theta tables for n <= 3, as delta-basis exponent supports, keyed by
# (t, n); empty support means the zero series
THETA_TABLE = {
    2: {(0, 1): (1,), (1, 1): (),
        (0, 2): (1,), (1, 2): (3,), (2, 2): (),
        (0, 3): (1,), (1, 3): (3, 11), (2, 3): (9,), (3, 3): (11,), (4, 3): ()},
    4: {(0, 1): (1,), (1, 1): (),
        (0, 2): (1,), (1, 2): (5,), (2, 2): (),
        (0, 3): (1,), (1, 3): (5, 13, 21), (2, 3): (17,), (3, 3): (13, 21),
        (4, 3): ()},
}

SPECIAL_RELATION_PRIMES = {2: (3, 11, 17), 4: (5, 13, 17)}


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: str
    seconds: float = field(repr=False)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  [{self.details}]" if self.details else ""
        return f"{status}  {self.name}{extra}"


def _check(name: str):
    """Make a check body into a named, timed check.  The body returns its
    failures (strings) and the bound it certifies; the check passes iff
    there are no failures, and its details are the failures joined by
    "; " or else the bound.  An exception raised in the body is the one
    failure, named by its type and the first line of its message."""
    def decorate(body):
        @functools.wraps(body)
        def check(*args, **kwargs) -> CheckResult:
            t0 = time.perf_counter()
            try:
                failures, bound = body(*args, **kwargs)
            except Exception as exc:
                first = (str(exc).splitlines() or [""])[0]
                failures, bound = [f"{type(exc).__name__}: {first}"], ""
            return CheckResult(name, not failures, "; ".join(failures) or bound,
                               time.perf_counter() - t0)
        return check
    return decorate


# -- m-basis ---------------------------------------------------------------

@_check("m-table")
def check_m_table() -> tuple[list[str], str]:
    """m(a,b) for a+b <= 3 matches the published table, and the explicit
    power families hold for r <= 3."""
    table = MBasis()
    # m(0,8), the deepest entry read, fixes the one level built
    table.ensure_level(code_level(0, 8))
    cases = list(M_TABLE_SMALL.items())
    for r in range(4):
        cases += [((2 ** r, 0), (1 + 2 ** (2 * r + 1),)),
                  ((2 ** r - 1, 0), ((1 + 2 ** (2 * r + 1)) // 3,)),
                  ((0, 2 ** r), (1 + 2 ** (2 * r + 2),))]
    bad = [f"m({a},{b})={got}!={want}" for (a, b), want in cases
           if (got := table.element(a, b).support_exponents()) != want]
    return bad, f"{len(M_TABLE_SMALL)} tabulated entries + power families r<=3"


def _witness_functionals(level: int) -> dict[int, int]:
    """For each low < level, the q^1 functional of the witness operator of
    delta^(2*low + 1), the product of T_p over the odd prime factors p of
    2*low + 1 (with multiplicity): row 0 of the product, carried through
    one factor at a time."""
    mats = {p: hecke_matrix(p, level).cols
            for p in odd_primes(2 * level - 1)}
    functionals = {}
    for low in range(level):
        row = 1
        for p in odd_prime_factors(2 * low + 1):
            row = sum(parity(row & c) << j for j, c in enumerate(mats[p]))
        functionals[low] = row
    return functionals


def _first_failing_witness(functionals: dict[int, int],
                           level: int) -> int | None:
    """The least nonzero coords below 2^level on which the functional of
    its lowest set bit reads 0, or None if every one reads 1.

    The coords with lowest bit `low` are 1<<low | h, h over the bits in
    (low, level), and on them the functional `row` of low reads bit low of
    row plus the parity of row & h.  That is 1 for every h exactly when the bits of row
    in [low, level) are {low}.  If bit low is clear, 1<<low fails first;
    otherwise the least failing h is the lowest bit of the rest of row."""
    failing = []
    for low, row in functionals.items():
        rest = row & ((1 << level) - (2 << low))
        if not row >> low & 1:
            failing.append(1 << low)
        elif rest:
            failing.append(1 << low | 1 << lowest_bit(rest))
    return min(failing, default=None)


@_check("m-basis-structure")
def check_structure_suite() -> tuple[list[str], str]:
    """Shift action and uniqueness of the m-basis up to degree 6, duality
    roundtrip on random elements, leading-exponent pairing witnesses, and
    divisibility of the module."""
    table = MBasis()
    bad = []

    # shift action verified on q-expansions, not by construction; no entry
    # of degree <= 6 reaches past delta^81, well inside the precision
    table.ensure_degree(6)
    cmp_prec = 204
    for d in range(7):
        for a in range(d + 1):
            b = d - a
            for p, (i, j) in ((3, (a - 1, b)), (5, (a, b - 1))):
                want = (table.series(i, j, cmp_prec) if min(i, j) >= 0 else
                        F2Series(0, cmp_prec))
                if hecke(p, table.series(a, b, p * cmp_prec)) != want:
                    bad.append(f"T{p} shift fails at ({a},{b})")

    # uniqueness: the stacked system has trivial kernel
    for n in (8, 16, 256):
        if not stacked_kernel_is_trivial(hecke_matrix(3, n).cols,
                                         hecke_matrix(5, n).cols):
            bad.append(f"stacked kernel nontrivial at level {n}")

    # duality roundtrip on 100 random elements of level 16, via the chains
    rng = random.Random(0x5eed)
    t3, t5 = hecke_matrix(3, 16).cols, hecke_matrix(5, 16).cols
    for _ in range(100):
        coords = rng.randrange(1, 1 << 16)
        support = chain_coefficients(t3, t5, coords)
        if (table.coefficients(DeltaCoords(coords, 16)) != support
                or table.recompose(support).coords != coords):
            bad.append(f"duality roundtrip fails for coords {coords:#x}")
            break

    # pairing witness: factor the leading exponent m, apply those T_p, land
    # on q^1 coefficient 1 -- for all 65535 nonzero elements of the level-16
    # space, which include the 255 of the level-8 space (coords < 2^8)
    coords = _first_failing_witness(_witness_functionals(16), 16)
    if coords is not None:
        bad.append(f"pairing witness fails for coords {coords:#x} (level 16)")

    # divisibility: preimages of the level-3 space under u(T_3, T_5)
    found = []
    for label, u in (("x", {(1, 0)}), ("y", {(0, 1)}),
                     ("x+y", {(1, 0), (0, 1)}),
                     ("x+y+xy", {(1, 0), (0, 1), (1, 1)})):
        minimal = next(
            (m for m in range(3, 65) if check_divisibility(u, 3, m)), None)
        if minimal is None:
            bad.append(f"divisibility by {label} not attained below level 65")
        else:
            found.append(f"{label}:N={minimal}")
    return bad, ("shift+uniqueness deg<=6; 100 roundtrips; witnesses on all "
                 "of levels 8 and 16; " + " ".join(found))


@_check("dominant-exponents")
def check_dominant_exponents() -> tuple[list[str], str]:
    """The largest delta exponent of m(a,b) is an odd integer whose code
    is (a,b), for a+b <= 6; and the T_3/T_5 chains, not the table, read
    m(a,b) back as the one monomial (a,b), of nilpotence order a+b+1."""
    table = MBasis()
    table.ensure_degree(6)
    t3, t5 = (hecke_matrix(p, table.level).cols for p in (3, 5))
    bad = []
    for d in range(7):
        for a in range(d + 1):
            b = d - a
            k = table.dominant_exponent(a, b)
            if table.code_of(k) != (a, b):
                bad.append(f"code({k}) != ({a},{b})")
            got = chain_coefficients(t3, t5, table.element(a, b).coords)
            if got != {(a, b)}:
                bad.append(f"nilpotence of m({a},{b}): {sorted(got)}")
    return bad, "codes and nilpotence orders, a+b<=6"


# -- Hecke algebra ----------------------------------------------------------

@_check("hecke-algebra-dimension")
def check_algebra_dimension() -> tuple[list[str], str]:
    """The unital algebra generated by T_3 and T_5 on the level-n space has
    dimension exactly n, and every T_p with p <= 31 already lies in it.

    Levels nest and each is invariant under every T_p, so restricting to
    level n is an algebra map from the algebra at level 64 onto the one at
    level n: one closure at level 64 gives every dimension
    (`AlgebraSpan.level_dimensions`), and T_p in the algebra at level 64
    restricts to T_p in the algebra at every level below."""
    top = 64
    span = AlgebraSpan(top, (3, 5))
    bad = [f"dim at level {n} = {d}"
           for n, d in enumerate(span.level_dimensions()) if n and d != n]
    if span.dimension == top:
        bad += [f"T_{p} outside the T_3,T_5 algebra at level {top}"
                for p in odd_primes(31) if p not in (3, 5)
                and not span.contains(hecke_matrix(p, top))]
    return bad, "dim = n for n<=64; generators up to 31 add nothing"


@_check("commutant")
def check_commutant() -> tuple[list[str], str]:
    """The commutant of {T_3, T_5} in the full matrix algebra has dimension
    n: nothing commutes with the Hecke action beyond the algebra itself."""
    bad = [f"n={n}" for n in range(1, 33) if commutant_dimension(n) != n]
    return bad, "dimension n for n<=32"


@_check("triangularity-nilpotency")
def check_triangularity() -> tuple[list[str], str]:
    """Every Hecke matrix with p <= 97, n <= 64 is strictly triangular in
    the exponent-ordered basis (levels below 64, prefixes of level 64, are
    re-certified when served and here), levels nest, and all are nilpotent.

    The nilpotency index at every level n is read off the level-64 columns
    (`level_nilpotency_indices`): the longest chain T^i delta^(2k+1),
    k < n, which stays in level n since T is triangular."""
    max_level = 64
    bad = []
    for p in odd_primes(97):
        big = hecke_matrix(p, max_level)
        for n in range(1, max_level + 1):
            cols = hecke_matrix(p, n).cols
            # column k, the image of delta^(2k+1), lies below bit k
            if any(c >> k for k, c in enumerate(cols)):
                bad.append(f"T_{p} level {n} not strictly triangular")
            elif cols != big.cols[:n]:
                bad.append(f"T_{p} level {n} not nested in level {max_level}")
    index = {p: level_nilpotency_indices(hecke_matrix(p, max_level).cols)
             for p in (3, 5, 7)}
    for n in range(1, max_level + 1):
        for p in (3, 5, 7):
            if (s := index[p][n]) > n:
                bad.append(f"T_{p} nilpotency index {s} > {n}")
    return bad[:4], f"all odd p<=97 at every level n<={max_level}; nilpotent"


@_check("hecke-commutativity")
def check_hecke_commutativity() -> tuple[list[str], str]:
    """T_p T_q = T_q T_p on odd delta powers, compared as q-expansions."""
    primes = odd_primes(13)
    bad = []
    for i, p in enumerate(primes):
        for q in primes[i + 1:]:
            for k in range(1, 20, 2):
                f = delta_pow(k, p * q * 64)
                if hecke(p, hecke(q, f)) != hecke(q, hecke(p, f)):
                    bad.append(f"p={p} q={q} k={k}")
    return bad, "p,q<=13 on delta^k, k<=19"


def _prime_power_indices(e: int) -> set[int]:
    """Exponents j with T_p^e = sum T_{p^j} over GF(2), from the recurrence
    T_p T_{p^r} = T_{p^(r+1)} + T_{p^(r-1)} (the weight factor is odd)."""
    coeffs = {0: 1}
    for _ in range(e):
        nxt: dict[int, int] = {}
        for j in coeffs:
            nxt[j + 1] = nxt.get(j + 1, 0) ^ 1
            if j >= 1:
                nxt[j - 1] = nxt.get(j - 1, 0) ^ 1
        coeffs = {j: c for j, c in nxt.items() if c}
    return set(coeffs)


def _pairing_prediction(m: int, f: F2Series) -> int:
    """Predicted q^1 coefficient of prod_p T_p^{e_p} f for m = prod p^e_p,
    expanding each repeated factor through the Hecke relation."""
    factor_sets = [[]]
    for p, e in Counter(odd_prime_factors(m)).items():
        factor_sets = [
            prev + [p ** j] for prev in factor_sets
            for j in _prime_power_indices(e)
        ]
    acc = 0
    for choice in factor_sets:
        acc ^= f.coeff(prod(choice))
    return acc


@_check("iterated-hecke-pairing")
def check_pairing_formula() -> tuple[list[str], str]:
    """The q^1 coefficient of T_{p_1}...T_{p_r} f: equals the coefficient
    of q^{p_1...p_r} in f when the primes are distinct, and in general the
    XOR predicted by expanding repeated factors through the Hecke relation
    (T_p^2 = T_{p^2} + 1, so e.g. T_3^2 delta = 0 while a_9(delta) = 1)."""
    bad = []
    for m in range(1, 106, 2):
        factors = odd_prime_factors(m)
        squarefree = len(set(factors)) == len(factors)
        for k in range(1, 16, 2):
            f = delta_pow(k, 105)
            g = f
            for p in factors:
                g = hecke(p, g)
            if squarefree and g.coeff(1) != f.coeff(m):
                bad.append(f"m={m} k={k} (squarefree)")
            if g.coeff(1) != _pairing_prediction(m, f):
                bad.append(f"m={m} k={k} (general)")
    return bad, ("squarefree products <= 105 verbatim; all odd m <= 105 via "
                 "the Hecke relation; delta^k with k<=15")


@_check("generation-by-pairs")
def check_generation_pairs() -> tuple[list[str], str]:
    """Any pair T_p, T_p' with p = 3 mod 8 and p' = 5 mod 8 generates the
    full algebra (checked for p, p' <= 37, levels up to 32).

    Restriction to level n is an algebra map onto the algebra the level-n
    matrices generate, so one closure per pair at level 32 gives the
    dimension at every level (`AlgebraSpan.level_dimensions`)."""
    ps = [p for p in odd_primes(37) if p % 8 == 3]
    qs = [p for p in odd_primes(37) if p % 8 == 5]
    top = 32
    dims = {(p, q): AlgebraSpan(top, (p, q)).level_dimensions()
            for p in ps for q in qs}
    bad = [f"(T_{p},T_{q}) at level {n}" for n in range(1, top + 1)
           for p in ps for q in qs if dims[p, q][n] != n]
    return bad, f"{len(ps)}x{len(qs)} pairs, levels <= 32"


@_check("kernel-equality")
def check_kernel_equality() -> tuple[list[str], str]:
    """T_p has the same kernel as T_3 when p = 3 mod 8, and as T_5 when
    p = 5 mod 8: T_p, T_base and [T_p; T_base] have one rank, n <= 32.

    Level n's matrix is the first n columns at level 32, so each rank at
    every level is read off one incremental span (`prefix_ranks`) of the
    level-32 columns, stacked as c | r << 32 for [T_p; T_base]."""
    top = 32
    level_ranks = {}
    for base in (3, 5):
        ref = hecke_matrix(base, top).cols
        ref_ranks = prefix_ranks(ref)
        for p in odd_primes(100):
            if p % 8 == base and p != base:
                cols = hecke_matrix(p, top).cols
                stacked = [c | r << top for c, r in zip(cols, ref)]
                level_ranks[base, p] = list(zip(
                    prefix_ranks(cols), ref_ranks, prefix_ranks(stacked)))
    bad = [f"ker T_{p} != ker T_{base} at level {n}" for n in range(1, top + 1)
           for (base, p), ranks in level_ranks.items()
           if len(set(ranks[n])) > 1]
    return bad, "p<=100 in both classes, n<=32"


@_check("module-cyclicity")
def check_module_cyclicity() -> tuple[list[str], str]:
    """The level-n space is a cyclic (equivalently free, by the dimension
    count) module over its Hecke algebra exactly when n is 1, 2 or a power
    of two: the quotient by the maximal-ideal image, computed as
    n - rank(T_3 and T_5 columns), has dimension 1 precisely there.

    At n = 4 this is forced by the tabulated values alone: the shift
    action on m(1,1) = delta^7 reaches delta^5, delta^3 and delta."""
    bad = []
    for n in range(1, 33):
        cols = hecke_matrix(3, n).cols + hecke_matrix(5, n).cols
        quotient = n - rank(cols)
        cyclic_expected = n & (n - 1) == 0
        if (quotient == 1) != cyclic_expected:
            bad.append(f"level {n}: quotient dim {quotient}")
    return bad, "cyclic exactly at powers of two, checked n<=32"


# -- T_p expansions -----------------------------------------------------------

@_check("tp-expansion-tables")
def check_tp_tables() -> tuple[list[str], str]:
    """The expansions of T_7, T_11, T_13, T_17 in x = T_3, y = T_5 match
    the published series coefficient-for-coefficient through the printed
    total degrees."""
    table = MBasis()
    bad = []
    for p, (printed, depth) in sorted(TP_PRINTED.items()):
        got = {ij for ij in table.tp_expansion(p, depth)}
        if got != printed:
            bad.append(f"T_{p}: +{sorted(got - printed)} -{sorted(printed - got)}")
    if table.tp_expansion(3, 6) != {(1, 0)} or table.tp_expansion(5, 6) != {(0, 1)}:
        bad.append("T_3 or T_5 is not the corresponding coordinate")
    return bad, "T_7/T_11/T_13/T_17 through degrees 14/13/11/12"


@_check("frobenian-criteria")
def check_frobenian() -> tuple[list[str], str]:
    """For every odd prime below 1000: the parity class of every monomial
    of T_p, through degree 8, is determined by p mod 8, and the five
    explicit coefficient criteria hold (congruences, and representations
    marked by one sieve)."""
    bound = 999
    rep8 = odd_b_representations(bound, 8)
    rep16 = odd_b_representations(bound, 16)
    bad = []
    for p, monomials in MBasis().tp_table(bound, 8).items():
        if not parity_pattern_holds(p, monomials):
            bad.append(f"parity pattern fails for {p}")
        report = frobenian_report(p, monomials, rep8, rep16)
        if not report.all_ok:
            bad.append(f"coefficient criteria fail for {p}: {report}")
    return bad[:4], "all odd p < 1000, degree <= 8"


@_check("tp-coefficient-consistency")
def check_aij_consistency() -> tuple[list[str], str]:
    """a_ij(p) computed as the q^p coefficient of m(i,j) agrees with the
    shift coefficients read from the m-expansion of T_p m(5,5)."""
    table = MBasis()
    # T_p is triangular, so it keeps m(5,5) in the least level holding it
    level = code_level(5, 5)
    coords = table.element(5, 5).coords
    bad = []
    for p, direct in table.tp_table(50, 5).items():
        image = hecke_matrix(p, level).apply(coords)
        support = (table.coefficients(DeltaCoords(image, level))
                   if image else frozenset())
        via_shift = {(5 - i, 5 - j) for i, j in support if i <= 5 and j <= 5}
        via_shift = {(i, j) for i, j in via_shift if i + j <= 5}
        if via_shift != direct:
            bad.append(f"p={p}")
    return bad, "two routes agree for p<=50, i+j<=5"


@_check("injectivity-witnesses")
def check_injectivity_witnesses() -> tuple[list[str], str]:
    """Witness construction: for sample series u in x, y the returned odd k
    satisfies u(T_3, T_5) delta^k = delta (verified internally)."""
    table = MBasis()
    cases = [
        ({(0, 0): 1}, 1), ({(1, 0): 1}, 3), ({(2, 0): 1, (0, 2): 1}, 9),
    ]
    bad = []
    for lam, want in cases:
        got = table.injectivity_witness(set(lam))
        if got != want:
            bad.append(f"{sorted(lam)} -> {got} != {want}")
    extra = [{(1, 2), (3, 0)}, {(1, 1), (2, 2)}, {(0, 3), (4, 1), (2, 3)}]
    for lam in extra:
        table.injectivity_witness(lam)  # raises on failure
    return bad, f"{len(cases) + len(extra)} series"


# -- theta families ------------------------------------------------------------

@_check("theta-tables-identities")
def check_theta_tables(precision: int = 4096) -> tuple[list[str], str]:
    """Theta tables for n <= 3 match the published values, and the identity
    families hold for n <= 6 at the working precision.

    Each index 0..6 is walked once per form, read as family n and as the
    family below n + 1.  None is derived by descent
    (`theta.theta_families`), since descent is an identity tested here."""
    bad = []
    for c, tbl in THETA_TABLE.items():
        for (t, n), want in tbl.items():
            got = theta_coords(t, n, c, 16).support_exponents()
            if got != want:
                bad.append(f"theta(t={t},n={n},c={c}) = {got} != {want}")
    holds = {}
    for c in (2, 4):
        walked = [[theta_series(t, n, c, precision).bits for t in range(1 << n)]
                  for n in range(7)]
        for n in range(1, 7):
            holds[n, c] = verify_theta_identities(n, c, precision, walked[n],
                                                  walked[n - 1])
    bad += [f"identities fail at n={n}, c={c}"
            for n in range(1, 7) for c in (2, 4) if not holds[n, c]]
    return bad, ("tables n<=3 both forms; identities n<=6 at precision "
                 f"{precision}")


@_check("theta-span-equalities")
def check_span_equalities() -> tuple[list[str], str]:
    """Theta families span the same subspaces as the boundary rows of the
    m-basis: m(a,0) for the form x^2+2y^2, m(0,b) for x^2+4y^2."""
    bad = []
    for n in range(1, 5):
        if not verify_span_equality(n, 2):
            bad.append(f"c=2 n={n}")
    for n in range(1, 4):
        if not verify_span_equality(n, 4):
            bad.append(f"c=4 n={n}")
    return bad, "c=2 for n<=4, c=4 for n<=3"


@_check("hecke-on-theta")
def check_hecke_on_theta(precision: int = 256) -> tuple[list[str], str]:
    """The Hecke action permutes theta indices through the composition law
    (split primes) or kills the family (inert primes), for all p <= 100 and
    n <= 4; plus the closed-form special relations.

    Each form is walked once, at index 4 and precision max(p) * precision,
    and indices 3, 2, 1 come by descent (`theta.theta_families`).  The
    special relations read truncations of the same families to 2 *
    precision."""
    odd = odd_primes(100)
    failed, special = {}, []
    for c in (2, 4):
        families = theta_families(4, c, max(odd) * precision)
        for n in range(1, 5):
            failed[n, c] = set(verify_hecke_on_theta(odd, n, c, precision,
                                                     families[n]))
        for n in (1, 2, 3):
            exponent = code_exponent(*boundary(1 << (n - 1), c))
            for p in SPECIAL_RELATION_PRIMES[c]:
                tp = t_of_prime(p, n, c)
                lhs = F2Series(families[n][((1 << (n - 1)) - tp) % (1 << n)],
                               2 * precision)
                rhs = hecke(p, delta_pow(exponent, p * 2 * precision))
                if lhs != rhs:
                    special.append(f"special relation p={p} n={n} c={c}")
        del families  # the next form is walked with none of this one held
    bad = [f"p={p} n={n} c={c}" for p in odd for c in (2, 4)
           for n in range(1, 5) if p in failed[n, c]]
    return bad + special, (f"p<=100, n<=4, both forms, precision {precision}; "
                           "special relations n<=3")


@_check("hecke-composition-compatibility")
def check_composition_compatibility(precision: int = 128) -> tuple[list[str], str]:
    """Two Hecke operators acting on a theta series compose through the
    law: T_p T_q theta equals the four-term index sum
    (`theta.hecke_mismatches` on the word (p, q)).  Each form is walked
    once, at index 3 and the deepest precision, max(primes)^2 * precision,
    and indices 2 and 1 come by descent (`theta.theta_families`)."""
    bad = []
    for c, primes in SPECIAL_RELATION_PRIMES.items():
        families = theta_families(3, c, max(primes) ** 2 * precision)
        for n in (1, 2, 3):
            for p in primes:
                for q in primes:
                    bad += [f"p={p} q={q} t={t} n={n} c={c}" for t in
                            hecke_mismatches((p, q), n, c, precision,
                                             families[n])]
        del families  # the next form is walked with none of this one held
    return bad, "double action matches four-term sums, n<=3"


@_check("composition-groups")
def check_composition_groups() -> tuple[list[str], str]:
    """(Z/2^n, *) is an abelian group, cyclic of order 2^n, for both laws:
    each is certified in O(2^n) steps through the classes 1 + xt of
    (Z/2^n)[t]/(t^2 + c) (see `verify_composition_group`)."""
    bad = [
        f"n={n} c={c}"
        for n in range(1, 11) for c in (2, 4)
        if not verify_composition_group(n, c)
    ]
    return bad, "abelian + cyclic of order 2^n, n<=10"


@_check("theta-kernel-characterization")
def check_kernel_characterization() -> tuple[list[str], str]:
    """Kernel vectors of T_5 (resp. T_3) have representable q-support and
    lie in the theta (resp. theta') span."""
    bad = []
    for c in (2, 4):
        for n_level in (2, 4, 8):
            if not verify_kernel_characterization(n_level, c, 2048):
                bad.append(f"c={c} level {n_level}")
    return bad, "levels 2, 4, 8 for both forms"


SUITES: dict[str, list] = {
    "algebra": [check_triangularity, check_hecke_commutativity,
                check_pairing_formula, check_algebra_dimension,
                check_commutant, check_generation_pairs,
                check_kernel_equality, check_module_cyclicity],
    "mbasis": [check_m_table, check_structure_suite,
               check_dominant_exponents, check_injectivity_witnesses],
    "tp": [check_tp_tables, check_frobenian, check_aij_consistency],
    "theta": [check_theta_tables, check_span_equalities,
              check_hecke_on_theta, check_composition_compatibility,
              check_composition_groups, check_kernel_characterization],
}
SUITES["all"] = [fn for suite in ("algebra", "mbasis", "tp", "theta")
                 for fn in SUITES[suite]]


def run_suite(name: str, precision: int | None = None) -> list[CheckResult]:
    """Run a named suite; `precision` overrides the working precision of
    the series-comparison checks that take one."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    overrides = {}
    if precision is not None:
        overrides = {
            # 1 + 2^10, the special exponent at c = 4, n = 6: none is skipped
            check_theta_tables: {"precision": max(precision, 1025)},
            check_hecke_on_theta: {"precision": max(precision // 16, 64)},
            check_composition_compatibility: {"precision": max(precision // 32, 64)},
        }
    return [fn(**overrides.get(fn, {})) for fn in SUITES[name]]
