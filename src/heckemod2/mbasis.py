"""The canonical basis m(a,b) dual to the monomials in T_3 and T_5.

m(a,b) is the unique series in the span of odd delta powers with
T_3 m(a,b) = m(a-1,b), T_5 m(a,b) = m(a,b-1) (zero when an index hits the
boundary) and q^1 coefficient 1 exactly at (a,b) = (0,0).  Its largest
delta exponent has a closed form: the code of an odd k, read off the
binary digits of (k-1)/2, is the (a,b) whose m(a,b) peaks at delta^k.  So
the level that holds an entry is known before any matrix is built, and
each entry is read off its two parents by back-substitution on the
columns of T_3 and T_5, guided by the code.  The stacked system
[T_3; T_5; e] has trivial kernel at every level built (its columns are
checked independent there), so the element found is the only one.

The same table drives the expansion of every T_p as a series in x = T_3
and y = T_5: the coefficient of x^i y^j in T_p is the q^p coefficient of
m(i,j), so one q-expansion of each m(i,j) gives T_p at every prime.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from math import isqrt

from .gf2 import apply_columns, bit_flags, even_bits, rank, spread_bits
from .primes import is_odd_prime, odd_primes
from .series import F2Series, _odd_delta_power_bits
from .spaces import DeltaCoords, expand_in_delta_basis, hecke_matrix

MIndex = tuple[int, int]

LEVEL_CAP = 8192
# the most bits of delta powers (level times precision) a T_p table may
# build: p_max = 10^7 at degree 2 and 10^6 at degree 24 stay below it
POWER_BITS_CAP = 1 << 30

# (i mod 2, j mod 2) forced on every monomial of T_p, by p mod 8
PARITY_PATTERN = {1: (0, 0), 3: (1, 0), 5: (0, 1), 7: (1, 1)}


class LevelExhausted(RuntimeError):
    """A computation needs a level over the level cap."""


def _shown(n: int):
    """n, or a few words in place of a number too long to print."""
    return n if n < 1 << 64 else "above 2^64"


def within_cap(level: int) -> int:
    """`level`, if the level cap allows it; else LevelExhausted, with a
    message of a few dozen characters however large the level is."""
    if level > LEVEL_CAP:
        raise LevelExhausted(
            f"level {_shown(level)} needed, over the level cap {LEVEL_CAP}")
    return level


def code_of(k: int) -> MIndex:
    """The index (a,b) whose m(a,b) has dominant exponent k, k odd >= 1:
    the bits of (k-1)/2 at even positions are the binary digits of a, the
    bits at odd positions those of b."""
    if k < 1 or k % 2 == 0:
        raise ValueError(f"expected an odd positive exponent, got {k}")
    j = (k - 1) // 2
    return even_bits(j), even_bits(j >> 1)


def code_exponent(a: int, b: int) -> int:
    """The odd k whose code is (a,b): the dominant exponent of m(a,b)."""
    if a < 0 or b < 0:
        raise ValueError("indices must be >= 0")
    return 2 * (spread_bits(a) | spread_bits(b) << 1) + 1


def code_level(a: int, b: int) -> int:
    """The least level whose space holds m(a,b)."""
    return (code_exponent(a, b) + 1) // 2


def degree_level(degree: int) -> int:
    """The least level holding every m(a,b) with a + b <= degree: that of
    m(0, degree).  The code exponent grows with a and with b, so it peaks
    on a + b = degree, where the digits of b sit in the higher Morton
    slots.  Let 2^h be the top bit of degree.  If b has it, induct on
    degree - 2^h.  If not, b < 2^h and a < 2^(h+1), so the code index
    (k-1)/2 of m(a,b) is below 2^(2h+1), which that of m(0, degree)
    reaches."""
    return code_level(0, degree)


# Morton masks on the index (k-1)/2 of delta^k: the digits of a sit at the
# even positions, those of b at the odd ones; good for any index below 2^63
_EVEN = int("01" * 32, 2)
_ODD = _EVEN << 1


def _up3(j: int) -> int:
    """The index whose code is one more in a than the code of index j."""
    return ((j | _ODD) + 1) & _EVEN | (j & _ODD)


def _up5(j: int) -> int:
    """The index whose code is one more in b than the code of index j."""
    return ((j | _EVEN) + 2) & _ODD | (j & _EVEN)


@dataclass(frozen=True)
class FrobenianReport:
    """Whether each explicit coefficient criterion holds for one prime:
    a10 <-> p = 3 mod 8, a01 <-> p = 5 mod 8, a11 <-> p = 7 mod 16,
    a20 <-> p = a^2 + 8b^2 (b odd), a02 <-> p = a^2 + 16b^2 (b odd)."""

    a10: bool
    a01: bool
    a11: bool
    a20: bool
    a02: bool

    @property
    def all_ok(self) -> bool:
        return self.a10 and self.a01 and self.a11 and self.a20 and self.a02


def stacked_kernel_is_trivial(t3: tuple[int, ...], t5: tuple[int, ...]) -> bool:
    """The uniqueness certificate for the level n = len(t3): the columns
    of [T_3; T_5; e], with e reading the delta coordinate, have rank n
    exactly when the stacked system has trivial kernel."""
    n = len(t3)
    stacked = [c3 | c5 << n for c3, c5 in zip(t3, t5)]
    stacked[0] |= 1 << (2 * n)
    return rank(stacked) == n


def odd_b_representations(bound: int, c: int) -> bytearray:
    """flags[n] = 1 iff n = a^2 + c*b^2 with integers a, b and b odd, for
    0 <= n <= bound: one pass over the odd b and the squares."""
    flags = bytearray(bound + 1)
    squares = [a * a for a in range(isqrt(bound) + 1)]
    for b in range(1, isqrt(bound // c) + 1, 2):
        base = c * b * b
        for s in squares[:isqrt(bound - base) + 1]:
            flags[base + s] = 1
    return flags


def parity_pattern_holds(p: int, monomials) -> bool:
    """Does every monomial x^i y^j of T_p have the parity class
    (i mod 2, j mod 2) forced by p mod 8?"""
    want = PARITY_PATTERN[p % 8]
    return all((i % 2, j % 2) == want for i, j in monomials)


def frobenian_report(p: int, monomials, rep8: bytearray, rep16: bytearray
                     ) -> FrobenianReport:
    """The five explicit criteria for one odd prime p, read off the
    monomials of T_p through degree 2 or more; rep8 and rep16 are the
    `odd_b_representations` flags for c = 8 and 16, through at least p."""
    return FrobenianReport(
        a10=((1, 0) in monomials) == (p % 8 == 3),
        a01=((0, 1) in monomials) == (p % 8 == 5),
        a11=((1, 1) in monomials) == (p % 16 == 7),
        a20=((2, 0) in monomials) == rep8[p],
        a02=((0, 2) in monomials) == rep16[p],
    )


class MBasis:
    """Table of m(a,b) elements at one working level.

    Nothing is built at construction.  A request that needs a higher level
    moves the table there once, at least doubling the level, rebuilds
    there the T_3/T_5 columns and checks that the stacked system has
    trivial kernel; entries are then solved from their parents by
    back-substitution on those columns.  A level over `LEVEL_CAP` raises
    LevelExhausted before anything is built.  Delta powers, for T_p
    expansions, are taken at the working precision: the largest q^p a
    T_p read has asked for.  Construction is sequential; a completed
    table is read-only for consumers.
    """

    def __init__(self):
        self._level = 0
        self._precision = 0
        self._entries: dict[MIndex, int] = {}

    # -- level / precision management -------------------------------------

    @property
    def level(self) -> int:
        """The working level; 0 until something is built."""
        return self._level

    @property
    def precision(self) -> int:
        """The working precision; 0 until a T_p is read."""
        return self._precision

    def _rebuild(self):
        n = self._level
        self._t3 = hecke_matrix(3, n).cols
        self._t5 = hecke_matrix(5, n).cols
        if not stacked_kernel_is_trivial(self._t3, self._t5):
            raise RuntimeError(
                f"uniqueness violated at level {n}: the stacked system "
                "[T_3; T_5; e] has a nontrivial kernel"
            )

    def _grow(self, level: int):
        self._level = min(max(within_cap(level), 2 * self._level), LEVEL_CAP)
        self._rebuild()

    def ensure_level(self, level: int):
        if level > self._level:
            self._grow(level)

    def ensure_precision(self, precision: int):
        """Raise the working precision to `precision`, if it is lower."""
        self._precision = max(self._precision, precision)

    # -- table construction ------------------------------------------------

    def _solve(self, a: int, b: int) -> int:
        """m(a,b) from its parents, by back-substitution guided by the code.

        Start from f = 0 and the residuals r3 = m(a-1,b), r5 = m(a,b-1),
        which stay T_3 g and T_5 g for g = m(a,b) - f.  Write g in the
        m-basis with support S.  The top of a nonzero r3 is delta^K(c-1,d)
        for some (c,d) in S, so it proposes K(c,d), one step up in a; r5
        proposes one step up in b.  The larger proposal flips its bit of f,
        and its T_3, T_5 columns go into the residuals.  So each proposal is
        K(c,d) for some (c,d) in S, and since delta^K(c,d) is m(c,d) plus
        terms of smaller code exponent, flipping it removes (c,d) from S
        and adds only indices with smaller K.  So the multiset of K values
        on S goes down at every step, the loop ends, and every proposal is
        at most K(a,b), which the level holds.  At the end g is killed by
        T_3 and T_5, so it is 0 or delta, and the q^1 coefficient (bit 0,
        never proposed) settles it.  A proposal at or above the level can
        only come from wrong columns, and raises.  No bit of f flips twice
        for any entry under the default cap (checked for all 8192 entries
        at level 8192, whose first n columns are those of level n), so a
        second flip also means wrong columns and raises: the loop takes at
        most `level` steps whatever the columns.
        """
        n = self._level
        t3, t5 = self._t3, self._t5
        r3 = self._entries[(a - 1, b)] if a > 0 else 0
        r5 = self._entries[(a, b - 1)] if b > 0 else 0
        f = 0
        while r3 or r5:
            i = max(_up3(r3.bit_length() - 1) if r3 else 0,
                    _up5(r5.bit_length() - 1) if r5 else 0)
            if i >= n:
                raise RuntimeError(
                    f"m({a},{b}): back-substitution proposed delta^{2 * i + 1}"
                    f", beyond level {n}, which holds its code"
                )
            if f >> i & 1:
                raise RuntimeError(
                    f"m({a},{b}): back-substitution flipped delta^{2 * i + 1}"
                    " twice"
                )
            f ^= 1 << i
            r3 ^= t3[i]
            r5 ^= t5[i]
        if (a, b) == (0, 0):
            f |= 1
        return f

    def ensure(self, a: int, b: int):
        """Solve for m(a,b), recursively solving its parents first."""
        if (a, b) in self._entries:
            return
        self.ensure_level(code_level(a, b))
        if a > 0:
            self.ensure(a - 1, b)
        if b > 0:
            self.ensure(a, b - 1)
        self._entries[(a, b)] = self._solve(a, b)

    def ensure_degree(self, degree: int):
        """Solve every m(a,b) with a + b <= degree, at one level."""
        self.ensure_level(degree_level(degree))
        for d in range(degree + 1):
            for a in range(d, -1, -1):
                self.ensure(a, d - a)

    def element(self, a: int, b: int) -> DeltaCoords:
        self.ensure(a, b)
        return DeltaCoords(self._entries[(a, b)], self._level)

    def series(self, a: int, b: int, precision: int) -> F2Series:
        """q-expansion of m(a,b) through q^precision."""
        return self.element(a, b).to_series(precision)

    def dominant_exponent(self, a: int, b: int) -> int:
        """Largest exponent in the delta-basis support of m(a,b), read off
        the solved entry."""
        return self.element(a, b).dominant_exponent()

    # -- dual expansion ------------------------------------------------------

    def _coerce(self, f) -> int:
        """Coordinates of f at the (possibly grown) current level."""
        if isinstance(f, F2Series):
            f = expand_in_delta_basis(f, (f.precision + 1) // 2)
        if isinstance(f, DeltaCoords):
            self.ensure_level(max(f.coords.bit_length(), 1))
            return f.coords
        raise TypeError(f"expected DeltaCoords or F2Series, got {type(f)!r}")

    def coefficients(self, f) -> frozenset[MIndex]:
        """Support of the expansion of f in the m(a,b) basis.

        The coefficient at (a,b) is the q^1 coefficient of T_3^a T_5^b f,
        read off through the columns of the exact level matrices; the
        support is finite because both matrices are nilpotent.
        """
        coords = self._coerce(f)
        t3, t5 = self._t3, self._t5
        out = set()
        v = coords
        b = 0
        while v:
            w = v
            a = 0
            while w:
                if w & 1:
                    out.add((a, b))
                w = apply_columns(t3, w)
                a += 1
                if a > self._level:
                    raise RuntimeError("T_3 chain failed to terminate")
            v = apply_columns(t5, v)
            b += 1
            if b > self._level:
                raise RuntimeError("T_5 chain failed to terminate")
        return frozenset(out)

    def recompose(self, support) -> DeltaCoords:
        """Sum of m(a,b) over an index set, at the current level."""
        self.ensure_level(1)
        acc = 0
        for a, b in support:
            self.ensure(a, b)
            acc ^= self._entries[(a, b)]
        return DeltaCoords(acc, self._level)

    def nilpotence_order(self, f) -> int:
        """1 + the largest total degree in the m-expansion of f: the least
        s such that every degree-s monomial in T_3, T_5 kills f."""
        support = self.coefficients(f)
        if not support:
            raise ValueError("nilpotence order of 0 is undefined")
        return 1 + max(a + b for a, b in support)

    # -- codes ---------------------------------------------------------------

    def delta_power_coords(self, k: int) -> DeltaCoords:
        if k < 1 or k % 2 == 0:
            raise ValueError(f"expected an odd positive exponent, got {k}")
        level = (k + 1) // 2
        self.ensure_level(level)
        return DeltaCoords(1 << ((k - 1) // 2), self._level)

    def code_of(self, k: int) -> MIndex:
        """The index (a,b) whose m(a,b) has dominant exponent k, by the
        closed form; nothing is built."""
        return code_of(k)

    # -- T_p as a series in x = T_3, y = T_5 ---------------------------------

    def tp_table(self, p_max: int, degree: int) -> dict[int, frozenset[MIndex]]:
        """The monomials x^i y^j with coefficient 1 in T_p, up to total
        degree, for every odd prime p <= p_max, in ascending order of p.

        The coefficient of x^i y^j is the q^p coefficient of m(i,j), so each
        m(i,j) is expanded once, through q^p_max, and read at every prime
        from the sieve.  A table whose delta powers would hold more than
        POWER_BITS_CAP bits raises LevelExhausted before anything is built."""
        level = within_cap(degree_level(degree))
        bits = level * (p_max + 1)
        if bits > POWER_BITS_CAP:
            raise LevelExhausted(
                f"{_shown(bits)} bits of delta powers needed, over the level "
                f"cap's budget of {POWER_BITS_CAP} bits")
        primes = odd_primes(p_max)
        self.ensure_degree(degree)
        self.ensure_precision(p_max)
        pows = _odd_delta_power_bits(level, self.precision)
        # bit k of masks[p] is the coefficient of the k-th monomial in T_p
        masks = dict.fromkeys(primes, 0)
        monomials = [ij for ij in self._entries if ij[0] + ij[1] <= degree]
        for k, ij in enumerate(monomials):
            flags = bit_flags(apply_columns(pows, self._entries[ij]), p_max + 1)
            for p in compress(primes, map(flags.__getitem__, primes)):
                masks[p] |= 1 << k
        # few distinct T_p recur over many primes at a fixed degree, so
        # each distinct one is built once and shared
        width = len(monomials)
        shared = {mask: frozenset(compress(monomials, bit_flags(mask, width)))
                  for mask in set(masks.values())}
        return {p: shared[mask] for p, mask in masks.items()}

    def tp_expansion(self, p: int, degree: int) -> frozenset[MIndex]:
        """Monomials x^i y^j with coefficient 1 in T_p, up to total degree:
        one prime of `tp_table`."""
        if not is_odd_prime(p):
            raise ValueError(f"expected an odd prime, got {p}")
        return self.tp_table(p, degree)[p]

    # -- injectivity witnesses ------------------------------------------------

    def injectivity_witness(self, support) -> int:
        """For a nonzero series u = sum x^i y^j over the given support,
        the smallest odd k with u(T_3, T_5) delta^k = delta.

        Selection: among the support indices of minimal total degree take
        the one with maximal first index; k is the one odd integer whose
        code is that pair.  The defining identity is then verified by
        direct computation before returning.
        """
        support = frozenset(support)
        if not support:
            raise ValueError("zero series has no witness")
        dmin = min(i + j for i, j in support)
        a = max(i for i, j in support if i + j == dmin)
        k = code_exponent(a, dmin - a)
        base = self.delta_power_coords(k).coords
        acc = 0
        for i, j in support:
            v = base
            for _ in range(j):
                v = apply_columns(self._t5, v)
            for _ in range(i):
                v = apply_columns(self._t3, v)
            acc ^= v
        if acc != 1:
            raise RuntimeError(
                f"witness verification failed: u(T_3,T_5) delta^{k} != delta"
            )
        return k
