"""The canonical basis m(a,b) dual to the monomials in T_3 and T_5.

m(a,b) is the unique series in the span of odd delta powers with
T_3 m(a,b) = m(a-1,b), T_5 m(a,b) = m(a,b-1) (zero when an index hits the
boundary) and q^1 coefficient 1 exactly at (a,b) = (0,0).  Its largest
delta exponent has a closed form: the code of an odd k, read off the
binary digits of (k-1)/2, is the (a,b) whose m(a,b) peaks at delta^k.  So
the level that holds an entry is known before any matrix is built.

A level is read off one certified table, the q^1 pairing of the odd delta
powers with the monomials T_5^b T_3^a (`pairing_table`).  Its rows are unit
triangular in the code order, so m(a,b) is one triangular solve and the
m-expansion of any element is one sum of rows.

The same table drives the expansion of every T_p as a series in x = T_3
and y = T_5: the coefficient of x^i y^j in T_p is the q^p coefficient of
m(i,j), so one q-expansion of each m(i,j) gives T_p at every prime.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from math import isqrt

from . import spaces
from .gf2 import (apply_columns, bit_flags, even_bits, iter_bits, rank,
                  spread_bits)
from .primes import odd_primes
from .series import F2Series, _odd_delta_power_bits
from .spaces import (DeltaCoords, LevelExhausted, expand_in_delta_basis,
                     hecke_matrix, monomial_images, polynomial_image,
                     within_budget, within_cap)

MIndex = tuple[int, int]

# (i mod 2, j mod 2) forced on every monomial of T_p, by p mod 8
PARITY_PATTERN = {1: (0, 0), 3: (1, 0), 5: (0, 1), 7: (1, 1)}


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


def _lift(up, n: int):
    """`up` on a bitset of indices below n: one mask and one shift for each
    distance up(j) - j, of which there are at most log2(n) + 1."""
    masks: dict[int, int] = {}
    for j in range(n):
        masks[up(j) - j] = masks.get(up(j) - j, 0) | 1 << j

    def lifted(s: int) -> int:
        out = 0
        for d, mask in masks.items():
            out |= (s & mask) << d
        return out
    return lifted


def pairing_table(t3: tuple[int, ...], t5: tuple[int, ...]) -> list[int]:
    """The certified pairing table phi of the level n = len(t3).

    Bit j of phi[k] is a_1(T_5^b T_3^a delta^(2k+1)), (a,b) the code of
    2j+1.  Applying one T_3 first when a > 0, else one T_5, gives the
    shift identity phi[k] = up_x(phi.t3[k]) | up_y(phi.t5[k]) & A0 | [k=0]:
    phi.c is the XOR of phi[i] over the bits i of c, up_x and up_y move a
    code one step up in a and in b, A0 and B0 hold the codes with a = 0 and
    with b = 0.  Row k raises unless (i) both columns it reads have
    c >> k == 0, (ii) phi[k] & ~B0 == up_y(phi.t5[k]), which is T_3 T_5 =
    T_5 T_3 as the pairing sees it, and (iii) phi[k].bit_length() == k + 1.

    Proof of the theorem at level n.  By linearity and (ii), every g has
    phi.g = up_x(phi.T_3 g) ^ up_y(phi.T_5 g) & A0 ^ g_0, with up_y(phi.T_5
    g) its part with b > 0.  By (iii) phi is invertible, so T_3 g = T_5 g =
    g_0 = 0 forces g = 0: [T_3; T_5; e] has trivial kernel.  And phi^-1 e_j
    is m(a,b): its T_3, T_5 images pair as e_(a-1,b), e_(a,b-1) (0 at a
    boundary) and g_0 = [j = 0].  So T_3 and T_5 shift a basis, the codes
    below n are closed downward, and F2[x,y] maps onto the Hecke algebra
    of the level with kernel spanned by the monomials outside the codes.
    """
    n = len(t3)
    up_x, up_y = _lift(_up3, n), _lift(_up5, n)
    a0 = sum(1 << j for j in range(n) if not j & _EVEN)
    b0 = sum(1 << j for j in range(n) if not j & _ODD)
    phi: list[int] = []

    def violated(fault: str) -> RuntimeError:
        return RuntimeError(f"uniqueness violated at level {n}: {fault}")

    for k, (c3, c5) in enumerate(zip(t3, t5)):
        if c3 >> k or c5 >> k:
            raise violated(f"column {k} is not strictly triangular")
        up5 = up_y(apply_columns(phi, c5))
        row = up_x(apply_columns(phi, c3)) | up5 & a0 | (k == 0)
        if row & ~b0 != up5:
            raise violated(f"row {k} breaks T_3 T_5 = T_5 T_3")
        if row.bit_length() != k + 1:
            raise violated(f"row {k} is not unit triangular")
        phi.append(row)
    return phi


def chain_coefficients(t3: tuple[int, ...], t5: tuple[int, ...],
                       coords: int) -> frozenset[MIndex]:
    """Support of the expansion of coords in the m(a,b) basis, read off the
    chains of T_3 and T_5 rather than the pairing table: (a,b) is in it
    iff T_3^a T_5^b f, one of its `monomial_images`, has bit 0 set."""
    return frozenset(ab for ab, w in monomial_images(t3, t5, coords) if w & 1)


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
    """Uniqueness at level n = len(t3) by rank, apart from `pairing_table`:
    the columns of [T_3; T_5; e], with e reading the delta coordinate, have
    rank n exactly when the stacked system has trivial kernel."""
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
    """The m(a,b) basis at one working level, read off its pairing table.

    Nothing is built at construction.  A request that needs a higher level
    moves the table there once, at least doubling the level, and rebuilds
    there the T_3/T_5 columns and the certified pairing table phi; no entry
    is stored.  `element` and `recompose` are the same triangular solve on
    phi, and `coefficients` is phi.f.  A level over `spaces.LEVEL_CAP`
    raises LevelExhausted before anything is built.
    Delta powers, for T_p expansions, are taken at the working precision:
    the largest q^p a T_p read has asked for.  Construction is sequential;
    a completed table is read-only for consumers.
    """

    def __init__(self):
        self._level = 0
        self._precision = 0

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
        self._phi = pairing_table(self._t3, self._t5)

    def _grow(self, level: int):
        self._level = min(max(within_cap(level), 2 * self._level),
                          spaces.LEVEL_CAP)
        self._rebuild()

    def ensure_level(self, level: int):
        if level > self._level:
            self._grow(level)

    def ensure_precision(self, precision: int):
        """Raise the working precision to `precision`, if it is lower."""
        self._precision = max(self._precision, precision)

    def ensure_degree(self, degree: int):
        """Move to the level holding every m(a,b) with a + b <= degree."""
        self.ensure_level(degree_level(degree))

    # -- the triangular solve ------------------------------------------------

    def recompose(self, support) -> DeltaCoords:
        """Sum g of m(a,b) over an index set: phi.g = XOR of e_j over their
        code indices j, solved from the top bit down in at most j + 1 steps."""
        r = 0
        for a, b in support:
            r ^= 1 << (within_cap(code_level(a, b)) - 1)
        self.ensure_level(max(r.bit_length(), 1))
        phi, g = self._phi, 0
        while r:
            top = r.bit_length() - 1
            g |= 1 << top
            r ^= phi[top]
        return DeltaCoords(g, self._level)

    def element(self, a: int, b: int) -> DeltaCoords:
        return self.recompose({(a, b)})

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
        """Support of the expansion of f in the m(a,b) basis: the coefficient
        at (a,b) is the q^1 coefficient of T_5^b T_3^a f, so the support is
        the codes of the bits of phi.f."""
        coords = self._coerce(f)
        paired = apply_columns(self._phi, coords)
        return frozenset(code_of(2 * j + 1) for j in iter_bits(paired))

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
        self.ensure_level((k + 1) // 2)
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
        within_budget(level, p_max)
        primes = odd_primes(p_max)
        self.ensure_level(level)
        self.ensure_precision(p_max)
        pows = _odd_delta_power_bits(level, self.precision)
        # bit k of masks[p] is the coefficient of the k-th monomial in T_p
        masks = dict.fromkeys(primes, 0)
        monomials = [(i, d - i) for d in range(degree + 1) for i in range(d + 1)]
        for k, ij in enumerate(monomials):
            coords = self.element(*ij).coords
            flags = bit_flags(apply_columns(pows, coords), p_max + 1)
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
        one prime of `tp_table`, which checks its budget before the sieve."""
        table = self.tp_table(p, degree) if p > 2 and p % 2 else {}
        if p not in table:
            raise ValueError(f"expected an odd prime, got {p}")
        return table[p]

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
        if polynomial_image(self._t3, self._t5, support, base) != 1:
            raise RuntimeError(
                f"witness verification failed: u(T_3,T_5) delta^{k} != delta"
            )
        return k
