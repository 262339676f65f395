"""The filtration of spaces spanned by odd powers of delta, and the Hecke
operators acting on them as exact GF(2) matrices.

Level n is the n-dimensional space with basis delta, delta^3, ...,
delta^(2n-1).  In the exponent-ordered basis every Hecke matrix is
strictly triangular (T_p lowers the leading exponent), which is asserted
at construction time, as is stability of the level under T_p.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .gf2 import GF2Matrix, Span, lowest_bit, nullspace, rank
from .primes import is_odd_prime
from .series import F2Series, PrecisionError, _hecke_bits, _mask, _odd_delta_power_bits


class NotInSpan(ValueError):
    """A series is not in the level-n space at the available precision."""


@dataclass(frozen=True)
class DeltaCoords:
    """Coordinates in the basis delta^(2i+1), i = 0..level-1.

    Bit i of `coords` is the coefficient of delta^(2i+1); the same bits are
    valid coordinates at every level >= their width.
    """

    coords: int
    level: int

    def __post_init__(self):
        if self.level < 1:
            raise ValueError("level must be >= 1")
        if self.coords >> self.level:
            raise ValueError("coordinate bits exceed the level")

    def support_exponents(self) -> tuple[int, ...]:
        """Exponents k with delta^k present, ascending."""
        out = []
        c = self.coords
        while c:
            lsb = c & -c
            out.append(2 * (lsb.bit_length() - 1) + 1)
            c ^= lsb
        return tuple(out)

    def leading_exponent(self) -> int | None:
        if self.coords == 0:
            return None
        return 2 * lowest_bit(self.coords) + 1

    def dominant_exponent(self) -> int | None:
        """Largest delta-power exponent present, or None if zero."""
        if self.coords == 0:
            return None
        return 2 * (self.coords.bit_length() - 1) + 1

    def to_series(self, precision: int) -> F2Series:
        pows = _odd_delta_power_bits(max(self.coords.bit_length(), 1), precision)
        bits = 0
        c = self.coords
        while c:
            lsb = c & -c
            bits ^= pows[lsb.bit_length() - 1]
            c ^= lsb
        return F2Series(bits, precision)


def _greedy_expand(bits: int, pows: list[int], n: int, precision: int) -> int:
    """Eliminate leading exponents against delta powers; pows must be
    correct through `precision` and may carry bits above it, which are
    masked off before each XOR."""
    mask = _mask(precision)
    residue = bits & mask
    coords = 0
    while residue:
        e = lowest_bit(residue)
        if e % 2 == 0:
            raise NotInSpan(f"even leading exponent {e}")
        if e > 2 * n - 1:
            raise NotInSpan(f"leading exponent {e} exceeds 2n-1 = {2 * n - 1}")
        i = (e - 1) // 2
        coords |= 1 << i
        residue ^= pows[i] & mask
    return coords


def expand_in_delta_basis(f: F2Series, n: int) -> DeltaCoords:
    """Exact coordinates of f in the level-n basis.

    Requires precision >= 2n-1.  Greedy elimination on leading exponents;
    an even leading exponent, a leading exponent beyond 2n-1, or a nonzero
    residue all mean f is not in the level-n space at this precision.
    """
    if n < 1:
        raise ValueError("level must be >= 1")
    if f.precision < 2 * n - 1:
        raise PrecisionError(
            f"precision {f.precision} too small for level {n} (need {2 * n - 1})"
        )
    pows = _odd_delta_power_bits(n, f.precision)
    return DeltaCoords(_greedy_expand(f.bits, pows, n, f.precision), n)


@lru_cache(maxsize=None)
def hecke_matrix(p: int, n: int) -> GF2Matrix:
    """Matrix of T_p on the level-n space, columns indexed by delta^(2k+1).

    Internally the delta powers are taken at precision p(2n-1) so the Hecke
    image is known up to 2n-1.  Stability of the level under T_p and strict
    triangularity are checked and violations abort loudly: either would be
    an arithmetic bug, not a mathematical possibility.
    """
    if not is_odd_prime(p):
        raise ValueError(f"Hecke matrix requires an odd prime, got {p}")
    if n < 1:
        raise ValueError("level must be >= 1")
    big = p * (2 * n - 1)
    pows = _odd_delta_power_bits(n, big)
    cols = []
    for k in range(n):
        hbits, hprec = _hecke_bits(p, pows[k], big)
        try:
            c = _greedy_expand(hbits, pows, n, hprec)
        except NotInSpan as exc:
            raise RuntimeError(
                f"stability violated: T_{p} delta^{2 * k + 1} left level {n} ({exc})"
            ) from exc
        if c >> k:
            raise RuntimeError(
                f"triangularity violated: T_{p} delta^{2 * k + 1} "
                f"involves exponents >= {2 * k + 1}"
            )
        cols.append(c)
    return GF2Matrix.from_columns(cols, n)


class AlgebraSpan:
    """Echelonized span of the unital algebra generated by Hecke matrices."""

    def __init__(self, n: int, generators: tuple[int, ...]):
        if not generators:
            raise ValueError("need at least one generator prime")
        self.n = n
        self.generators = tuple(sorted(set(generators)))
        gens = [hecke_matrix(p, n) for p in self.generators]
        self._span = Span()
        queue = [GF2Matrix.identity(n)]
        self._span.add(queue[0].to_vector())
        while queue:
            m = queue.pop()
            for g in gens:
                prod = m.mul(g)
                if self._span.add(prod.to_vector()):
                    queue.append(prod)

    @property
    def dimension(self) -> int:
        return self._span.dimension

    def contains(self, m: GF2Matrix) -> bool:
        return self._span.contains(m.to_vector())


def algebra_dimension(n: int, generators) -> int:
    """Dimension of the unital algebra generated by the T_p, p in
    `generators`, acting on the level-n space.  Closure of a spanning set
    under right multiplication, rank by Gaussian elimination."""
    return AlgebraSpan(n, tuple(generators)).dimension


def commutant_dimension(n: int) -> int:
    """Dimension of {X : X T_3 = T_3 X and X T_5 = T_5 X} inside the full
    endomorphism algebra, by solving the linear system in n^2 unknowns."""
    if n < 1:
        raise ValueError("level must be >= 1")
    rows = []
    for p in (3, 5):
        a = hecke_matrix(p, n)
        acols = a.columns()
        for i in range(n):
            arow = a.rows[i]
            for j in range(n):
                row = 0
                x = arow
                while x:
                    lsb = x & -x
                    row ^= 1 << ((lsb.bit_length() - 1) * n + j)
                    x ^= lsb
                row ^= acols[j] << (i * n)
                rows.append(row)
    return n * n - rank(rows)


def nilpotency_index(m: GF2Matrix) -> int:
    """Smallest s >= 1 with m^s = 0; raises if m is not nilpotent."""
    if m.is_zero:
        return 1
    power = m
    s = 1
    while not power.is_zero:
        if s > m.n:
            raise ValueError("matrix is not nilpotent")
        power = power.mul(m)
        s += 1
    return s


def operator_polynomial(support, n: int) -> GF2Matrix:
    """Evaluate a GF(2) polynomial in (T_3, T_5) given by its monomial
    support {(i, j)} on the level-n space."""
    support = set(support)
    if not support:
        raise ValueError("zero polynomial")
    max_i = max(i for i, _ in support)
    max_j = max(j for _, j in support)
    t3 = hecke_matrix(3, n)
    t5 = hecke_matrix(5, n)
    pow3 = [GF2Matrix.identity(n)]
    for _ in range(max_i):
        pow3.append(pow3[-1].mul(t3))
    pow5 = [GF2Matrix.identity(n)]
    for _ in range(max_j):
        pow5.append(pow5[-1].mul(t5))
    acc = GF2Matrix.zero(n)
    for i, j in support:
        acc = acc.add(pow3[i].mul(pow5[j]))
    return acc


def check_divisibility(support, n: int, big_n: int) -> bool:
    """True iff every basis vector of the level-n space lies in the column
    space of u(T_3, T_5) acting on the level-big_n space, where u is the
    polynomial with the given monomial support.  Raise big_n until true;
    divisibility of the module predicts success for big_n large enough."""
    if big_n < n:
        raise ValueError("big_n must be >= n")
    u = operator_polynomial(support, big_n)
    col_span = Span(u.columns())
    return all(col_span.contains(1 << k) for k in range(n))


def kernel(m: GF2Matrix) -> list[int]:
    """Basis of the kernel of m acting on coordinate bitsets."""
    return nullspace(m.rows, m.n)
