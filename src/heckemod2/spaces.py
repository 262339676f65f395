"""The filtration of spaces spanned by odd powers of delta, and the Hecke
operators acting on them as exact GF(2) matrices, each a tuple of columns:
column k is the image of delta^(2k+1).

Level n is the n-dimensional space with basis delta, delta^3, ...,
delta^(2n-1).  In the exponent-ordered basis every Hecke matrix is
strictly triangular (T_p lowers the leading exponent), and a smaller
level is a prefix of the columns kept at the largest level built, asserted
triangular again.  No level over LEVEL_CAP, and no delta powers over
POWER_BITS_CAP bits, are built: `within_cap` and `within_budget` raise.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, islice

from .gf2 import (GF2Matrix, Span, apply_columns, chain, column_stride,
                  even_bits, flat_product, iter_bits, lowest_bit, rank)
from .primes import is_odd_prime
from .series import F2Series, PrecisionError, _hecke_bits, _mask, _odd_delta_power_bits

LEVEL_CAP = 8192
# the most bits of delta powers (count times precision) one build may read:
# tp-table's p_max = 10^7 at degree 2 or 10^6 at degree 24, T_97 at 2048
POWER_BITS_CAP = 1 << 30


class NotInSpan(ValueError):
    """A series is not in the level-n space at the available precision."""


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


def within_budget(count: int, precision: int) -> int:
    """`count`, if that many delta powers through q^precision fit in
    POWER_BITS_CAP bits; else LevelExhausted."""
    if (bits := count * (precision + 1)) > POWER_BITS_CAP:
        raise LevelExhausted(f"{_shown(bits)} bits of delta powers needed, "
                             f"over the level cap's budget of {POWER_BITS_CAP} bits")
    return count


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
        return tuple(2 * i + 1 for i in iter_bits(self.coords))

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
        count = within_budget(max(self.coords.bit_length(), 1), precision)
        pows = _odd_delta_power_bits(count, precision)
        return F2Series(apply_columns(pows, self.coords), precision)


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
    LevelExhausted (cap or budget) comes before any power is built.
    """
    if n < 1:
        raise ValueError("level must be >= 1")
    within_cap(n)
    if f.precision < 2 * n - 1:
        raise PrecisionError(
            f"precision {f.precision} too small for level {n} (need {2 * n - 1})"
        )
    pows = _odd_delta_power_bits(within_budget(n, f.precision), f.precision)
    return DeltaCoords(_greedy_expand(f.bits, pows, n, f.precision), n)


# The mod-2 modular equation Phi_p(X, Y) = 0 between X = delta(q) and
# Y = delta(q^p), as the monomials X^i Y^j of Phi_p.
MODULAR_EQUATIONS = {
    3: frozenset({(4, 0), (1, 1), (0, 4)}),
    5: frozenset({(6, 0), (4, 2), (2, 4), (1, 1), (0, 6)}),
    7: frozenset({(8, 0), (2, 2), (1, 1), (0, 8)}),
}


def _hecke_polynomials(p: int):
    """T(k) = T_p(delta^k) for k = 0, 1, 2, ..., as polynomials in delta,
    each an int with bit e the coefficient of delta^e.

    Since U_p(g(q) h(q^p)) = h(q) U_p(g) and Phi_p is symmetric,
    multiplying delta^k by the relation X^(p+1) = sum X^i Y^j gives the
    recurrence T(k) = sum delta^j T(k-p-1+i); it starts from T(k) = 0 for
    k < p and T(p) = delta.
    """
    steps = [(j, p + 1 - i) for i, j in MODULAR_EQUATIONS[p] if i <= p]
    window = deque([0] * p + [0b10], maxlen=p + 1)
    yield from window
    while True:
        t = 0
        for shift, back in steps:
            t ^= window[-back] << shift
        window.append(t)
        yield t


def _recurrence_columns(p: int, n: int) -> list[int]:
    """Columns of T_p on the level-n space: column k is the odd-position
    bits of T(2k+1), which must lie in the odd positions below 2n."""
    outside = ~int("10" * n, 2)
    cols = []
    for t in islice(_hecke_polynomials(p), 1, 2 * n, 2):
        if t & outside:
            raise RuntimeError(
                f"stability violated: T_{p} delta^{2 * len(cols) + 1} "
                f"involves an even power of delta or one above delta^{2 * n - 1}")
        cols.append(even_bits(t >> 1))
    return cols


# p -> the certified columns of T_p at the largest level built so far.
# No lock: every stored tuple is certified, so a race between two threads
# only repeats work.
_columns: dict[int, tuple[int, ...]] = {}


def _direct_columns(p: int, n: int) -> list[int]:
    """Columns of T_p on the level-n space from q-expansions: the delta
    powers at precision p(2n-1) fix each image through q^(2n-1) (a_j(T_p f)
    reads only a_pj and a_(j/p)), and the same powers expand it back in
    the delta basis, certifying that the level is stable under T_p."""
    big = p * (2 * n - 1)
    pows = _odd_delta_power_bits(within_budget(n, big), big)
    cols = []
    for k, bits in enumerate(pows):
        image = _hecke_bits(p, bits, big)[0]
        try:
            cols.append(_greedy_expand(image, pows, n, 2 * n - 1))
        except NotInSpan as exc:
            raise RuntimeError(
                f"stability violated: T_{p} delta^{2 * k + 1} left level {n} ({exc})"
            ) from exc
    return cols


def _checked_columns(p: int, n: int) -> tuple[int, ...]:
    """Columns of T_p on the level-n space: column k is the image of
    delta^(2k+1).  A level over the cap raises LevelExhausted before
    anything is built.  A level within the stored columns is their prefix;
    a larger one is built at exactly n (by recurrence for the primes of
    MODULAR_EQUATIONS, else from q-expansions), certifying stability, and
    stored once it passes.  Every level returned is checked strictly
    triangular, which for a prefix of exact delta-coordinates also puts
    T_p delta^(2k+1), k < n, in level k, so the level is stable.  Either
    violation is an arithmetic bug, never a mathematical possibility.
    A larger level is rebuilt from k = 0, so asking for n = 1, 2, ..., N
    in turn costs about N builds; every caller asks for its top first."""
    if not is_odd_prime(p):
        raise ValueError(f"Hecke matrix requires an odd prime, got {p}")
    if n < 1:
        raise ValueError("level must be >= 1")
    within_cap(n)
    cols = _columns.get(p, ())[:n]
    built = len(cols) < n
    if built:
        build = _recurrence_columns if p in MODULAR_EQUATIONS else _direct_columns
        cols = tuple(build(p, n))
    for k, c in enumerate(cols):
        if c >> k:
            raise RuntimeError(
                f"triangularity violated: T_{p} delta^{2 * k + 1} "
                f"involves exponents >= {2 * k + 1}")
    if built:
        _columns[p] = cols
    return cols


@lru_cache(maxsize=None)
def hecke_matrix(p: int, n: int) -> GF2Matrix:
    """Matrix of T_p on the level-n space, kept for reuse."""
    return GF2Matrix(_checked_columns(p, n), n)


class AlgebraSpan:
    """Echelonized span of the unital algebra generated by Hecke matrices.

    Words are kept flattened column-major, as `GF2Matrix.to_vector` lays
    them out, and multiplied by a generator on the left with
    `flat_product`, one carry-free product per column of the generator."""

    def __init__(self, n: int, generators: tuple[int, ...]):
        if not generators:
            raise ValueError("need at least one generator prime")
        self.n = n
        self.generators = tuple(sorted(set(generators)))
        self._gens = gens = [hecke_matrix(p, n).cols for p in self.generators]
        stride = column_stride(n)
        queue = [GF2Matrix.identity(n).to_vector()]
        self._span = Span(queue)
        while queue:
            word = queue.pop()
            for g in gens:
                prod = flat_product(g, word, stride)
                if self._span.add(prod):
                    queue.append(prod)

    @property
    def dimension(self) -> int:
        return self._span.dimension

    def level_dimensions(self) -> tuple[int, ...]:
        """dims[m], m = 0..n: the dimension of the algebra restricted to
        level m, the span of the first m basis vectors.

        Every generator must be upper triangular (ValueError otherwise), so
        each level is invariant and restriction to it is an algebra map
        onto the algebra its prefix columns generate.  A word restricts to
        its first m columns, the bits below m*n, and the rank of that
        projection is the number of echelon vectors whose lowest bit lies
        below m*n once the echelon is rebuilt on lowest bits: one `Span` of
        the bit-reversed vectors, whose highest pivot bit is the lowest
        original one."""
        n = self.n
        for p, cols in zip(self.generators, self._gens):
            for j, c in enumerate(cols):
                if c >> j + 1:
                    raise ValueError(f"T_{p} column {j} has a bit above {j}, "
                                     f"so level {j + 1} is not invariant")
        width = n * n
        low = Span(int(format(v, f"0{width}b")[::-1], 2)
                   for _, v in self._span.echelon())
        # a lowest bit in column j counts at every level m > j
        counts = [0] * (n + 1)
        for top, _ in low.echelon():
            counts[(width - 1 - top) // n + 1] += 1
        return tuple(accumulate(counts))

    def contains(self, m: GF2Matrix) -> bool:
        if m.n != self.n:
            raise ValueError("dimension mismatch")
        return self._span.contains(m.to_vector())


def algebra_dimension(n: int, generators) -> int:
    """Dimension of the unital algebra generated by the T_p, p in
    `generators`, acting on the level-n space.  Closure of a spanning set
    under multiplication by the generators, rank by Gaussian elimination."""
    return AlgebraSpan(n, tuple(generators)).dimension


def commutant_dimension(n: int) -> int:
    """Dimension of {X : X T_3 = T_3 X and X T_5 = T_5 X} inside the full
    endomorphism algebra, by solving the linear system in n^2 unknowns."""
    if n < 1:
        raise ValueError("level must be >= 1")
    stride = column_stride(n)
    rows = []
    for p in (3, 5):
        a = hecke_matrix(p, n)
        flat = a.to_vector()
        for i in range(n):
            # unknown (k, j) is bit k*n + j: row i of A placed at stride n
            spread = (flat >> i) & stride
            rows.extend((c << (i * n)) ^ (spread << j)
                        for j, c in enumerate(a.cols))
    return n * n - rank(rows)


def nilpotency_index(m: GF2Matrix) -> int:
    """Smallest s >= 1 with m^s = 0; raises if m is not nilpotent."""
    power = m
    s = 1
    while not power.is_zero:
        if s > m.n:
            raise ValueError("matrix is not nilpotent")
        power = m.mul(power)
        s += 1
    return s


def level_nilpotency_indices(cols: tuple[int, ...]) -> tuple[int, ...]:
    """index[n], n = 0..len(cols): the nilpotency index of the matrix with
    upper triangular columns `cols` restricted to level n, the longest
    chain of a basis vector k < n (`chain` raises if one does not end): a
    running maximum, with index[0] = 1 for the zero space."""
    return tuple(accumulate((sum(1 for _ in chain(cols, 1 << k))
                             for k in range(len(cols))), max, initial=1))


def monomial_images(t3: tuple[int, ...], t5: tuple[int, ...], v: int):
    """((a, b), T_3^a T_5^b v) for every nonzero image: the T_3 chain of
    each term of the T_5 chain of v."""
    return (((a, b), x) for b, w in enumerate(chain(t5, v))
            for a, x in enumerate(chain(t3, w)))


def polynomial_image(t3: tuple[int, ...], t5: tuple[int, ...], support,
                     v: int) -> int:
    """u(T_3, T_5) v for the GF(2) polynomial u with monomial support
    {(a, b)}: the XOR of the `monomial_images` of v over the support (0 for
    an empty one), each chain cut at the largest exponent it needs."""
    support = frozenset(support)
    top_a, top_b = map(max, zip((-1, -1), *support))
    acc = 0
    for b, w in enumerate(islice(chain(t5, v), top_b + 1)):
        for a, x in enumerate(islice(chain(t3, w), top_a + 1)):
            if (a, b) in support:
                acc ^= x
    return acc


def check_divisibility(support, n: int, big_n: int) -> bool:
    """True iff the level-n space lies in the span of the images
    `polynomial_image` gives of delta^(2k+1), k < big_n: the column space of
    the polynomial u with the given support at level big_n.  Raise big_n
    until true; divisibility of the module predicts it for big_n large."""
    if big_n < n:
        raise ValueError("big_n must be >= n")
    support = frozenset(support)
    if not support:
        raise ValueError("zero polynomial")
    t3, t5 = hecke_matrix(3, big_n).cols, hecke_matrix(5, big_n).cols
    col_span = Span(polynomial_image(t3, t5, support, 1 << k)
                    for k in range(big_n))
    return all(col_span.contains(1 << k) for k in range(n))


def kernel(m: GF2Matrix) -> list[int]:
    """Basis of the kernel of m acting on coordinate bitsets: the relations
    among its columns, each column k shifted above n and tagged with bit k,
    are the echelon vectors whose pivot lies in the tag."""
    span = Span(c << m.n | 1 << k for k, c in enumerate(m.cols))
    return [v for pivot, v in span.echelon() if pivot < m.n]
