"""The filtration of spaces spanned by odd powers of delta, and the Hecke
operators acting on them as exact GF(2) matrices, each a tuple of columns:
column k is the image of delta^(2k+1).

Level n is the n-dimensional space with basis delta, delta^3, ...,
delta^(2n-1).  In the exponent-ordered basis every Hecke matrix is
strictly triangular (T_p lowers the leading exponent), which is asserted
at construction time, as is stability of the level under T_p.  No level
over LEVEL_CAP is built: `within_cap` raises LevelExhausted first.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

from .gf2 import (GF2Matrix, Span, apply_columns, chain, column_stride,
                  even_bits, flat_product, iter_bits, lowest_bit, rank)
from .primes import is_odd_prime
from .series import F2Series, PrecisionError, _hecke_bits, _mask, _odd_delta_power_bits

LEVEL_CAP = 8192


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
        pows = _odd_delta_power_bits(max(self.coords.bit_length(), 1), precision)
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
    """
    if n < 1:
        raise ValueError("level must be >= 1")
    if f.precision < 2 * n - 1:
        raise PrecisionError(
            f"precision {f.precision} too small for level {n} (need {2 * n - 1})"
        )
    pows = _odd_delta_power_bits(n, f.precision)
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


# p -> T_p delta^(2k+1) for k below the largest level N built so far, each
# exact through q^(2N-1).  No lock: every stored tuple is exact, so a race
# between two threads only repeats work.
_images: dict[int, tuple[int, ...]] = {}


def _hecke_images(p: int, n: int) -> tuple[int, ...]:
    """T_p delta^(2k+1) for k = 0..N-1 with N >= n, each exact through
    q^(2N-1).  Since a_j(T_p f) reads only a_pj and a_(j/p), the delta
    powers at precision p(2N-1) fix these bits, and bits 0..2n-1 of an
    image are the same at every N >= n.  A stored tuple of n or more
    images is reused; a shorter one is rebuilt at exactly n."""
    images = _images.get(p, ())
    if len(images) < n:
        big = p * (2 * n - 1)
        images = tuple(_hecke_bits(p, bits, big)[0]
                       for bits in _odd_delta_power_bits(n, big))
        _images[p] = images
    return images


def _direct_columns(p: int, n: int) -> list[int]:
    """Columns of T_p on the level-n space from q-expansions: the first n
    images of `_hecke_images`, truncated at q^(2n-1), expanded back in the
    delta basis.  Every level runs its own stability certificate on that
    truncation, whether the images were built for it or for a larger
    level."""
    images = _hecke_images(p, n)
    pows = _odd_delta_power_bits(n, 2 * n - 1)
    cols = []
    for k in range(n):
        try:
            cols.append(_greedy_expand(images[k], pows, n, 2 * n - 1))
        except NotInSpan as exc:
            raise RuntimeError(
                f"stability violated: T_{p} delta^{2 * k + 1} left level {n} ({exc})"
            ) from exc
    return cols


def _checked_columns(p: int, n: int) -> tuple[int, ...]:
    """Columns of T_p on the level-n space: column k is the image of
    delta^(2k+1).  The primes of MODULAR_EQUATIONS come from their
    recurrence, every other prime from q-expansions.  A level over the
    cap raises LevelExhausted before anything is built.  Stability of the
    level and strict triangularity are checked and violations abort
    loudly: either would be an arithmetic bug, not a mathematical
    possibility."""
    if not is_odd_prime(p):
        raise ValueError(f"Hecke matrix requires an odd prime, got {p}")
    if n < 1:
        raise ValueError("level must be >= 1")
    within_cap(n)
    build = _recurrence_columns if p in MODULAR_EQUATIONS else _direct_columns
    cols = tuple(build(p, n))
    for k, c in enumerate(cols):
        if c >> k:
            raise RuntimeError(
                f"triangularity violated: T_{p} delta^{2 * k + 1} "
                f"involves exponents >= {2 * k + 1}"
            )
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
        gens = [hecke_matrix(p, n).cols for p in self.generators]
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
