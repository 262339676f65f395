"""Dense GF(2) linear algebra on int bitsets.

Vectors are Python ints (bit i = coordinate i); a matrix is a tuple of
column ints.  `apply_columns` is the one matrix-vector product, `chain`
gives its powers, and `Span` is the one elimination engine: an echelon
basis pivoting on the highest set bit, so every result is deterministic.
`rank`, `prefix_ranks` and `LinearSolver` read their answers off a `Span`,
and every loop over the set bits of an int goes through `iter_bits`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

# maps the digits of a binary string to the bytes 0 and 1
_BIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


def parity(x: int) -> int:
    return x.bit_count() & 1


def lowest_bit(x: int) -> int:
    """Index of the lowest set bit; x must be nonzero."""
    return (x & -x).bit_length() - 1


def iter_bits(x: int) -> Iterator[int]:
    """Indices of the set bits of x >= 0, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def even_bits(x: int) -> int:
    """Bits 0, 2, 4, ... of x >= 0, packed into bits 0, 1, 2, ..."""
    return int(format(x, "b")[::-2][::-1], 2)


def spread_bits(x: int) -> int:
    """Inverse of even_bits: bit i of x >= 0 moves to bit 2i."""
    return int("0".join(format(x, "b")), 2)


def bit_flags(x: int, width: int) -> bytes:
    """Bits 0..width-1 of x >= 0 as the bytes 0 and 1: flags[i] is bit i."""
    top = 1 << width  # a sentinel bit, so the digits have exactly width + 1
    digits = format(x & (top - 1) | top, "b")
    return digits[:0:-1].encode().translate(_BIT_FLAGS)


def apply_columns(cols: Sequence[int], v: int) -> int:
    """Matrix-vector product over GF(2): the XOR of cols[i] over the set
    bits i of v >= 0.  A bit of v with no column raises IndexError."""
    acc = 0
    for i in iter_bits(v):
        acc ^= cols[i]
    return acc


def chain(cols: Sequence[int], v: int) -> Iterator[int]:
    """v, M v, M^2 v, ... while nonzero, M the matrix with columns `cols`:
    at most len(cols) terms, so M must be nilpotent on v."""
    for _ in range(len(cols)):
        if not v:
            return
        yield v
        v = apply_columns(cols, v)
    if v:
        raise RuntimeError("Hecke chain failed to terminate")


def column_stride(n: int) -> int:
    """Bit j*n for j = 0..n-1, bit 0 of every column of an n x n matrix
    flattened column-major: the repunit 11...1 in base 2^n."""
    return ((1 << n * n) - 1) // ((1 << n) - 1)


def flat_product(cols: Sequence[int], v: int, stride: int) -> int:
    """Flattened product g*m of the n x n matrix g with columns `cols` and
    the matrix m flattened column-major into v; `stride` is
    `column_stride(n)`.  (v >> i) & stride holds bit i of every column of
    m, one in each n-bit slot, so multiplying it by cols[i] < 2^n places a
    copy of column i of g in those slots without carries: the XOR over i
    is column j of g*m in slot j."""
    acc = 0
    for i, c in enumerate(cols):
        if c:
            acc ^= c * ((v >> i) & stride)
    return acc


class Span:
    """Incremental echelon basis of a GF(2) subspace, keyed by highest bits.

    Args:
        vectors: optional initial vectors to insert.
    """

    def __init__(self, vectors: Iterable[int] = ()):
        self._pivots: dict[int, int] = {}
        for v in vectors:
            self.add(v)

    def reduce(self, v: int) -> int:
        """Reduce v against the basis; 0 means v is in the span."""
        while v:
            piv = self._pivots.get(v.bit_length() - 1)
            if piv is None:
                break
            v ^= piv
        return v

    def add(self, v: int) -> bool:
        """Insert v; returns True iff it enlarged the span."""
        v = self.reduce(v)
        if v == 0:
            return False
        self._pivots[v.bit_length() - 1] = v
        return True

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

    @property
    def dimension(self) -> int:
        return len(self._pivots)

    def echelon(self) -> list[tuple[int, int]]:
        """The (pivot, vector) pairs, lowest pivot first: the order in
        which back-substitution reads them."""
        return sorted(self._pivots.items())


def rank(vectors: Iterable[int]) -> int:
    """GF(2) rank of a collection of bitset vectors."""
    return Span(vectors).dimension


def prefix_ranks(vectors: Iterable[int]) -> list[int]:
    """ranks[k], the GF(2) rank of the first k vectors, k = 0..len: one
    incremental `Span`."""
    span = Span()
    ranks = [0]
    for v in vectors:
        ranks.append(ranks[-1] + span.add(v))
    return ranks


class GF2Matrix:
    """Square bit matrix; cols[j], the image of basis vector j, holds
    column j with bit i = entry (i, j).  Columns must lie in [0, 2^n)."""

    __slots__ = ("cols", "n")

    def __init__(self, cols: Sequence[int], n: int):
        cols = tuple(cols)
        if len(cols) != n:
            raise ValueError("column count must equal n")
        if cols and (min(cols) < 0 or max(cols) >> n):
            raise ValueError(f"a column lies outside [0, 2^{n})")
        self.cols = cols
        self.n = n

    @classmethod
    def identity(cls, n: int) -> "GF2Matrix":
        return cls([1 << i for i in range(n)], n)

    @classmethod
    def zero(cls, n: int) -> "GF2Matrix":
        return cls([0] * n, n)

    def entry(self, i: int, j: int) -> int:
        return (self.cols[j] >> i) & 1

    def apply(self, v: int) -> int:
        """Matrix-vector product over GF(2); v is a coordinate bitset."""
        if v >> self.n:
            raise ValueError("dimension mismatch")
        return apply_columns(self.cols, v)

    def mul(self, other: "GF2Matrix") -> "GF2Matrix":
        """Column j of the product is self applied to column j of other:
        the cost is other's set bits.  Most columns of products of nilpotent
        Hecke matrices are zero, and skip `apply_columns` altogether."""
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return GF2Matrix([apply_columns(self.cols, c) if c else 0
                          for c in other.cols], self.n)

    def add(self, other: "GF2Matrix") -> "GF2Matrix":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return GF2Matrix([a ^ b for a, b in zip(self.cols, other.cols)], self.n)

    @property
    def is_zero(self) -> bool:
        return not any(self.cols)

    def to_vector(self) -> int:
        """Flatten column-major: entry (i, j) is bit j*n + i."""
        acc = 0
        for j, c in enumerate(self.cols):
            acc |= c << (j * self.n)
        return acc

    def __eq__(self, other) -> bool:
        if not isinstance(other, GF2Matrix):
            return NotImplemented
        return self.n == other.n and self.cols == other.cols

    def __hash__(self) -> int:
        return hash((self.n, self.cols))

    def __repr__(self) -> str:
        return f"GF2Matrix(n={self.n}, cols={[bin(c) for c in self.cols]})"


class LinearSolver:
    """Repeated-solve helper for a fixed GF(2) system M x = b.

    Row idx goes into a `Span` as (row << len(rows) | 1 << idx), so each
    pivot vector carries, below bit len(rows), the equations XORed into
    it.  A pivot at or above len(rows) fixes one unknown; one below it is
    a relation between rows that b must satisfy.

    Args:
        rows: the equations, one bitset of length `width` per row.
        width: number of unknowns.
    """

    def __init__(self, rows: Sequence[int], width: int):
        self._tags = tags = len(rows)
        mask = (1 << width) - 1
        span = Span((row & mask) << tags | 1 << idx
                    for idx, row in enumerate(rows))
        self._pivots = span.echelon()
        self._nullity = width - sum(col >= tags for col, _ in self._pivots)

    @property
    def kernel_dimension(self) -> int:
        return self._nullity

    def solve(self, rhs: int) -> int | None:
        """One solution of M x = rhs (free coordinates 0), or None.

        Back-substitution from the lowest pivot up: a pivot's bit of x is
        the parity of its equations' bits of rhs plus that of the unknowns
        below it, already fixed, so one parity of y = x << len(rows) | rhs.
        """
        tags = self._tags
        y = rhs & ((1 << tags) - 1)
        for col, aug in self._pivots:
            if parity(aug & y):
                if col < tags:
                    return None
                y |= 1 << col
        return y >> tags
