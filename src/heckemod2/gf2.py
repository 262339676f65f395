"""Dense GF(2) linear algebra on int bitsets.

Vectors are Python ints (bit i = coordinate i); a matrix is a tuple of row
ints.  `Span` is the one elimination engine: an echelon basis pivoting on
the lowest set bit, so every computation is deterministic.  `rank`,
`LinearSolver` and `nullspace` read their answers off a `Span`, and every
loop over the set bits of an int goes through `iter_bits`.
"""

from __future__ import annotations

from functools import reduce
from itertools import compress
from operator import xor
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


def apply_columns(cols: Sequence[int], v: int) -> int:
    """Matrix-vector product over GF(2) from the columns: the XOR of
    cols[i] over the set bits i of v."""
    flags = format(v, "b")[::-1].encode().translate(_BIT_FLAGS)
    return reduce(xor, compress(cols, flags), 0)


class Span:
    """Incrementally maintained echelon basis of a GF(2) subspace.

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
            low = lowest_bit(v)
            piv = self._pivots.get(low)
            if piv is None:
                break
            v ^= piv
        return v

    def add(self, v: int) -> bool:
        """Insert v; returns True iff it enlarged the span."""
        v = self.reduce(v)
        if v == 0:
            return False
        self._pivots[lowest_bit(v)] = v
        return True

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

    @property
    def dimension(self) -> int:
        return len(self._pivots)

    def echelon(self) -> list[tuple[int, int]]:
        """The (pivot, vector) pairs, highest pivot first: the order in
        which back-substitution reads them."""
        return sorted(self._pivots.items(), reverse=True)


def rank(vectors: Iterable[int]) -> int:
    """GF(2) rank of a collection of bitset vectors."""
    return Span(vectors).dimension


def _transpose(vectors: Sequence[int], n: int) -> list[int]:
    """Bit i of vectors[j] becomes bit j of the i-th of n outputs."""
    out = [0] * n
    for j, v in enumerate(vectors):
        for i in iter_bits(v):
            out[i] |= 1 << j
    return out


class GF2Matrix:
    """Square bit matrix; rows[i] holds row i with bit j = entry (i, j)."""

    __slots__ = ("rows", "n")

    def __init__(self, rows: Sequence[int], n: int):
        if len(rows) != n:
            raise ValueError("row count must equal n")
        mask = (1 << n) - 1
        self.rows = tuple(r & mask for r in rows)
        self.n = n

    @classmethod
    def identity(cls, n: int) -> "GF2Matrix":
        return cls([1 << i for i in range(n)], n)

    @classmethod
    def zero(cls, n: int) -> "GF2Matrix":
        return cls([0] * n, n)

    @classmethod
    def from_columns(cls, cols: Sequence[int], n: int) -> "GF2Matrix":
        return cls(_transpose(cols, n), n)

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def columns(self) -> list[int]:
        return _transpose(self.rows, self.n)

    def apply(self, v: int) -> int:
        """Matrix-vector product over GF(2); v is a coordinate bitset."""
        out = 0
        for i, r in enumerate(self.rows):
            if (r & v).bit_count() & 1:
                out |= 1 << i
        return out

    def mul(self, other: "GF2Matrix") -> "GF2Matrix":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        orows = other.rows
        rows = []
        for r in self.rows:
            acc = 0
            # most rows of products of nilpotent Hecke matrices are zero:
            # skip them without starting a generator
            if r:
                for i in iter_bits(r):
                    acc ^= orows[i]
            rows.append(acc)
        return GF2Matrix(rows, self.n)

    def add(self, other: "GF2Matrix") -> "GF2Matrix":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return GF2Matrix([a ^ b for a, b in zip(self.rows, other.rows)], self.n)

    @property
    def is_zero(self) -> bool:
        return all(r == 0 for r in self.rows)

    def to_vector(self) -> int:
        """Flatten row-major into a single n^2-bit vector."""
        acc = 0
        for i, r in enumerate(self.rows):
            acc |= r << (i * self.n)
        return acc

    def __eq__(self, other) -> bool:
        if not isinstance(other, GF2Matrix):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"GF2Matrix(n={self.n}, rows={[bin(r) for r in self.rows]})"


class LinearSolver:
    """Repeated-solve helper for a fixed GF(2) system M x = b.

    Row idx goes into a `Span` as (row | 1 << (width + idx)), so each pivot
    vector carries, above bit `width`, the equations XORed into it.  A
    pivot below `width` fixes one unknown; one at or above it is a relation
    between rows that b must satisfy.

    Args:
        rows: the equations, one bitset of length `width` per row.
        width: number of unknowns.
    """

    def __init__(self, rows: Sequence[int], width: int):
        self._width = width
        low_mask = (1 << width) - 1
        span = Span((row & low_mask) | 1 << (width + idx)
                    for idx, row in enumerate(rows))
        self._pivots = span.echelon()
        self._rank = sum(1 for col, _ in self._pivots if col < width)

    @property
    def kernel_dimension(self) -> int:
        return self._width - self._rank

    def solve(self, rhs: int) -> int | None:
        """One solution of M x = rhs (free coordinates 0), or None.

        Back-substitution from the highest pivot down: a pivot's bit of x
        is the parity of its equations' bits of rhs plus that of the
        unknowns already fixed, so one parity of y = rhs << width | x.
        """
        width = self._width
        y = rhs << width
        for col, aug in self._pivots:
            if parity(aug & y):
                if col >= width:
                    return None
                y |= 1 << col
        return y & ((1 << width) - 1)


def nullspace(rows: Sequence[int], width: int) -> list[int]:
    """Basis of {v : every row r has parity(r & v) = 0}: one vector per
    free coordinate f, back-substituted from 1 << f."""
    span = Span(rows)
    pivots = span.echelon()
    basis = []
    for f in range(width):
        if f in span._pivots:
            continue
        v = 1 << f
        for col, r in pivots:
            if col < f and parity(r & v):
                v |= 1 << col
        basis.append(v)
    return basis
