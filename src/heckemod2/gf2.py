"""Dense GF(2) linear algebra on int bitsets.

Vectors are Python ints (bit i = coordinate i); a matrix is a tuple of row
ints.  Pivoting is always on the lowest set bit, so every computation is
deterministic.
"""

from __future__ import annotations

from functools import reduce
from itertools import compress
from operator import xor
from typing import Iterable, Sequence

# maps the digits of a binary string to the bytes 0 and 1
_BIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


def parity(x: int) -> int:
    return x.bit_count() & 1


def lowest_bit(x: int) -> int:
    """Index of the lowest set bit; x must be nonzero."""
    return (x & -x).bit_length() - 1


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


def rank(vectors: Iterable[int]) -> int:
    """GF(2) rank of a collection of bitset vectors."""
    return Span(vectors).dimension


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
        rows = [0] * n
        for j, c in enumerate(cols):
            while c:
                lsb = c & -c
                rows[lsb.bit_length() - 1] |= 1 << j
                c ^= lsb
        return cls(rows, n)

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def columns(self) -> list[int]:
        cols = [0] * self.n
        for i, r in enumerate(self.rows):
            while r:
                lsb = r & -r
                cols[lsb.bit_length() - 1] |= 1 << i
                r ^= lsb
        return cols

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
        rows = []
        for r in self.rows:
            acc = 0
            x = r
            while x:
                lsb = x & -x
                acc ^= other.rows[lsb.bit_length() - 1]
                x ^= lsb
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

    The rows of M are reduced once to RREF with combination tracking, so
    each solve() is a handful of parities.  Rows and their combination
    words are packed into single ints: low `width` bits are the row, the
    high bits record which input equations were XORed into it.

    Args:
        rows: the equations, one bitset of length `width` per row.
        width: number of unknowns.
    """

    def __init__(self, rows: Sequence[int], width: int):
        self._width = width
        self._nrows = len(rows)
        low_mask = (1 << width) - 1
        pivots: dict[int, int] = {}
        pivot_mask = 0
        zero_combos: list[int] = []
        for idx, row in enumerate(rows):
            aug = (row & low_mask) | (1 << (width + idx))
            # Clear every pivot column present; each XOR removes one pivot
            # column and introduces only non-pivot columns, so this ends.
            while hot := aug & pivot_mask:
                aug ^= pivots[lowest_bit(hot)]
            low = aug & low_mask
            if low == 0:
                zero_combos.append(aug >> width)
                continue
            col = lowest_bit(low)
            for c2, piv in pivots.items():
                if (piv >> col) & 1:
                    pivots[c2] = piv ^ aug
            pivots[col] = aug
            pivot_mask |= 1 << col
        self._pivots = pivots
        self._zero_combos = zero_combos

    @property
    def kernel_dimension(self) -> int:
        return self._width - len(self._pivots)

    def solve(self, rhs: int) -> int | None:
        """One solution of M x = rhs (free coordinates 0), or None."""
        for combo in self._zero_combos:
            if (combo & rhs).bit_count() & 1:
                return None
        x = 0
        for col, aug in self._pivots.items():
            if ((aug >> self._width) & rhs).bit_count() & 1:
                x |= 1 << col
        return x


def nullspace(rows: Sequence[int], width: int) -> list[int]:
    """Basis of {v : every row r has parity(r & v) = 0}."""
    pivots: dict[int, int] = {}
    pivot_mask = 0
    for row in rows:
        r = row
        while hot := r & pivot_mask:
            r ^= pivots[lowest_bit(hot)]
        if r == 0:
            continue
        col = lowest_bit(r)
        for c2, piv in pivots.items():
            if (piv >> col) & 1:
                pivots[c2] = piv ^ r
        pivots[col] = r
        pivot_mask |= 1 << col
    basis = []
    for f in range(width):
        if f in pivots:
            continue
        v = 1 << f
        for col, r in pivots.items():
            if (r >> f) & 1:
                v |= 1 << col
        basis.append(v)
    return basis
