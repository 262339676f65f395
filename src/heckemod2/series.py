"""Truncated power series over GF(2), bit-packed into Python ints.

A series is known up to an inclusive exponent bound (its *precision*);
coefficients beyond the bound are undefined and never stored.  The
coefficient of q^e is bit e of an int, so addition is XOR and
multiplication is a carry-free shift-and-XOR convolution.  Everything
here is pure and immutable except one shared table of odd delta powers
behind `_odd_delta_power_bits`: it is built on first use, it grows only
at the precision of the request that grows it (another precision
restarts it with the powers asked for), and each entry is an exact
truncation of its delta power, so sharing it changes no result.

Delta powers come from Frobenius: over GF(2), delta^(2^j) = delta(q^(2^j)),
the odd squares scaled by 2^j, a factor with about sqrt(P / 2^j) / 2 terms
below a precision P.  So an odd power delta^k is delta times one such
sparse factor per set bit j >= 1 of k.
"""

from __future__ import annotations

import threading
from math import isqrt

from .gf2 import iter_bits, lowest_bit, spread_bits
from .primes import is_odd_prime


class PrecisionError(ValueError):
    """A coefficient beyond a series' declared precision was requested."""


def _mask(precision: int) -> int:
    return (1 << (precision + 1)) - 1


class F2Series:
    """A GF(2) power series truncated at an inclusive exponent bound.

    Equality compares coefficients up to the smaller of the two
    precisions, which is the only range where equality is decidable.
    """

    __slots__ = ("_bits", "_prec")

    def __init__(self, bits: int, precision: int):
        if precision < 0:
            raise ValueError("precision must be >= 0")
        self._bits = bits & _mask(precision)
        self._prec = precision

    @classmethod
    def from_exponents(cls, exponents, precision: int) -> "F2Series":
        bits = 0
        for e in exponents:
            if e < 0:
                raise ValueError("exponents must be >= 0")
            if e <= precision:
                bits ^= 1 << e
        return cls(bits, precision)

    @property
    def bits(self) -> int:
        return self._bits

    @property
    def precision(self) -> int:
        return self._prec

    def coeff(self, e: int) -> int:
        """Coefficient of q^e; reading beyond the precision is an error."""
        if e < 0 or e > self._prec:
            raise PrecisionError(f"coefficient {e} outside known range 0..{self._prec}")
        return (self._bits >> e) & 1

    def support(self) -> tuple[int, ...]:
        """Exponents with coefficient 1, ascending."""
        return tuple(iter_bits(self._bits))

    def truncate(self, precision: int) -> "F2Series":
        if precision > self._prec:
            raise PrecisionError(f"cannot extend precision {self._prec} to {precision}")
        return F2Series(self._bits, precision)

    def leading_exponent(self) -> int | None:
        """Smallest exponent with coefficient 1, or None if zero."""
        if self._bits == 0:
            return None
        return lowest_bit(self._bits)

    @property
    def is_zero(self) -> bool:
        return self._bits == 0

    def __add__(self, other: "F2Series") -> "F2Series":
        n = min(self._prec, other._prec)
        return F2Series(self._bits ^ other._bits, n)

    def __mul__(self, other: "F2Series") -> "F2Series":
        return mul(self, other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, F2Series):
            return NotImplemented
        n = min(self._prec, other._prec)
        return (self._bits & _mask(n)) == (other._bits & _mask(n))

    __hash__ = None  # equality is precision-relative

    def __repr__(self) -> str:
        supp = self.support()
        if not supp:
            return f"F2Series(0; O(q^{self._prec + 1}))"
        shown = " + ".join(f"q^{e}" for e in supp[:6])
        if len(supp) > 6:
            shown += " + ..."
        return f"F2Series({shown}; O(q^{self._prec + 1}))"


def _odd_squares(scale: int, precision: int) -> list[int]:
    """The support of delta(q^scale) through `precision`: scale * o^2 for
    odd o, ascending."""
    odd = range(1, isqrt(max(precision, 0) // scale) + 1, 2)
    return [scale * o * o for o in odd]


def delta(precision: int) -> F2Series:
    """The generating series of odd squares: coefficient of q^k is 1 iff
    k = (2m+1)^2 for some m >= 0."""
    return F2Series.from_exponents(_odd_squares(1, precision), precision)


def mul(f: F2Series, g: F2Series) -> F2Series:
    """Carry-free GF(2) convolution, truncated to the smaller precision."""
    n = min(f.precision, g.precision)
    a = f.bits & _mask(n)
    b = g.bits & _mask(n)
    if a.bit_count() > b.bit_count():
        a, b = b, a
    acc = 0
    for i in iter_bits(a):
        acc ^= b << i
    return F2Series(acc, n)


def square(f: F2Series) -> F2Series:
    """Frobenius: coefficient of q^{2k} equals the coefficient of q^k in f.

    Agrees with mul(f, f) because cross terms in the convolution occur in
    pairs and cancel over GF(2).
    """
    return F2Series(spread_bits(f.bits & _mask(f.precision // 2)), f.precision)


def delta_pow(k: int, precision: int) -> F2Series:
    """The k-th power of delta(precision), k odd >= 1: delta times
    delta(q^(2^j)) = delta^(2^j) for each set bit j >= 1 of k, one `mul`
    by a sparse factor each.

    Even or nonpositive k is rejected: the ambient space is spanned by the
    odd powers only.
    """
    if k <= 0 or k % 2 == 0:
        raise ValueError(f"delta power must be odd and positive, got {k}")
    acc = delta(precision)
    for j in iter_bits(k >> 1):
        factor = F2Series.from_exponents(_odd_squares(2 << j, precision), precision)
        acc = mul(acc, factor)
    return acc


# delta^(2i+1) for i = 0..len-1, each truncated at _powers_precision;
# growth reads and rebinds both, so it holds the lock
_powers: list[int] = []
_powers_precision = -1
_powers_lock = threading.Lock()


def _odd_delta_power_bits(count: int, precision: int) -> list[int]:
    """Bit-packed delta^(2i+1) for i = 0..count-1, correct through
    `precision`; entries may carry bits above it, so mask before use.

    Served from the shared table when it holds `count` powers at
    `precision` or more.  Otherwise a request at another precision
    restarts it at exactly that precision, and more powers extend it by
    delta^(2i+1) = delta^(2(i-h)+1) * delta(q^(2h)), h the top bit of
    i >= 1: entry i - h shifted by 2h * o^2 for each odd o with
    2h * o^2 <= precision, the copies XORed in one at a time, then masked.
    Both factors are exact through the precision, so the masked product
    is the exact truncation too.  Near count = precision / 2 most entries
    are a single shifted copy.  The returned list is a fresh copy, never
    changed.
    """
    global _powers, _powers_precision
    with _powers_lock:
        if precision > _powers_precision or (
                count > len(_powers) and precision != _powers_precision):
            _powers, _powers_precision = [delta(precision).bits], precision
        mask = _mask(precision)
        while len(_powers) < count:
            # entries h..2h-1 share the top bit h, so one list of shifts
            h = 1 << (len(_powers).bit_length() - 1)
            shifts = _odd_squares(2 * h, precision)
            for base in _powers[len(_powers) - h:min(count, 2 * h) - h]:
                acc = 0
                for s in shifts:
                    acc ^= base << s
                _powers.append(acc & mask)
        return _powers[:count]


def _hecke_bits(p: int, bits: int, precision: int) -> tuple[int, int]:
    """Raw Hecke action on a bit-packed series; returns (bits, new precision).

    Bits above `precision` are ignored.  The coefficient string is built
    once, the a_{pm} are read with one stride-p slice, and the a_{m/p}
    terms are spread to every p-th place and XORed in, so the cost is
    linear in the precision.
    """
    np_ = precision // p
    if np_ == 0:
        return 0, 0
    # s[precision - e] is the coefficient of q^e
    s = format(bits & _mask(precision), f"0{precision + 1}b")
    out = int(s[precision - p * np_:precision:p], 2) << 1
    k = np_ // p
    if k:
        out ^= int(("0" * (p - 1)).join(s[precision - k:precision]) + "0" * p, 2)
    return out, np_


def hecke(p: int, f: F2Series) -> F2Series:
    """Hecke operator T_p for odd prime p, acting on q-expansions mod 2.

    The coefficient of q^n in the result is a_{pn}(f) + a_{n/p}(f), where
    the second term is 0 unless p divides n (level 1, even weight: the
    factor p^{k-1} is odd, hence 1 mod 2).  The result is known up to
    floor(precision / p).
    """
    if not is_odd_prime(p):
        raise ValueError(f"Hecke operators here require an odd prime, got {p}")
    bits, prec = _hecke_bits(p, f.bits, f.precision)
    return F2Series(bits, prec)
