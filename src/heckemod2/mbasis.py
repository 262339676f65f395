"""The canonical basis m(a,b) dual to the monomials in T_3 and T_5.

m(a,b) is the unique series in the span of odd delta powers with
T_3 m(a,b) = m(a-1,b), T_5 m(a,b) = m(a,b-1) (zero when an index hits the
boundary) and q^1 coefficient 1 exactly at (a,b) = (0,0).  Each entry is
found by solving the stacked GF(2) system [T_3; T_5; e] f = rhs at the
current level, doubling the level until the system is solvable; the
stacked system has trivial kernel at every level, so a solution found at
any level is the element.

The same table drives the expansion of every T_p as a series in x = T_3
and y = T_5: the coefficient of x^i y^j in T_p is the q^p coefficient of
m(i,j).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .gf2 import LinearSolver
from .primes import is_odd_prime
from .series import F2Series, _odd_delta_power_bits
from .spaces import DeltaCoords, _greedy_expand, hecke_matrix

MIndex = tuple[int, int]

# (i mod 2, j mod 2) forced on every monomial of T_p, by p mod 8
PARITY_PATTERN = {1: (0, 0), 3: (1, 0), 5: (0, 1), 7: (1, 1)}


class LevelExhausted(RuntimeError):
    """The level cap was hit before a solvable level was found."""


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


def _odd_b_representation(p: int, c: int) -> bool:
    """Is p = a^2 + c*b^2 with integers a, b and b odd?"""
    b = 1
    while c * b * b <= p:
        r = p - c * b * b
        s = isqrt(r)
        if s * s == r:
            return True
        b += 2
    return False


class MBasis:
    """Table of m(a,b) elements, grown on demand.

    The table owns one level (a power-of-two multiple of `start_level`),
    the T_3/T_5 matrices there, a prefactored solver for the stacked
    system, and delta powers at a working precision of at least
    max(2*level - 1, min_precision).  Construction is sequential; a
    completed table is read-only for consumers.
    """

    def __init__(self, start_level: int = 16, level_cap: int = 8192,
                 min_precision: int = 1024):
        if start_level < 1:
            raise ValueError("start_level must be >= 1")
        self._level = start_level
        self._cap = level_cap
        self._min_precision = min_precision
        self._entries: dict[MIndex, int] = {}
        self._rebuild()

    # -- level / precision management -------------------------------------

    @property
    def level(self) -> int:
        return self._level

    @property
    def precision(self) -> int:
        return self._precision

    def _rebuild(self):
        n = self._level
        self._t3 = hecke_matrix(3, n)
        self._t5 = hecke_matrix(5, n)
        self._precision = max(2 * n - 1, self._min_precision)
        self._pows = _odd_delta_power_bits(n, self._precision)
        rows = list(self._t3.rows) + list(self._t5.rows) + [1]
        solver = LinearSolver(rows, n)
        if solver.kernel_dimension != 0:
            raise RuntimeError(
                f"uniqueness violated at level {n}: the stacked system "
                "[T_3; T_5; e] has a nontrivial kernel"
            )
        self._solver = solver

    def _grow(self):
        if 2 * self._level > self._cap:
            raise LevelExhausted(
                f"precision exhausted: level cap {self._cap} reached"
            )
        self._level *= 2
        self._rebuild()

    def ensure_level(self, level: int):
        while self._level < level:
            self._grow()

    def ensure_precision(self, precision: int):
        """Raise the working precision to at least `precision`, at least
        doubling it, so a run of rising requests regrows only O(log) times."""
        if precision > self._precision:
            self._min_precision = self._precision = max(precision, 2 * self._precision)
            self._pows = _odd_delta_power_bits(self._level, self._precision)

    # -- table construction ------------------------------------------------

    def _solve(self, a: int, b: int) -> int:
        n = self._level
        rhs_t3 = self._entries[(a - 1, b)] if a > 0 else 0
        rhs_t5 = self._entries[(a, b - 1)] if b > 0 else 0
        rhs = rhs_t3 | (rhs_t5 << n)
        if (a, b) == (0, 0):
            rhs |= 1 << (2 * n)
        sol = self._solver.solve(rhs)
        while sol is None:
            self._grow()
            n = self._level
            rhs = rhs_t3 | (rhs_t5 << n)
            if (a, b) == (0, 0):
                rhs |= 1 << (2 * n)
            sol = self._solver.solve(rhs)
        return sol

    def ensure(self, a: int, b: int):
        """Solve for m(a,b), recursively solving its parents first."""
        if (a, b) in self._entries:
            return
        if a < 0 or b < 0:
            raise ValueError("indices must be >= 0")
        if a > 0:
            self.ensure(a - 1, b)
        if b > 0:
            self.ensure(a, b - 1)
        self._entries[(a, b)] = self._solve(a, b)

    def ensure_degree(self, degree: int):
        for d in range(degree + 1):
            for a in range(d, -1, -1):
                self.ensure(a, d - a)

    def element(self, a: int, b: int) -> DeltaCoords:
        self.ensure(a, b)
        return DeltaCoords(self._entries[(a, b)], self._level)

    def series(self, a: int, b: int, precision: int | None = None) -> F2Series:
        """q-expansion of m(a,b), at the table precision by default."""
        self.ensure(a, b)
        if precision is None:
            precision = self._precision
        return DeltaCoords(self._entries[(a, b)], self._level).to_series(precision)

    def dominant_exponent(self, a: int, b: int) -> int:
        """Largest exponent in the delta-basis support of m(a,b)."""
        self.ensure(a, b)
        return 2 * (self._entries[(a, b)].bit_length() - 1) + 1

    # -- dual expansion ------------------------------------------------------

    def _coerce(self, f) -> int:
        """Coordinates of f at the (possibly grown) current level."""
        if isinstance(f, DeltaCoords):
            self.ensure_level(max(f.coords.bit_length(), 1))
            return f.coords
        if isinstance(f, F2Series):
            n = (f.precision + 1) // 2
            if n < 1:
                raise ValueError("series precision too small to expand")
            pows = _odd_delta_power_bits(n, f.precision)
            coords = _greedy_expand(f.bits, pows, n, f.precision)
            self.ensure_level(max(coords.bit_length(), 1))
            return coords
        raise TypeError(f"expected DeltaCoords or F2Series, got {type(f)!r}")

    def coefficients(self, f) -> frozenset[MIndex]:
        """Support of the expansion of f in the m(a,b) basis.

        The coefficient at (a,b) is the q^1 coefficient of T_3^a T_5^b f,
        read off through the exact level matrices; the support is finite
        because both matrices are nilpotent.
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
                w = t3.apply(w)
                a += 1
                if a > self._level:
                    raise RuntimeError("T_3 chain failed to terminate")
            v = t5.apply(v)
            b += 1
            if b > self._level:
                raise RuntimeError("T_5 chain failed to terminate")
        return frozenset(out)

    def recompose(self, support) -> DeltaCoords:
        """Sum of m(a,b) over an index set, at the current level."""
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
        """The index (a,b) whose m(a,b) has dominant exponent k.

        Computed from the m-expansion of delta^k: take the indices of
        maximal total degree; a singleton stratum is the answer, and ties
        are resolved by cross-referencing dominant exponents in the table
        (delta^19 carries both (3,0) and (1,2) at degree 3, and only
        m(1,2) tops out at 19).
        """
        support = self.coefficients(self.delta_power_coords(k))
        top = max(a + b for a, b in support)
        stratum = sorted((a, b) for a, b in support if a + b == top)
        if len(stratum) == 1:
            return stratum[0]
        matches = [ab for ab in stratum if self.dominant_exponent(*ab) == k]
        if len(matches) != 1:
            raise RuntimeError(
                f"code of {k} not recoverable: maximal stratum {stratum} "
                f"has {len(matches)} dominant-exponent matches"
            )
        return matches[0]

    # -- T_p as a series in x = T_3, y = T_5 ---------------------------------

    def tp_expansion(self, p: int, degree: int) -> frozenset[MIndex]:
        """Monomials x^i y^j with coefficient 1 in T_p, up to total degree.

        The coefficient of x^i y^j is the q^p coefficient of m(i,j)."""
        if not is_odd_prime(p):
            raise ValueError(f"expected an odd prime, got {p}")
        self.ensure_degree(degree)
        self.ensure_precision(p)
        probe = 0
        for i, bits in enumerate(self._pows):
            probe |= ((bits >> p) & 1) << i
        return frozenset(
            (i, j)
            for (i, j), coords in self._entries.items()
            if i + j <= degree and (coords & probe).bit_count() & 1
        )

    def parity_pattern_ok(self, p: int, degree: int) -> bool:
        """Do all monomials of T_p up to the given total degree have the
        parity class (i mod 2, j mod 2) forced by p mod 8?"""
        want = PARITY_PATTERN[p % 8]
        return all(
            (i % 2, j % 2) == want for i, j in self.tp_expansion(p, degree)
        )

    def frobenian_criteria(self, p: int) -> FrobenianReport:
        """Check the five explicit coefficient criteria for one odd prime."""
        exp = self.tp_expansion(p, 2)
        return FrobenianReport(
            a10=((1, 0) in exp) == (p % 8 == 3),
            a01=((0, 1) in exp) == (p % 8 == 5),
            a11=((1, 1) in exp) == (p % 16 == 7),
            a20=((2, 0) in exp) == _odd_b_representation(p, 8),
            a02=((0, 2) in exp) == _odd_b_representation(p, 16),
        )

    # -- injectivity witnesses ------------------------------------------------

    def injectivity_witness(self, support) -> int:
        """For a nonzero series u = sum x^i y^j over the given support,
        the smallest odd k with u(T_3, T_5) delta^k = delta.

        Selection: among the support indices of minimal total degree take
        the one with maximal first index; k is the smallest odd integer
        whose code is that pair.  The defining identity is then verified
        by direct computation before returning.
        """
        support = frozenset(support)
        if not support:
            raise ValueError("zero series has no witness")
        if (0, 0) in support:
            k = 1
        else:
            dmin = min(i + j for i, j in support)
            a = max(i for i, j in support if i + j == dmin)
            b = dmin - a
            bound = self.dominant_exponent(a, b)
            k = next(
                (kk for kk in range(1, bound + 1, 2) if self.code_of(kk) == (a, b)),
                None,
            )
            if k is None:
                raise RuntimeError(f"witness search exhausted below {bound}")
        acc = 0
        base = self.delta_power_coords(k).coords
        for i, j in support:
            v = base
            for _ in range(j):
                v = self._t5.apply(v)
            for _ in range(i):
                v = self._t3.apply(v)
            acc ^= v
        if acc != 1:
            raise RuntimeError(
                f"witness verification failed: u(T_3,T_5) delta^{k} != delta"
            )
        return k
