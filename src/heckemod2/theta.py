"""Theta series of the binary forms x^2 + 2y^2 and x^2 + 4y^2, their
identities, their Hecke action, and the class-group composition laws on
Z/2^n under which that action is a translation.

theta(t, n, c) sums q^(a^2 + c*b^2) over odd a > 0 and every integer b
(negative, zero and positive) congruent to t*a mod 2^n; the two-sided b
range is what makes the index-0 series collapse to delta by pairwise
cancellation mod 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt, prod

from .gf2 import Span, rank
from .mbasis import MBasis, MIndex, code_exponent, code_level
from .primes import is_odd_prime
from .series import F2Series, delta, delta_pow, hecke
from .spaces import DeltaCoords, expand_in_delta_basis, hecke_matrix, kernel

# residues of p mod 8 for which T_p kills the whole family
INERT_CLASSES = {2: (5, 7), 4: (3, 7)}


class NoRepresentation(ValueError):
    """p has no representation a^2 + c*b^2 (wrong residue class mod 8)."""


def _validate_c(c: int):
    if c not in (2, 4):
        raise ValueError(f"form parameter must be 2 or 4, got {c}")


def theta_series(t: int, n: int, c: int, precision: int) -> F2Series:
    """q-expansion of the theta series of index (t, n), form x^2 + c*y^2.

    The coefficients live in one packed buffer, bit e & 7 of byte e >> 3
    for q^e: each lattice point toggles its bit, so the points b and -b
    cancel exactly, and the buffer is read as an int once at the end.
    """
    _validate_c(c)
    if n < 0:
        raise ValueError("n must be >= 0")
    if precision < 0:
        raise ValueError("precision must be >= 0")
    modulus = 1 << n
    t %= modulus
    buf = bytearray(precision // 8 + 1)
    a = 1
    while (aa := a * a) <= precision:
        bound = isqrt((precision - aa) // c)
        r = (t * a) % modulus
        k = -((bound + r) // modulus)
        b = r + k * modulus
        while b <= bound:
            e = aa + c * b * b
            buf[e >> 3] ^= 1 << (e & 7)
            b += modulus
        a += 2
    bits = int.from_bytes(buf, "little")
    del buf  # F2Series masks its bits: hold one copy of them, not two
    return F2Series(bits, precision)


def theta_families(n: int, c: int, precision: int) -> list[list[int]]:
    """The bits of every theta family of index m <= n at one precision:
    families[m][t] is theta(t, m, c) for t < 2^m.

    Only index n is walked, one `theta_series` per t; every smaller index
    comes by descent, theta(t, m-1) = theta(t, m) + theta(t + 2^(m-1), m).
    For odd a the class b = t*a mod 2^(m-1) is the disjoint union of the
    classes b = t*a and b = (t + 2^(m-1))*a mod 2^m, so the two series of
    index m share out its lattice points, and the sum holds bit for bit at
    every precision."""
    families = [[theta_series(t, n, c, precision).bits for t in range(1 << n)]]
    for m in range(n, 0, -1):
        top, half = families[0], 1 << (m - 1)
        families.insert(0, [top[t] ^ top[t + half] for t in range(half)])
    return families


def theta_coords(t: int, n: int, c: int, level: int) -> DeltaCoords:
    """Expansion of a theta series in the delta-power basis at a level."""
    return expand_in_delta_basis(theta_series(t, n, c, 2 * level - 1), level)


def boundary(i: int, c: int) -> MIndex:
    """The i-th index of the m-basis boundary row that the theta families
    of form parameter c span: (i, 0) for c = 2, (0, i) for c = 4."""
    return (i, 0) if c == 2 else (0, i)


def theta_level(n: int, c: int) -> int:
    """The least level holding the whole family of index n: it spans the
    same space as the boundary entries m(boundary(i, c)), i < 2^(n-1), and
    the last of those has the largest code."""
    _validate_c(c)
    if n < 1:
        raise ValueError("n must be >= 1")
    return code_level(*boundary((1 << (n - 1)) - 1, c))


@dataclass(frozen=True)
class CompositionLaw:
    """The group law x*y = (x+y)/(1-c*x*y) on Z/2^n.

    The denominator is always odd, hence invertible, so the law is total.
    """

    n: int
    c: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        _validate_c(self.c)

    @property
    def modulus(self) -> int:
        return 1 << self.n

    def compose(self, x: int, y: int) -> int:
        m = self.modulus
        d = (1 - self.c * x * y) % m
        return ((x + y) * _invert_odd(d, self.n)) % m

    def inverse(self, x: int) -> int:
        return (-x) % self.modulus


def _invert_odd(d: int, n: int) -> int:
    """Inverse of an odd residue mod 2^n."""
    if d % 2 == 0:
        raise ValueError("only odd residues are invertible mod 2^n")
    return pow(d, -1, 1 << n)


def t_of_prime(p: int, n: int, c: int) -> int:
    """The translation parameter t(p) = b/a mod 2^n from a representation
    p = a^2 + c*b^2, canonicalized to min(t, -t).

    All representations are enumerated; they must agree up to sign, which
    is asserted.  A prime in the wrong residue class has no representation
    and raises NoRepresentation (those primes kill the theta family).
    """
    if not is_odd_prime(p):
        raise ValueError(f"expected an odd prime, got {p}")
    _validate_c(c)
    if n < 1:
        raise ValueError("n must be >= 1")
    modulus = 1 << n
    values = set()
    b = 0
    while c * b * b <= p:
        r = p - c * b * b
        a = isqrt(r)
        if a * a == r:
            t = (b * _invert_odd(a % modulus, n)) % modulus
            values.add(min(t, (modulus - t) % modulus))
        b += 1
    if not values:
        raise NoRepresentation(f"{p} is not of the form a^2 + {c}*b^2")
    if len(values) > 1:
        raise RuntimeError(
            f"representations of {p} by a^2 + {c}*b^2 disagree beyond sign: {values}"
        )
    return values.pop()


def hecke_mismatches(word, n: int, c: int, precision: int, family: list[int]):
    """Yield, in ascending order, each t <= 2^(n-1) at which T_word
    theta(t, n), the product of T_p over `word`, misses the composition
    law at `precision`: the sum of theta(t * s, n) over s = s_1 * ... * s_k
    with s_i in {t(p_i), t(p_i)^-1}, empty if some p_i is inert.  `family`
    is the bits of the index-n family at prod(word) * precision or deeper
    (as from `theta_families`): T_word of that truncation is the honest
    q-expansion at `precision`."""
    law, depth = CompositionLaw(n, c), prod(word) * precision
    shifts = [0]
    for p in word:
        if p % 8 in INERT_CLASSES[c]:
            shifts = []
            break
        tp = t_of_prime(p, n, c)
        shifts = [law.compose(s, x) for s in shifts
                  for x in (tp, law.inverse(tp))]
    for t in range(law.modulus // 2 + 1):
        lhs = F2Series(family[t], depth)
        for p in word:
            lhs = hecke(p, lhs)
        rhs = 0
        for s in shifts:
            rhs ^= family[law.compose(t, s)]
        if lhs != F2Series(rhs, precision):
            yield t


def verify_hecke_on_theta(primes, n: int, c: int, precision: int,
                          family: list[int]) -> list[int]:
    """The primes p, in the order given, at which `hecke_mismatches` finds
    a t for the word (p,); `family` is the bits of the index-n family at
    max(primes) * precision or deeper."""
    return [p for p in primes if any(
        True for _ in hecke_mismatches((p,), n, c, precision, family))]


def verify_theta_identities(n: int, c: int, precision: int,
                            family: list[int], down: list[int]) -> bool:
    """The identity family at one level: index 0 gives delta, reflection
    t <-> -t, index 2^(n-1) vanishes, descent to level n-1, and the
    special index 2^(n-2) giving an explicit power of delta.

    `family` and `down` are the bits of the families of index n and n-1
    at `precision`, each walked on its own: a `down` derived by
    `theta_families` would satisfy descent by construction."""
    _validate_c(c)
    if n < 1:
        raise ValueError("n must be >= 1")
    modulus = 1 << n
    half = modulus // 2
    if family[0] != delta(precision).bits:
        return False
    for t in range(modulus):
        if family[t] != family[(modulus - t) % modulus]:
            return False
    if family[half]:
        return False
    for t in range(modulus):
        if family[t] ^ family[(half - t) % modulus] != down[t % half]:
            return False
    if n >= 2:
        e = code_exponent(*boundary(1 << (n - 2), c))
        if e <= precision and family[modulus // 4] != delta_pow(e, precision).bits:
            return False
    return True


def verify_span_equality(n: int, c: int) -> bool:
    """Rank check of the span statement: the level-n theta family spans the
    same subspace as m(a,0), 0 <= a < 2^(n-1) (form parameter 2), resp.
    m(0,b) (form parameter 4).  The family is expanded at twice
    `theta_level`, so the check also shows that no member reaches past
    that level."""
    level = theta_level(n, c)
    half = 1 << (n - 1)
    table = MBasis()
    table.ensure_level(level)
    m_rows = [table.element(*boundary(i, c)).coords for i in range(half)]
    theta_rows = [theta_coords(t, n, c, 2 * level).coords
                  for t in range(half + 1)]
    return rank(m_rows) == rank(theta_rows) == rank(m_rows + theta_rows) == half


def representable_mask(c: int, precision: int) -> int:
    """Bitmask of integers <= precision of the form a^2 + 2b^2 (c = 2) or
    a^2 + b^2 (c = 4), over all integers a, b."""
    _validate_c(c)
    step = 2 if c == 2 else 1
    bits = 0
    for a in range(isqrt(precision) + 1):
        for b in range(isqrt((precision - a * a) // step) + 1):
            bits |= 1 << (a * a + step * b * b)
    return bits


def verify_kernel_characterization(n_level: int, c: int, precision: int) -> bool:
    """The kernel of T_5 (form parameter 2) resp. T_3 (form parameter 4)
    on the level-n_level space: every kernel vector has q-support inside
    the representable integers and lies in the span of the theta family
    of the least index n >= 2 with 2^(n-1) >= the kernel's dimension d:
    the kernel is spanned by the boundary entries m(boundary(i, c)),
    i < d, and that family spans those with i < 2^(n-1)."""
    _validate_c(c)
    op = 5 if c == 2 else 3
    basis = kernel(hecke_matrix(op, n_level))
    mask = representable_mask(c, precision)
    for v in basis:
        if DeltaCoords(v, n_level).to_series(precision).bits & ~mask:
            return False
    depth = max(2, (len(basis) - 1).bit_length() + 1)
    level = theta_level(depth, c)
    span = Span(theta_coords(t, depth, c, level).coords
                for t in range(1 << (depth - 1)))
    return all(span.contains(v) for v in basis)


def verify_composition_group(n: int, c: int) -> bool:
    """Certificate that (Z/2^n, *) is a cyclic group of order 2^n, in
    O(2^n) steps.

    In R = (Z/m)[t]/(t^2 + c), m = 2^n, the norm form is a^2 + c*b^2, so
    the units U of R are the a + bt with a odd, and
    (1 + xt)(1 + yt) = (1 - cxy) + (x + y)t.  Every denominator 1 - cxy is
    1 mod c, so once `_invert_odd` is exact on the residues d = 1 mod c,
    `CompositionLaw.compose` is exactly the formula and [1 + xt] -> x maps
    the abelian group U/(Z/m)^x bijectively onto (Z/m, *) (a unit a + bt
    is a * (1 + (b/a)t), and 1 + xt = u(1 + yt) forces u = 1, x = y).  So
    * is an abelian group law with identity 0.  The class of
    (1 + t)^k = a_k + b_k t is [1 + phi(k)t], phi(k) = b_k/a_k, the k-th
    power of 1 under *: if phi(0..m-1) are pairwise distinct and b_m = 0,
    then [1 + t] has order exactly m and the group is cyclic, generated by
    1.  Last, the inverse that `hecke_mismatches` uses is checked
    directly.
    """
    law = CompositionLaw(n, c)
    m = law.modulus
    if any(d * _invert_odd(d, n) % m != 1 for d in range(1, m, c)):
        return False
    phi = set()
    a, b = 1, 0
    for _ in range(m):
        phi.add(b * _invert_odd(a, n) % m)
        a, b = (a - c * b) % m, (a + b) % m
    if len(phi) != m or b:
        return False
    return all(law.compose(x, law.inverse(x)) == 0 for x in range(m))
