"""Theta families: tables, identities, composition laws, Hecke action."""

import random
import sys
import tracemalloc
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heckemod2 import checks, theta
from heckemod2.primes import odd_primes
from heckemod2.series import F2Series, delta, delta_pow, hecke
from heckemod2.theta import (CompositionLaw, NoRepresentation,
                             representable_mask, t_of_prime, theta_coords,
                             theta_level, theta_series,
                             verify_composition_group,
                             verify_hecke_on_theta,
                             verify_kernel_characterization,
                             verify_span_equality, verify_theta_identities)

THETA_TABLE_C2 = {
    (0, 1): (1,), (1, 1): (),
    (0, 2): (1,), (1, 2): (3,), (2, 2): (),
    (0, 3): (1,), (1, 3): (3, 11), (2, 3): (9,), (3, 3): (11,), (4, 3): (),
}
THETA_TABLE_C4 = {
    (0, 1): (1,), (1, 1): (),
    (0, 2): (1,), (1, 2): (5,), (2, 2): (),
    (0, 3): (1,), (1, 3): (5, 13, 21), (2, 3): (17,), (3, 3): (13, 21),
    (4, 3): (),
}


def theta_oracle(t, n, c, precision):
    """Parity of lattice-point counts, by unstructured enumeration."""
    modulus = 1 << n
    counts = {}
    for a in range(1, isqrt(precision) + 1, 2):
        for b in range(-precision, precision + 1):
            e = a * a + c * b * b
            if e <= precision and (b - t * a) % modulus == 0:
                counts[e] = counts.get(e, 0) ^ 1
    return F2Series.from_exponents([e for e, v in counts.items() if v], precision)


def theta_series_reference(t, n, c, precision):
    """Reference theta series: the same lattice walk as `theta_series`,
    one precision-wide int XOR per lattice point."""
    modulus = 1 << n
    t %= modulus
    bits = 0
    a = 1
    while a * a <= precision:
        bound = isqrt((precision - a * a) // c)
        r = (t * a) % modulus
        k = -((bound + r) // modulus)
        b = r + k * modulus
        while b <= bound:
            bits ^= 1 << (a * a + c * b * b)
            b += modulus
        a += 2
    return F2Series(bits, precision)


@given(st.integers(-300, 300), st.integers(0, 7), st.sampled_from((2, 4)),
       st.integers(0, 5000))
@example(0, 7, 2, 0)
@example(-300, 0, 4, 5000)
@settings(max_examples=150, deadline=None)
def test_theta_digit_buffer_matches_reference(t, n, c, precision):
    assert (theta_series(t, n, c, precision).bits
            == theta_series_reference(t, n, c, precision).bits)


def test_theta_matches_oracle():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(0, 4)
        t = rng.randrange(1 << n)
        c = rng.choice((2, 4))
        assert theta_series(t, n, c, 150) == theta_oracle(t, n, c, 150)


def test_theta_tables_match_published_values():
    for (t, n), want in THETA_TABLE_C2.items():
        assert theta_coords(t, n, 2, 16).support_exponents() == want, (t, n)
    for (t, n), want in THETA_TABLE_C4.items():
        assert theta_coords(t, n, 4, 16).support_exponents() == want, (t, n)


def test_theta_zero_index_is_delta():
    for n in range(1, 7):
        for c in (2, 4):
            assert theta_series(0, n, c, 2000) == delta(2000)


def test_theta_identities():
    for n in range(1, 5):
        for c in (2, 4):
            assert verify_theta_identities(n, c, 1024), (n, c)


def test_theta_special_values():
    # index 2^(n-2) collapses to a single delta power
    for n in range(2, 6):
        e2 = 1 + (1 << (2 * n - 3))
        assert theta_series(1 << (n - 2), n, 2, 4096) == delta_pow(e2, 4096)
        e4 = 1 + (1 << (2 * n - 2))
        assert theta_series(1 << (n - 2), n, 4, 4096) == delta_pow(e4, 4096)


# -- composition law -----------------------------------------------------------


def invert_odd_reference(d, n):
    """Inverse of an odd residue mod 2^n by Newton lifting from x = 1:
    each step x <- x(2 - dx) doubles the number of correct bits."""
    mask = (1 << n) - 1
    x = 1
    for _ in range(max(1, n.bit_length())):
        x = (x * (2 - d * x)) & mask
    return x


def test_invert_odd_matches_newton_lifting():
    for n in range(1, 13):
        for d in range(1, 1 << n, 2):
            assert theta._invert_odd(d, n) == invert_odd_reference(d, n), (d, n)
        with pytest.raises(ValueError):
            theta._invert_odd(2, n)


def test_compose_examples():
    law = CompositionLaw(2, 2)
    assert law.compose(1, 1) == 2  # 2/(1-2) = -2 = 2 mod 4
    for t in range(4):
        assert law.compose(0, t) == t
        assert law.compose(t, law.inverse(t)) == 0


def test_compose_associativity_brute_force():
    for n in (1, 2, 3, 4):
        for c in (2, 4):
            law = CompositionLaw(n, c)
            m = law.modulus
            for x in range(m):
                for y in range(m):
                    for z in range(m):
                        assert law.compose(law.compose(x, y), z) == \
                            law.compose(x, law.compose(y, z))


def test_generator_has_full_order():
    for n in range(1, 7):
        for c in (2, 4):
            law = CompositionLaw(n, c)
            seen, cur = set(), 0
            for _ in range(law.modulus):
                cur = law.compose(cur, 1)
                seen.add(cur)
            assert cur == 0 and len(seen) == law.modulus


def composition_group_reference(n, c):
    """Exhaustive reference: the full table, the identity, inverses and
    commutativity checked directly, a searched generator whose orbit is an
    explicit bijection phi, phi(k+l) = phi(k)*phi(l) on all pairs, and
    associativity on every triple for n <= 6."""
    law = CompositionLaw(n, c)
    m = law.modulus
    inv_odd = [0] * m
    for d in range(1, m, 2):
        inv_odd[d] = theta._invert_odd(d, n)
    table = [
        [((x + y) * inv_odd[(1 - c * x * y) % m]) % m for y in range(m)]
        for x in range(m)
    ]
    if table[0] != list(range(m)):
        return False
    for x in range(m):
        if table[x][(m - x) % m] != 0:
            return False
        for y in range(x):
            if table[x][y] != table[y][x]:
                return False
    for g in range(1, m):
        phi = [0]
        cur = 0
        for _ in range(m - 1):
            cur = table[cur][g]
            phi.append(cur)
        if table[cur][g] == 0 and sorted(phi) == list(range(m)):
            break
    else:
        return False
    for k in range(m):
        pk = phi[k]
        for l in range(k, m):
            if phi[(k + l) % m] != table[pk][phi[l]]:
                return False
    if n <= 6:
        for x in range(m):
            tx = table[x]
            for y in range(m):
                txy = table[tx[y]]
                ty = table[y]
                for z in range(m):
                    if txy[z] != tx[ty[z]]:
                        return False
    return True


def test_verify_composition_group():
    for n in range(1, 15):
        for c in (2, 4):
            assert verify_composition_group(n, c), (n, c)
            if n <= 7:
                assert composition_group_reference(n, c), (n, c)


def test_composition_certificate_on_corrupted_laws(monkeypatch):
    """Shift the inverse of one odd residue `bad` mod 2^n by every nonzero
    s.  The law only ever inverts denominators 1 - cxy = 1 mod c, so the
    certificate rejects exactly the corruptions of a residue bad = 1 mod
    c, and whatever it accepts the exhaustive reference accepts too.
    Some corrupted laws still happen to be cyclic groups; those are
    rejected as well, since the law is no longer the formula."""
    invert = theta._invert_odd
    cases = still_groups = 0
    for n in range(1, 6):
        m = 1 << n
        for c in (2, 4):
            for bad in range(1, m, 2):
                for shift in range(1, m):
                    monkeypatch.setattr(
                        theta, "_invert_odd",
                        lambda d, k: (invert(d, k) + shift * (d == bad)) % (1 << k))
                    got = verify_composition_group(n, c)
                    want = composition_group_reference(n, c)
                    assert want or not got, (n, c, bad, shift)
                    assert got == (bad % c != 1), (n, c, bad, shift)
                    cases += 1
                    still_groups += want and not got
    assert cases == 1302
    assert still_groups > 0


def test_composition_certificate_is_linear(monkeypatch):
    """At n = 10 the certificate composes at most 2 * 2^n times and runs at
    most 32 * 2^n lines of theta.py (the pairwise table ran over 500 * 2^n,
    whether or not it called `compose`): a return to the quadratic path
    fails here without any timing."""
    calls = lines = 0
    compose = CompositionLaw.compose

    def counted(self, x, y):
        nonlocal calls
        calls += 1
        return compose(self, x, y)

    def tracer(frame, event, arg):
        nonlocal lines
        if frame.f_code.co_filename != theta.__file__:
            return None
        lines += event == "line"
        return tracer

    monkeypatch.setattr(CompositionLaw, "compose", counted)
    for c in (2, 4):
        calls = lines = 0
        outer = sys.gettrace()
        sys.settrace(tracer)
        try:
            assert verify_composition_group(10, c)
        finally:
            sys.settrace(outer)
        assert 0 < calls <= 2 << 10, (c, calls)
        assert lines <= 32 << 10, (c, lines)


def test_composition_group_rejects_bad_parameters():
    with pytest.raises(ValueError):
        verify_composition_group(0, 2)
    with pytest.raises(ValueError):
        verify_composition_group(3, 3)


def test_composition_group_memory_is_linear():
    """The certificate keeps one value per residue: at n = 8 it stays far
    below the 256 x 256 table of the exhaustive reference."""
    tracemalloc.start()
    try:
        verify_composition_group(8, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 1024, peak


# -- translation parameters --------------------------------------------------------


def test_t_of_prime_examples():
    assert t_of_prime(3, 2, 2) == 1            # 3 = 1 + 2
    assert t_of_prime(17, 3, 2) == 2           # 17 = 9 + 8, t = 2/3 = 6 = -2 mod 8
    assert t_of_prime(5, 2, 4) == 1            # 5 = 1 + 4
    assert t_of_prime(17, 2, 4) == 2           # 17 = 1 + 4*4, t = 2/1 mod 4


def test_t_of_prime_17_representations():
    # 17 = 3^2 + 2*2^2 is the only a^2+2b^2 shape; 17 = 1 + 4*2^2 for c=4
    assert t_of_prime(17, 3, 2) in (2, 6)  # canonical is min(6, 2)
    assert t_of_prime(17, 3, 4) == 2       # t = 2/1 mod 8


def test_t_of_prime_wrong_class_raises():
    with pytest.raises(NoRepresentation):
        t_of_prime(5, 2, 2)   # 5 = 5 mod 8
    with pytest.raises(NoRepresentation):
        t_of_prime(3, 2, 4)   # 3 = 3 mod 8
    with pytest.raises(ValueError):
        t_of_prime(9, 2, 2)


# -- Hecke action -------------------------------------------------------------------


def test_hecke_theta_worked_example():
    # T_3 theta_{1,2} = theta_{1*1} + theta_{1*(-1)} = theta_2 + theta_0 = delta
    lhs = hecke(3, theta_series(1, 2, 2, 3 * 400))
    assert lhs == delta(400)
    law = CompositionLaw(2, 2)
    assert law.compose(1, 1) == 2 and law.compose(1, 3) == 0


def test_inert_primes_kill_family():
    for c, primes in ((2, (5, 7, 13, 23)), (4, (3, 7, 11, 19))):
        for p in primes:
            for n in (1, 2, 3):
                for t in range(1 << (n - 1)):
                    assert hecke(p, theta_series(t, n, c, p * 128)).is_zero


def test_verify_hecke_on_theta_split_primes():
    for c, primes in ((2, (3, 11, 17)), (4, (5, 13, 17))):
        for n in (1, 2, 3):
            assert verify_hecke_on_theta(primes, n, c, 128) == [], (n, c)


def hecke_on_theta_reference(p, n, c, precision):
    """One prime at a time, as the verifier once ran: every series is built
    afresh, the left side at p * precision and each right-hand term at
    precision."""
    shifts = ()
    if p % 8 not in theta.INERT_CLASSES[c]:
        law = CompositionLaw(n, c)
        tp = theta.t_of_prime(p, n, c)
        shifts = (tp, law.inverse(tp))
    for t in range((1 << n) // 2 + 1):
        lhs = hecke(p, theta_series(t, n, c, p * precision))
        rhs = F2Series(0, precision)
        for s in shifts:
            rhs = rhs + theta_series(law.compose(t, s), n, c, precision)
        if lhs != rhs:
            return False
    return True


def shift_translations(monkeypatch, module):
    """Replace t(p) by t(p) + 1 in `module`: a wrong law for every prime."""
    true = theta.t_of_prime
    monkeypatch.setattr(module, "t_of_prime",
                        lambda p, n, c: (true(p, n, c) + 1) % (1 << n))


@pytest.mark.parametrize("corrupt", [False, True])
def test_batched_hecke_on_theta_matches_reference(corrupt, monkeypatch):
    """The family built once at the deepest precision rejects exactly the
    primes that the per-prime reference rejects, on the true law and on a
    shifted one; the shifted law must be rejected somewhere."""
    if corrupt:
        shift_translations(monkeypatch, theta)
    primes = odd_primes(50)
    rejected = 0
    for c in (2, 4):
        for n in (1, 2, 3):
            want = [p for p in primes
                    if not hecke_on_theta_reference(p, n, c, 64)]
            assert verify_hecke_on_theta(primes, n, c, 64) == want, (n, c)
            rejected += len([p for p in want
                             if p % 8 not in theta.INERT_CLASSES[c]])
    assert (rejected > 0) == corrupt


def test_hecke_on_theta_failure_details(monkeypatch):
    """With a shifted law the check names the failures in the order of the
    per-prime loop: p outer, then c, then n."""
    shift_translations(monkeypatch, theta)
    want = "; ".join(
        f"p={p} n={n} c={c}"
        for p in odd_primes(100) for c in (2, 4) for n in range(1, 5)
        if not hecke_on_theta_reference(p, n, c, 64))
    result = checks.check_hecke_on_theta(64)
    assert want and not result.passed
    assert result.details == want


def composition_compatibility_reference(precision):
    """The four-term sums with every series built afresh: the left side at
    p * q * precision, each right-hand term at precision."""
    bad = []
    for c, primes in ((2, (3, 11, 17)), (4, (5, 13, 17))):
        for n in (1, 2, 3):
            law = CompositionLaw(n, c)
            for p in primes:
                for q in primes:
                    tp, tq = checks.t_of_prime(p, n, c), checks.t_of_prime(q, n, c)
                    for t in range(law.modulus // 2 + 1):
                        lhs = hecke(p, hecke(q, theta_series(
                            t, n, c, p * q * precision)))
                        rhs = F2Series(0, precision)
                        for sp in (tp, law.inverse(tp)):
                            for sq in (tq, law.inverse(tq)):
                                idx = law.compose(law.compose(t, sp), sq)
                                rhs = rhs + theta_series(idx, n, c, precision)
                        if lhs != rhs:
                            bad.append(f"p={p} q={q} t={t} n={n} c={c}")
    return "; ".join(bad)


@pytest.mark.parametrize("corrupt", [False, True])
def test_composition_compatibility_matches_reference(corrupt, monkeypatch):
    """The truncated families fail on the shifted law, and name the same
    (p, q, t, n, c) as the reference built series by series."""
    if corrupt:
        shift_translations(monkeypatch, checks)
    want = composition_compatibility_reference(64)
    assert bool(want) == corrupt
    result = checks.check_composition_compatibility(64)
    assert result.passed == (not want), result.details
    if want:
        assert result.details == want


def test_special_relation():
    for n in (1, 2, 3):
        for p in (3, 11, 17):
            tp = t_of_prime(p, n, 2)
            lhs = theta_series(((1 << (n - 1)) - tp) % (1 << n), n, 2, 256)
            rhs = hecke(p, delta_pow(1 + (1 << (2 * n - 1)), p * 256))
            assert lhs == rhs, (n, p, 2)
        for p in (5, 13, 17):
            tp = t_of_prime(p, n, 4)
            lhs = theta_series(((1 << (n - 1)) - tp) % (1 << n), n, 4, 256)
            rhs = hecke(p, delta_pow(1 + (1 << (2 * n)), p * 256))
            assert lhs == rhs, (n, p, 4)


# -- spans and kernels -----------------------------------------------------------------


def test_span_equalities():
    for n in (1, 2, 3, 4):
        assert verify_span_equality(n, 2), n
    for n in (1, 2, 3):
        assert verify_span_equality(n, 4), n


@pytest.mark.parametrize("c", [2, 4])
def test_theta_level_is_tight(c):
    """Expanded at twice its level, every member of the index-n family
    lies in theta_level(n, c), and some member reaches its top delta
    power."""
    for n in range(1, 7):
        level = theta_level(n, c)
        top = max(theta_coords(t, n, c, 2 * level).coords.bit_length()
                  for t in range((1 << (n - 1)) + 1))
        assert top == level, (n, c)


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("c", [2, 4])
def test_theta_level_rejects_index_below_one(n, c):
    for call in (theta_level, verify_span_equality):
        with pytest.raises(ValueError, match="n must be >= 1"):
            call(n, c)


def test_span_example_level_2():
    # theta family at n=2 spans {delta, delta^3} = span{m(0,0), m(1,0)}
    coords = {theta_coords(t, 2, 2, 8).coords for t in range(3)}
    assert coords == {0b0, 0b1, 0b10}


def test_representable_mask_small():
    mask2 = representable_mask(2, 40)
    want2 = {a * a + 2 * b * b for a in range(7) for b in range(5)
             if a * a + 2 * b * b <= 40}
    assert {e for e in range(41) if (mask2 >> e) & 1} == want2
    mask4 = representable_mask(4, 40)
    want4 = {a * a + b * b for a in range(7) for b in range(7)
             if a * a + b * b <= 40}
    assert {e for e in range(41) if (mask4 >> e) & 1} == want4


def test_representable_mask_rejects_other_forms():
    for c in (0, 1, 3, 8):
        with pytest.raises(ValueError, match="must be 2 or 4"):
            representable_mask(c, 20)


def test_kernel_characterization():
    for c in (2, 4):
        assert verify_kernel_characterization(4, c, 1024)
        assert verify_kernel_characterization(8, c, 1024)


def test_kernel_characterization_expands_only_the_predicted_family(monkeypatch):
    """The T_5 kernel at level 8 has dimension 4 = 2^(3-1), so the family
    of index 3 is the only one expanded."""
    depths = []
    real = theta.theta_coords

    def spy(t, n, c, level):
        depths.append(n)
        return real(t, n, c, level)
    monkeypatch.setattr(theta, "theta_coords", spy)
    assert verify_kernel_characterization(8, 2, 1024)
    assert depths == [3] * 4


def test_theta_support_representable():
    # condition 3: the q-support of any kernel element is representable
    for t in range(4):
        supp = theta_series(t, 3, 2, 800).support()
        mask = representable_mask(2, 800)
        assert all((mask >> e) & 1 for e in supp)
