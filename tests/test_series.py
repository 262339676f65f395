"""Series arithmetic against brute-force oracles and the stated examples."""

import random
import sys
import threading
import tracemalloc
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heckemod2 import series
from heckemod2.primes import odd_prime_factors, odd_primes
from heckemod2.series import (F2Series, PrecisionError, _hecke_bits, _mask,
                              _odd_delta_power_bits, delta, delta_pow, hecke,
                              mul, square)

# -- independent oracles -------------------------------------------------------


def conv_oracle(f: F2Series, g: F2Series) -> F2Series:
    """Schoolbook GF(2) convolution on coefficient dicts."""
    n = min(f.precision, g.precision)
    coeffs = {}
    for a in f.support():
        for b in g.support():
            if a + b <= n:
                coeffs[a + b] = coeffs.get(a + b, 0) ^ 1
    return F2Series.from_exponents([e for e, c in coeffs.items() if c], n)


def hecke_oracle(p: int, f: F2Series) -> F2Series:
    """T_p from its defining coefficient formula, term by term."""
    out = []
    for m in range(1, f.precision // p + 1):
        bit = f.coeff(p * m)
        if m % p == 0:
            bit ^= f.coeff(m // p)
        if bit:
            out.append(m)
    return F2Series.from_exponents(out, f.precision // p)


def hecke_bits_reference(p: int, bits: int, precision: int) -> tuple[int, int]:
    """Reference Hecke kernel: one shifted read per coefficient, so
    quadratic per column."""
    np_ = precision // p
    out = 0
    for m in range(1, np_ + 1):
        bit = (bits >> (p * m)) & 1
        if m % p == 0:
            bit ^= (bits >> (m // p)) & 1
        if bit:
            out |= 1 << m
    return out, np_


def odd_delta_power_bits_reference(count: int, precision: int) -> list[int]:
    """Reference powers: delta^(2i+1) for i < count, exactly at
    `precision`, recomputed from scratch on every call."""
    d = delta(precision)
    d2 = square(d)
    out = [d.bits]
    cur = d
    for _ in range(count - 1):
        cur = mul(cur, d2)
        out.append(cur.bits)
    return out


def delta_pow_reference(k: int, precision: int) -> F2Series:
    """Reference power: delta^k by square-and-multiply with the dense delta."""
    d = delta(precision)
    acc = d
    for bit in bin(k)[3:]:
        acc = square(acc)
        if bit == "1":
            acc = mul(acc, d)
    return acc


@contextmanager
def fresh_power_table():
    """Run with the shared delta-power table emptied, then restore it."""
    saved = series._powers, series._powers_precision
    series._powers, series._powers_precision = [], -1
    try:
        yield
    finally:
        series._powers, series._powers_precision = saved


def pow_oracle(k: int, precision: int) -> F2Series:
    acc = F2Series.from_exponents([0], precision)
    for _ in range(k):
        acc = conv_oracle(acc, delta(precision))
    return acc


series_strategy = st.builds(
    F2Series.from_exponents,
    st.lists(st.integers(0, 120), max_size=25),
    st.integers(0, 120),
)


# -- delta ---------------------------------------------------------------------


def test_delta_support():
    assert delta(30).support() == (1, 9, 25)
    assert delta(0).support() == () and delta(0).precision == 0
    assert delta(100).support() == (1, 9, 25, 49, 81)


def test_delta_is_exactly_odd_squares():
    supp = set(delta(5000).support())
    assert supp == {(2 * m + 1) ** 2 for m in range(35)}


# -- mul / square --------------------------------------------------------------


def test_mul_monomials():
    q = F2Series.from_exponents([1], 10)
    assert mul(q, q).support() == (2,)
    zero = F2Series(0, 10)
    assert mul(delta(10), zero).is_zero


def test_mul_delta_squared():
    # cross terms cancel in characteristic 2: (q+q^9+q^25)^2 = q^2 + q^18 + ...
    got = mul(delta(30), delta(30))
    assert got.support() == (2, 18)
    assert got == conv_oracle(delta(30), delta(30))


def test_square_examples():
    f = F2Series.from_exponents([1, 9], 20)
    assert square(f).support() == (2, 18)
    assert square(F2Series(0, 50)).is_zero
    assert square(delta(100)).support() == (2, 18, 50, 98)


@given(series_strategy)
@settings(max_examples=200)
def test_square_agrees_with_mul(f):
    assert square(f) == mul(f, f)


@given(series_strategy, series_strategy)
@settings(max_examples=200)
def test_mul_commutes_and_matches_oracle(f, g):
    assert mul(f, g) == mul(g, f)
    assert mul(f, g) == conv_oracle(f, g)
    assert mul(f, g).precision == min(f.precision, g.precision)


@given(series_strategy, series_strategy, series_strategy)
@settings(max_examples=100)
def test_mul_associates_and_distributes(f, g, h):
    assert mul(mul(f, g), h) == mul(f, mul(g, h))
    assert mul(f, g + h) == mul(f, g) + mul(f, h)


# -- delta powers ----------------------------------------------------------------


def test_delta_pow_examples():
    assert delta_pow(1, 30) == delta(30)
    assert delta_pow(3, 15).support() == (3, 11)
    assert delta_pow(3, 15) == pow_oracle(3, 15)
    assert delta_pow(7, 60) == pow_oracle(7, 60)


def test_delta_pow_leading_exponent():
    for k in range(1, 100, 2):
        assert delta_pow(k, 100).leading_exponent() == k


@given(st.integers(0, 2047), st.integers(0, 3999))
@example(2047, 3999)
@example(1023, 0)
@settings(max_examples=150, deadline=None)
def test_delta_pow_matches_square_and_multiply(half, precision):
    """One sparse Frobenius factor per set bit of k against square-and-
    multiply with the dense delta, bit for bit."""
    k = 2 * half + 1
    assert delta_pow(k, precision).bits == delta_pow_reference(k, precision).bits


@pytest.mark.parametrize("k", [0, -3, 2, 10])
def test_delta_pow_rejects_even(k):
    with pytest.raises(ValueError):
        delta_pow(k, 10)


# -- hecke -----------------------------------------------------------------------


def test_hecke_kills_delta():
    out = hecke(3, delta(300))
    assert out.is_zero and out.precision == 100


def test_hecke_shifts_small_powers():
    assert hecke(3, delta_pow(3, 3 * 80)) == delta(80)
    assert hecke(5, delta_pow(5, 5 * 80)) == delta(80)


@pytest.mark.parametrize("p", [2, 9, 15, 1, -3])
def test_hecke_rejects_non_odd_primes(p):
    with pytest.raises(ValueError):
        hecke(p, delta(20))


@given(series_strategy, st.sampled_from([3, 5, 7, 11]))
@settings(max_examples=150)
def test_hecke_matches_definition(f, p):
    assert hecke(p, f) == hecke_oracle(p, f)
    assert hecke(p, f).precision == f.precision // p


@st.composite
def hecke_inputs(draw):
    """(p, precision, bits) with up to 80 junk bits above the precision."""
    p = draw(st.sampled_from(odd_primes(1009)))
    precision = draw(st.integers(0, 6000))
    junk = draw(st.integers(0, 80))
    return p, precision, draw(st.integers(0, (1 << (precision + 1 + junk)) - 1))


@given(hecke_inputs())
@settings(max_examples=150, deadline=None)
@example((1009, 500, (1 << 531) - 1))
@example((3, 0, 0b11111))
@example((7, 6000, (1 << 6040) - 1))
def test_hecke_bits_matches_reference(case):
    """The sliced kernel against the per-coefficient loop, including
    p > precision and bits above the precision (which must be ignored)."""
    p, precision, bits = case
    assert (_hecke_bits(p, bits, precision)
            == hecke_bits_reference(p, bits & _mask(precision), precision))


@given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 400)),
                min_size=1, max_size=8))
@example([(2, 0)])  # delta^2 is 0 below precision 2
@settings(max_examples=60, deadline=None)
def test_power_table_serves_exact_truncations(requests):
    """Any sequence of requests (growing, shrinking, regrowing either
    dimension) returns delta^(2i+1) correct through the requested
    precision, and never alters a list returned earlier."""
    with fresh_power_table():
        returned = []
        for count, precision in requests:
            pows = _odd_delta_power_bits(count, precision)
            assert len(pows) == count
            ref = odd_delta_power_bits_reference(count, precision)
            for i, bits in enumerate(pows):
                assert F2Series(bits, precision) == delta_pow(2 * i + 1, precision)
                assert bits & _mask(precision) == ref[i]
            returned.append((pows, list(pows)))
        for pows, snapshot in returned:
            assert pows == snapshot


@st.composite
def power_table_requests(draw):
    """(count, precision) with count up to 600, so the table crosses the top
    bits 64..512, and precision from 2 * count - 1, where most powers are
    one shifted copy, up to the 100 * count that `_direct_columns` asks."""
    count = draw(st.integers(1, 600))
    return count, draw(st.integers(2 * count - 1, 100 * count))


@given(power_table_requests())
@example((600, 1199))
@example((513, 51300))
@settings(max_examples=25, deadline=None)
def test_power_table_by_frobenius_matches_the_reference(request):
    count, precision = request
    with fresh_power_table():
        pows = _odd_delta_power_bits(count, precision)
    assert pows == odd_delta_power_bits_reference(count, precision)


def test_power_table_at_the_cap_matches_delta_pow():
    """The whole table at level 8192, precision 16383, read at the ends of
    the top-bit blocks and at seeded random indices."""
    rng = random.Random(8192)
    indices = [0, 1, 2, 4095, 4096, 8191] + rng.sample(range(8192), 6)
    with fresh_power_table():
        pows = _odd_delta_power_bits(8192, 16383)
    for i in indices:
        assert pows[i] == delta_pow(2 * i + 1, 16383).bits, i


def test_power_table_regrows_precision_with_only_the_requested_powers():
    """A precision raise, or more powers at another precision, restarts the
    table with the powers the request asks for, not every power the table
    held; a request the table covers is served from it."""
    with fresh_power_table():
        _odd_delta_power_bits(12, 50)
        assert series._powers_precision == 50
        pows = _odd_delta_power_bits(3, 120)
        assert series._powers_precision == 120 and len(series._powers) == 3
        assert pows == series._powers == odd_delta_power_bits_reference(3, 120)
        # more powers at a lower precision restart the table there
        low = _odd_delta_power_bits(12, 40)
        assert series._powers_precision == 40 and len(series._powers) == 12
        assert low == series._powers == odd_delta_power_bits_reference(12, 40)
        # fewer powers at a lower precision are served, extra bits included
        lower = _odd_delta_power_bits(5, 30)
        assert series._powers_precision == 40 and lower == series._powers[:5]
        assert ([b & _mask(30) for b in lower]
                == odd_delta_power_bits_reference(5, 30))


def test_power_table_grows_at_the_requested_precision():
    """Many powers at a low precision, after a few at a high one, are built
    at the low precision, not extended at the high one."""
    with fresh_power_table():
        _odd_delta_power_bits(9, 10**5)
        pows = _odd_delta_power_bits(1000, 2000)
        assert series._powers_precision == 2000 and len(series._powers) == 1000
        assert pows == odd_delta_power_bits_reference(1000, 2000)


def test_power_table_extends_without_holding_every_shifted_copy():
    """One power at precision 10^6 is about 125 KB; the extension XORs the
    shifted copies in one at a time instead of holding all of them."""
    with fresh_power_table():
        tracemalloc.start()
        try:
            _odd_delta_power_bits(3, 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 16 * 2**20


def test_power_table_under_threads():
    """Concurrent requests that keep regrowing the table each get exact
    truncations."""
    errors = []

    def worker(seed):
        rng = random.Random(seed)
        for step in range(150):
            # precision keeps rising, so extensions race with regrowths
            count, precision = rng.randint(1, 40), 4 * step + rng.randint(0, 8)
            pows = _odd_delta_power_bits(count, precision)
            ref = odd_delta_power_bits_reference(count, precision)
            if [b & _mask(precision) for b in pows] != ref:
                errors.append((count, precision))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with fresh_power_table():
            threads = [threading.Thread(target=worker, args=(seed,))
                       for seed in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []


def test_hecke_commutativity():
    primes = (3, 5, 7, 11, 13)
    for i, p in enumerate(primes):
        for q in primes[i + 1:]:
            for k in range(1, 20, 2):
                f = delta_pow(k, p * q * 64)
                assert hecke(p, hecke(q, f)) == hecke(q, hecke(p, f))


def _prime_power_indices(e):
    # T_p^e = sum of T_{p^j} over GF(2), via T_p T_{p^r} = T_{p^(r+1)} + T_{p^(r-1)}
    coeffs = {0}
    for _ in range(e):
        nxt = set()
        for j in coeffs:
            nxt ^= {j + 1}
            if j >= 1:
                nxt ^= {j - 1}
        coeffs = nxt
    return coeffs


def test_first_coefficient_pairing():
    """q^1 of T_{p_1}...T_{p_r} delta^k: equals a_{p_1...p_r} for distinct
    primes; repeated primes pick up the lower Hecke-relation terms
    (T_3^2 delta = 0 although a_9(delta) = 1)."""
    for k in range(1, 16, 2):
        f = delta_pow(k, 105)
        for m in range(1, 106, 2):
            factors = odd_prime_factors(m)
            g = f
            for p in factors:
                g = hecke(p, g)
            if len(set(factors)) == len(factors):
                assert g.coeff(1) == f.coeff(m), (m, k)
            expected = 0
            choices = [[]]
            for p in sorted(set(factors)):
                e = factors.count(p)
                choices = [c + [p ** j] for c in choices
                           for j in _prime_power_indices(e)]
            for choice in choices:
                idx = 1
                for v in choice:
                    idx *= v
                expected ^= f.coeff(idx)
            assert g.coeff(1) == expected, (m, k)
    # the explicit non-squarefree counterexample
    assert hecke(3, hecke(3, delta(9))).coeff(1) == 0
    assert delta(9).coeff(9) == 1


# -- precision contract ------------------------------------------------------------


def test_coeff_beyond_precision_raises():
    f = delta(50)
    assert f.coeff(50) in (0, 1)
    with pytest.raises(PrecisionError):
        f.coeff(51)


def test_truncate_cannot_extend():
    f = delta(50)
    assert f.truncate(20).precision == 20
    with pytest.raises(PrecisionError):
        f.truncate(51)


def test_equality_truncates_to_common_precision():
    assert delta(30) == delta(300)
    assert delta(30) != delta(300) + delta_pow(3, 300)
    f = F2Series.from_exponents([40], 40)
    assert f == F2Series(0, 30)  # only decidable up to exponent 30


def test_constructor_masks_stray_bits():
    f = F2Series(0b111 << 9, 10)
    assert f.support() == (9, 10)
