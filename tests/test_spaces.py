"""Filtration levels, Hecke matrices, algebra and commutant dimensions."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckemod2 import checks, mbasis, series, spaces
from heckemod2.gf2 import GF2Matrix, Span, prefix_ranks, rank
from heckemod2.mbasis import MBasis
from heckemod2.primes import odd_primes
from heckemod2.series import (F2Series, PrecisionError, _hecke_bits, _mask,
                              _odd_delta_power_bits, delta, delta_pow, hecke)
from heckemod2.spaces import (MODULAR_EQUATIONS, AlgebraSpan, DeltaCoords,
                              LevelExhausted, NotInSpan, _direct_columns,
                              _greedy_expand,
                              algebra_dimension, check_divisibility,
                              commutant_dimension, expand_in_delta_basis,
                              hecke_matrix, kernel, level_nilpotency_indices,
                              monomial_images, nilpotency_index,
                              polynomial_image)

# -- delta-basis expansion ----------------------------------------------------


def test_expand_examples():
    assert expand_in_delta_basis(delta(9), 1).coords == 1
    f = delta(31) + delta_pow(3, 31)
    assert expand_in_delta_basis(f, 2).coords == 0b11
    assert expand_in_delta_basis(f, 5).coords == 0b11  # higher level, same coords


def test_expand_rejects_even_leading_exponent():
    f = F2Series.from_exponents([2, 5], 20)
    with pytest.raises(NotInSpan, match="even leading exponent"):
        expand_in_delta_basis(f, 8)


def test_expand_rejects_exponent_beyond_level():
    with pytest.raises(NotInSpan, match="exceeds"):
        expand_in_delta_basis(delta_pow(7, 21), 2)


def test_expand_requires_precision():
    with pytest.raises(PrecisionError):
        expand_in_delta_basis(delta(5), 4)


def test_expand_roundtrip():
    for coords in (0b1, 0b1011, 0b11111, 0b10000001):
        f = DeltaCoords(coords, 8).to_series(63)
        assert expand_in_delta_basis(f, 8).coords == coords


@st.composite
def greedy_inputs(draw):
    """(n, precision, extra, coords, junk): a level-n element at a precision
    >= 2n-1, powers taken `extra` places deeper, junk bits above it."""
    n = draw(st.integers(1, 40))
    precision = draw(st.integers(2 * n - 1, 2 * n + 60))
    extra = draw(st.integers(1, 200))
    coords = draw(st.integers(0, (1 << n) - 1))
    junk = draw(st.integers(0, (1 << 64) - 1))
    return n, precision, extra, coords, junk


def _expand_or_error(bits, pows, n, precision):
    try:
        return _greedy_expand(bits, pows, n, precision)
    except NotInSpan as exc:
        return str(exc)


@given(greedy_inputs(), st.integers(0, (1 << 120) - 1))
@settings(max_examples=150, deadline=None)
def test_greedy_expand_ignores_bits_above_precision(case, noise):
    """Powers carrying true bits above the precision, and an input with junk
    above it, give the same coordinates (or the same NotInSpan) as powers
    truncated at exactly the precision."""
    n, precision, extra, coords, junk = case
    exact = [delta_pow(2 * i + 1, precision).bits for i in range(n)]
    deep = [delta_pow(2 * i + 1, precision + extra).bits for i in range(n)]
    bits = junk << (precision + 1)
    for i in range(n):
        if coords >> i & 1:
            bits ^= exact[i]
    assert _greedy_expand(bits, deep, n, precision) == coords
    noisy = bits ^ (noise & _mask(precision))
    assert (_expand_or_error(noisy, deep, n, precision)
            == _expand_or_error(noisy, exact, n, precision))


def test_leading_and_dominant_exponent():
    el = DeltaCoords(0b1010, 5)
    assert el.support_exponents() == (3, 7)
    assert el.leading_exponent() == 3
    assert el.dominant_exponent() == 7
    assert DeltaCoords(0, 3).leading_exponent() is None


# -- Hecke matrices --------------------------------------------------------------


def test_hecke_matrix_examples():
    m = hecke_matrix(3, 2)
    assert m.cols == (0, 0b01)  # delta -> 0, delta^3 -> delta
    assert hecke_matrix(5, 2).is_zero
    m53 = hecke_matrix(5, 3)
    assert m53.apply(0b100) == 0b001  # delta^5 -> delta
    assert m53.apply(0b011) == 0


def direct_columns_reference(p, n):
    """Reference: columns of T_p on the level-n space built for this level
    alone, the delta powers taken at precision p(2n-1) so each Hecke image
    is known up to 2n-1, then expanded back in the delta basis."""
    big = p * (2 * n - 1)
    pows = _odd_delta_power_bits(n, big)
    cols = []
    for k in range(n):
        hbits, hprec = _hecke_bits(p, pows[k], big)
        try:
            cols.append(_greedy_expand(hbits, pows, n, hprec))
        except NotInSpan as exc:
            raise RuntimeError(
                f"stability violated: T_{p} delta^{2 * k + 1} left level {n} ({exc})"
            ) from exc
    return cols


@given(st.sampled_from(sorted(MODULAR_EQUATIONS)), st.integers(1, 512))
@settings(max_examples=40, deadline=None)
def test_recurrence_columns_match_hecke_bits(p, n):
    """T_p from its modular-equation recurrence equals the columns read
    off q-expansions through _hecke_bits, for every prime with one."""
    assert hecke_matrix(p, n).cols == tuple(direct_columns_reference(p, n))


@given(st.sampled_from(odd_primes(97)),
       st.lists(st.integers(1, 64), min_size=1, max_size=6, unique=True))
@settings(max_examples=40, deadline=None)
def test_columns_match_the_per_level_reference_in_any_order(p, levels):
    """Whatever order the levels are asked for in, from an empty memo and
    an empty matrix cache, every matrix and every q-expansion column list
    equals the one built for its level alone."""
    hecke_matrix.cache_clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spaces, "_columns", {})
        for n in levels:
            want = tuple(direct_columns_reference(p, n))
            assert hecke_matrix(p, n).cols == want
            assert tuple(_direct_columns(p, n)) == want


def test_a_level_served_from_the_memo_is_certified_again(monkeypatch):
    """A bit on the diagonal planted in one stored level-16 column is
    caught at level 8, which serves that column as a prefix."""
    monkeypatch.setattr(spaces, "_columns", {})
    hecke_matrix.cache_clear()
    cols = list(hecke_matrix(11, 16).cols)
    cols[3] ^= 1 << 3
    spaces._columns[11] = tuple(cols)
    with pytest.raises(RuntimeError, match=r"triangularity violated: T_11 "
                       r"delta\^7 involves exponents >= 7"):
        hecke_matrix(11, 8)


def test_a_fault_in_the_memo_fails_the_triangularity_check(monkeypatch):
    """The same planted bit, in stored level-64 columns, makes the check
    that serves every level below 64 from them fail with its message."""
    hecke_matrix.cache_clear()
    cols = list(hecke_matrix(11, 64).cols)
    cols[3] ^= 1 << 3
    monkeypatch.setattr(spaces, "_columns", {11: tuple(cols)}, raising=False)
    hecke_matrix.cache_clear()
    result = checks.check_triangularity()
    assert not result.passed
    assert result.details.startswith("RuntimeError: triangularity violated: "
                                     "T_11 delta^7")


@pytest.mark.parametrize("p", [3, 11])
def test_smaller_levels_are_prefixes_of_the_largest(monkeypatch, p):
    """Once level 64 is built, every smaller level is served as its prefix:
    the same column objects, with neither builder run again."""
    hecke_matrix.cache_clear()
    big = hecke_matrix(p, 64).cols

    def refuse(p, n):
        raise AssertionError(f"built T_{p} at level {n}")
    monkeypatch.setattr(spaces, "_recurrence_columns", refuse)
    monkeypatch.setattr(spaces, "_direct_columns", refuse)
    for n in range(1, 64):
        cols = hecke_matrix(p, n).cols
        assert len(cols) == n
        assert all(c is big[k] for k, c in enumerate(cols))


def test_each_prime_reads_its_hecke_images_once(monkeypatch):
    """Descending levels read the q-expansions once, at the first (largest)
    level; ascending ones read no more than building each level alone
    (1 + 2 + ... + 8); a level already covered reads none."""
    calls = []

    def spy(*args):
        calls.append(args)
        return _hecke_bits(*args)
    monkeypatch.setattr(spaces, "_hecke_bits", spy)
    monkeypatch.setattr(spaces, "_columns", {})
    hecke_matrix.cache_clear()
    for n in range(64, 0, -1):
        hecke_matrix(11, n)
    assert len(calls) == 64
    spaces._columns.clear()
    hecke_matrix.cache_clear()
    calls.clear()
    for n in range(1, 9):
        hecke_matrix(11, n)
    assert len(calls) <= 36
    hecke_matrix.cache_clear()
    calls.clear()
    for n in range(8, 0, -1):
        hecke_matrix(11, n)
    assert calls == []


@pytest.mark.parametrize("bit", [2, 2 * 8 + 4])
def test_recurrence_columns_reject_any_even_bit(monkeypatch, bit):
    """An even power of delta in T(5) is a stability violation, also one
    above 2n - 2, where the packed columns cannot show it."""
    n = 8
    assert spaces._recurrence_columns(3, n) == list(hecke_matrix(3, n).cols)
    real = spaces._hecke_polynomials

    def planted(p):
        for k, t in enumerate(real(p)):
            yield t ^ 1 << bit if k == 5 else t
    monkeypatch.setattr(spaces, "_hecke_polynomials", planted)
    with pytest.raises(RuntimeError, match="stability violated"):
        spaces._recurrence_columns(3, n)


@pytest.mark.parametrize("p", sorted(MODULAR_EQUATIONS))
def test_modular_equation_vanishes(p):
    """Phi_p(delta(q), delta(q^p)) = 0 through q^3000."""
    precision = 3000
    x = delta(precision)
    y = F2Series.from_exponents([p * e for e in x.support()], precision)
    xs, ys = [F2Series(1, precision)], [F2Series(1, precision)]
    for _ in range(p + 1):
        xs.append(xs[-1] * x)
        ys.append(ys[-1] * y)
    total = F2Series(0, precision)
    for i, j in MODULAR_EQUATIONS[p]:
        total = total + xs[i] * ys[j]
    assert total.is_zero


def test_levels_over_the_cap_fail_before_building(monkeypatch):
    """hecke_matrix, and the algebra and commutant built on it, refuse a
    level over the cap before any column is computed, whether the prime
    has a modular equation or not; the cap is read when called."""
    def refuse(p, n):
        raise AssertionError(f"built T_{p} at level {n}")
    monkeypatch.setattr(spaces, "_recurrence_columns", refuse)
    monkeypatch.setattr(spaces, "_direct_columns", refuse)
    n = spaces.LEVEL_CAP + 1
    for request in (lambda: hecke_matrix(3, n), lambda: hecke_matrix(97, n),
                    lambda: algebra_dimension(n, (3, 5)),
                    lambda: commutant_dimension(n)):
        with pytest.raises(LevelExhausted, match=f"level {n} needed"):
            request()
    monkeypatch.setattr(spaces, "LEVEL_CAP", 40)
    with pytest.raises(LevelExhausted, match="over the level cap 40"):
        hecke_matrix(5, 41)


@pytest.mark.parametrize("request_, match", [
    # f at precision 10^6 is expanded at level 500000
    (lambda: MBasis().coefficients(F2Series(2, 10 ** 6)),
     "level 500000 needed"),
    (lambda: expand_in_delta_basis(F2Series(2, 2 * 10 ** 6), 10 ** 6),
     "level 1000000 needed"),
    # 4096 powers at precision 97 * 8191 hold 3.3e9 bits
    (lambda: hecke_matrix(97, 4096), "bits of delta powers needed"),
    (lambda: expand_in_delta_basis(F2Series(2, 2 ** 20), 8192),
     "bits of delta powers needed"),
    (lambda: DeltaCoords(1 << 8191, 8192).to_series(2 ** 20),
     "bits of delta powers needed"),
    (lambda: MBasis().tp_table(10 ** 9, 2), "bits of delta powers needed"),
], ids=["coefficients-level", "expand-level", "hecke-matrix-budget",
        "expand-budget", "to-series-budget", "tp-table-budget"])
def test_work_over_the_cap_or_budget_builds_no_delta_power(monkeypatch,
                                                             request_, match):
    """A level over the cap, or delta powers over POWER_BITS_CAP bits, is
    refused before any power is read, wherever the powers are asked for."""
    def refuse(count, precision):
        raise AssertionError(f"built {count} powers at precision {precision}")
    for module in (series, spaces, mbasis):
        monkeypatch.setattr(module, "_odd_delta_power_bits", refuse)
    with pytest.raises(LevelExhausted, match=match):
        request_()


def test_hecke_matrix_rejects_bad_prime():
    with pytest.raises(ValueError):
        hecke_matrix(2, 4)
    with pytest.raises(ValueError):
        hecke_matrix(9, 4)


def test_matrix_action_matches_series_action():
    for p in (3, 5, 7, 13):
        n = 12
        m = hecke_matrix(p, n)
        for coords in (0b1, 0b100000000001, 0b101010101010):
            f = DeltaCoords(coords, n).to_series(p * (2 * n - 1))
            via_series = expand_in_delta_basis(hecke(p, f), n).coords
            assert m.apply(coords) == via_series


def test_strict_triangularity():
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
              61, 67, 71, 73, 79, 83, 89, 97):
        m = hecke_matrix(p, 24)
        for k in range(24):
            assert m.cols[k] >> k == 0  # delta^(2k+1) -> lower powers only


@pytest.mark.parametrize("p", [7, 11, 97])
def test_levels_nest(p):
    """Nested levels for a modular-equation prime and q-expansion ones."""
    big = hecke_matrix(p, 32)
    for n in (1, 2, 5, 12, 31):
        assert hecke_matrix(p, n).cols == big.cols[:n]


# -- algebra dimension -------------------------------------------------------------


def test_algebra_dimension_examples():
    assert algebra_dimension(1, (3, 5)) == 1
    assert algebra_dimension(2, (3, 5)) == 2
    assert algebra_dimension(40, (3, 5)) == 40


def test_algebra_closure_explicit_level_2():
    # at level 2 the algebra is spanned by I and the T_3 nilpotent block
    span = AlgebraSpan(2, (3, 5))
    assert span.dimension == 2
    assert span.contains(GF2Matrix.identity(2))
    assert span.contains(hecke_matrix(3, 2))
    assert span.contains(hecke_matrix(5, 2))  # zero matrix
    assert not span.contains(GF2Matrix([0b01, 0b00], 2))


def test_extra_generators_add_nothing():
    for n in (5, 17, 33):
        span = AlgebraSpan(n, (3, 5))
        assert span.dimension == n
        for p in (7, 11, 13, 17, 19, 23, 29, 31):
            assert span.contains(hecke_matrix(p, n))


def test_other_generator_pairs():
    for n in (4, 9, 16):
        for p in (3, 11, 19):
            for q in (5, 13, 29, 37):
                assert algebra_dimension(n, (p, q)) == n


def _right_closure(gens, n):
    """Reference: the span of the words in `gens`, closed under right
    multiplication from the identity."""
    span = Span([GF2Matrix.identity(n).to_vector()])
    queue, words = [GF2Matrix.identity(n)], [GF2Matrix.identity(n)]
    while queue:
        m = queue.pop()
        for g in gens:
            prod = m.mul(g)
            if span.add(prod.to_vector()):
                queue.append(prod)
                words.append(prod)
    return words


def test_algebra_span_against_right_closure(monkeypatch):
    """Closing under left multiplication spans the same algebra as the
    right-multiplication closure, for random generators that need not
    commute as well as for Hecke pairs."""
    for p, q, n in ((3, 5, 20), (11, 13, 16), (7, 19, 9)):
        want = _right_closure([hecke_matrix(p, n), hecke_matrix(q, n)], n)
        span = AlgebraSpan(n, (p, q))
        assert span.dimension == len(want)
        assert all(span.contains(w) for w in want)
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 6)
        mats = {label: GF2Matrix([rng.getrandbits(n) for _ in range(n)], n)
                for label in range(rng.randint(1, 3))}
        monkeypatch.setattr(spaces, "hecke_matrix", lambda p, n: mats[p])
        want = _right_closure(list(mats.values()), n)
        span = AlgebraSpan(n, tuple(mats))
        assert span.dimension == len(want)
        assert all(span.contains(w) for w in want)


def algebra_span_reference(n, generators):
    """The closure on GF2Matrix words: the same queue order as
    `AlgebraSpan`, each product built column by column with `mul`."""
    gens = [hecke_matrix(p, n) for p in sorted(set(generators))]
    queue = [GF2Matrix.identity(n)]
    span = Span([queue[0].to_vector()])
    while queue:
        m = queue.pop()
        for g in gens:
            prod = g.mul(m)
            if span.add(prod.to_vector()):
                queue.append(prod)
    return span


def test_algebra_span_echelon_matches_matrix_closure():
    """The flat-word closure builds a bit-identical echelon: for (T_3, T_5)
    up to level 32 and every generation-by-pairs pair up to level 16."""
    ps = [p for p in odd_primes(37) if p % 8 == 3]
    qs = [p for p in odd_primes(37) if p % 8 == 5]
    cases = [((3, 5), n) for n in range(1, 33)]
    cases += [((p, q), n) for n in range(1, 17) for p in ps for q in qs]
    for gens, n in cases:
        want = algebra_span_reference(n, gens)._pivots
        assert AlgebraSpan(n, gens)._span._pivots == want, (gens, n)


def test_algebra_span_makes_no_matrix_products(monkeypatch):
    def refuse(self, other):
        raise AssertionError("AlgebraSpan multiplied GF2Matrix words")

    monkeypatch.setattr(GF2Matrix, "mul", refuse)
    for n in (1, 8, 24):
        assert AlgebraSpan(n, (3, 5)).dimension == n


def test_algebra_span_contains_rejects_other_sizes():
    span = AlgebraSpan(4, (3, 5))
    for m in (GF2Matrix.zero(2), GF2Matrix.identity(5)):
        with pytest.raises(ValueError, match="dimension mismatch"):
            span.contains(m)


def test_algebra_requires_generators():
    with pytest.raises(ValueError):
        algebra_dimension(4, ())


# -- every level off the top one -------------------------------------------------


def serve_prefixes(monkeypatch, gens):
    """Serve `hecke_matrix(label, m)` as the first m columns of gens[label],
    as `spaces.hecke_matrix` serves a smaller level of a Hecke matrix."""
    monkeypatch.setattr(spaces, "hecke_matrix",
                        lambda p, m: GF2Matrix(gens[p][:m], m))


@st.composite
def upper_triangular_sets(draw):
    """A level n <= 12 and 1 to 3 upper triangular generators on it, keyed
    by label: column j has bits at or below j, the diagonal included."""
    n = draw(st.integers(1, 12))
    count = draw(st.integers(1, 3))
    return n, {label: [draw(st.integers(0, (2 << j) - 1)) for j in range(n)]
               for label in range(count)}


@given(upper_triangular_sets())
@settings(max_examples=120, deadline=None)
def test_level_dimensions_match_per_level_closure(system):
    """The dimensions read off one closure at level n equal those of a
    closure at every level m <= n, for random upper triangular generators."""
    n, gens = system
    with pytest.MonkeyPatch.context() as monkeypatch:
        serve_prefixes(monkeypatch, gens)
        dims = AlgebraSpan(n, tuple(gens)).level_dimensions()
        assert dims == (0, *(AlgebraSpan(m, tuple(gens)).dimension
                             for m in range(1, n + 1)))


@pytest.mark.parametrize("gens", [(3, 11), (7,), (7, 23), (13, 29, 7)])
def test_level_dimensions_of_hecke_sets_that_do_not_generate(gens):
    dims = AlgebraSpan(32, gens).level_dimensions()
    assert dims[32] < 32
    assert dims == (0, *(algebra_dimension(m, gens) for m in range(1, 33)))


def test_level_dimensions_reject_a_generator_that_is_not_triangular(monkeypatch):
    """A bit below the diagonal leaves a level that is not invariant, so
    restriction is no algebra map: refused rather than counted."""
    cols = list(hecke_matrix(3, 8).cols)
    cols[5] |= 1 << 6
    serve_prefixes(monkeypatch, {3: cols, 5: hecke_matrix(5, 8).cols})
    span = AlgebraSpan(8, (3, 5))
    with pytest.raises(ValueError, match="T_3 column 5 has a bit above 5"):
        span.level_dimensions()


def test_algebra_checks_build_one_closure_per_generator_set(monkeypatch):
    built = []

    class Spy(AlgebraSpan):
        def __init__(self, n, generators):
            built.append((n, tuple(generators)))
            super().__init__(n, generators)

    monkeypatch.setattr(checks, "AlgebraSpan", Spy)
    assert checks.check_algebra_dimension().passed
    assert built == [(64, (3, 5))]
    built.clear()
    assert checks.check_generation_pairs().passed
    assert built == [(32, (p, q)) for p in (3, 11, 19) for q in (5, 13, 29, 37)]


def test_a_t7_outside_the_algebra_fails_at_level_64(monkeypatch):
    """T_7 plus the matrix unit sending delta^3 to delta does not commute
    with T_3, so it lies outside the commutative algebra."""
    def planted(p, n):
        m = hecke_matrix(p, n)
        if p != 7:
            return m
        return GF2Matrix([c ^ (k == 1) for k, c in enumerate(m.cols)], n)

    monkeypatch.setattr(checks, "hecke_matrix", planted)
    t3, t7 = hecke_matrix(3, 64), planted(7, 64)
    assert t3.mul(t7) != t7.mul(t3)
    result = checks.check_algebra_dimension()
    assert not result.passed
    assert result.details == "T_7 outside the T_3,T_5 algebra at level 64"


def test_a_corrupted_generator_lists_its_failing_levels_ascending(monkeypatch):
    """With T_5 (resp. T_13) served as zero, each check lists the levels
    where the algebra falls short, in ascending order, with the dimensions
    of the per-level closure."""
    zero = {5}
    monkeypatch.setattr(spaces, "hecke_matrix", lambda p, n: (
        GF2Matrix.zero(n) if p in zero else hecke_matrix(p, n)))
    want = [(n, d) for n in range(1, 65)
            if (d := algebra_dimension(n, (3, 5))) != n]
    assert want
    result = checks.check_algebra_dimension()
    assert not result.passed
    assert result.details == "; ".join(f"dim at level {n} = {d}"
                                       for n, d in want)
    zero = {13}
    want = [f"(T_{p},T_13) at level {n}" for n in range(1, 33)
            for p in (3, 11, 19) if algebra_dimension(n, (p, 13)) != n]
    assert want
    result = checks.check_generation_pairs()
    assert result.details == "; ".join(want)


# -- commutant ----------------------------------------------------------------------


def test_commutant_examples():
    assert commutant_dimension(1) == 1
    assert commutant_dimension(2) == 2


def test_commutant_level_2_brute_force():
    t3, t5 = hecke_matrix(3, 2), hecke_matrix(5, 2)
    count = 0
    for bits in range(16):
        x = GF2Matrix([bits & 3, bits >> 2], 2)
        if x.mul(t3) == t3.mul(x) and x.mul(t5) == t5.mul(x):
            count += 1
    assert count == 1 << commutant_dimension(2)


def _commutant_reference(n):
    """Reference: n^2 minus the rank of the system X A = A X over A = T_3,
    T_5, one equation per entry (i, j) on the unknowns X[k][l] = bit
    k*n + l, read entry by entry."""
    eqs = []
    for p in (3, 5):
        a = hecke_matrix(p, n)
        for i in range(n):
            for j in range(n):
                eq = 0
                for k in range(n):
                    eq ^= a.entry(k, j) << (i * n + k)  # (X A)_ij
                    eq ^= a.entry(i, k) << (k * n + j)  # (A X)_ij
                eqs.append(eq)
    return n * n - rank(eqs)


def test_commutant_against_entrywise_system():
    for n in range(1, 13):
        assert commutant_dimension(n) == _commutant_reference(n)


def test_commutant_matches_algebra_dimension():
    for n in range(1, 13):
        assert commutant_dimension(n) == algebra_dimension(n, (3, 5)) == n


# -- nilpotency ----------------------------------------------------------------------


def test_nilpotency_examples():
    assert nilpotency_index(GF2Matrix.zero(3)) == 1
    assert nilpotency_index(hecke_matrix(3, 2)) == 2
    for n in (4, 16, 64):
        assert nilpotency_index(hecke_matrix(3, n)) <= n


def test_nilpotency_rejects_identity():
    with pytest.raises(ValueError):
        nilpotency_index(GF2Matrix.identity(4))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_level_nilpotency_indices_match_nilpotency_index(p):
    """The indices at every level n <= 64, read off the level-64 columns,
    equal `nilpotency_index` of each level's matrix."""
    index = level_nilpotency_indices(hecke_matrix(p, 64).cols)
    assert index == (1, *(nilpotency_index(hecke_matrix(p, n))
                          for n in range(1, 65)))


def test_level_nilpotency_indices_of_small_matrices():
    assert level_nilpotency_indices(()) == (1,)
    assert level_nilpotency_indices((0, 0, 0)) == (1, 1, 1, 1)
    # delta^5 -> delta^3 -> delta -> 0
    assert level_nilpotency_indices((0, 0b1, 0b10)) == (1, 1, 2, 3)
    with pytest.raises(RuntimeError, match="failed to terminate"):
        level_nilpotency_indices((0b1,))


# -- divisibility -----------------------------------------------------------------------


def test_divisibility_unit():
    assert check_divisibility({(0, 0)}, 3, 3)


def test_divisibility_by_x_from_level_1():
    assert check_divisibility({(1, 0)}, 1, 2)


def test_divisibility_minimal_levels_from_level_3():
    # minimal levels computed by raising big_n until the rank test passes
    minima = {}
    for label, u in (("x", {(1, 0)}), ("y", {(0, 1)}),
                     ("x+y", {(1, 0), (0, 1)}),
                     ("x+y+xy", {(1, 0), (0, 1), (1, 1)})):
        minima[label] = next(m for m in range(3, 65)
                             if check_divisibility(u, 3, m))
    assert minima == {"x": 5, "y": 9, "x+y": 5, "x+y+xy": 5}


def test_divisibility_rejects_zero_polynomial():
    with pytest.raises(ValueError, match="zero polynomial"):
        check_divisibility(set(), 2, 4)
    with pytest.raises(ValueError, match="big_n must be >= n"):
        check_divisibility({(0, 0)}, 4, 2)


def operator_polynomial_reference(support, n: int) -> GF2Matrix:
    """The matrix of u(T_3, T_5) on the level-n space from whole matrix
    powers and products: the reference for `polynomial_image`."""
    support = set(support)
    if not support:
        raise ValueError("zero polynomial")
    max_i = max(i for i, _ in support)
    max_j = max(j for _, j in support)
    t3 = hecke_matrix(3, n)
    t5 = hecke_matrix(5, n)
    # Hecke factors on the left: a product costs its right operand's bits
    pow3 = [GF2Matrix.identity(n)]
    for _ in range(max_i):
        pow3.append(t3.mul(pow3[-1]))
    pow5 = [GF2Matrix.identity(n)]
    for _ in range(max_j):
        pow5.append(t5.mul(pow5[-1]))
    acc = GF2Matrix.zero(n)
    for i, j in support:
        acc = acc.add(pow5[j].mul(pow3[i]))
    return acc


@given(st.integers(1, 64),
       st.sets(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1))
@settings(max_examples=60, deadline=None)
def test_polynomial_image_against_matrix_powers(n, support):
    t3, t5 = hecke_matrix(3, n).cols, hecke_matrix(5, n).cols
    want = operator_polynomial_reference(support, n).cols
    assert tuple(polynomial_image(t3, t5, support, 1 << k)
                 for k in range(n)) == want


@given(st.integers(1, 64), st.data())
@settings(max_examples=40, deadline=None)
def test_monomial_images_are_the_nonzero_monomials(n, data):
    """Every nonzero T_3^a T_5^b v appears once, and nothing else does."""
    v = data.draw(st.integers(0, (1 << n) - 1))
    t3, t5 = hecke_matrix(3, n).cols, hecke_matrix(5, n).cols
    images = dict(monomial_images(t3, t5, v))
    for a in range(n + 1):
        for b in range(n + 1):
            want = polynomial_image(t3, t5, {(a, b)}, v)
            assert images.get((a, b), 0) == want
    assert 0 not in images.values()
    assert polynomial_image(t3, t5, (), v) == 0


# -- kernels ---------------------------------------------------------------------------


def test_kernel_of_t5_at_level_2_is_everything():
    assert len(kernel(hecke_matrix(5, 2))) == 2


def test_delta5_not_in_kernel_of_t5():
    m = hecke_matrix(5, 3)
    assert m.apply(0b100) != 0


def test_prefix_ranks_match_per_level_ranks():
    """The kernel-equality ranks read off one span of the level-32 columns
    (the stacked ones as c | r << 32) equal the per-level ranks, for every
    p < 100 in both classes and every n <= 32."""
    for base in (3, 5):
        ref = hecke_matrix(base, 32).cols
        ref_ranks = prefix_ranks(ref)
        for p in odd_primes(100):
            if p % 8 != base:
                continue
            cols = hecke_matrix(p, 32).cols
            ranks = prefix_ranks(cols)
            stacked = prefix_ranks(c | r << 32 for c, r in zip(cols, ref))
            for n in range(1, 33):
                small = hecke_matrix(p, n).cols
                small_ref = hecke_matrix(base, n).cols
                assert ranks[n] == rank(small)
                assert ref_ranks[n] == rank(small_ref)
                assert stacked[n] == rank(c | r << n
                                          for c, r in zip(small, small_ref))


def test_kernel_equality_within_residue_class():
    for n in (6, 16):
        for base, primes in ((3, (11, 19, 43)), (5, (13, 29, 37))):
            ref = hecke_matrix(base, n)
            for p in primes:
                m = hecke_matrix(p, n)
                # the kernels agree: same dimension, one inside the other
                assert len(kernel(m)) == len(kernel(ref))
                assert all(m.apply(v) == 0 for v in kernel(ref))
