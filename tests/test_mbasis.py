"""The m(a,b) table, dual expansions, codes, and T_p expansions."""

import random
import signal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heckemod2 import checks, mbasis, series, spaces
from heckemod2.gf2 import GF2Matrix, LinearSolver, even_bits, lowest_bit, rank
from heckemod2.mbasis import (LevelExhausted, MBasis, chain_coefficients,
                              code_exponent, code_level, code_of, degree_level,
                              frobenian_report, odd_b_representations,
                              pairing_table, parity_pattern_holds,
                              stacked_kernel_is_trivial)
from heckemod2.primes import is_odd_prime, odd_primes
from heckemod2.series import F2Series, _odd_delta_power_bits, delta_pow, hecke
from heckemod2.spaces import DeltaCoords, hecke_matrix

# tabulated entries for a+b <= 3
M_TABLE = {
    (0, 0): (1,), (1, 0): (3,), (0, 1): (5,),
    (2, 0): (9,), (1, 1): (7,), (0, 2): (17,),
    (3, 0): (11,), (2, 1): (13,), (1, 2): (11, 19), (0, 3): (13, 21),
}


def test_m_table_small(mtable):
    for (a, b), want in M_TABLE.items():
        assert mtable.element(a, b).support_exponents() == want, (a, b)


def test_m_power_families(mtable):
    for r in range(4):
        assert mtable.element(2 ** r, 0).support_exponents() == (1 + 2 ** (2 * r + 1),)
        assert mtable.element(2 ** r - 1, 0).support_exponents() == \
            ((1 + 2 ** (2 * r + 1)) // 3,)
        assert mtable.element(0, 2 ** r).support_exponents() == (1 + 2 ** (2 * r + 2),)


def test_shift_action_on_q_expansions(mtable):
    """T_3 and T_5 shift the indices; verified on series, not by construction."""
    prec = 204
    for d in range(5):
        for a in range(d + 1):
            b = d - a
            s3 = hecke(3, mtable.series(a, b, 3 * prec))
            want3 = mtable.series(a - 1, b, prec) if a else F2Series(0, prec)
            assert s3 == want3, (a, b, "T3")
            s5 = hecke(5, mtable.series(a, b, 5 * prec))
            want5 = mtable.series(a, b - 1, prec) if b else F2Series(0, prec)
            assert s5 == want5, (a, b, "T5")


def test_first_coefficient_is_kronecker_delta(mtable):
    mtable.ensure_degree(4)
    for d in range(5):
        for a in range(d + 1):
            coords = mtable.element(a, d - a).coords
            assert (coords & 1) == (1 if (a, d - a) == (0, 0) else 0)


def _rows(m):
    """The rows of a column-stored matrix, for the row-based solver."""
    return [sum((c >> i & 1) << j for j, c in enumerate(m.cols))
            for i in range(m.n)]


def test_uniqueness_stacked_kernel_trivial():
    for n in (4, 8, 16, 64):
        t3, t5 = hecke_matrix(3, n), hecke_matrix(5, n)
        solver = LinearSolver(_rows(t3) + _rows(t5) + [1], n)
        assert solver.kernel_dimension == 0
        # the certificate the table checks: the stacked columns have rank n
        assert stacked_kernel_is_trivial(t3.cols, t5.cols)
        stacked = [c3 | c5 << n for c3, c5 in zip(t3.cols, t5.cols)]
        stacked[0] |= 1 << (2 * n)
        assert rank(stacked) == n


def test_uniqueness_certified_at_the_level_cap():
    """The pairing certificate, (i) to (iii) on every row, runs at the level
    cap, and the solve of the top entry ends on its code exponent."""
    table = MBasis()
    table.ensure_level(spaces.LEVEL_CAP)
    assert table.level == spaces.LEVEL_CAP
    top = 2 * spaces.LEVEL_CAP - 1
    assert table.dominant_exponent(*code_of(top)) == top


def test_uniqueness_certificate_against_solver():
    """The column-rank certificate says trivial exactly when the row
    solver finds a trivial kernel, also on random column pairs."""
    rng = random.Random(6)
    for _ in range(300):
        n = rng.randint(1, 8)
        t3, t5 = ([rng.getrandbits(n) & rng.getrandbits(n) for _ in range(n)]
                  for _ in range(2))
        rows = _rows(GF2Matrix(t3, n)) + _rows(GF2Matrix(t5, n)) + [1]
        assert (stacked_kernel_is_trivial(tuple(t3), tuple(t5))
                == (LinearSolver(rows, n).kernel_dimension == 0))


def test_structure_suite_certifies_uniqueness_at_fixed_levels(monkeypatch):
    """The m-basis-structure check certifies levels 8, 16 and 256 on its
    own, whichever checks ran before it."""
    levels = []

    def recording(t3, t5):
        levels.append(len(t3))
        return stacked_kernel_is_trivial(t3, t5)
    monkeypatch.setattr(checks, "stacked_kernel_is_trivial", recording)
    assert checks.check_structure_suite().passed
    assert levels == [8, 16, 256]


def first_failing_witness_by_scan(functionals):
    """The least nonzero level-16 coords whose parity against the
    functional of its lowest bit is even, by trying all 65535."""
    for coords in range(1, 1 << 16):
        if (functionals[lowest_bit(coords)] & coords).bit_count() & 1 != 1:
            return coords
    return None


WITNESS_FUNCTIONALS = checks._witness_functionals(16)


def test_witness_functionals_pass_the_scan():
    assert first_failing_witness_by_scan(WITNESS_FUNCTIONALS) is None
    assert checks._first_failing_witness(WITNESS_FUNCTIONALS, 16) is None


@given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)),
                max_size=3))
@example([(0, 0)])
@example([(3, 9)])
@example([(5, 2)])
@settings(max_examples=60, deadline=None)
def test_witness_by_lowest_bit_matches_the_scan(flips):
    """Corrupted functionals (bit j of row `low` flipped) get the same
    verdict and the same first failing coords from the 16-row reading as
    from the scan over every coords."""
    functionals = dict(WITNESS_FUNCTIONALS)
    for low, j in flips:
        functionals[low] ^= 1 << j
    assert (checks._first_failing_witness(functionals, 16)
            == first_failing_witness_by_scan(functionals))


def test_m_table_check_builds_one_level(monkeypatch):
    """check_m_table asks for the level of m(0,8), its deepest entry,
    once up front, instead of growing one power family at a time."""
    levels = []
    grow = MBasis._grow

    def recording(self, level):
        grow(self, level)
        levels.append(self.level)
    monkeypatch.setattr(MBasis, "_grow", recording)
    assert checks.check_m_table().passed
    assert levels == [129]


# -- triangular solve and its certificate ------------------------------------------


@given(st.integers(1, 700))
@example(700)
@settings(max_examples=15, deadline=None)
def test_back_substitution_matches_stacked_solver(n):
    """Every entry the level holds equals the stacked LinearSolver's
    solution, with the solver fed its own earlier solutions."""
    rows = _rows(hecke_matrix(3, n)) + _rows(hecke_matrix(5, n)) + [1]
    solver = LinearSolver(rows, n)
    table = MBasis()
    table.ensure_level(n)
    oracle = {}
    for i in range(n):  # parents have smaller codes, so come first
        a, b = code_of(2 * i + 1)
        rhs = oracle.get((a - 1, b), 0) | oracle.get((a, b - 1), 0) << n
        if (a, b) == (0, 0):
            rhs |= 1 << (2 * n)
        oracle[(a, b)] = solver.solve(rhs)
        assert table.element(a, b).coords == oracle[(a, b)], (n, a, b)
    assert table.level == n


def _corrupt_columns(monkeypatch, corrupt):
    """Hand the table T_3, T_5 columns passed through corrupt(p, n, cols)."""
    real = mbasis.hecke_matrix

    def matrix(p, n):
        return GF2Matrix(corrupt(p, n, list(real(p, n).cols)), n)
    monkeypatch.setattr(mbasis, "hecke_matrix", matrix)


def test_zero_column_pair_violates_uniqueness(monkeypatch):
    def zero_column_5(p, n, cols):
        cols[5] = 0
        return cols
    _corrupt_columns(monkeypatch, zero_column_5)
    with pytest.raises(RuntimeError, match="uniqueness violated"):
        MBasis().ensure_level(16)


def test_column_reaching_the_top_violates_uniqueness(monkeypatch):
    """T_3 delta^3 = delta; a column that also reaches the top index is not
    strictly triangular, and the certificate raises before any row reads
    past the level."""
    def reach_the_top(p, n, cols):
        if p == 3:
            cols[1] |= 1 << (n - 1)
        return cols
    _corrupt_columns(monkeypatch, reach_the_top)
    with pytest.raises(RuntimeError,
                       match="uniqueness violated at level 64: column 1"):
        MBasis().ensure_level(64)


def test_t3_killing_delta_cubed_violates_uniqueness(monkeypatch):
    """With T_3 delta^3 = 0 the row of delta^3 pairs with nothing, so the
    table is not unit triangular.  A 5 s alarm makes a loop that never
    ends fail this test rather than hang the suite."""
    def kill_delta_cubed(p, n, cols):
        if p == 3:
            cols[1] = 0
        return cols
    _corrupt_columns(monkeypatch, kill_delta_cubed)

    def still_looping(signum, frame):
        raise TimeoutError("certificate still running after 5 s")

    previous = signal.signal(signal.SIGALRM, still_looping)
    timer = signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        with pytest.raises(RuntimeError,
                           match="level 16: row 1 is not unit triangular"):
            MBasis().ensure_level(16)
    finally:
        signal.setitimer(signal.ITIMER_REAL, *timer)
        signal.signal(signal.SIGALRM, previous)


def test_t5_corruption_only_the_pairing_certificate_sees(monkeypatch):
    """T_5 delta^5 = delta + delta^3 keeps the stacked rank full, but it
    breaks T_3 T_5 = T_5 T_3, which certificate (ii) reads off row 2."""
    def corrupt_t5(p, n, cols):
        if p == 5:
            cols[2] ^= 1 << 1
        return cols
    _corrupt_columns(monkeypatch, corrupt_t5)
    t3, t5 = (mbasis.hecke_matrix(p, 16).cols for p in (3, 5))
    assert stacked_kernel_is_trivial(t3, t5)
    with pytest.raises(RuntimeError, match="row 2 breaks T_3 T_5"):
        MBasis().ensure_level(16)


def test_pairing_certificate_rejects_single_bit_mutations():
    """Flip one bit below the diagonal of T_3 or T_5 at level 64: the
    pairing certificate rejects at least 95% of 400 such tables."""
    n = 64
    t3, t5 = hecke_matrix(3, n).cols, hecke_matrix(5, n).cols
    assert pairing_table(t3, t5)
    rng = random.Random(64)
    rejected = 0
    for _ in range(400):
        cols = [list(t3), list(t5)]
        k = rng.randrange(1, n)
        rng.choice(cols)[k] ^= 1 << rng.randrange(k)
        try:
            pairing_table(*cols)
        except RuntimeError:
            rejected += 1
    assert rejected >= 380


def test_checks_read_the_table_through_a_second_route(monkeypatch):
    """The identity is unit triangular, so it passes (iii); the checks that
    read the table must still fail on it, through the T_3/T_5 chains."""
    monkeypatch.setattr(mbasis, "pairing_table",
                        lambda t3, t5: [1 << k for k in range(len(t3))])
    dominant = checks.check_dominant_exponents()
    assert not dominant.passed and "nilpotence of m(1,2)" in dominant.details
    structure = checks.check_structure_suite()
    assert not structure.passed
    assert "duality roundtrip fails" in structure.details


# -- dual expansion ----------------------------------------------------------------


def test_coefficients_examples(mtable):
    assert mtable.coefficients(mtable.delta_power_coords(1)) == {(0, 0)}
    assert mtable.coefficients(mtable.delta_power_coords(11)) == {(3, 0)}
    assert mtable.coefficients(mtable.delta_power_coords(19)) == {(3, 0), (1, 2)}


def test_coefficients_against_iterated_hecke_oracle(mtable):
    """c_{a,b}(f) is the q^1 coefficient of T_3^a T_5^b f, recomputed here
    on raw q-expansions."""
    for k in (7, 19, 21):
        support = mtable.coefficients(mtable.delta_power_coords(k))
        for a in range(4):
            for b in range(4):
                f = delta_pow(k, 3 ** a * 5 ** b)
                for _ in range(a):
                    f = hecke(3, f)
                for _ in range(b):
                    f = hecke(5, f)
                assert f.coeff(1) == (1 if (a, b) in support else 0), (k, a, b)


def test_coefficients_accepts_series(mtable):
    f = delta_pow(11, 41) + delta_pow(19, 41)
    assert mtable.coefficients(f) == {(1, 2)}


@given(st.integers(1, 1024), st.data())
@example(1024, None)
@settings(max_examples=15, deadline=None)
def test_coefficients_match_the_hecke_chains(n, data):
    """The m-expansion read off the pairing table equals the one read off
    the chains of T_3 and T_5, on random elements of random levels."""
    table = MBasis()
    table.ensure_level(n)
    coords = ((1 << n) - 1 if data is None
              else data.draw(st.integers(0, (1 << n) - 1)))
    t3, t5 = hecke_matrix(3, n).cols, hecke_matrix(5, n).cols
    assert (table.coefficients(DeltaCoords(coords, n))
            == chain_coefficients(t3, t5, coords))


def test_duality_roundtrip(mtable):
    rng = random.Random(20240601)
    for _ in range(25):
        coords = rng.randrange(1, 1 << 16)
        f = DeltaCoords(coords, 16)
        assert mtable.recompose(mtable.coefficients(f)).coords == coords


@given(st.integers(1, 512), st.data())
@example(512, None)
@settings(max_examples=15, deadline=None)
def test_recompose_is_the_sum_of_single_solves(n, data):
    """One solve of a sum of m(a,b) equals the XOR of the single-index
    solves, and the pairing table reads it back as its index set, on
    random sets of codes below random levels."""
    table = MBasis()
    table.ensure_level(n)
    indices = (range(n) if data is None else
               data.draw(st.sets(st.integers(0, n - 1), max_size=64)))
    support = {code_of(2 * j + 1) for j in indices}
    acc = 0
    for a, b in support:
        acc ^= table.element(a, b).coords
    assert table.recompose(support) == DeltaCoords(acc, n)
    assert table.coefficients(DeltaCoords(acc, n)) == support
    assert table.recompose(set()) == DeltaCoords(0, n)
    assert MBasis().recompose(set()) == DeltaCoords(0, 1)


def test_nilpotence_order(mtable):
    assert mtable.nilpotence_order(mtable.delta_power_coords(1)) == 1
    assert mtable.nilpotence_order(mtable.delta_power_coords(19)) == 4
    for d in range(6):
        for a in range(d + 1):
            assert mtable.nilpotence_order(mtable.element(a, d - a)) == d + 1
    with pytest.raises(ValueError):
        mtable.nilpotence_order(DeltaCoords(0, 4))


# -- codes --------------------------------------------------------------------------


def test_code_examples(mtable):
    assert mtable.code_of(1) == (0, 0)
    assert mtable.code_of(11) == (3, 0)
    assert mtable.code_of(19) == (1, 2)  # tie against (3,0) broken by the table


def test_code_inverts_dominant_exponent(mtable):
    for d in range(6):
        for a in range(d + 1):
            b = d - a
            assert mtable.code_of(mtable.dominant_exponent(a, b)) == (a, b)


def test_codes_distinct_below_64(mtable):
    codes = [mtable.code_of(k) for k in range(1, 64, 2)]
    assert len(set(codes)) == len(codes)


def test_code_rejects_even(mtable):
    with pytest.raises(ValueError):
        mtable.code_of(10)


def code_of_reference(table, k):
    """The code of k from the m-expansion of delta^k: take the indices of
    maximal total degree; a singleton stratum is the answer, and ties are
    resolved by the dominant exponents of the solved table (delta^19
    carries both (3,0) and (1,2) at degree 3, and only m(1,2) tops out at
    19)."""
    support = table.coefficients(table.delta_power_coords(k))
    top = max(a + b for a, b in support)
    stratum = sorted((a, b) for a, b in support if a + b == top)
    if len(stratum) == 1:
        return stratum[0]
    matches = [ab for ab in stratum if table.dominant_exponent(*ab) == k]
    assert len(matches) == 1, (k, stratum)
    return matches[0]


def test_closed_form_code_matches_m_expansion():
    table = MBasis()
    for k in range(1, 2048, 2):
        assert code_of(k) == code_of_reference(table, k), k


@given(st.integers(0, 1 << 200), st.integers(0, 1 << 200))
@settings(max_examples=200, deadline=None)
def test_code_exponent_inverts_code(a, b):
    k = code_exponent(a, b)
    assert k % 2 == 1 and code_of(k) == (a, b)


def code_of_by_even_bits(k):
    """The code of odd k through two `even_bits` calls on (k-1)/2."""
    j = (k - 1) // 2
    return even_bits(j), even_bits(j >> 1)


def test_code_of_reads_one_format_below_2_15():
    for k in range(1, 1 << 15, 2):
        assert code_of(k) == code_of_by_even_bits(k), k


@given(st.integers(0, 1 << 199))
@example(0)
@example(1)
@settings(max_examples=200, deadline=None)
def test_code_of_reads_one_format(j):
    k = 2 * j + 1
    assert code_of(k) == code_of_by_even_bits(k)


def test_code_needs_no_level():
    table = MBasis()
    assert table.code_of(1000001) == (784, 452)
    assert table.level == 0


def test_degree_level_is_the_largest_dominant_exponent(mtable):
    for degree in range(13):
        top = max(mtable.dominant_exponent(a, d - a)
                  for d in range(degree + 1) for a in range(d + 1))
        assert degree_level(degree) == (top + 1) // 2, degree


@given(st.integers(0, (1 << 64) - 1), st.integers(0, (1 << 64) - 1))
@settings(max_examples=200, deadline=None)
def test_no_entry_of_a_degree_outgrows_m_0_degree(a, b):
    assert code_level(a, b) <= code_level(0, a + b)


def degree_level_reference(degree):
    """The largest code level on a + b = degree, by a loop over a."""
    return max(code_level(a, degree - a) for a in range(degree + 1))


def test_degree_level_matches_the_loop_over_a():
    for degree in range(200):
        assert degree_level(degree) == degree_level_reference(degree), degree


def test_degree_levels_of_deep_tables():
    assert [degree_level(d) for d in (24, 32, 63, 64)] == [641, 2049, 2731, 8193]


def test_table_is_built_once_at_the_closed_form_level():
    table = MBasis()
    table.ensure_degree(24)
    assert table.level == 641
    table.ensure_degree(20)
    assert table.level == 641


# -- T_p expansions ---------------------------------------------------------------------


def test_t3_t5_are_the_coordinates(mtable):
    assert mtable.tp_expansion(3, 6) == {(1, 0)}
    assert mtable.tp_expansion(5, 6) == {(0, 1)}


def test_t7_t17_published_prefixes(mtable):
    t7 = mtable.tp_expansion(7, 14)
    assert t7 == {(1, 1), (3, 1), (5, 1), (3, 3), (1, 7), (7, 3), (1, 9),
                  (11, 1), (9, 3), (7, 5), (13, 1), (5, 9), (3, 11)}
    t17 = mtable.tp_expansion(17, 12)
    assert t17 == {(2, 0), (0, 2), (2, 2), (6, 0), (4, 2), (0, 6), (6, 2),
                   (4, 4), (2, 6), (10, 0), (10, 2), (6, 6), (4, 8), (2, 10)}


def test_tp_coefficient_equals_qp_of_m(mtable):
    """a_ij(p) is the q^p coefficient of m(i,j), recomputed from series."""
    for p in (7, 13, 23):
        exp = mtable.tp_expansion(p, 4)
        for i in range(3):
            for j in range(3):
                got = mtable.series(i, j, p + 1).coeff(p)
                assert got == (1 if (i, j) in exp else 0)


def test_parity_patterns(mtable):
    table = mtable.tp_table(199, 8)
    for p in (3, 7, 41, 43, 53, 151, 197, 199):
        assert parity_pattern_holds(p, table[p]), p


def _rep_oracle(p, c):
    out = False
    for b in range(1, p):
        if c * b * b > p:
            break
        if b % 2 == 1:
            a = 0
            while a * a <= p - c * b * b:
                if a * a == p - c * b * b:
                    out = True
                a += 1
    return out


def test_representation_sieve_matches_the_search():
    for c in (8, 16):
        flags = odd_b_representations(4999, c)
        assert len(flags) == 5000
        for n in range(5000):
            assert flags[n] == _rep_oracle(n, c), (n, c)


def test_frobenian_criteria(mtable):
    table = mtable.tp_table(97, 2)
    rep8 = odd_b_representations(97, 8)
    rep16 = odd_b_representations(97, 16)

    def report(p):
        return frobenian_report(p, table[p], rep8, rep16)

    assert report(3).all_ok       # a10 via 3 = 3 mod 8
    assert report(7).all_ok       # a11 via 7 = 7 mod 16
    assert report(17).all_ok      # a20 via 17 = 3^2 + 8
    report17 = report(17)
    assert (2, 0) in mtable.tp_expansion(17, 2)
    assert _rep_oracle(17, 8) and report17.a20
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 41, 73, 89, 97):
        assert report(p).all_ok, p


def tp_expansion_reference(table, p, degree):
    """T_p through the given degree by one probe per prime: bit i of the
    probe is the q^p coefficient of delta^(2i+1), so the parity of
    coords & probe is the q^p coefficient of m(i,j)."""
    assert is_odd_prime(p)
    table.ensure_degree(degree)
    table.ensure_precision(p)
    probe = 0
    for i, bits in enumerate(_odd_delta_power_bits(table.level,
                                                   table.precision)):
        probe |= ((bits >> p) & 1) << i
    return frozenset(
        (i, d - i)
        for d in range(degree + 1) for i in range(d + 1)
        if (table.element(i, d - i).coords & probe).bit_count() & 1
    )


@given(st.integers(3, 3000), st.integers(0, 12), st.data())
@example(3, 0, None)
@example(17, 12, None)
@settings(max_examples=12, deadline=None)
def test_tp_table_matches_the_per_prime_probe(p_max, degree, data):
    table = MBasis()
    got = table.tp_table(p_max, degree)
    assert list(got) == odd_primes(p_max)
    for p, monomials in got.items():
        assert monomials == tp_expansion_reference(table, p, degree), p
    p = max(got) if data is None else data.draw(st.sampled_from(list(got)))
    assert MBasis().tp_expansion(p, degree) == MBasis().tp_table(p, degree)[p]


def test_tp_expansion_checks_the_budget_before_primality():
    """A huge p is refused by the budget, not by trial division; an even p,
    p < 3 or an odd composite is still no odd prime."""
    def still_dividing(signum, frame):
        raise TimeoutError("tp_expansion still running after 5 s")

    previous = signal.signal(signal.SIGALRM, still_dividing)
    timer = signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        with pytest.raises(LevelExhausted, match="bits of delta powers"):
            MBasis().tp_expansion((2 ** 31 - 1) ** 2, 2)
    finally:
        signal.setitimer(signal.ITIMER_REAL, *timer)
        signal.signal(signal.SIGALRM, previous)
    for p in (9, 2, 1, -3, 2 ** 80):
        with pytest.raises(ValueError, match=f"expected an odd prime, got {p}"):
            MBasis().tp_expansion(p, 2)


@pytest.fixture
def own_delta_powers(monkeypatch):
    """Give the test its own delta-power table, so powers taken at a large
    precision do not stay in the shared one for later tests."""
    monkeypatch.setattr(series, "_powers", [])
    monkeypatch.setattr(series, "_powers_precision", -1)


def test_tp_table_works_at_exactly_p_max(own_delta_powers):
    table = MBasis()
    table.tp_table(17, 12)
    assert table.precision == 17
    assert series._powers_precision == 17


def test_precision_rises_to_exactly_the_request():
    table = MBasis()
    assert table.precision == 0
    table.ensure_precision(30)
    table.ensure_precision(45)
    assert table.precision == 45
    table.ensure_precision(10)
    assert table.precision == 45


def test_frobenian_criteria_below_a_million(own_delta_powers):
    """Nicolas-Serre's five criteria and the parity pattern at degree 2,
    for every odd prime below 10^6."""
    bound = 10 ** 6
    table = MBasis().tp_table(bound, 2)
    assert len(table) == 78497
    rep8 = odd_b_representations(bound, 8)
    rep16 = odd_b_representations(bound, 16)
    bad = [p for p, monomials in table.items()
           if not (parity_pattern_holds(p, monomials)
                   and frobenian_report(p, monomials, rep8, rep16).all_ok)]
    assert bad == []


def test_tp_table_after_many_powers_at_a_low_precision(own_delta_powers):
    """The precision raise of a wide T_p table rebuilds only the delta
    powers it needs: after 1000 powers at precision 4000, the table at
    10^5 holds its 9 powers, not 1000, and every prime's T_p is right."""
    _odd_delta_power_bits(1000, 4000)
    bound = 10 ** 5
    table = MBasis().tp_table(bound, 2)
    assert len(series._powers) == degree_level(2) == 9
    assert series._powers_precision == bound
    assert len(table) == 9591
    rep8 = odd_b_representations(bound, 8)
    rep16 = odd_b_representations(bound, 16)
    assert [p for p, monomials in table.items()
            if not (parity_pattern_holds(p, monomials)
                    and frobenian_report(p, monomials, rep8, rep16).all_ok)] == []


def test_parity_pattern_through_degree_8_below_200000(own_delta_powers):
    table = MBasis().tp_table(2 * 10 ** 5, 8)
    assert len(table) == 17983
    assert [p for p, monomials in table.items()
            if not parity_pattern_holds(p, monomials)] == []


# -- injectivity witnesses ------------------------------------------------------------------


def test_witness_examples(mtable):
    assert mtable.injectivity_witness({(0, 0)}) == 1
    assert mtable.injectivity_witness({(1, 0)}) == 3
    assert mtable.injectivity_witness({(2, 0), (0, 2)}) == 9


def test_witness_identity_on_series():
    # T_3^2 delta^9 = delta and T_5^2 delta^9 = 0, on raw q-expansions
    f = delta_pow(9, 9 * 64)
    assert hecke(3, hecke(3, f)) == delta_pow(1, 64)
    f = delta_pow(9, 25 * 64)
    assert hecke(5, hecke(5, f)).is_zero


def test_witness_rejects_zero(mtable):
    with pytest.raises(ValueError):
        mtable.injectivity_witness(set())


def test_witness_verification_catches_a_wrong_exponent(monkeypatch):
    """With the code two exponents too high, u(T_3, T_5) delta^k is not
    delta, and the witness refuses to return k."""
    true_exponent = mbasis.code_exponent
    monkeypatch.setattr(mbasis, "code_exponent",
                        lambda a, b: true_exponent(a, b) + 2)
    with pytest.raises(RuntimeError, match="witness verification failed"):
        MBasis().injectivity_witness({(1, 0)})


# -- growth -------------------------------------------------------------------------


def test_level_cap_gives_clean_failure(monkeypatch):
    monkeypatch.setattr(spaces, "LEVEL_CAP", 4)
    small = MBasis()
    with pytest.raises(LevelExhausted):
        small.element(0, 2)  # m(0,2) = delta^17 needs level 9


def _forbid_building(monkeypatch):
    def refuse(p, n):
        raise AssertionError(f"built T_{p} at level {n}")
    monkeypatch.setattr(spaces, "hecke_matrix", refuse)
    monkeypatch.setattr(mbasis, "hecke_matrix", refuse)


def test_level_over_cap_fails_before_building(monkeypatch):
    _forbid_building(monkeypatch)
    table = MBasis()
    for request in (lambda: table.ensure_degree(64),
                    lambda: table.ensure_degree(10 ** 9),
                    lambda: table.element(0, 64),
                    lambda: table.delta_power_coords(99999999999)):
        with pytest.raises(LevelExhausted):
            request()
    assert table.level == 0


def test_growth_at_least_doubles_and_respects_the_cap(monkeypatch):
    monkeypatch.setattr(spaces, "LEVEL_CAP", 40)
    table = MBasis()
    table.ensure_level(3)
    assert table.level == 3
    table.ensure_level(4)
    assert table.level == 6
    table.ensure_level(39)
    assert table.level == 39
    table.ensure_level(40)
    assert table.level == 40


def test_entries_survive_growth():
    table = MBasis()
    assert table.element(1, 0).support_exponents() == (3,)
    assert table.level == 2
    table.element(0, 2)  # forces growth to level 9
    assert table.level >= 9
    assert table.element(1, 0).support_exponents() == (3,)
    assert table.element(0, 2).support_exponents() == (17,)


def test_the_table_keeps_no_per_entry_state():
    """At a fixed level and precision, reading 300 entries, a sum, an
    m-expansion and a T_p table leaves every attribute of the table as it
    was (the same object, of the same length): no entry is stored."""
    table = MBasis()
    table.ensure_level(512)
    table.ensure_precision(50)

    def snapshot():
        return {name: (id(value), len(value) if hasattr(value, "__len__")
                       else None)
                for name, value in vars(table).items()}
    before = snapshot()
    for j in range(300):
        table.element(*code_of(2 * j + 1))
    f = table.recompose({(3, 0), (1, 2), (0, 4)})
    assert table.coefficients(f) == {(3, 0), (1, 2), (0, 4)}
    table.tp_table(50, 2)
    assert snapshot() == before
    assert not [name for name, value in vars(table).items()
                if isinstance(value, dict)]
