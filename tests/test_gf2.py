"""Bitset linear algebra cross-checked against textbook elimination."""

import ast
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckemod2.gf2 import (GF2Matrix, LinearSolver, Span, apply_columns,
                           bit_flags, chain, column_stride, flat_product,
                           iter_bits, lowest_bit, prefix_ranks, rank)
from heckemod2.spaces import kernel

SRC = Path(__file__).resolve().parents[1] / "src" / "heckemod2"


class LowestBitSpan:
    """Echelon basis keyed on the lowest set bit: the reference for `Span`,
    which keys on the highest."""

    def __init__(self, vectors=()):
        self.pivots = {}
        for v in vectors:
            v = self.reduce(v)
            if v:
                self.pivots[lowest_bit(v)] = v

    def reduce(self, v):
        while v and lowest_bit(v) in self.pivots:
            v ^= self.pivots[lowest_bit(v)]
        return v


def kernel_reference(m):
    """Kernel basis from lowest-bit pivots, each column k tagged with bit
    n + k above the data."""
    span = LowestBitSpan(c | 1 << (m.n + k) for k, c in enumerate(m.cols))
    return [v >> m.n for pivot, v in span.pivots.items() if pivot >= m.n]


@st.composite
def vector_families(draw):
    """Up to 24 vectors of up to 256 bits, then up to 8 XORs of subsets of
    them, so the family has relations at every width."""
    width = draw(st.integers(1, 256))
    vecs = draw(st.lists(st.integers(0, (1 << width) - 1), max_size=24))
    mixes = draw(st.lists(st.integers(0, (1 << len(vecs)) - 1), max_size=8))
    return vecs + [apply_columns(vecs, mix) for mix in mixes], width


@given(vector_families(), st.integers(0, (1 << 256) - 1),
       st.integers(0, 1 << 32))
@settings(max_examples=150, deadline=None)
def test_span_against_lowest_bit_reference(family, probe, mix):
    vecs, width = family
    span, ref = Span(vecs), LowestBitSpan(vecs)
    assert span.dimension == len(ref.pivots) == rank(vecs)
    # apply_columns raises on a bit of mix with no vector, so mix is cut
    # to one bit per vector
    mixed = apply_columns(vecs, mix & ((1 << len(vecs)) - 1))
    for v in (probe & ((1 << width) - 1), mixed):
        assert span.contains(v) == (ref.reduce(v) == 0)
    keys = [pivot for pivot, _ in span.echelon()]
    assert keys == [v.bit_length() - 1 for _, v in span.echelon()]
    assert keys == sorted(set(keys))
    if vecs:
        n = len(vecs)
        m = GF2Matrix([v & ((1 << n) - 1) for v in vecs], n)
        basis, want = kernel(m), kernel_reference(m)
        assert len(basis) == len(want) == rank(basis + want)


def naive_solve(rows, width, rhs_bits):
    """Gauss-Jordan elimination walking the columns from the top, so the
    free coordinates are those of an echelon keyed on highest set bits."""
    cur = [[rows[i], (rhs_bits >> i) & 1] for i in range(len(rows))]
    used = [False] * len(cur)
    pivots = []
    for col in reversed(range(width)):
        pr = next((r for r in range(len(cur))
                   if not used[r] and (cur[r][0] >> col) & 1), None)
        if pr is None:
            continue
        used[pr] = True
        for r in range(len(cur)):
            if r != pr and (cur[r][0] >> col) & 1:
                cur[r][0] ^= cur[pr][0]
                cur[r][1] ^= cur[pr][1]
        pivots.append((col, pr))
    if any(row == 0 and rhs for row, rhs in cur):
        return None
    x = 0
    for col, pr in pivots:
        if cur[pr][1]:
            x |= 1 << col
    return x


def test_solver_against_naive_elimination():
    rng = random.Random(1)
    for _ in range(1500):
        width = rng.randint(1, 14)
        nrows = rng.randint(1, 24)
        rows = [rng.getrandbits(width) for _ in range(nrows)]
        rhs = rng.getrandbits(nrows)
        solver = LinearSolver(rows, width)
        got = solver.solve(rhs)
        want = naive_solve(rows, width, rhs)
        # the same solution, free coordinates 0, not just an equivalent one
        assert got == want
        if got is not None:
            for i, r in enumerate(rows):
                assert ((r & got).bit_count() & 1) == ((rhs >> i) & 1)


def test_kernel_against_exhaustive_search():
    rng = random.Random(2)
    for _ in range(800):
        n = rng.randint(1, 10)
        # the AND of two draws: sparse columns, so kernels of many sizes
        cols = [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(n)]
        m = GF2Matrix(cols, n)
        basis = kernel(m)
        assert rank(basis) == len(basis)
        for v in basis:
            assert m.apply(v) == 0
        count = sum(1 for v in range(1 << n) if m.apply(v) == 0)
        assert count == 1 << len(basis)
        rows = [sum((c >> i & 1) << j for j, c in enumerate(cols))
                for i in range(n)]
        assert LinearSolver(rows, n).kernel_dimension == len(basis)


def test_span_membership():
    span = Span([0b011, 0b110])
    assert span.dimension == 2
    assert span.contains(0b101)
    assert not span.contains(0b001)
    assert not span.add(0b101)
    assert span.add(0b001)
    assert span.dimension == 3


def test_rank_matches_exhaustive_span():
    rng = random.Random(3)
    for _ in range(300):
        width = rng.randint(1, 8)
        vecs = [rng.getrandbits(width) for _ in range(rng.randint(0, 10))]
        reachable = {0}
        for v in vecs:
            reachable |= {x ^ v for x in reachable}
        assert 1 << rank(vecs) == len(reachable)


@given(vector_families())
@settings(max_examples=100, deadline=None)
def test_prefix_ranks_against_rank_of_each_prefix(family):
    vecs, _ = family
    assert prefix_ranks(vecs) == [rank(vecs[:k]) for k in range(len(vecs) + 1)]


def test_apply_rejects_a_vector_longer_than_the_matrix():
    """A bit at or above n has no column: apply raises, as mul and add do
    on a size mismatch, instead of dropping it."""
    ident = GF2Matrix.identity(4)
    assert ident.apply(0b1111) == 0b1111
    for v in (1 << 4, 0b10001, -1):
        with pytest.raises(ValueError, match="dimension mismatch"):
            ident.apply(v)


def test_apply_columns_rejects_a_bit_with_no_column():
    assert apply_columns((1, 2), 0b11) == 0b11
    with pytest.raises(IndexError):
        apply_columns((1, 2), 0b100)


@given(st.integers(1, 24).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n),
    st.integers(0, (1 << n) - 1))))
def test_chain_against_repeated_apply_columns(system):
    """Strictly lower triangular columns (bits below the column's index)
    make every chain end; its terms are the nonzero iterates of
    apply_columns, in order."""
    cols, start = system
    cols = [c & ((1 << k) - 1) for k, c in enumerate(cols)]
    want, v = [], start
    while v:
        want.append(v)
        v = apply_columns(cols, v)
    assert list(chain(cols, start)) == want


def test_chain_raises_when_the_matrix_is_not_nilpotent_on_v():
    with pytest.raises(RuntimeError, match="failed to terminate"):
        list(chain(GF2Matrix.identity(4).cols, 0b1010))
    assert list(chain(GF2Matrix.identity(4).cols, 0)) == []


def test_matrix_operations():
    m = GF2Matrix([0b00, 0b01], 2)  # column 1 is e0: sends e1 -> e0
    assert m.entry(0, 1) == 1 and m.entry(1, 0) == 0
    assert m.apply(0b10) == 0b01
    assert m.apply(0b01) == 0
    assert m.mul(m).is_zero
    ident = GF2Matrix.identity(3)
    assert ident.mul(ident) == ident
    assert ident.cols == (1, 2, 4)
    assert m.add(m).is_zero
    assert m.to_vector() == 0b0100  # entry (i, j) is bit j*n + i
    for cols, n in (([0b100, 0], 2), ([-1, 0], 2), ([0, 0, 0], 2), ([0], 2)):
        with pytest.raises(ValueError):
            GF2Matrix(cols, n)


def test_matrix_mul_against_entrywise():
    rng = random.Random(4)
    for _ in range(100):
        n = rng.randint(1, 6)
        a = GF2Matrix([rng.getrandbits(n) for _ in range(n)], n)
        b = GF2Matrix([rng.getrandbits(n) for _ in range(n)], n)
        c = a.mul(b)
        for i in range(n):
            for j in range(n):
                want = 0
                for k in range(n):
                    want ^= a.entry(i, k) & b.entry(k, j)
                assert c.entry(i, j) == want


@st.composite
def matrix_pairs(draw):
    """Two n x n matrices, n <= 64, with dense, single-bit and zero columns
    anywhere, so neither need be triangular."""
    n = draw(st.integers(1, 64))
    column = st.one_of(st.just(0), st.integers(0, n - 1).map(lambda i: 1 << i),
                       st.integers(0, (1 << n) - 1))
    g, m = (GF2Matrix(draw(st.lists(column, min_size=n, max_size=n)), n)
            for _ in range(2))
    return g, m


@given(matrix_pairs())
@settings(max_examples=200, deadline=None)
def test_flat_product_against_matrix_mul(pair):
    g, m = pair
    n = g.n
    assert column_stride(n) == sum(1 << (j * n) for j in range(n))
    assert flat_product(g.cols, m.to_vector(), column_stride(n)) == \
        g.mul(m).to_vector()


@given(st.one_of(
    st.just(0),
    st.integers(0, 6000).map(lambda i: 1 << i),
    st.lists(st.integers(0, 8000), max_size=24).map(
        lambda es: sum(1 << e for e in set(es)) | 1 << 5000),
    st.integers(0, 1 << 300),
))
def test_iter_bits_against_bit_scan(x):
    assert list(iter_bits(x)) == [i for i in range(x.bit_length()) if x >> i & 1]


@given(st.integers(0, 1 << 300), st.integers(0, 400))
def test_bit_flags_against_bit_scan(x, width):
    assert bit_flags(x, width) == bytes(x >> i & 1 for i in range(width))


def test_lowest_bit_idiom_only_in_gf2_helpers():
    """`x & -x` is written in gf2.lowest_bit and gf2.iter_bits only; every
    other loop over set bits goes through them."""
    tree = ast.parse((SRC / "gf2.py").read_text())
    allowed = {("gf2.py", line)
               for node in tree.body
               if isinstance(node, ast.FunctionDef)
               and node.name in ("lowest_bit", "iter_bits")
               for line in range(node.lineno, node.end_lineno + 1)}
    stray = [f"{path.name}:{i}: {text.strip()}"
             for path in sorted(SRC.glob("*.py"))
             for i, text in enumerate(path.read_text().splitlines(), 1)
             if "& -" in text and (path.name, i) not in allowed]
    assert stray == []


def column_products(source: str, allowed: str = "") -> list[int]:
    """Lines of `for x in iter_bits(...)` loops whose body XOR-assigns a
    value that indexes something with x: a hand-written column product.
    Loops inside the function named `allowed` are skipped."""
    tree = ast.parse(source)
    skip = {id(node) for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == allowed
            for node in ast.walk(fn)}
    found = []
    for loop in ast.walk(tree):
        if (id(loop) in skip or not isinstance(loop, ast.For)
                or not isinstance(loop.target, ast.Name)
                or not isinstance(loop.iter, ast.Call)
                or not ast.unparse(loop.iter.func).endswith("iter_bits")):
            continue
        found.extend(
            node.lineno for stmt in loop.body for node in ast.walk(stmt)
            if isinstance(node, ast.AugAssign)
            and isinstance(node.op, ast.BitXor)
            and any(isinstance(sub, ast.Subscript)
                    and isinstance(sub.slice, ast.Name)
                    and sub.slice.id == loop.target.id
                    for sub in ast.walk(node.value)))
    return found


def test_column_product_only_in_apply_columns():
    """The XOR of columns over the set bits of a vector is written once, in
    gf2.apply_columns; every other matrix-vector product calls it."""
    stray = [f"{path.name}:{line}"
             for path in sorted(SRC.glob("*.py"))
             for line in column_products(
                 path.read_text(),
                 "apply_columns" if path.name == "gf2.py" else "")]
    assert stray == []


def test_column_product_guard_sees_hand_written_products():
    """The guard flags the two hand-written loops apply_columns replaced and
    leaves shifts, masked greedy steps and the triangular solve alone."""
    paired = """
def paired(c):
    out = 0
    for i in iter_bits(c):
        out ^= phi[i]
    return out
"""
    mul = """
def mul(self, other):
    for c in other.cols:
        if c:
            for i in iter_bits(c):
                acc ^= mine[i] & mask
"""
    harmless = """
def shift_product(a, b):
    for i in iter_bits(a):
        acc ^= b << i
def greedy(residue, pows, mask):
    while residue:
        i = lowest_bit(residue)
        residue ^= pows[i] & mask
def solve(r, phi):
    while r:
        top = r.bit_length() - 1
        r ^= phi[top]
"""
    assert column_products(paired) == [5]
    assert column_products(mul) == [6]
    assert column_products(harmless) == []
    assert column_products(paired, "paired") == []
