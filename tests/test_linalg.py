import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lefschetz.algebra import IMAGE_PRIME
from lefschetz.fields import GF, QQ
from lefschetz.linalg import (
    Matrix,
    _matmul_modp,
    _rref_generic,
    _rref_modp,
    anti_triangularize,
    cauchy_determinant,
    modular_rank_lower_bound,
    rational_matrix,
)


def gf2_row_span_size(rows):
    """Brute-force oracle: size of the GF(2) span of the rows."""
    span = set()
    n = len(rows)
    for picks in itertools.product([0, 1], repeat=n):
        v = tuple(sum(p * r for p, r in zip(picks, col)) % 2 for col in zip(*rows))
        span.add(v)
    return len(span)


class TestRref:
    def test_rank_one(self):
        m = rational_matrix([[1, 2], [2, 4]])
        red, pivots = m.rref()
        assert pivots == (0,)
        assert m.rank() == 1
        assert red.rows[0] == (Fraction(1), Fraction(2))
        assert red.rows[1] == (Fraction(0), Fraction(0))

    def test_identity(self):
        assert Matrix.identity(QQ, 3).rank() == 3

    def test_gf2_rank_with_enumeration_oracle(self):
        rows = [[1, 1], [1, 0]]
        m = Matrix.from_rows(GF(2), rows)
        span = gf2_row_span_size(rows)
        assert span == 4  # rank 2
        assert m.rank() == 2

    def test_empty_matrices(self):
        for shape in ((0, 3), (3, 0), (0, 0)):
            m = Matrix.zeros(QQ, *shape)
            red, pivots = m.rref()
            assert pivots == () and m.rank() == 0

    def test_rref_idempotent_and_unique(self):
        rng = random.Random(5)
        for _ in range(30):
            m = rational_matrix(
                [[rng.randint(-4, 4) for _ in range(4)] for _ in range(3)]
            )
            red, _ = m.rref()
            again, _ = red.rref()
            assert again == red

    def test_numpy_path_matches_generic_elimination(self):
        rng = random.Random(11)
        # 3037000493 is the largest prime <= _NP_MAX_P.
        for p in (32003, 3037000493):
            f = GF(p)
            for _ in range(25):
                nr, nc = rng.randint(1, 6), rng.randint(1, 6)
                rows = tuple(tuple(rng.randrange(p) for _ in range(nc)) for _ in range(nr))
                m = Matrix(f, nr, nc, rows)
                red, pivots = m.rref()
                rows_generic, pivots_generic = _rref_generic(f, rows, nr, nc)
                assert red.rows == rows_generic and pivots == tuple(pivots_generic)


class TestKernel:
    def test_rank_one_kernel(self):
        vecs = rational_matrix([[1, 2], [2, 4]]).kernel_basis()
        assert len(vecs) == 1
        v = vecs[0]
        assert v[0] * 1 + v[1] * 2 == 0 and v != (0, 0)

    def test_identity_kernel_empty(self):
        assert Matrix.identity(QQ, 2).kernel_basis() == []

    def test_plane_kernel(self):
        m = rational_matrix([[1, 1, 1]])
        vecs = m.kernel_basis()
        assert len(vecs) == 2
        for v in vecs:
            assert sum(v) == 0

    def test_kernel_vectors_annihilate(self):
        rng = random.Random(23)
        for field in (QQ, GF(101)):
            for _ in range(20):
                nr, nc = rng.randint(1, 5), rng.randint(1, 5)
                m = Matrix.from_rows(
                    field, [[field.of(rng.randint(-5, 5)) for _ in range(nc)] for _ in range(nr)]
                )
                basis = m.kernel_basis()
                assert len(basis) == nc - m.rank()
                for v in basis:
                    assert all(field.is_zero(x) for x in m.mul_vec(v))


class TestDeterminant:
    def test_2x2_cofactor(self):
        m = rational_matrix([[Fraction(1, 3), Fraction(1, 4)], [Fraction(1, 2), Fraction(1, 3)]])
        cofactor = Fraction(1, 3) * Fraction(1, 3) - Fraction(1, 4) * Fraction(1, 2)
        assert cofactor == Fraction(-1, 72)
        assert m.det() == cofactor

    def test_identity_and_singular(self):
        assert Matrix.identity(QQ, 4).det() == 1
        assert rational_matrix([[1, 2], [2, 4]]).det() == 0
        assert Matrix.zeros(QQ, 0, 0).det() == 1

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            Matrix.zeros(QQ, 2, 3).det()

    def test_multiplicative(self):
        rng = random.Random(3)
        for _ in range(10):
            a = rational_matrix([[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])
            b = rational_matrix([[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])
            assert (a @ b).det() == a.det() * b.det()


class TestCauchyDeterminant:
    def test_one_by_one(self):
        assert cauchy_determinant(QQ, [Fraction(3)], [Fraction(0)]) == Fraction(1, 3)

    def test_matches_elimination(self):
        u = [Fraction(3), Fraction(2)]
        v = [Fraction(0), Fraction(1)]
        m = rational_matrix([[Fraction(1, ui + vj) for vj in v] for ui in u])
        assert cauchy_determinant(QQ, u, v) == m.det() == Fraction(-1, 72)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            cauchy_determinant(QQ, [Fraction(1)], [Fraction(-1)])

    def test_random_agreement(self):
        rng = random.Random(17)
        for _ in range(15):
            n = rng.randint(1, 6)
            u = [Fraction(rng.randint(1, 40)) for _ in range(n)]
            v = [Fraction(rng.randint(1, 40)) for _ in range(n)]
            m = rational_matrix([[Fraction(1, ui + vj) for vj in v] for ui in u])
            assert cauchy_determinant(QQ, u, v) == m.det()

    def test_fractional_and_modular_entries(self):
        # Entries with denominators, and residues mod p, whose denominator is 1.
        rng = random.Random(23)
        for field in (QQ, GF(101), GF(32003)):
            for _ in range(15):
                n = rng.randint(1, 5)
                u, v = ([field.of(Fraction(rng.randint(1, 40), rng.randint(1, 9))) for _ in range(n)] for _ in "uv")
                if any(field.is_zero(field.add(a, b)) for a in u for b in v):
                    continue
                m = Matrix.from_rows(field, [[field.inv(field.add(a, b)) for b in v] for a in u])
                assert cauchy_determinant(field, u, v) == m.det()


def lower_left_blocks_nonsingular(m):
    """Oracle for the anti-triangularization criterion: every square block
    (rows i..n, columns 1..n-i+1) has nonzero determinant."""
    n = m.nrows
    for i in range(1, n + 1):
        block = m.submatrix(range(i - 1, n), range(n - i + 1))
        if block.det() == 0:
            return False
    return True


class TestAntiTriangularize:
    def test_already_in_shape(self):
        out = anti_triangularize(rational_matrix([[1, 1], [1, 0]]))
        assert out.success
        t = out.transformed
        assert t.entry(1, 1) == 0 and t.entry(0, 1) != 0 and t.entry(1, 0) != 0

    def test_failure_reports_sweep_index(self):
        out = anti_triangularize(rational_matrix([[0, 1], [0, 1]]))
        assert not out.success and out.failure_index == 2

    def test_fraction_entries(self):
        m = rational_matrix([[Fraction(1, 2), Fraction(1, 3)], [1, Fraction(1, 2)]])
        assert m.det() != 0
        assert anti_triangularize(m).success

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            anti_triangularize(Matrix.zeros(QQ, 2, 3))

    def test_exhaustive_3x3_binary_matches_block_criterion(self):
        for bits in itertools.product([0, 1], repeat=9):
            m = rational_matrix([bits[0:3], bits[3:6], bits[6:9]])
            out = anti_triangularize(m)
            assert out.success == lower_left_blocks_nonsingular(m)
            if out.success:
                t = out.transformed
                # nonzero anti-diagonal, zeros strictly below it
                for i in range(3):
                    assert t.entry(i, 2 - i) != 0
                    for j in range(3 - i, 3):
                        assert t.entry(i, j) == 0
                assert t.rank() == m.rank()


def test_rank_equals_transpose_rank():
    rng = random.Random(31)
    for field in (QQ, GF(13)):
        for _ in range(25):
            nr, nc = rng.randint(1, 6), rng.randint(1, 6)
            m = Matrix.from_rows(
                field, [[field.of(rng.randint(-6, 6)) for _ in range(nc)] for _ in range(nr)]
            )
            assert m.rank() == m.transpose().rank()


def test_modular_rank_lower_bound_on_integer_matrices():
    rng = random.Random(41)
    for _ in range(20):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        m = rational_matrix([[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)])
        lb = modular_rank_lower_bound(m)
        assert lb is not None and lb <= m.rank()
        # small integer entries: reduction mod a 31-bit prime never loses rank
        assert lb == m.rank()


# `_matmul_modp` sums chunks of 2 and of 1 inner column at the first two primes;
# at the third (p-1)^2 overflows an int64, and only `Matrix @` applies.
MATMUL_CHUNKS = ((2147483647, 2), (3037000493, 1), (4294967291, None))


def test_modular_matmul_chunking_exact():
    rng = random.Random(9)
    for p, chunk in MATMUL_CHUNKS:
        f = GF(p)
        a = Matrix.from_rows(f, [[rng.randrange(p) for _ in range(7)] for _ in range(3)])
        b = Matrix.from_rows(f, [[rng.randrange(p) for _ in range(4)] for _ in range(7)])
        prod = a @ b
        arrays = None
        if chunk is not None:
            assert (2**63 - 1) // (p - 1) ** 2 == chunk
            arrays = _matmul_modp(a._np(), b._np(), p).tolist()
        for i in range(3):
            for j in range(4):
                expected = sum(a.entry(i, k) * b.entry(k, j) for k in range(7)) % p
                assert prod.entry(i, j) == expected
                if arrays is not None:
                    assert arrays[i][j] == expected


def test_modular_matmul_worst_case_entries():
    # Every entry p-1: each chunk sum is chunk*(p-1)^2, on top of an acc < p.
    for p, chunk in MATMUL_CHUNKS:
        f = GF(p)
        a = Matrix.from_rows(f, [[p - 1] * 7] * 3)
        b = Matrix.from_rows(f, [[p - 1] * 4] * 7)
        assert (a @ b).rows == ((7 * (p - 1) ** 2 % p,) * 4,) * 3
        if chunk is not None:
            assert _matmul_modp(a._np(), b._np(), p).tolist() == [[7 * (p - 1) ** 2 % p] * 4] * 3


def test_modular_matmul_worst_case_entries_at_the_image_prime():
    # 268435399 is the largest prime below 2^28: inner width 128 runs in one
    # int64 product, 129 takes two chunks.
    p = IMAGE_PRIME
    assert (2**63 - 1) // (p - 1) ** 2 == 128
    for n in (128, 129):
        a = np.full((3, n), p - 1, dtype=np.int64)
        b = np.full((n, 4), p - 1, dtype=np.int64)
        assert (_matmul_modp(a, b, p) == n * (p - 1) ** 2 % p).all()
        prod = Matrix.from_rows(GF(p), a.tolist()) @ Matrix.from_rows(GF(p), b.tolist())
        assert prod.rows == ((n * (p - 1) ** 2 % p,) * 4,) * 3


# -- fraction-free elimination against the generic one and against Leibniz ----

# Fixed examples, and no example database on disk.
BUDGET = settings(max_examples=60, deadline=None, derandomize=True, database=None)
DET_FIELDS = (QQ, GF(2), GF(3), GF(32003), GF(4294967291))


def scalars(field):
    if field == QQ:
        nonzero = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.sampled_from((1, 2, 3, 5, 7)))
        return st.one_of(st.just(Fraction(0)), nonzero)
    return st.one_of(st.just(0), st.integers(0, field.p - 1))


@st.composite
def matrices(draw, field, max_n=6, square=False):
    """A random matrix of shape up to max_n x max_n; half of them a product
    through a smaller inner dimension, so rank-deficient."""
    nr = draw(st.integers(0, max_n))
    nc = nr if square else draw(st.integers(0, max_n))

    def block(r, c):
        rows = [draw(st.lists(scalars(field), min_size=c, max_size=c)) for _ in range(r)]
        return Matrix(field, r, c, tuple(map(tuple, rows)))

    if min(nr, nc) >= 2 and draw(st.booleans()):
        k = draw(st.integers(1, min(nr, nc) - 1))
        return block(nr, k) @ block(k, nc)
    return block(nr, nc)


def leibniz_det(m):
    """Determinant as the signed sum over permutations."""
    f = m.field
    total = f.zero
    for perm in itertools.permutations(range(m.nrows)):
        inversions = sum(perm[a] > perm[b] for a, b in itertools.combinations(range(m.nrows), 2))
        term = f.one
        for i, j in enumerate(perm):
            term = f.mul(term, m.rows[i][j])
        total = f.sub(total, term) if inversions % 2 else f.add(total, term)
    return total


@BUDGET
@given(matrices(QQ))
def test_rational_rref_matches_generic_elimination(m):
    red, pivots = m.rref()
    rows_generic, pivots_generic = _rref_generic(QQ, m.rows, m.nrows, m.ncols)
    assert red.rows == rows_generic and pivots == tuple(pivots_generic)
    basis = m.kernel_basis()
    assert len(basis) == m.ncols - len(pivots)
    for v in basis:
        assert not any(m.mul_vec(v))


@BUDGET
@given(matrices(QQ))
def test_modular_rank_lower_bound_is_the_rank_mod_p(m):
    for p in (2, 3, 5, 7):
        if any(x.denominator % p == 0 for row in m.rows for x in row):
            assert modular_rank_lower_bound(m, p) is None
        else:
            gf = GF(p)
            reduced = Matrix(gf, m.nrows, m.ncols, tuple(tuple(gf.of(x) for x in row) for row in m.rows))
            assert modular_rank_lower_bound(m, p) == reduced.rank()


@pytest.mark.parametrize("field", DET_FIELDS, ids=repr)
def test_det_matches_leibniz(field):
    @BUDGET
    @given(matrices(field, max_n=5, square=True))
    def check(m):
        assert m.det() == leibniz_det(m)

    check()


# -- elimination mod p: forward pass, back pass and delayed reduction ----------

# Every kind of budget: GF(2), GF(3) and GF(32003) never reduce the trailing
# block of a small matrix, IMAGE_PRIME does every 127 steps, and 2^31-1 and
# the largest prime <= _NP_MAX_P at every step.
MODP_FIELDS = (GF(2), GF(3), GF(32003), GF(IMAGE_PRIME), GF(2147483647), GF(3037000493))
SHAPES = ("tall", "wide", "square", "one row", "one column")


@st.composite
def modp_matrices(draw, field, max_n=7):
    """A matrix over GF(p) of one of SHAPES; half of them a product through a
    smaller inner dimension, so rank-deficient, and some with zero columns.
    Entries p-1 are drawn often."""
    p = field.p
    a, b = sorted(draw(st.lists(st.integers(1, max_n), min_size=2, max_size=2)))
    shape = draw(st.sampled_from(SHAPES))
    nr, nc = {"tall": (b + 1, a), "wide": (a, b + 1), "square": (b, b), "one row": (1, b), "one column": (b, 1)}[shape]
    entry = st.one_of(st.just(0), st.just(p - 1), st.integers(0, p - 1))

    def block(r, c):
        return [draw(st.lists(entry, min_size=c, max_size=c)) for _ in range(r)]

    rows = block(nr, nc)
    if min(nr, nc) >= 2 and draw(st.booleans()):
        k = draw(st.integers(1, min(nr, nc) - 1))
        left, right = block(nr, k), block(k, nc)
        rows = [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*right)] for row in left]
    zero = draw(st.sets(st.integers(0, nc - 1), max_size=nc // 3))
    return Matrix(field, nr, nc, tuple(tuple(0 if j in zero else x for j, x in enumerate(row)) for row in rows))


@pytest.mark.parametrize("field", MODP_FIELDS, ids=repr)
def test_modular_elimination_matches_generic_elimination(field):
    @BUDGET
    @given(modp_matrices(field))
    def check(m):
        rows, pivots = _rref_generic(field, m.rows, m.nrows, m.ncols)
        red, full_pivots = _rref_modp(m._np(), field.p)
        none, rank_pivots = _rref_modp(m._np(), field.p, full=False)
        assert full_pivots == rank_pivots == pivots and none is None
        assert tuple(map(tuple, red.tolist())) == rows
        assert m.rank() == len(pivots)

    check()


def worst_case_elimination(n, p, extra_rows=3, extra_cols=2):
    """L U [I | X] mod p, L an (n + extra_rows) x n unit lower triangular and U an
    n x n unit upper triangular matrix, with -1 = p-1 for every other entry of L,
    U and X.  Every multiplier of the forward pass is p-1 and every pivot row is
    a row of U [I | X], so each step subtracts (p-1)^2 from every trailing entry
    of the first n columns.  The reduced echelon form is [I | X] above zero rows,
    so each back step subtracts (p-1)^2 from the last extra_cols columns of
    every row above it.  Returns the matrix and its reduced echelon form."""
    low = np.tril(np.full((n + extra_rows, n), -1), -1) + np.eye(n + extra_rows, n, dtype=np.int64)
    up = np.triu(np.full((n, n), -1), 1) + np.eye(n, dtype=np.int64)
    rref = np.hstack([np.eye(n, dtype=np.int64), np.full((n, extra_cols), -1)])
    a = (low @ up @ rref) % p  # entries at most n^2 in size: exact in int64
    return a, np.vstack([rref % p, np.zeros((extra_rows, n + extra_cols), dtype=np.int64)])


@pytest.mark.parametrize("p, n", [(IMAGE_PRIME, 300), (2147483647, 6), (3037000493, 6)])
def test_modular_elimination_worst_case_entries(p, n):
    # The trailing block is reduced every (2^63-1)//(p-1)^2 - 1 steps, and at
    # least every step: every 127 at the image prime, where 128 steps would
    # still be exact and 129 overflow, and every step at 2^31-1, where 3 steps
    # overflow, and at 3037000493, where 2 do.
    budget = {IMAGE_PRIME: 127, 2147483647: 1, 3037000493: 1}[p]
    assert max(1, (2**63 - 1) // (p - 1) ** 2 - 1) == budget and n > 2 * budget
    a, expected = worst_case_elimination(n, p)
    red, pivots = _rref_modp(a, p)
    assert pivots == list(range(n)) and (red == expected).all()
    assert _rref_modp(a, p, full=False)[1] == pivots
    assert Matrix(GF(p), *a.shape, tuple(map(tuple, a.tolist()))).rank() == n
