"""Dense exact matrices: reduced echelon form, rank, kernels, determinants,
the Cauchy-determinant closed form and anti-triangularization by column ops.

Entries are exact scalars of a single field.  Elimination over QQ is
fraction-free: each row is cleared of its denominators and the integer
matrix is reduced by Bareiss's rule, so `Fraction`s appear only when the
reduced echelon form is divided out at the end.  Determinants come from the
same integer elimination over every field.  `Matrix` products use exact field
arithmetic, and mod-p products of int64 arrays are `_matmul_modp`.  Echelon
forms over GF(p) are one routine on arrays mod p, reduced only as often as
overflow requires: int64 arrays up to `_NP_MAX_P`, and above it arrays of
Python ints, reduced at every step; a rank mod p is a forward pass.  `rank_of`
is the one rank rule: a map's reduction mod q gives its rank when that is the
bound or the reduction is the map (a rank mod q is at most the rank over QQ),
else the exact map is built and ranked by `exact_rank`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .fields import QQ, GF, Field, PrimeField, require_same_field

# Largest modulus for which (p-1)^2 fits in an int64, so numpy row operations
# (entry - factor*entry) stay exact.
_NP_MAX_P = 3037000499

# Fixed witness prime for modular rank lower bounds over the rationals.
WITNESS_PRIME = 2147483647


class Matrix:
    """Immutable dense matrix over an exact field. 0xn and nx0 shapes are legal."""

    __slots__ = ("field", "nrows", "ncols", "rows", "_rref_cache")

    def __init__(self, field: Field, nrows: int, ncols: int, rows):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows
        self._rref_cache = None

    @classmethod
    def from_rows(cls, field: Field, rows: Sequence[Sequence]) -> "Matrix":
        checked = tuple(tuple(field.validate(x) for x in row) for row in rows)
        nrows = len(checked)
        ncols = len(checked[0]) if nrows else 0
        for row in checked:
            if len(row) != ncols:
                raise ValueError("ragged rows")
        return cls(field, nrows, ncols, checked)

    @classmethod
    def zeros(cls, field: Field, nrows: int, ncols: int) -> "Matrix":
        z = field.zero
        return cls(field, nrows, ncols, tuple((z,) * ncols for _ in range(nrows)))

    @classmethod
    def vstack(cls, field: Field, mats: Sequence["Matrix"], ncols: int) -> "Matrix":
        rows = []
        for m in mats:
            require_same_field(field, m.field)
            if m.ncols != ncols:
                raise ValueError("column count mismatch in vstack")
            rows.extend(m.rows)
        return cls(field, len(rows), ncols, tuple(rows))

    # -- basic structure ----------------------------------------------------

    def entry(self, i: int, j: int):
        return self.rows[i][j]

    def transpose(self) -> "Matrix":
        return Matrix(self.field, self.ncols, self.nrows, tuple(zip(*self.rows)) if self.nrows and self.ncols else tuple(() for _ in range(self.ncols)))

    def is_zero(self) -> bool:
        zero = self.field.is_zero
        return all(zero(x) for row in self.rows for x in row)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, self.nrows, self.ncols, self.rows))

    def __repr__(self):
        return f"Matrix({self.field}, {self.nrows}x{self.ncols})"

    # -- products -----------------------------------------------------------

    def __matmul__(self, other: "Matrix") -> "Matrix":
        require_same_field(self.field, other.field)
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch: {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
        f = self.field
        bt = other.transpose().rows
        mul, sm = f.mul, f.sum
        rows = tuple(tuple(sm(mul(a, b) for a, b in zip(row, col)) for col in bt) for row in self.rows)
        return Matrix(f, self.nrows, other.ncols, rows)

    def mul_vec(self, vec: Sequence):
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        f = self.field
        mul, sm = f.mul, f.sum
        return tuple(sm(mul(a, b) for a, b in zip(row, vec)) for row in self.rows)

    def _np(self) -> np.ndarray:
        """The entries as an int64 array, or above `_NP_MAX_P` as Python ints."""
        dtype = np.int64 if self.field.p <= _NP_MAX_P else object
        return np.array(self.rows, dtype=dtype).reshape(self.nrows, self.ncols)

    # -- elimination --------------------------------------------------------

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form and its pivot columns.

        Pivoting is deterministic: columns left to right, first nonzero row
        from the top.
        """
        if self._rref_cache is None:
            f = self.field
            if isinstance(f, PrimeField):
                arr, pivots = _rref_modp(self._np(), f.p)
                rows = tuple(map(tuple, arr.tolist()))
            else:
                m, _ = _integer_rows(f, self.rows)
                pivots, _, d = _bareiss(m, self.ncols, full=True)
                rows = tuple(tuple(Fraction(x, d) if x else f.zero for x in row) for row in m)
            self._rref_cache = (Matrix(f, self.nrows, self.ncols, rows), tuple(pivots))
        return self._rref_cache

    def rank(self) -> int:
        if self._rref_cache is None and isinstance(self.field, PrimeField):
            return len(_rref_modp(self._np(), self.field.p, full=False)[1])  # the forward pass alone
        return len(self.rref()[1])

    def kernel_basis(self) -> list[tuple]:
        """Basis of the null space, one vector per non-pivot column."""
        red, pivots = self.rref()
        f = self.field
        basis = []
        for free in sorted(set(range(self.ncols)).difference(pivots)):
            v = [f.zero] * self.ncols
            v[free] = f.one
            for row, pc in zip(red.rows, pivots):
                v[pc] = f.neg(row[free])
            basis.append(tuple(v))
        return basis

    def det(self):
        """Exact determinant by fraction-free elimination; the 0x0 matrix has determinant 1."""
        if self.nrows != self.ncols:
            raise ValueError("determinant requires a square matrix")
        f = self.field
        m, scale = _integer_rows(f, self.rows)
        pivots, sign, d = _bareiss(m, self.ncols, full=False)
        if len(pivots) < self.nrows:
            return f.zero
        return f.div(f.of(sign * d), f.of(scale))


def _integer_rows(f: Field, rows):
    """Integer rows and the product of their scale factors: a QQ row times the
    lcm of its denominators, a GF(p) row's representatives in [0, p) as is."""
    if isinstance(f, PrimeField):
        return [list(row) for row in rows], 1
    out, scale = [], 1
    for row in rows:
        lcm = math.lcm(*{x.denominator for x in row})
        out.append([x.numerator for x in row] if lcm == 1 else [x.numerator * (lcm // x.denominator) for x in row])
        scale *= lcm
    return out, scale


def _bareiss(m: list, ncols: int, full: bool):
    """Fraction-free elimination (Bareiss, Math. Comp. 22, 1968) of the
    integer rows m, in place.  Each pivot is in the leftmost column left, in
    the first nonzero row from the top.  With pivot d, each other row becomes
    (d*row - a*pivot_row) // prev, a its entry in the pivot column and prev
    the previous pivot: an exact division.  With `full` the rows above the
    pivot are cleared too, which leaves every pivot equal to the last.
    Returns the pivot columns, the sign of the swaps and the last pivot (1 if
    none): the determinant of a square full-rank m."""
    pivots, sign, prev = [], 1, 1
    for c in range(ncols):
        r = len(pivots)
        i = next((i for i in range(r, len(m)) if m[i][c]), None)
        if i is None:
            continue
        if i != r:
            m[r], m[i] = m[i], m[r]
            sign = -sign
        top = m[r]
        d = top[c]
        for i in range(0 if full else r + 1, len(m)):
            a = m[i][c]
            if i != r and (a or d != prev):  # a == 0 with d == prev leaves the row as it is
                m[i] = [(d * x - a * y) // prev for x, y in zip(m[i], top)]
        pivots.append(c)
        prev = d
    return pivots, sign, prev


def _rref_modp(a: np.ndarray, p: int, full: bool = True):
    """Reduced echelon form of a mod p and its pivot columns; without `full`,
    None and the pivots.  a is int64, or of Python ints above `_NP_MAX_P`.
    Each pivot is in the leftmost column left, in the first nonzero row from
    the top.  A forward step reduces its pivot column and row and subtracts at
    most (p-1)^2 from the rows below with a nonzero entry in the pivot column,
    reduced every (2^63-1)//(p-1)^2 - 1 steps, or at every step the rows changed
    (Dumas, Giorgi, Pernet, ACM TOMS 2008).  The back pass clears above each
    pivot on the pivot rows, by the same rule."""
    a, out = a % p, np.zeros_like(a) if full else None
    (nrows, ncols), pivots = a.shape, []
    budget = max(1, (2**63 - 1) // (p - 1) ** 2 - 1)

    def clear(block, col, row, step):
        """block[i] -= col[i] * row for every row i; a large block where col is
        nonzero on under half the rows changes only those."""
        rows = slice(None)
        if block.size > 1024:  # below it numpy's cost per call outweighs the rows saved
            nz = col.nonzero()[0]
            rows = nz if 2 * nz.size < col.size else rows
        block[rows] -= col[rows, None] * row
        if budget == 1:  # the rows not changed are reduced already
            block[rows] %= p
        elif step % budget == 0:
            block %= p

    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        col = a[r:, c] % p
        nz = col.nonzero()[0]
        if not nz.size:
            continue
        pivots.append(c)
        if not full and (r + 1 == nrows or c + 1 == ncols):  # no block left to clear
            break
        i = int(nz[0])
        row = a[r + i, c + 1:] % p * pow(int(col[i]), -1, p) % p
        if i:  # row r moves to r + i; the pivot row is kept in row
            a[r + i, c + 1:], col[i] = a[r, c + 1:], col[0]
        clear(a[r + 1:, c + 1:], col[1:], row, len(pivots))
        if full:
            out[r, c], out[r, c + 1:] = 1, row
    for k, c in reversed(list(enumerate(pivots)) if full else []):  # column c of the rows above k is reduced
        out[k, c:] %= p
        clear(out[:k, c:], out[:k, c], out[k, c:], len(pivots) - k)
    return out, pivots


def exact_rank(m: Matrix) -> int:
    """Exact rank, by elimination unless a side is at most 1."""
    if min(m.nrows, m.ncols) <= 1:
        return 0 if m.is_zero() else 1
    return m.rank()


def rank_of(image: Optional[np.ndarray], q: Optional[int], exact: Optional[Callable[[], Matrix]], bound: int) -> int:
    """Rank of a map from its int64 reduction mod q (`image`, or None): the
    image's forward-pass rank when that is `bound` or when the image is the
    map (`exact` None), else `exact_rank(exact())`."""
    if image is not None:
        rank = len(_rref_modp(image, q, full=False)[1])
        if rank == bound or exact is None:
            return rank
    return exact_rank(exact())


def _matmul_modp(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    a = a % p
    b = b % p
    inner = a.shape[1]
    # Chunk the inner dimension so each dot product stays below 2^63.
    chunk = max(1, (2**63 - 1) // max(1, (p - 1) ** 2))
    if inner <= chunk:
        return (a @ b) % p
    acc = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for lo in range(0, inner, chunk):
        hi = min(lo + chunk, inner)
        acc = (acc + a[:, lo:hi] @ b[lo:hi, :]) % p
    return acc


def modular_rank_lower_bound(m: Matrix, p: int = WITNESS_PRIME) -> Optional[int]:
    """Rank mod p of a rational matrix, a certified lower bound for its exact rank, or None
    when some denominator vanishes mod p.  Only the tests and `bench/tracer.py` call it."""
    if m.field != QQ:
        raise ValueError("modular rank bounds apply to rational matrices")
    # Each row is scaled by the lcm of its denominators, a unit mod p unless
    # p divides one of them, so the rank mod p is that of the reduced rows.
    rows, scale = _integer_rows(QQ, m.rows)
    if scale % p == 0:
        return None
    return Matrix(GF(p), m.nrows, m.ncols, tuple(tuple(x % p for x in row) for row in rows)).rank()


def cauchy_determinant(field: Field, u: Sequence, v: Sequence):
    """Closed-form determinant of the matrix (1/(u_i + v_j)).

    Equals prod_{i<i'}(u_{i'}-u_i) * prod_{j<j'}(v_{j'}-v_j) / prod_{i,j}(u_i+v_j).
    """
    if len(u) != len(v):
        raise ValueError("u and v must have equal length")
    # Integer pairs (an int's denominator is 1), so only the quotient is normalized.
    u, v = ([(x.numerator, x.denominator) for x in map(field.validate, w)] for w in (u, v))
    num = den = 1
    for w in (u, v):
        for i, (a, b) in enumerate(w):
            for c, d in w[i + 1:]:
                num *= c * b - a * d
                den *= d * b
    sums = 1  # zero iff some u_i + v_j is: the characteristic is 0 or prime
    for a, b in u:
        for c, d in v:
            num *= b * d
            sums *= a * d + c * b
    if field.is_zero(field.of(sums)):
        raise ValueError("undefined Cauchy matrix entry: u_i + v_j = 0")
    return field.div(field.of(num), field.of(den * sums))


@dataclass(frozen=True)
class AntiTriangularization:
    """Outcome of the column-operation sweep that zeroes everything below the
    anti-diagonal.  On failure, `failure_index` is the 1-based index i of the
    first singular lower-left square block F_i (rows i..n, columns 1..n-i+1),
    checked in the sweep's order i = n, n-1, ..."""

    success: bool
    transformed: Optional[Matrix]
    failure_index: Optional[int]


def anti_triangularize(m: Matrix) -> AntiTriangularization:
    """Column reduction using only "subtract a multiple of an earlier column"
    operations.  Succeeds iff every lower-left square block is nonsingular;
    the transformed matrix then has nonzero anti-diagonal entries and zeros
    strictly below the anti-diagonal."""
    if m.nrows != m.ncols:
        raise ValueError("anti-triangularization requires a square matrix")
    n = m.nrows
    f = m.field
    cols = [list(col) for col in zip(*m.rows)] if n else []
    for s in range(n):
        pr = n - 1 - s
        pivot = cols[s][pr]
        if f.is_zero(pivot):
            return AntiTriangularization(False, None, n - s)
        inv_p = f.inv(pivot)
        for j in range(s + 1, n):
            val = cols[j][pr]
            if f.is_zero(val):
                continue
            factor = f.mul(val, inv_p)
            cols[j] = [f.sub(x, f.mul(factor, y)) for x, y in zip(cols[j], cols[s])]
    rows = tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))
    return AntiTriangularization(True, Matrix(f, n, n, rows), None)
