"""Dense exact matrices: reduced echelon form, rank, kernels, determinants,
the Cauchy-determinant closed form and anti-triangularization by column ops.

Entries are exact scalars of a single field.  Elimination over GF(p) is
vectorized with int64 numpy arrays when the modulus is small enough that no
intermediate product can overflow; the result is identical to the generic
exact routine.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

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
    def identity(cls, field: Field, n: int) -> "Matrix":
        z, o = field.zero, field.one
        return cls(field, n, n, tuple(tuple(o if i == j else z for j in range(n)) for i in range(n)))

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

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "Matrix":
        rows = tuple(tuple(self.rows[i][j] for j in col_idx) for i in row_idx)
        return Matrix(self.field, len(row_idx), len(col_idx), rows)

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
        if self.nrows == 0 or other.ncols == 0 or self.ncols == 0:
            return Matrix.zeros(self.field, self.nrows, other.ncols)
        f = self.field
        if isinstance(f, PrimeField) and f.p <= _NP_MAX_P:
            prod = _matmul_modp(self._np(), other._np(), f.p)
            return Matrix(f, self.nrows, other.ncols, tuple(tuple(int(x) for x in row) for row in prod))
        bt = other.transpose().rows
        mul, sm = f.mul, f.sum
        rows = tuple(tuple(sm(mul(a, b) for a, b in zip(row, col)) for col in bt) for row in self.rows)
        return Matrix(f, self.nrows, other.ncols, rows)

    def mul_vec(self, vec: Sequence):
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        f = self.field
        if isinstance(f, PrimeField):
            p = f.p
            return tuple(sum(a * b for a, b in zip(row, vec)) % p for row in self.rows)
        mul, sm = f.mul, f.sum
        return tuple(sm(mul(a, b) for a, b in zip(row, vec)) for row in self.rows)

    def _np(self) -> np.ndarray:
        return np.array(self.rows, dtype=np.int64).reshape(self.nrows, self.ncols)

    # -- elimination --------------------------------------------------------

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form and its pivot columns.

        Pivoting is deterministic: columns left to right, first nonzero row
        from the top.
        """
        if self._rref_cache is None:
            f = self.field
            if self.nrows == 0 or self.ncols == 0:
                self._rref_cache = (self, ())
            elif isinstance(f, PrimeField) and f.p <= _NP_MAX_P:
                arr, pivots = _rref_modp(self._np(), f.p)
                red = Matrix(f, self.nrows, self.ncols, tuple(tuple(int(x) for x in row) for row in arr))
                self._rref_cache = (red, tuple(pivots))
            else:
                rows, pivots = _rref_generic(f, self.rows, self.nrows, self.ncols)
                self._rref_cache = (Matrix(f, self.nrows, self.ncols, rows), tuple(pivots))
        return self._rref_cache

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> list[tuple]:
        """Basis of the null space, one vector per non-pivot column."""
        red, pivots = self.rref()
        f = self.field
        pivot_set = set(pivots)
        basis = []
        for free in range(self.ncols):
            if free in pivot_set:
                continue
            v = [f.zero] * self.ncols
            v[free] = f.one
            for row_i, pc in enumerate(pivots):
                v[pc] = f.neg(red.rows[row_i][free])
            basis.append(tuple(v))
        return basis

    def det(self):
        """Exact determinant via elimination; the empty 0x0 matrix has determinant 1."""
        if self.nrows != self.ncols:
            raise ValueError("determinant requires a square matrix")
        f = self.field
        n = self.nrows
        if n == 0:
            return f.one
        m = [list(row) for row in self.rows]
        sign = 1
        for c in range(n):
            pivot_row = None
            for i in range(c, n):
                if not f.is_zero(m[i][c]):
                    pivot_row = i
                    break
            if pivot_row is None:
                return f.zero
            if pivot_row != c:
                m[c], m[pivot_row] = m[pivot_row], m[c]
                sign = -sign
            inv_p = f.inv(m[c][c])
            for i in range(c + 1, n):
                if f.is_zero(m[i][c]):
                    continue
                factor = f.mul(m[i][c], inv_p)
                m[i] = [f.sub(x, f.mul(factor, y)) for x, y in zip(m[i], m[c])]
        out = f.one
        for i in range(n):
            out = f.mul(out, m[i][i])
        return out if sign == 1 else f.neg(out)


def _rref_generic(f: Field, rows, nrows: int, ncols: int):
    m = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if not f.is_zero(m[i][c]):
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            m[r], m[pivot_row] = m[pivot_row], m[r]
        inv_p = f.inv(m[r][c])
        m[r] = [f.mul(inv_p, x) for x in m[r]]
        for i in range(nrows):
            if i == r or f.is_zero(m[i][c]):
                continue
            factor = m[i][c]
            m[i] = [f.sub(x, f.mul(factor, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in m), pivots


def _rref_modp(a: np.ndarray, p: int):
    a = a % p
    nrows, ncols = a.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r] = a[r] * pow(int(a[r, c]), -1, p) % p
        col = a[:, c].copy()
        col[r] = 0
        a = (a - np.outer(col, a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots


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
    """Rank of the mod-p reduction of a rational matrix, a certified lower
    bound for the exact rank.  None when some denominator vanishes mod p."""
    if m.field != QQ:
        raise ValueError("modular rank bounds apply to rational matrices")
    gf = GF(p)
    reduced = []
    for row in m.rows:
        out = []
        for x in row:
            den = x.denominator % p
            if den == 0:
                return None
            out.append(x.numerator % p * pow(den, -1, p) % p)
        reduced.append(out)
    return Matrix(gf, m.nrows, m.ncols, tuple(tuple(r) for r in reduced)).rank()


def cauchy_determinant(field: Field, u: Sequence, v: Sequence):
    """Closed-form determinant of the matrix (1/(u_i + v_j)).

    Equals prod_{i<i'}(u_{i'}-u_i) * prod_{j<j'}(v_{j'}-v_j) / prod_{i,j}(u_i+v_j).
    """
    if len(u) != len(v):
        raise ValueError("u and v must have equal length")
    u = [field.validate(x) for x in u]
    v = [field.validate(x) for x in v]
    n = len(u)
    num = field.one
    for i in range(n):
        for k in range(i + 1, n):
            num = field.mul(num, field.sub(u[k], u[i]))
            num = field.mul(num, field.sub(v[k], v[i]))
    den = field.one
    for ui in u:
        for vj in v:
            s = field.add(ui, vj)
            if field.is_zero(s):
                raise ValueError("undefined Cauchy matrix entry: u_i + v_j = 0")
            den = field.mul(den, s)
    return field.div(num, den)


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


def rational_matrix(rows) -> Matrix:
    """Convenience constructor for matrices over the rationals."""
    return Matrix.from_rows(QQ, [[Fraction(x) for x in row] for row in rows])
