"""Independent reference model for monomial complete intersections: plain
dict-based polynomial arithmetic over exponent vectors, a no-numpy row
reduction mod p, and Gauss-Jordan elimination by a field's own operations.
Used as an oracle against the package implementation.  The constructors of
package matrices at the end serve the tests alone."""

import itertools
from fractions import Fraction

from lefschetz.fields import QQ
from lefschetz.linalg import Matrix


def monomials_of_degree(caps, d):
    return sorted(
        e for e in itertools.product(*[range(c) for c in caps]) if sum(e) == d
    )


def poly_mul(caps, P, Q, p):
    R = {}
    for e1, c1 in P.items():
        for e2, c2 in Q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            if all(x < c for x, c in zip(e, caps)):
                R[e] = (R.get(e, 0) + c1 * c2) % p
    return {e: c for e, c in R.items() if c}


def poly_power(caps, P, n, p):
    out = {tuple(0 for _ in caps): 1}
    for _ in range(n):
        out = poly_mul(caps, out, P, p)
    return out


def mult_matrix(caps, P, dP, i, p):
    """Rows of multiplication by P from degree i to degree i+dP, as lists."""
    source = monomials_of_degree(caps, i)
    target = monomials_of_degree(caps, i + dP)
    index = {m: r for r, m in enumerate(target)}
    mat = [[0] * len(source) for _ in target]
    for c, m in enumerate(source):
        for e, coef in poly_mul(caps, P, {m: 1}, p).items():
            mat[index[e]][c] = coef
    return mat


def rank_mod(rows, p):
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, nrows) if m[i][c] % p), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][c], -1, p)
        m[rank] = [x * inv % p for x in m[rank]]
        for i in range(nrows):
            if i != rank and m[i][c] % p:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def rref_generic(f, rows, nrows, ncols):
    """Reduced row echelon form and pivot columns by Gauss-Jordan elimination
    with the field f's scalar operations: pivot in the leftmost column left,
    first nonzero row from the top."""
    m = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        i = next((i for i in range(r, nrows) if not f.is_zero(m[i][c])), None)
        if i is None:
            continue
        m[r], m[i] = m[i], m[r]
        inv_p = f.inv(m[r][c])
        m[r] = [f.mul(inv_p, x) for x in m[r]]
        for i in range(nrows):
            if i != r and not f.is_zero(m[i][c]):
                factor = m[i][c]
                m[i] = [f.sub(x, f.mul(factor, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return tuple(tuple(row) for row in m), pivots


def hstack(a, b):
    return [ra + rb for ra, rb in zip(a, b)]


def label_to_exponents(label, nvars, prefix="x"):
    e = [0] * nvars
    if label == "1":
        return tuple(e)
    for part in label.split("*"):
        if "^" in part:
            v, k = part.split("^")
            k = int(k)
        else:
            v, k = part, 1
        e[int(v[len(prefix):]) - 1] = k
    return tuple(e)


def rational_matrix(rows):
    """Matrix over the rationals from rows of ints or Fractions."""
    return Matrix.from_rows(QQ, [[Fraction(x) for x in row] for row in rows])


def identity(field, n):
    z, o = field.zero, field.one
    return Matrix(field, n, n, tuple(tuple(o if i == j else z for j in range(n)) for i in range(n)))


def submatrix(m, row_idx, col_idx):
    rows = tuple(tuple(m.rows[i][j] for j in col_idx) for i in row_idx)
    return Matrix(m.field, len(row_idx), len(col_idx), rows)


def projection_matrix(b, t):
    """The matrix of a quotient b's projection from its parent in degree t."""
    return b._pi[t] if t >= b.form.degree else identity(b.field, b.dim(t))


def section_matrix(b, t):
    """The matrix of b.lift in degree t: column j is the parent basis vector b._kept[t][j]."""
    f, keep = b.field, b._kept[t]
    rows = tuple(tuple(f.one if q == r else f.zero for q in keep) for r in range(b.parent.dim(t)))
    return Matrix(f, b.parent.dim(t), len(keep), rows)
