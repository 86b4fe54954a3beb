"""Mechanical verification of the linear-algebra machinery behind the
extension theorem: power-reduction coefficients and their closed form, the
block matrix describing multiplication by x^q on A[x]/((a+x)^k), the
normalized coefficient matrix, Cauchy-type nonsingularity, the duality of
Lefschetz testing across A/(f) and A/(g), the scaling trick for monic
substitutions, characteristic bounds, and the injectivity/surjectivity
classification for Gorenstein algebras.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .algebra import ExtensionAlgebra, GradedAlgebra, HomogeneousElement, MonicPoly
from .certify import RankProfile, is_lefschetz
from .fields import QQ, PrimeField, binomial
from .linalg import Matrix, cauchy_determinant, exact_rank


class ScalingSearchError(RuntimeError):
    """No nonzero scaling constant worked within the search bound."""


class ClassificationMismatchError(RuntimeError):
    """The predicted injectivity/surjectivity disagrees with the exact rank."""


# -- reduction coefficients -------------------------------------------------


def c_coefficient(r: int, j: int, k: int) -> Fraction:
    """Coefficient of a^{r-j} x^j in the reduction of x^r modulo (a+x)^k.

    Kronecker delta for r <= k-1; for r >= k the closed form
    (-1)^{r-k-1} * binomial(r,k) * binomial(k-1,j) * k/(r-j).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0 <= j <= k - 1:
        raise ValueError(f"j must lie in [0, {k - 1}], got {j}")
    if r < 0:
        raise ValueError("r must be >= 0")
    if r <= k - 1:
        return Fraction(1 if r == j else 0)
    sign = -1 if (r - k - 1) % 2 else 1
    return Fraction(sign * binomial(r, k) * binomial(k - 1, j) * k, r - j)


@dataclass(frozen=True)
class ReductionTable:
    """Rows r = 0..r_max of coefficients (c_{r0}, ..., c_{r,k-1}) obtained by
    literal rewriting, treating a as a formal degree-1 symbol."""

    k: int
    rows: tuple[tuple[Fraction, ...], ...]

    def row(self, r: int) -> tuple[Fraction, ...]:
        return self.rows[r]


def power_reduction_table(k: int, r_max: int) -> ReductionTable:
    """Build the reduction table by induction: start from the Kronecker rows
    and push each row through multiplication by x, replacing x^k via
    x^k = -(binom(k,0) a^k + ... + binom(k,k-1) a x^{k-1})."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if r_max < 0:
        raise ValueError("r_max must be >= 0")
    rows = [tuple(Fraction(1 if r == j else 0) for j in range(k)) for r in range(min(k, r_max + 1))]
    while len(rows) <= r_max:
        prev = rows[-1]
        top = prev[k - 1]
        new = [-top * binomial(k, 0)] + [prev[j - 1] - top * binomial(k, j) for j in range(1, k)]
        rows.append(tuple(new))
    return ReductionTable(k, tuple(rows))


def verify_binomial_identity(r: int, j: int, k: int) -> bool:
    """binomial(r-j-1, r-k)*binomial(r,j) == (k/(r-j))*binomial(r,k)*binomial(k-1,j)."""
    if not (r >= k >= 1 and 0 <= j <= k - 1):
        raise ValueError("requires r >= k >= 1 and 0 <= j <= k-1")
    lhs = Fraction(binomial(r - j - 1, r - k) * binomial(r, j))
    rhs = Fraction(k, r - j) * binomial(r, k) * binomial(k - 1, j)
    return lhs == rhs


# -- block matrix machinery ---------------------------------------------------


def binomial_power_extension(a: GradedAlgebra, elem: HomogeneousElement, k: int) -> ExtensionAlgebra:
    """A[x]/((elem + x)^k), expanded into the monic form
    x^k + sum binomial(k,i) elem^i x^{k-i}."""
    if elem.degree != 1:
        raise ValueError("elem must have degree 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    lower = [(elem**i).scale(a.field.of(binomial(k, i))) for i in range(1, k + 1)]
    return a.extend("x", MonicPoly(a, k, lower))


def block_grid_dims(a: GradedAlgebra, k: int, q: int, t: int) -> tuple[list[int], list[int]]:
    """Row-block and column-block dimensions of the block matrix: block row j
    is the component A_{t+q-j} x^j of the target, block column i the
    component A_{t-i} x^i of the source."""
    return [a.dim(t + q - j) for j in range(k)], [a.dim(t - i) for i in range(k)]


def build_block_matrix(a: GradedAlgebra, elem: HomogeneousElement, k: int, q: int, t: int) -> Matrix:
    """Matrix of multiplication by x^q from degree t to degree t+q on
    B = A[x]/((elem+x)^k), assembled blockwise from reduction coefficients
    and multiplication matrices of powers of elem:
    block (j, i) = c_{q+i,j} * (elem^{q+i-j}: A_{t-i} -> A_{t+q-j})."""
    if elem.algebra is not a:
        raise ValueError("elem belongs to a different algebra")
    if elem.degree != 1:
        raise ValueError("elem must have degree 1")
    if k < 1 or q < 1:
        raise ValueError("k and q must be >= 1")
    f = a.field
    row_dims, col_dims = block_grid_dims(a, k, q, t)
    powers = [a.one()]
    for _ in range(q + k - 1):
        powers.append(a.multiply(powers[-1], elem))
    nrows, ncols = sum(row_dims), sum(col_dims)
    grid = [[f.zero] * ncols for _ in range(nrows)]
    row_off = 0
    for j in range(k):
        if row_dims[j] == 0:
            continue
        col_off = 0
        for i in range(k):
            if col_dims[i] == 0:
                continue
            c = c_coefficient(q + i, j, k)
            if c != 0:
                scalar = f.of(c)
                alpha = a.mult_map_matrix(powers[q + i - j], t - i)
                for bi in range(alpha.nrows):
                    row = grid[row_off + bi]
                    for bj in range(alpha.ncols):
                        row[col_off + bj] = f.mul(scalar, alpha.rows[bi][bj])
            col_off += col_dims[i]
        row_off += row_dims[j]
    return Matrix(f, nrows, ncols, tuple(tuple(row) for row in grid))


def coefficient_matrix_L(q: int, k: int) -> tuple[Matrix, Matrix]:
    """The s x s coefficient matrix of the reduced block matrix, both in raw
    form L = (c_{r+col, row}) and after the sign/binomial normalization that
    turns entry (row, col) into 1/(r - row + col), where r = max(q, k) and
    s = min(q, k)."""
    if q < 1 or k < 1:
        raise ValueError("q and k must be >= 1")
    r, s = max(q, k), min(q, k)
    raw = Matrix.from_rows(
        QQ, [[c_coefficient(r + col, row, k) for col in range(s)] for row in range(s)]
    )
    normalized = Matrix.from_rows(
        QQ, [[Fraction(1, r - row + col) for col in range(s)] for row in range(s)]
    )
    return normalized, raw


def column_normalizer(m: int, k: int) -> Fraction:
    """Factor dividing the column with coefficient subscript m: (-1)^{m-k-1} binom(m,k) k."""
    sign = -1 if (m - k - 1) % 2 else 1
    return Fraction(sign * binomial(m, k) * k)


def row_normalizer(i: int, k: int) -> Fraction:
    """Factor dividing row i: binom(k-1, i)."""
    return Fraction(binomial(k - 1, i))


def s_matrix(r: int, t: int) -> Matrix:
    """The (t+1) x (t+1) matrix with entries 1/(r-i+j); defined for r > t."""
    if not r > t >= 0:
        raise ValueError("requires r > t >= 0 so that all entries are finite")
    return Matrix.from_rows(
        QQ, [[Fraction(1, r - i + j) for j in range(t + 1)] for i in range(t + 1)]
    )


def s_matrix_nonsingular(r: int, t: int) -> tuple[bool, Fraction]:
    """Determinant of the shifted reciprocal matrix by elimination, cross-checked
    against the Cauchy closed form with u_i = r-i, v_j = j."""
    s = s_matrix(r, t)
    det_elim = s.det()
    det_cauchy = cauchy_determinant(
        QQ, [Fraction(r - i) for i in range(t + 1)], [Fraction(j) for j in range(t + 1)]
    )
    if det_elim != det_cauchy:
        raise RuntimeError(f"elimination {det_elim} != Cauchy form {det_cauchy} at r={r}, t={t}")
    return det_elim != 0, det_elim


# -- duality and scaling ------------------------------------------------------


@dataclass(frozen=True)
class DualityOutcome:
    """Lefschetz status of f(elem) on A versus elem - x on A[x]/(f)."""

    lhs: bool
    rhs: bool

    @property
    def agree(self) -> bool:
        return self.lhs == self.rhs


def _fresh_var(a: GradedAlgebra) -> str:
    names = set(a.variable_names())
    if "w" not in names:
        return "w"
    i = 1
    while f"w{i}" in names:
        i += 1
    return f"w{i}"


def verify_duality_instance(a: GradedAlgebra, f: MonicPoly, elem: HomogeneousElement) -> DualityOutcome:
    """Test one instance of the duality: f(elem) is Lefschetz for A exactly
    when elem - x is Lefschetz for A[x]/(f)."""
    if f.algebra is not a or elem.algebra is not a:
        raise ValueError("inputs must live over the given algebra")
    if elem.degree != 1:
        raise ValueError("elem must have degree 1")
    lhs, _ = is_lefschetz(a, f.evaluate(elem))
    b = a.extend(_fresh_var(a), f)
    x_class = b.generators()[-1]
    rhs, _ = is_lefschetz(b, b.include(elem) - x_class)
    return DualityOutcome(lhs, rhs)


@dataclass(frozen=True)
class ScalingCertificate:
    c: object  # field scalar
    trials_used: int
    element: str
    profile: RankProfile


def find_scaling(a: GradedAlgebra, l: HomogeneousElement, f: MonicPoly) -> ScalingCertificate:
    """Search c = 1, 2, 3, ... (as field elements) until f_c(l) is Lefschetz,
    where f_c rescales the i-th lower coefficient by c^i.  Then l/c satisfies
    f(l/c) = f_c(l)/c^d, which is verified exactly as a side assertion."""
    if l.algebra is not a or f.algebra is not a:
        raise ValueError("inputs must live over the given algebra")
    if l.degree != 1:
        raise ValueError("l must have degree 1")
    fld = a.field
    limit = a.multiplicity() + 1
    if isinstance(fld, PrimeField) and fld.p <= a.multiplicity():
        raise ValueError(f"field with {fld.p} elements is too small: need more than e(A) = {a.multiplicity()}")
    for n in range(1, limit + 1):
        c = fld.of(n)
        if fld.is_zero(c):
            continue
        value = f.scaled(c).evaluate(l)
        ok, profile = is_lefschetz(a, value)
        if ok:
            inv_c = fld.inv(c)
            lhs = f.evaluate(l.scale(inv_c))
            rhs = value.scale(fld.pow(inv_c, f.d))
            if lhs != rhs:
                raise RuntimeError("scaling identity f(l/c) = f_c(l)/c^d failed")
            return ScalingCertificate(c, n, str(value), profile)
    raise ScalingSearchError(f"scaling search failed after {limit} candidates")


# -- characteristic bounds and rank classification ----------------------------


def char_bound(q: int, sigma: int, e: int, pure_power: bool) -> int:
    """Characteristic threshold guaranteeing the strong Lefschetz property of
    a degree-q monic extension: 2q+sigma-1 for a pure power, otherwise
    max(e, 2q+sigma-1)."""
    if q < 1 or sigma < 0 or e < 1:
        raise ValueError("requires q >= 1, sigma >= 0, e >= 1")
    bound = 2 * q + sigma - 1
    return bound if pure_power else max(e, bound)


def classify_injective_surjective(a: GradedAlgebra, l: HomogeneousElement, i: int, j: int) -> str:
    """Predict injectivity/surjectivity of l^{j-i}: A_i -> A_j from the
    symmetric unimodal Hilbert function (injective iff i <= sigma-j,
    surjective iff i >= sigma-j) and verify against the exact rank."""
    if not 0 <= i < j:
        raise ValueError("requires 0 <= i < j")
    if l.degree != 1:
        raise ValueError("l must have degree 1")
    sigma = a.sigma
    rank = exact_rank(a.mult_map_matrix(l ** (j - i), i))
    di, dj = a.dim(i), a.dim(j)
    injective = rank == di
    surjective = rank == dj
    if i <= sigma - j and not injective:
        raise ClassificationMismatchError(
            f"predicted injective for (i,j)=({i},{j}) but rank {rank} < dim {di}"
        )
    if i >= sigma - j and not surjective:
        raise ClassificationMismatchError(
            f"predicted surjective for (i,j)=({i},{j}) but rank {rank} < dim {dj}"
        )
    if injective and surjective:
        return "both"
    return "injective" if injective else "surjective"


@dataclass(frozen=True)
class DisproofCertificate:
    """Exact dimension argument that a specific power of a specific element
    multiplies with non-maximal rank, so the element is not strong Lefschetz:
    dim A_i + dim C_{i+r} > dim A_{i+r} and dim C_{i+r} > 0 for C = A/(l^r)."""

    element: str
    power: int
    degree: int
    dim_source: int
    dim_target: int
    quotient_dim: int
    rank: int

    @property
    def inequality(self) -> str:
        return f"{self.dim_source} + {self.quotient_dim} > {self.dim_target}"

    def summary(self) -> str:
        return (
            f"map by power {self.power} from degree {self.degree} is neither injective nor "
            f"surjective: rank {self.rank} with dims {self.dim_source} -> {self.dim_target} "
            f"({self.inequality})"
        )


def certified_slp_disproof(a: GradedAlgebra, l: HomogeneousElement, r: int, i: int) -> Optional[DisproofCertificate]:
    """Quotient-dimension disproof: compute C = A/(l^r) and certify that
    l^r: A_i -> A_{i+r} is neither injective nor surjective whenever
    dim A_i + dim C_{i+r} > dim A_{i+r} and dim C_{i+r} > 0."""
    if l.degree != 1:
        raise ValueError("l must have degree 1")
    if l.algebra is not a:
        raise ValueError("element belongs to a different algebra")
    if r < 1 or i < 0:
        raise ValueError("requires r >= 1 and i >= 0")
    power = l**r
    return _disproof_from_quotient(a, l, r, i, a if power.is_zero() else a.quotient(power))


def _disproof_from_quotient(a: GradedAlgebra, l: HomogeneousElement, r: int, i: int,
                            c_alg: GradedAlgebra) -> Optional[DisproofCertificate]:
    """The certificate of certified_slp_disproof, given C = A/(l^r) (which is A when l^r = 0)."""
    src, tgt = a.dim(i), a.dim(i + r)
    dim_c = c_alg.dim(i + r)
    if dim_c > 0 and src + dim_c > tgt:
        return DisproofCertificate(str(l), r, i, src, tgt, dim_c, tgt - dim_c)
    return None
