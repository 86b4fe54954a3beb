"""Standard graded Artinian algebras over an exact field.

An algebra is built from the base field by two kinds of steps:

* monic extension: B = A[x]/(f) with f = x^d + a_1 x^{d-1} + ... + a_d,
  each a_i homogeneous of degree i in A.  B is a free A-module with basis
  1, x, ..., x^{d-1}, so the degree-t component decomposes as
  B_t = A_t + A_{t-1} x + ... + A_{t-d+1} x^{d-1}.
* quotient by a nonzero homogeneous form g: B_t = A_t / g*A_{t-deg g}, on a
  subset of A's coordinates, with the projection A_t -> B_t stored for t >= deg g.

Each kind defines its product once, as a block map (`_map`): the base field
gives a scalar, an extension assembles its base's maps block by block, and a
quotient projects its parent's map.

Over GF(p) with p <= _NP_MAX_P an algebra is compiled on first use, by the
same block rule, to int64 tables mod p: generator tables X_g(t): A_t -> A_{t+1}
and factor tables e_c = g*P_g(i)e_c for each basis element e_c of A_i.  The map
of a linear form is sum_g lambda_g X_g; any other form w, of degree s, has the
degree chain M(0) = w, M(i)[:, C_g] = X_g(i+s-1) M(i-1) P_g(i).  Products use
the lower-degree factor's map.  Over QQ and larger primes `_map` is used, and an
algebra over QQ has a compiled image over GF(q) for rank checks (`image_of`).

All element and matrix arithmetic is exact.  Degrees above the socle degree
are genuine zero spaces: their elements have empty coefficient vectors and
maps into or out of them are empty matrices.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from typing import Optional, Sequence

import numpy as np

from .fields import GF, Field, PrimeField
from .linalg import _NP_MAX_P, Matrix, _matmul_modp, rank_of

# The largest prime below 2^28: 128 (q-1)^2 < 2^63, so `_matmul_modp` is unchunked to width 128.
IMAGE_PRIME = 268435399


class HomogeneousElement:
    """A homogeneous element: a degree plus a coefficient vector over the
    degree-d basis of its algebra."""

    __slots__ = ("algebra", "degree", "coeffs")

    def __init__(self, algebra: "GradedAlgebra", degree: int, coeffs: tuple):
        self.algebra = algebra
        self.degree = degree
        self.coeffs = coeffs

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __add__(self, other: "HomogeneousElement") -> "HomogeneousElement":
        _require_same_algebra(self, other)
        if self.degree != other.degree:
            raise ValueError("cannot add elements of different degrees")
        add = self.algebra.field.add
        return HomogeneousElement(
            self.algebra, self.degree, tuple(add(a, b) for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "HomogeneousElement") -> "HomogeneousElement":
        return self + (-other)

    def __neg__(self) -> "HomogeneousElement":
        neg = self.algebra.field.neg
        return HomogeneousElement(self.algebra, self.degree, tuple(neg(a) for a in self.coeffs))

    def scale(self, c) -> "HomogeneousElement":
        f = self.algebra.field
        c = f.validate(c)
        return HomogeneousElement(self.algebra, self.degree, tuple(f.mul(c, a) for a in self.coeffs))

    def __mul__(self, other: "HomogeneousElement") -> "HomogeneousElement":
        _require_same_algebra(self, other)
        return self.algebra.multiply(self, other)

    def __pow__(self, r: int) -> "HomogeneousElement":
        if r < 0:
            raise ValueError("negative powers are undefined")
        out = self.algebra.one()
        for _ in range(r):
            out = self.algebra.multiply(out, self)
        return out

    def __eq__(self, other):
        return (
            isinstance(other, HomogeneousElement)
            and self.algebra is other.algebra
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((id(self.algebra), self.degree, self.coeffs))

    def __str__(self):
        if self.is_zero():
            return "0"
        f = self.algebra.field
        labels = self.algebra.basis_labels(self.degree)
        terms = []
        for c, label in zip(self.coeffs, labels):
            if f.is_zero(c):
                continue
            if label == "1":
                terms.append(f.to_str(c))
            elif f.eq(c, f.one):
                terms.append(label)
            else:
                terms.append(f"{f.to_str(c)}*{label}")
        return " + ".join(terms)

    def __repr__(self):
        return f"<{self} : degree {self.degree}>"


def monomial_label(label: str, var: str, j: int) -> str:
    """Label of the monomial (label)*var^j, for the label of a monomial in the
    earlier variables: `1`, `x`, `x^j` and their products joined by `*`."""
    power = var if j == 1 else f"{var}^{j}"
    return label if j == 0 else power if label == "1" else f"{label}*{power}"


def _require_same_algebra(u: HomogeneousElement, v: HomogeneousElement) -> None:
    if u.algebra is not v.algebra:
        raise ValueError("elements belong to different algebras")


class MonicPoly:
    """A monic homogeneous polynomial x^d + a_1 x^{d-1} + ... + a_d over an
    algebra, with deg(a_i) = i."""

    __slots__ = ("algebra", "d", "lower")

    def __init__(self, algebra: "GradedAlgebra", d: int, lower: Sequence[HomogeneousElement]):
        if d < 1:
            raise ValueError("monic degree must be >= 1")
        if len(lower) != d:
            raise ValueError(f"expected {d} lower coefficients, got {len(lower)}")
        for i, a in enumerate(lower):
            if a.algebra is not algebra:
                raise ValueError("lower coefficient from a different algebra")
            if a.degree != i + 1:
                raise ValueError(f"lower coefficient {i + 1} has degree {a.degree}, expected {i + 1}")
        self.algebra = algebra
        self.d = d
        self.lower = tuple(lower)

    @classmethod
    def pure_power(cls, algebra: "GradedAlgebra", d: int) -> "MonicPoly":
        return cls(algebra, d, tuple(algebra.zero(i + 1) for i in range(d)))

    def evaluate(self, at: HomogeneousElement) -> HomogeneousElement:
        """Substitute a degree-1 element for the monic variable."""
        if at.algebra is not self.algebra:
            raise ValueError("evaluation point from a different algebra")
        if at.degree != 1:
            raise ValueError("evaluation point must have degree 1")
        out = at + self.lower[0]
        for a in self.lower[1:]:
            out = self.algebra.multiply(out, at) + a
        return out

    def scaled(self, c) -> "MonicPoly":
        """The polynomial x^d + sum c^i a_i x^{d-i}."""
        f = self.algebra.field
        c = f.validate(c)
        return MonicPoly(
            self.algebra,
            self.d,
            tuple(a.scale(f.pow(c, i)) for i, a in enumerate(self.lower, start=1)),
        )

    def is_pure_power(self) -> bool:
        return all(a.is_zero() for a in self.lower)

    def __repr__(self):
        return f"MonicPoly(degree {self.d})"


class GradedAlgebra:
    """Shared interface: dims, elements, multiplication and derived data."""

    field: Field
    dims: tuple[int, ...]
    _last = None  # (degree and coefficients of an element, its chain of maps so far)
    _compiled = False  # until `_tables` is first read
    _image = False  # over QQ, until `image_of` first reads it

    @property
    def sigma(self) -> int:
        """Socle degree: the largest t with a nonzero degree-t component."""
        return len(self.dims) - 1

    def dim(self, t: int) -> int:
        if 0 <= t <= self.sigma:
            return self.dims[t]
        return 0

    def multiplicity(self) -> int:
        return sum(self.dims)

    def hilbert_function(self) -> list[int]:
        return list(self.dims)

    # -- elements -------------------------------------------------------

    def element(self, degree: int, coeffs: Sequence) -> HomogeneousElement:
        n = self.dim(degree)
        coeffs = tuple(self.field.validate(c) for c in coeffs)
        if len(coeffs) != n:
            raise ValueError(f"degree-{degree} component has dimension {n}, got {len(coeffs)} coefficients")
        return HomogeneousElement(self, degree, coeffs)

    def zero(self, degree: int) -> HomogeneousElement:
        return HomogeneousElement(self, degree, (self.field.zero,) * self.dim(degree))

    def one(self) -> HomogeneousElement:
        return HomogeneousElement(self, 0, (self.field.one,))

    def random_element(self, degree: int, rng) -> HomogeneousElement:
        """Random coefficients over the degree-d basis; deterministic per rng state."""
        n = self.dim(degree)
        if n == 0:
            raise ValueError(f"no nonzero elements in degree {degree}")
        return HomogeneousElement(self, degree, tuple(self.field.random(rng) for _ in range(n)))

    # -- construction steps ----------------------------------------------

    def extend(self, var: str, f: MonicPoly) -> "ExtensionAlgebra":
        if f.algebra is not self:
            raise ValueError("monic polynomial defined over a different algebra")
        if var in self.variable_names():
            raise ValueError(f"variable name {var!r} already in use")
        return ExtensionAlgebra(self, var, f)

    def quotient(self, g: HomogeneousElement) -> "QuotientAlgebra":
        if g.algebra is not self:
            raise ValueError("form defined over a different algebra")
        return QuotientAlgebra(self, g)

    # -- core operations (overridden) -------------------------------------

    def _map(self, w: HomogeneousElement, i: int, cols: Sequence[int]) -> list[tuple]:
        """Rows of multiplication by w from degree i to degree i+deg w, keeping
        only the ascending source coordinates cols."""
        raise NotImplementedError

    def multiply(self, u: HomogeneousElement, v: HomogeneousElement) -> HomogeneousElement:
        """u*v: a scaled copy if a factor has degree 0, else the compiled map of
        the lower-degree factor, else `_product`."""
        _require_same_algebra(u, v)
        if u.algebra is not self:
            raise ValueError("elements belong to a different algebra")
        t = u.degree + v.degree
        if t > self.sigma:
            return self.zero(t)
        if not u.degree or not v.degree:  # a scalar times the other factor
            c, w = (u.coeffs[0], v) if not u.degree else (v.coeffs[0], u)
            return HomogeneousElement(self, t, tuple(self.field.mul(c, a) for a in w.coeffs))
        if not self._tables:
            return HomogeneousElement(self, t, self._product(u, v))
        u, v = (u, v) if u.degree <= v.degree else (v, u)
        col = np.array(v.coeffs, dtype=np.int64).reshape(-1, 1)
        product = _matmul_modp(self._table_map(u, v.degree), col, self.field.p)
        return HomogeneousElement(self, t, tuple(product[:, 0].tolist()))

    def _product(self, u: HomogeneousElement, v: HomogeneousElement) -> tuple:
        """Coefficients of u*v, by `_map` of u on the nonzero coordinates of v."""
        cols = [c for c, x in enumerate(v.coeffs) if x]
        rows = self._map(u, v.degree, cols)
        return Matrix(self.field, len(rows), len(cols), rows).mul_vec([v.coeffs[c] for c in cols])

    def variable_names(self) -> tuple[str, ...]:
        raise NotImplementedError

    def generators(self) -> tuple[HomogeneousElement, ...]:
        """Classes of the tower variables, in adjunction order."""
        raise NotImplementedError

    def basis_labels(self, degree: int) -> tuple[str, ...]:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    # -- derived data ------------------------------------------------------

    def generator(self, name: str) -> HomogeneousElement:
        for n, g in zip(self.variable_names(), self.generators()):
            if n == name:
                return g
        raise KeyError(f"no variable named {name!r}")

    def mult_map_matrix(self, w: HomogeneousElement, i: int) -> Matrix:
        """Matrix of multiplication by w from the degree-i to the degree-(i+deg w)
        component, in the stored bases."""
        if w.algebra is not self:
            raise ValueError("element belongs to a different algebra")
        nr, nc = self.dim(i + w.degree), self.dim(i)
        if nr == 0 or nc == 0:
            return Matrix.zeros(self.field, nr, nc)
        # entries come straight from field arithmetic, no re-validation needed
        rows = map(tuple, self._table_map(w, i).tolist()) if self._tables else self._map(w, i, range(nc))
        return Matrix(self.field, nr, nc, tuple(rows))

    @property
    def _tables(self) -> Optional[tuple[list, dict]]:
        """Generator tables X[g][t], t = 0..sigma, and factor tables F[i] = [(g, cols, P)],
        i = 1..sigma, with e_c = g * P[:, k] for the k-th c of cols and P[:, k] on the
        first len(P) coordinates of A_{i-1}: int64 arrays mod p, or None over QQ and for
        p > _NP_MAX_P.  Built by `_compile` on first use and kept by plain assignment: a
        cached_property's instance __dict__ would slow every attribute read."""
        if self._compiled is False:
            prime = isinstance(self.field, PrimeField) and self.field.p <= _NP_MAX_P
            self._compiled = self._compile() if prime else None
        return self._compiled

    def _table_map(self, w: HomogeneousElement, i: int) -> np.ndarray:
        """Map of w from degree i, from the compiled tables."""
        (X, F), p, s = self._tables, self.field.p, w.degree
        if s == 1:  # w = sum_g lambda_g g
            m = np.zeros((self.dim(i + 1), self.dim(i)), dtype=np.int64)
            for g, cols, P in F[1]:
                lam = sum(w.coeffs[c] * x for c, x in zip(cols, P[0].tolist())) % p
                if lam:
                    m = (m + lam * X[g][i]) % p
            return m
        if self._last is None or self._last[0] != (s, w.coeffs):  # no element kept: it would pin self in a cycle
            self._last = ((s, w.coeffs), [np.array(w.coeffs, dtype=np.int64).reshape(-1, 1)])
        maps = self._last[1]
        while len(maps) <= i:
            k = len(maps)
            m = np.zeros((self.dim(k + s), self.dim(k)), dtype=np.int64)
            for g, cols, P in F[k]:
                m[:, cols] = _matmul_modp(X[g][k + s - 1], _matmul_modp(maps[-1][:, :len(P)], P, p), p)
            maps.append(m)
        return maps[i]

    def image_of(self, w: HomogeneousElement) -> Optional[HomogeneousElement]:
        """w in the algebra's image: over QQ the tower replayed over GF(IMAGE_PRIME), with its
        relations and forms reduced, kept in `_image`; over GF(p) the algebra itself.  None
        when a denominator vanishes or a quotient's pivots move mod q, or p > _NP_MAX_P."""
        if isinstance(self.field, PrimeField):
            return w if self.field.p <= _NP_MAX_P else None
        if self._image is False:
            self._image = self._reduce()
        if self._image is None or not all(c.denominator % IMAGE_PRIME for c in w.coeffs):
            return None
        return HomogeneousElement(self._image, w.degree, tuple(map(self._image.field.of, w.coeffs)))

    def socle_dimensions(self) -> tuple[list[int], bool]:
        """Per-degree dimension of the common kernel of all degree-1 generator maps, ranked by
        `rank_of` on the image's stacked tables; the algebra is Gorenstein iff it is a line."""
        image, socle = self.image_of(self.one()), []
        b = None if image is None else image.algebra
        # A closure over the loop's t and n, called only in the iteration that ranks degree t.
        exact = None if b is self else lambda: Matrix.vstack(
            self.field, [self.mult_map_matrix(g, t) for g in self.generators()], n)
        for t, n in enumerate(self.dims):
            stack = b and np.array([X[t] for X in b._tables[0]], dtype=np.int64).reshape(-1, n)
            socle.append(n - rank_of(stack, b and b.field.p, exact, n))
        return socle, sum(socle) == 1

    def fingerprint(self) -> str:
        return hashlib.sha256(self.describe().encode()).hexdigest()[:16]

    def __repr__(self):
        return f"<{self.describe()}>"


class TrivialAlgebra(GradedAlgebra):
    """The base field itself, concentrated in degree 0."""

    def __init__(self, field: Field):
        self.field = field
        self.dims = (1,)

    def _map(self, w, i, cols):
        return [(w.coeffs[0],) * len(cols)] if i == w.degree == 0 else []

    def _compile(self):
        return [], {}

    def _reduce(self):
        return TrivialAlgebra(GF(IMAGE_PRIME))

    # Bound in each class, as is QuotientAlgebra.mult_map_matrix, because
    # bench/tracer.py wraps the methods it finds in each class's own namespace.
    multiply = GradedAlgebra.multiply

    def variable_names(self):
        return ()

    def generators(self):
        return ()

    def basis_labels(self, degree):
        return ("1",) if degree == 0 else ()

    def describe(self):
        return repr(self.field)


def trivial_algebra(field: Field) -> TrivialAlgebra:
    return TrivialAlgebra(field)


class ExtensionAlgebra(GradedAlgebra):
    """B = A[x]/(f) for a monic homogeneous f, as a free A-module on
    1, x, ..., x^{d-1}."""

    def __init__(self, base: GradedAlgebra, var: str, f: MonicPoly):
        self.field = base.field
        self.base = base
        self.var = var
        self.relation = f
        self.d = f.d
        # Degree t is laid out as segments (x-power j, start, end), one per
        # nonzero A_{t-j} x^j.  A base component is nonzero exactly up to its
        # socle degree, so j runs over [max(0, t - sigma_A), min(d - 1, t)].
        self._layouts: dict[int, list[tuple[int, int, int]]] = {}
        for t in range(base.sigma + f.d):
            seg, lo = [], 0
            for j in range(max(0, t - base.sigma), min(f.d - 1, t) + 1):
                seg.append((j, lo, lo + base.dims[t - j]))
                lo += base.dims[t - j]
            self._layouts[t] = seg
        self.dims = tuple(seg[-1][2] for seg in self._layouts.values())
        # x^m = sum_j rep[m][j] x^j with rep[m][j] in A_{m-j}; rows from m = d on built on demand.
        self._powers = [{m: base.one()} for m in range(f.d)]

    # -- component layout --------------------------------------------------

    def _layout(self, t: int) -> list[tuple[int, int, int]]:
        """Segments (x-power j, start, end) of the degree-t coefficient vector."""
        return self._layouts.get(t, [])

    # -- power reduction -----------------------------------------------------

    def _power_rep(self, m: int) -> dict[int, HomogeneousElement]:
        """x^m expressed over the module basis: slot j holds an element of
        A_{m-j}.  Built iteratively from x^d = -(a_1 x^{d-1} + ... + a_d)."""
        d = self.d
        while len(self._powers) <= m:
            prev = self._powers[-1]
            new = {jj + 1: w for jj, w in prev.items() if jj + 1 < d}
            for i, a in enumerate(self.relation.lower, start=1):
                if d - 1 in prev and not a.is_zero():
                    term = -self.base.multiply(prev[d - 1], a)
                    new[d - i] = new[d - i] + term if d - i in new else term
            self._powers.append(new)
        return self._powers[m]

    # -- ring structure ------------------------------------------------------

    def _map(self, w, i, cols):
        """Block (m, k), from A_{i-k} x^k to A_{i+deg w-m} x^m, is the base's
        map of sum_j w_j [x^m] x^{j+k}, where w = sum_j w_j x^j."""
        s, d = w.degree, self.d
        parts = {j: HomogeneousElement(self.base, s - j, w.coeffs[lo:hi])
                 for j, lo, hi in self._layout(s) if any(w.coeffs[lo:hi])}
        sources = []  # (k, first and end position in cols, coordinates within A_{i-k})
        for k, lo, hi in self._layout(i):
            a, b = bisect_left(cols, lo), bisect_left(cols, hi)
            if a < b:
                sources.append((k, a, b, [c - lo for c in cols[a:b]]))
        out = []
        for m, lo, hi in self._layout(i + s):
            rows = [[self.field.zero] * len(cols) for _ in range(hi - lo)]
            for k, a, b, sub in sources:
                block = parts.get(m - k)  # below x^d, x^{j+k} is the basis monomial x^m iff j = m-k
                for j, wj in parts.items():
                    if j + k >= d and (r := self._power_rep(j + k).get(m)) is not None:
                        term = self.base.multiply(wj, r)
                        block = term if block is None else block + term
                if block is not None and not block.is_zero():
                    for row, brow in zip(rows, self.base._map(block, i - k, sub)):
                        row[a:b] = brow
            out.extend(map(tuple, rows))
        return out

    multiply = GradedAlgebra.multiply

    def _compile(self):
        XA, FA = self.base._tables
        p, d, n, top = self.field.p, self.d, len(XA), self.sigma + 1
        seg = [{j: slice(lo, hi) for j, lo, hi in self._layout(t)} for t in range(top + 1)]
        X = [[np.zeros((self.dim(t + 1), self.dim(t)), dtype=np.int64) for t in range(top)] for _ in range(n + 1)]
        for t in range(top):
            for j, src in seg[t].items():
                if j in seg[t + 1]:  # a base generator acts on each block A_{t-j} x^j
                    for g in range(n):
                        X[g][t][seg[t + 1][j], src] = XA[g][t - j]
                if j + 1 < d:  # x shifts it to A_{t-j} x^{j+1}
                    X[n][t][seg[t + 1][j + 1], src] = np.eye(src.stop - src.start, dtype=np.int64)
        for i, a in enumerate(self.relation.lower, start=1):  # x * A_{t-d+1} x^{d-1} = -sum_i a_i A_{t-d+1} x^{d-i}
            for t in range(d - 1, top):
                if not a.is_zero() and d - 1 in seg[t] and d - i in seg[t + 1]:
                    X[n][t][seg[t + 1][d - i], seg[t][d - 1]] = -self.base._table_map(a, t - d + 1) % p
        F = {}
        for i in range(1, top):
            F[i] = list(FA.get(i, ()))  # A_{i-1} leads B_{i-1}, so the base's P stay as they are
            cols = [c for j, lo, hi in self._layout(i) if j for c in range(lo, hi)]
            if cols:  # a x^j = x * a x^{j-1}
                P = np.zeros((self.dim(i - 1), len(cols)), dtype=np.int64)
                P[[r for j, lo, hi in self._layout(i - 1) if j < d - 1 for r in range(lo, hi)], range(len(cols))] = 1
                F[i].append((n, cols, P))
        return X, F

    def _reduce(self):
        lower = [self.base.image_of(a) for a in self.relation.lower]
        return None if None in lower else lower[0].algebra.extend(self.var, MonicPoly(lower[0].algebra, self.d, lower))

    def include(self, u: HomogeneousElement) -> HomogeneousElement:
        """Image of a base-algebra element under the inclusion into the extension."""
        if u.algebra is not self.base:
            raise ValueError("element does not belong to the base algebra")
        # The x^0 segment comes first in every degree.
        pad = (self.field.zero,) * (self.dim(u.degree) - len(u.coeffs))
        return HomogeneousElement(self, u.degree, u.coeffs + pad)

    def variable_names(self):
        return self.base.variable_names() + (self.var,)

    def generators(self):
        lifted = tuple(self.include(g) for g in self.base.generators())
        if self.d == 1:  # x = -a_1
            return lifted + (self.include(-self.relation.lower[0]),)
        # x is the basis vector of A_0 x, after A_1.
        f = self.field
        return lifted + (HomogeneousElement(self, 1, (f.zero,) * self.base.dim(1) + (f.one,)),)

    def basis_labels(self, degree):
        return tuple(monomial_label(bl, self.var, j)
                     for j, lo, hi in self._layout(degree) for bl in self.base.basis_labels(degree - j))

    def describe(self):
        f = self.field
        lows = ";".join(",".join(f.to_str(c) for c in a.coeffs) for a in self.relation.lower)
        return f"{self.base.describe()}[{self.var}:deg {self.d}:low {lows}]"


class QuotientAlgebra(GradedAlgebra):
    """B = A/(g) for a nonzero homogeneous form g of degree >= 1.

    The degree-t basis consists of the parent basis coordinates `_kept[t]`
    not needed to span g*A_{t-deg g}.  A class lifts to the parent element
    with those coordinates, and the projection (pi) relative to the parent is
    stored in each degree t >= deg g; below it B_t = A_t and pi is the identity.
    """

    def __init__(self, parent: GradedAlgebra, g: HomogeneousElement):
        if g.is_zero():
            raise ValueError("cannot divide by the zero form")
        if g.degree < 1:
            raise ValueError("quotient form must have degree >= 1")
        self.field = parent.field
        self.parent = parent
        self.form = g
        d = g.degree
        pi: dict[int, Matrix] = {}
        kept: dict[int, tuple[int, ...]] = {}
        dims = []
        for t in range(parent.sigma + 1):
            n = parent.dim(t)
            if t < d:
                kept[t] = tuple(range(n))
                dims.append(n)
                continue
            # pi kills g*A_{t-d}: its rows are the kernel basis of the image's
            # transpose, one per non-pivot coordinate, and those are kept.
            image = parent.mult_map_matrix(g, t - d).transpose()
            pivots = set(image.rref()[1])
            keep = tuple(c for c in range(n) if c not in pivots)
            if not keep:
                break
            pi[t] = Matrix(self.field, len(keep), n, tuple(image.kernel_basis()))
            kept[t] = keep
            dims.append(len(keep))
        self.dims = tuple(dims)
        self._pi = pi
        self._kept = kept

    def lift(self, u: HomogeneousElement) -> HomogeneousElement:
        """Coset representative in the parent algebra."""
        if u.algebra is not self:
            raise ValueError("element belongs to a different algebra")
        coeffs = [self.field.zero] * self.parent.dim(u.degree)
        for q, c in zip(self._kept.get(u.degree, ()), u.coeffs):
            coeffs[q] = c
        return HomogeneousElement(self.parent, u.degree, tuple(coeffs))

    def project(self, pu: HomogeneousElement) -> HomogeneousElement:
        """Class of a parent element."""
        if pu.algebra is not self.parent:
            raise ValueError("element does not belong to the parent algebra")
        t = pu.degree
        if t > self.sigma:
            return self.zero(t)
        return HomogeneousElement(self, t, self._pi[t].mul_vec(pu.coeffs) if t in self._pi else pu.coeffs)

    def _map(self, w, i, cols):
        t = i + w.degree
        if t > self.sigma:
            return []
        inner = self.parent._map(self.lift(w), i, [self._kept[i][c] for c in cols])
        if t not in self._pi:
            return inner
        return list((self._pi[t] @ Matrix(self.field, len(inner), len(cols), tuple(inner))).rows)

    def _compile(self):
        XA, FA = self.parent._tables
        p, kept = self.field.p, self._kept
        pi = {t: m._np() for t, m in self._pi.items()}

        def project(t, m):  # pi_t m; no rows above the socle degree
            return m[:0] if t > self.sigma else _matmul_modp(pi[t][:, :len(m)], m, p) if t in pi else m

        X = [[project(t + 1, Xg[t][:, kept[t]]) for t in range(self.sigma + 1)] for Xg in XA]
        F = {}
        for i in range(1, self.sigma + 1):
            pos = {q: c for c, q in enumerate(kept[i])}
            F[i] = [(g, [pos[q] for q in cols if q in pos], project(i - 1, P[:, [q in pos for q in cols]]))
                    for g, cols, P in FA[i]]
        return X, F

    def _reduce(self):
        g = self.parent.image_of(self.form)
        if g is None or g.is_zero():
            return None
        image = g.algebra.quotient(g)  # equal pivots keep pi q-integral: its tables reduce ours
        return image if image._kept == self._kept else None

    mult_map_matrix = GradedAlgebra.mult_map_matrix
    multiply = GradedAlgebra.multiply

    def variable_names(self):
        return self.parent.variable_names()

    def generators(self):
        return tuple(self.project(g) for g in self.parent.generators())

    def basis_labels(self, degree):
        if degree > self.sigma:
            return ()
        parent_labels = self.parent.basis_labels(degree)
        return tuple(parent_labels[i] for i in self._kept[degree])

    def describe(self):
        f = self.field
        coeffs = ",".join(f.to_str(c) for c in self.form.coeffs)
        return f"{self.parent.describe()}/(deg {self.form.degree}: {coeffs})"


def monomial_complete_intersection(field: Field, exponents: Sequence[int], var_prefix: str = "x") -> GradedAlgebra:
    """K[x_1, ..., x_n]/(x_1^{a_1}, ..., x_n^{a_n}) as an iterated pure-power
    extension."""
    algebra: GradedAlgebra = trivial_algebra(field)
    for i, a in enumerate(exponents, start=1):
        if a < 1:
            raise ValueError("exponents must be >= 1")
        algebra = algebra.extend(f"{var_prefix}{i}", MonicPoly.pure_power(algebra, a))
    return algebra


def check_symmetric_unimodal(h: Sequence[int]) -> tuple[bool, bool]:
    """Whether a Hilbert function is symmetric (h_i = h_{sigma-i}) and
    unimodal (nondecreasing, then nonincreasing)."""
    n = len(h)
    symmetric = all(h[i] == h[n - 1 - i] for i in range(n))
    i = 0
    while i + 1 < n and h[i] <= h[i + 1]:
        i += 1
    unimodal = all(h[j] >= h[j + 1] for j in range(i, n - 1))
    return symmetric, unimodal
