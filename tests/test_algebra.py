import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from lefschetz.algebra import (
    IMAGE_PRIME,
    GradedAlgebra,
    MonicPoly,
    QuotientAlgebra,
    check_symmetric_unimodal,
    monomial_complete_intersection,
    trivial_algebra,
)
from lefschetz.fields import GF, QQ
from lefschetz.linalg import Matrix, rank_of

import indep


def series_product(*factors):
    """Convolution of Hilbert series given as coefficient lists."""
    out = [1]
    for f in factors:
        new = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                new[i + j] += a * b
        out = new
    return out


class TestConstruction:
    def test_trivial(self):
        for field in (QQ, GF(7)):
            k = trivial_algebra(field)
            assert k.hilbert_function() == [1]
            assert k.multiplicity() == 1 and k.sigma == 0

    def test_pure_power_chain(self):
        a = monomial_complete_intersection(QQ, (3,))
        assert a.hilbert_function() == [1, 1, 1]

    def test_extension_dims_are_series_products(self):
        a = monomial_complete_intersection(QQ, (2, 3))
        assert a.hilbert_function() == series_product([1, 1], [1, 1, 1]) == [1, 2, 2, 1]

    def test_big_tower(self):
        a = monomial_complete_intersection(QQ, (4, 4, 4, 4, 2))
        assert a.multiplicity() == 512
        assert a.sigma == 13
        assert a.dim(1) == 5
        assert a.hilbert_function() == series_product(
            [1, 1, 1, 1], [1, 1, 1, 1], [1, 1, 1, 1], [1, 1, 1, 1], [1, 1]
        )

    def test_general_monic_extension_dims(self):
        a = monomial_complete_intersection(QQ, (4,), var_prefix="u")
        u = a.generators()[0]
        f = MonicPoly(a, 2, [u, u * u])  # y^2 + u*y + u^2
        b = a.extend("y", f)
        assert b.hilbert_function() == series_product([1, 1, 1, 1], [1, 1])

    def test_degree_mismatch_rejected(self):
        a = monomial_complete_intersection(QQ, (3,))
        u = a.generators()[0]
        with pytest.raises(ValueError):
            MonicPoly(a, 2, [u * u, a.zero(2)])  # a_1 must have degree 1

    def test_duplicate_variable_rejected(self):
        a = monomial_complete_intersection(QQ, (2,))
        with pytest.raises(ValueError):
            a.extend("x1", MonicPoly.pure_power(a, 2))

    def test_random_tower_dims_match_convolution(self):
        rng = random.Random(2)
        for _ in range(10):
            degrees = [rng.randint(1, 6) for _ in range(rng.randint(1, 4))]
            while True:
                e = 1
                for d in degrees:
                    e *= d
                if e <= 1000:
                    break
                degrees.pop()
            a = monomial_complete_intersection(QQ, degrees)
            assert a.hilbert_function() == series_product(*[[1] * d for d in degrees])


class TestMultiplication:
    def test_square_of_sum(self):
        a = monomial_complete_intersection(QQ, (2, 2))
        x, y = a.generators()
        sq = (x + y) * (x + y)
        assert str(sq) == "2*x1*x2"
        assert sq == (x * y).scale(Fraction(2))

    def test_top_degree_truncates(self):
        a = monomial_complete_intersection(QQ, (3,))
        x = a.generators()[0]
        assert (x * (x * x)).is_zero()
        assert (x * (x * x)).degree == 3

    def test_char_two_collapse(self):
        a = monomial_complete_intersection(GF(2), (2, 2))
        x, y = a.generators()
        assert ((x + y) * (x + y)).is_zero()

    def test_algebra_mismatch_rejected(self):
        a = monomial_complete_intersection(QQ, (2, 2))
        b = monomial_complete_intersection(QQ, (2, 2))
        with pytest.raises(ValueError):
            a.generators()[0] * b.generators()[0]

    def test_associative_commutative_random(self):
        rng = random.Random(4)
        algebras = [
            monomial_complete_intersection(QQ, (3, 2)),
            monomial_complete_intersection(GF(101), (2, 2, 2)),
        ]
        a = monomial_complete_intersection(QQ, (2, 4))
        algebras.append(a.quotient(a.random_element(2, rng)))
        for alg in algebras:
            for _ in range(15):
                du = rng.randint(1, 2)
                dv = rng.randint(0, 2)
                dw = rng.randint(0, 1)
                u = alg.random_element(du, rng)
                v = alg.random_element(dv, rng)
                w = alg.random_element(dw, rng)
                assert u * v == v * u
                assert (u * v) * w == u * (v * w)

    def test_general_relation_rewrites(self):
        # y^2 = -u*y - u^2 in the extended algebra
        a = monomial_complete_intersection(QQ, (4,), var_prefix="u")
        u = a.generators()[0]
        b = a.extend("y", MonicPoly(a, 2, [u, u * u]))
        ub, yb = b.generators()
        lhs = yb * yb
        rhs = -(ub * yb) - ub * ub
        assert lhs == rhs


class TestMultMapMatrix:
    def test_shape_and_rank(self):
        a = monomial_complete_intersection(QQ, (2, 2))
        x, y = a.generators()
        m = a.mult_map_matrix(x + y, 1)
        assert (m.nrows, m.ncols) == (1, 2)  # A_2 is one-dimensional
        assert m.rank() == 1

    def test_one_variable(self):
        a = monomial_complete_intersection(QQ, (3,))
        x = a.generators()[0]
        m = a.mult_map_matrix(x, 0)
        assert m.rows == ((Fraction(1),),)

    def test_zero_element(self):
        a = monomial_complete_intersection(QQ, (2, 2))
        m = a.mult_map_matrix(a.zero(1), 1)
        assert m.is_zero() and (m.nrows, m.ncols) == (1, 2)

    def test_power_equals_composition(self):
        rng = random.Random(8)
        a = monomial_complete_intersection(QQ, (3, 3))
        w = a.random_element(1, rng)
        for r in (2, 3):
            for i in range(a.sigma + 1):
                direct = a.mult_map_matrix(w**r, i)
                composed = None
                for step in range(r):
                    mat = a.mult_map_matrix(w, i + step)
                    composed = mat if composed is None else mat @ composed
                assert direct == composed

    def test_empty_components(self):
        a = monomial_complete_intersection(QQ, (2,))
        x = a.generators()[0]
        m = a.mult_map_matrix(x, 1)  # A_1 -> A_2 = 0
        assert (m.nrows, m.ncols) == (0, 1) and m.rank() == 0


class TestQuotient:
    def test_socle_form_kills_top(self):
        a = monomial_complete_intersection(QQ, (2, 2))
        x, y = a.generators()
        b = a.quotient(x * y)
        assert b.hilbert_function() == [1, 2]

    def test_truncation(self):
        a = monomial_complete_intersection(QQ, (4,))
        x = a.generators()[0]
        b = a.quotient(x * x)
        assert b.hilbert_function() == [1, 1]

    def test_zero_form_rejected(self):
        a = monomial_complete_intersection(QQ, (2,))
        with pytest.raises(ValueError):
            a.quotient(a.zero(1))

    def test_dimension_rank_identity(self):
        rng = random.Random(12)
        a = monomial_complete_intersection(QQ, (3, 2, 2))
        g = a.random_element(2, rng)
        b = a.quotient(g)
        for t in range(a.sigma + 1):
            rank = a.mult_map_matrix(g, t - 2).rank() if t >= 2 else 0
            assert b.dim(t) + rank == a.dim(t)

    def test_projection_section_identity(self):
        rng = random.Random(13)
        a = monomial_complete_intersection(GF(7), (2, 2, 2))
        b = a.quotient(a.random_element(1, rng))
        for t in range(b.sigma + 1):
            pi, iota = indep.projection_matrix(b, t), indep.section_matrix(b, t)
            assert pi @ iota == indep.identity(b.field, b.dim(t))

    def test_iterated_quotients(self):
        a = monomial_complete_intersection(QQ, (2, 2, 2))
        x, y, z = a.generators()
        b = a.quotient(x * y)
        c = b.quotient(b.project(a.multiply(y, z)))
        assert c.hilbert_function()[0] == 1
        assert all(d > 0 for d in c.hilbert_function())


@pytest.fixture(scope="module")
def tower():
    return monomial_complete_intersection(GF(32003), (4, 4, 4, 4, 2))


class TestCounterexampleAlgebra:
    """The 512-dimensional example over GF(32003), cross-checked against the
    independent dict-based model."""

    CAPS = (4, 4, 4, 4, 2)
    P = 32003

    def _package_form_as_dict(self, algebra, degree, seed):
        rng = random.Random(seed)
        form = algebra.random_element(degree, rng)
        labels = algebra.basis_labels(degree)
        return form, {
            indep.label_to_exponents(l, 5): c for l, c in zip(labels, form.coeffs) if c
        }

    def test_generic_quotient_hilbert(self, tower):
        form, fdict = self._package_form_as_dict(tower, 8, 1)
        b = tower.quotient(form)
        assert b.hilbert_function() == [1, 5, 14, 30, 51, 71, 84, 84, 70, 46, 16]
        # independent recomputation of every quotient dimension
        for t in range(14):
            n = len(indep.monomials_of_degree(self.CAPS, t))
            r = (
                indep.rank_mod(indep.mult_matrix(self.CAPS, fdict, 8, t - 8, self.P), self.P)
                if t >= 8
                else 0
            )
            assert b.dim(t) == n - r

    def test_power_quotient_hilbert(self, tower):
        form, fdict = self._package_form_as_dict(tower, 8, 1)
        b = tower.quotient(form)
        rng = random.Random(1003)
        linear = b.random_element(1, rng)
        ldict = {
            indep.label_to_exponents(l, 5): c
            for l, c in zip(b.basis_labels(1), linear.coeffs)
            if c
        }
        c = b.quotient(linear**9)
        assert c.hilbert_function() == [1, 5, 14, 30, 51, 71, 84, 84, 70, 45, 11]
        # oracle: dim C_t = dim B_t - (rank[f*A_{t-8} | b^9*A_{t-9}] - rank f*A_{t-8})
        l9 = indep.poly_power(self.CAPS, ldict, 9, self.P)
        for t in (9, 10):
            mf = indep.mult_matrix(self.CAPS, fdict, 8, t - 8, self.P)
            mb = indep.mult_matrix(self.CAPS, l9, 9, t - 9, self.P)
            rank_b = indep.rank_mod(indep.hstack(mf, mb), self.P) - indep.rank_mod(mf, self.P)
            assert c.dim(t) == b.dim(t) - rank_b


class TestSocle:
    def test_gorenstein_tower(self):
        a = monomial_complete_intersection(QQ, (2, 2))
        socle, gorenstein = a.socle_dimensions()
        assert socle == [0, 0, 1] and gorenstein

    def test_non_gorenstein_quotient(self):
        a = monomial_complete_intersection(QQ, (2, 2))
        x, y = a.generators()
        b = a.quotient(x * y)
        socle, gorenstein = b.socle_dimensions()
        assert socle == [0, 2] and not gorenstein

    def test_pure_towers_gorenstein(self):
        rng = random.Random(3)
        for _ in range(10):
            degrees = [rng.randint(2, 4) for _ in range(rng.randint(1, 3))]
            a = monomial_complete_intersection(QQ, degrees)
            socle, gorenstein = a.socle_dimensions()
            assert gorenstein
            assert socle[-1] == 1 and sum(socle) == 1
            assert check_symmetric_unimodal(a.hilbert_function()) == (True, True)

    def test_stack_deficient_mod_q_is_ranked_exactly(self, monkeypatch):
        # B = A/(xy + q yz)/(xz + q yz) on A = QQ[x,y,z]/(x^2,y^2,z^2) is
        # Gorenstein, and its projections are q-integral.  Mod q the forms are
        # xy and xz, so x is in the socle of B's tables, and their degree-1 stack
        # has rank 2 < 3: degree 1 falls back to the exact maps.  Degree 0 does not,
        # nor does the top degree, whose empty stack has rank 0 = its bound.
        a = monomial_complete_intersection(QQ, (2, 2, 2))
        x, y, z = a.generators()
        q = QQ.of(IMAGE_PRIME)
        b1 = a.quotient(x * y + (y * z).scale(q))
        b = b1.quotient(b1.element(2, [1, q]))  # xz + q yz on the basis xz, yz of B1_2
        stack = np.vstack([X[1] for X in b._tables[0]])
        assert stack.shape == (3, 3) and rank_of(stack, IMAGE_PRIME, None, 3) == 2
        exact = []
        build = QuotientAlgebra.mult_map_matrix

        def counting(self, w, i):
            exact.extend([i] * (self.field == QQ))
            return build(self, w, i)

        monkeypatch.setattr(QuotientAlgebra, "mult_map_matrix", counting)
        assert b.socle_dimensions() == ([0, 0, 1], True)
        assert sorted(set(exact)) == [1]
        assert exact_socle(b) == [0, 0, 1]

    def test_monomial_complete_intersection_over_qq_builds_no_map(self, monkeypatch):
        # Every stacked table has full rank mod q, the top one with no rows.
        a = monomial_complete_intersection(QQ, (2, 3, 2))

        def refuse(self, w, i):
            raise AssertionError(f"exact map built from degree {i}")

        monkeypatch.setattr(GradedAlgebra, "mult_map_matrix", refuse)
        assert a.socle_dimensions() == ([0] * a.sigma + [1], True)

    def test_no_image_is_ranked_exactly(self):
        a = monomial_complete_intersection(QQ, (3,))
        b = a.extend("y", MonicPoly(a, 2, [a.generators()[0].scale(Fraction(1, IMAGE_PRIME)), a.zero(2)]))
        x, y = b.generators()
        c = b.quotient(x * y)
        for alg, socle in ((b, [0, 0, 0, 1]), (c, [0, 1, 1])):
            assert alg._tables is None
            assert alg.socle_dimensions() == (socle, sum(socle) == 1) and exact_socle(alg) == socle


def test_only_algebra_reads_the_compiled_tables():
    # Every other module asks `image_map` and `image_is_exact`, so the tables have one reader.
    modules = sorted((Path(__file__).resolve().parents[1] / "src" / "lefschetz").glob("*.py"))
    assert "algebra.py" in [m.name for m in modules]
    readers = [m.name for m in modules if m.name != "algebra.py"
               and ("_tables" in m.read_text() or "_table_map(" in m.read_text())]
    assert readers == []


def exact_socle(alg):
    """Socle dimensions from the exact stacked generator maps, with no image."""
    gens = alg.generators()
    return [n - Matrix.vstack(alg.field, [alg.mult_map_matrix(g, t) for g in gens], n).rank()
            for t, n in enumerate(alg.dims)]


class TestRandomElements:
    def test_deterministic(self):
        a = monomial_complete_intersection(QQ, (3, 3))
        first = a.random_element(2, random.Random(99))
        second = a.random_element(2, random.Random(99))
        assert first == second

    def test_dimension(self):
        a = monomial_complete_intersection(GF(32003), (4, 4, 4, 4, 2))
        elem = a.random_element(1, random.Random(0))
        assert len(elem.coeffs) == 5

    def test_degree_beyond_socle_rejected(self):
        a = monomial_complete_intersection(GF(32003), (4, 4, 4, 4, 2))
        with pytest.raises(ValueError):
            a.random_element(14, random.Random(0))


class TestSymmetricUnimodal:
    def test_examples(self):
        assert check_symmetric_unimodal([1, 2, 1]) == (True, True)
        assert check_symmetric_unimodal(
            [1, 5, 14, 30, 51, 71, 84, 84, 70, 46, 16]
        ) == (False, True)
        assert check_symmetric_unimodal([1, 3, 2, 3, 1]) == (True, False)
        assert check_symmetric_unimodal([1]) == (True, True)


def test_element_zero_spaces():
    a = monomial_complete_intersection(QQ, (2,))
    z = a.zero(5)
    assert z.is_zero() and z.degree == 5 and z.coeffs == ()
    assert (a.generators()[0] ** 7).is_zero()
