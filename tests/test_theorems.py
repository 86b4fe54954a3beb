import random
from fractions import Fraction

import pytest

import indep
from lefschetz.algebra import MonicPoly, monomial_complete_intersection, trivial_algebra
from lefschetz.certify import is_strong_lefschetz, search_strong
from lefschetz.fields import GF, QQ, binomial
from lefschetz.theorems import (
    ClassificationMismatchError,
    binomial_power_extension,
    block_grid_dims,
    build_block_matrix,
    c_coefficient,
    certified_slp_disproof,
    char_bound,
    classify_injective_surjective,
    coefficient_matrix_L,
    column_normalizer,
    find_scaling,
    power_reduction_table,
    row_normalizer,
    s_matrix,
    s_matrix_nonsingular,
    verify_binomial_identity,
    verify_duality_instance,
)


class TestReductionCoefficients:
    def test_base_case_matches_binomial_expansion(self):
        # x^k = -(sum binom(k,j) a^{k-j} x^j), so c_{k,j} = -binom(k,j)
        for k in range(1, 7):
            for j in range(k):
                assert c_coefficient(k, j, k) == -binomial(k, j)

    def test_examples(self):
        assert c_coefficient(2, 1, 2) == -2
        assert c_coefficient(1, 1, 3) == 1
        assert c_coefficient(3, 0, 2) == 2
        assert c_coefficient(3, 1, 2) == 3
        assert c_coefficient(5, 2, 4) == 20

    def test_kronecker_range(self):
        for k in range(1, 6):
            for r in range(k):
                for j in range(k):
                    assert c_coefficient(r, j, k) == (1 if r == j else 0)

    def test_column_index_validated(self):
        with pytest.raises(ValueError):
            c_coefficient(3, 2, 2)
        with pytest.raises(ValueError):
            c_coefficient(3, -1, 2)


class TestReductionOracle:
    def test_rows_k2(self):
        table = power_reduction_table(2, 3)
        assert table.row(2) == (Fraction(-1), Fraction(-2))
        assert table.row(3) == (Fraction(2), Fraction(3))

    def test_kronecker_rows_k3(self):
        table = power_reduction_table(3, 2)
        assert table.row(0) == (1, 0, 0)
        assert table.row(1) == (0, 1, 0)
        assert table.row(2) == (0, 0, 1)

    def test_one_step_recurrence(self):
        # row r+1 arises from row r via multiplication by x and the base case
        for k in (2, 3, 5):
            table = power_reduction_table(k, 12)
            for r in range(12):
                prev, nxt = table.row(r), table.row(r + 1)
                assert nxt[0] == -prev[k - 1] * binomial(k, 0)
                for j in range(1, k):
                    assert nxt[j] == prev[j - 1] - prev[k - 1] * binomial(k, j)

    def test_closed_form_matches_oracle(self):
        for k in range(1, 6):
            table = power_reduction_table(k, 15)
            for r in range(16):
                for j in range(k):
                    assert c_coefficient(r, j, k) == table.row(r)[j]


class TestBinomialIdentity:
    def test_examples(self):
        assert verify_binomial_identity(2, 0, 2)
        assert verify_binomial_identity(5, 2, 4)
        for k in range(1, 9):
            assert verify_binomial_identity(k, k - 1, k)  # boundary: both sides k

    def test_range_validated(self):
        with pytest.raises(ValueError):
            verify_binomial_identity(1, 0, 2)


class TestCoefficientMatrix:
    def test_smallest_case(self):
        normalized, raw = coefficient_matrix_L(1, 2)
        assert normalized.rows == ((Fraction(1, 2),),)
        assert raw.rows == ((c_coefficient(2, 0, 2),),)

    def test_two_by_two(self):
        normalized, raw = coefficient_matrix_L(2, 2)
        assert normalized.rows == (
            (Fraction(1, 2), Fraction(1, 3)),
            (Fraction(1, 1), Fraction(1, 2)),
        )
        assert normalized.det() == Fraction(-1, 12)
        assert raw.det() != 0

    def test_equal_parameters_diagonal(self):
        for k in (2, 3, 4):
            normalized, _ = coefficient_matrix_L(k, k)
            for i in range(k):
                assert normalized.entry(i, i) == Fraction(1, k)

    def test_normalization_factors(self):
        for q, k in ((1, 3), (3, 2), (4, 4), (2, 5)):
            normalized, raw = coefficient_matrix_L(q, k)
            r, s = max(q, k), min(q, k)
            for i in range(s):
                for col in range(s):
                    factor = column_normalizer(r + col, k) * row_normalizer(i, k)
                    assert raw.entry(i, col) == normalized.entry(i, col) * factor


class TestSMatrix:
    def test_small_example(self):
        nonsingular, det = s_matrix_nonsingular(3, 1)
        assert nonsingular and det == Fraction(-1, 72)

    def test_size_one(self):
        for r in (1, 5, 17):
            nonsingular, det = s_matrix_nonsingular(r, 0)
            assert nonsingular and det == Fraction(1, r)

    def test_methods_agree_larger(self):
        nonsingular, _ = s_matrix_nonsingular(10, 5)
        assert nonsingular

    def test_entries(self):
        s = s_matrix(4, 2)
        assert s.entry(2, 0) == Fraction(1, 2)  # 1/(r - i + j)
        assert s.entry(0, 2) == Fraction(1, 6)

    def test_range_validated(self):
        with pytest.raises(ValueError):
            s_matrix(3, 3)


class TestBlockMatrix:
    def test_rank_matches_direct_small(self):
        a = monomial_complete_intersection(QQ, (2,), var_prefix="u")
        u = a.generators()[0]
        b = binomial_power_extension(a, u, 2)
        x = b.generators()[-1]
        m = build_block_matrix(a, u, 2, 1, 1)
        direct = b.mult_map_matrix(x, 1)
        assert (m.nrows, m.ncols) == (direct.nrows, direct.ncols)
        assert m.rank() == direct.rank()

    def test_identity_block_reduction(self):
        # For q < k the matrix has the form ((0, N), (id, *)):
        # rank(M) = rank(N) + total size of the identity block.
        a = monomial_complete_intersection(QQ, (3,), var_prefix="u")
        u = a.generators()[0]
        k, q, t = 3, 2, 2
        m = build_block_matrix(a, u, k, q, t)
        row_dims, col_dims = block_grid_dims(a, k, q, t)
        id_size = sum(col_dims[i] for i in range(k - q))
        n_rows = [sum(row_dims[:j]) + r for j in range(q) for r in range(row_dims[j])]
        n_cols = [sum(col_dims[:i]) + c for i in range(k - q, k) for c in range(col_dims[i])]
        n = indep.submatrix(m, n_rows, n_cols)
        assert m.rank() == n.rank() + id_size

    def test_degenerate_target(self):
        a = monomial_complete_intersection(QQ, (2,), var_prefix="u")
        u = a.generators()[0]
        b = binomial_power_extension(a, u, 2)
        t = b.sigma  # t + q exceeds the socle degree
        m = build_block_matrix(a, u, 2, 2, t)
        assert m.nrows == 0 and m.rank() == 0

    def test_trivial_base(self):
        # over K itself the extension is K[x]/(x^k)
        a = trivial_algebra(QQ)
        m = build_block_matrix(a, a.zero(1), 3, 1, 1)
        b = binomial_power_extension(a, a.zero(1), 3)
        x = b.generators()[-1]
        assert m.rank() == b.mult_map_matrix(x, 1).rank() == 1


class TestDuality:
    def test_monic_quadratic_instance(self):
        a = monomial_complete_intersection(QQ, (4,), var_prefix="u")
        u = a.generators()[0]
        f = MonicPoly(a, 2, [u, u * u])
        outcome = verify_duality_instance(a, f, u)
        assert outcome.agree
        # lhs is the Lefschetz test of f(u) = 3u^2
        assert f.evaluate(u) == (u * u).scale(Fraction(3))

    def test_pure_square_instance(self):
        a = monomial_complete_intersection(QQ, (2,), var_prefix="u")
        f = MonicPoly.pure_power(a, 2)
        assert verify_duality_instance(a, f, a.generators()[0]).agree

    def test_char_two_instance(self):
        a = monomial_complete_intersection(GF(2), (2, 2), var_prefix="u")
        f = MonicPoly.pure_power(a, 2)
        outcome = verify_duality_instance(a, f, a.generators()[0])
        assert outcome.agree

    def test_random_instances(self):
        from lefschetz.sweeps import random_monic, random_tower

        rng = random.Random(71)
        for _ in range(12):
            a = random_tower(QQ, rng, max_depth=2, max_sigma=6)
            f = random_monic(a, rng.randint(1, 3), rng)
            elem = a.random_element(1, rng)
            assert verify_duality_instance(a, f, elem).agree


class TestFindScaling:
    def test_pure_power_needs_no_scaling(self):
        a = monomial_complete_intersection(QQ, (4,), var_prefix="u")
        u = a.generators()[0]
        assert is_strong_lefschetz(a, u)[0]
        cert = find_scaling(a, u, MonicPoly.pure_power(a, 2))
        assert cert.c == 1

    def test_quadratic_with_lower_terms(self):
        a = monomial_complete_intersection(QQ, (4,), var_prefix="u")
        u = a.generators()[0]
        f = MonicPoly(a, 2, [u, u * u])
        cert = find_scaling(a, u, f)
        assert 0 < cert.c <= 5
        assert cert.profile.is_maximal

    def test_degree_beyond_socle_trivial(self):
        a = monomial_complete_intersection(QQ, (3,), var_prefix="u")
        u = a.generators()[0]
        f = MonicPoly.pure_power(a, a.sigma + 2)
        cert = find_scaling(a, u, f)
        assert cert.c == 1

    def test_small_prime_field_rejected(self):
        a = monomial_complete_intersection(GF(3), (2, 2), var_prefix="u")
        u, v = a.generators()
        with pytest.raises(ValueError):
            find_scaling(a, u + v, MonicPoly.pure_power(a, 2))


class TestCharBound:
    def test_examples(self):
        assert char_bound(2, 2, 4, pure_power=True) == 5
        assert char_bound(2, 2, 4, pure_power=False) == 5
        assert char_bound(1, 0, 1, pure_power=True) == 1
        assert char_bound(2, 3, 100, pure_power=False) == 100

    def test_validation(self):
        with pytest.raises(ValueError):
            char_bound(0, 1, 1, True)

    def test_bound_suffices_on_samples(self):
        # above the threshold the extension keeps the strong property
        for exps, q in (((2, 2), 2), ((3,), 3)):
            a_rat = monomial_complete_intersection(QQ, exps, var_prefix="u")
            bound = char_bound(q, a_rat.sigma, a_rat.multiplicity(), pure_power=True)
            p = next(p for p in (11, 13, 17, 19, 23) if p >= bound)
            a = monomial_complete_intersection(GF(p), exps, var_prefix="u")
            b = a.extend("x", MonicPoly.pure_power(a, q))
            assert search_strong(b, trials=8, seed=0).certified

    def test_small_characteristic_failure_exhibited(self):
        a = monomial_complete_intersection(GF(2), (2, 2))
        assert not search_strong(a, trials=8, seed=0).certified


class TestClassification:
    def test_injective_side(self):
        a = monomial_complete_intersection(QQ, (2, 2))
        x, y = a.generators()
        assert classify_injective_surjective(a, x + y, 0, 1) == "injective"

    def test_surjective_side(self):
        a = monomial_complete_intersection(QQ, (2, 2))
        x, y = a.generators()
        assert classify_injective_surjective(a, x + y, 1, 2) == "surjective"

    def test_middle_is_both(self):
        a = monomial_complete_intersection(QQ, (2, 2))
        x, y = a.generators()
        assert classify_injective_surjective(a, x + y, 0, 2) == "both"

    def test_mismatch_raises(self):
        a = monomial_complete_intersection(QQ, (2, 2))
        x, _ = a.generators()
        with pytest.raises(ClassificationMismatchError):
            classify_injective_surjective(a, x, 0, 2)  # x^2 = 0 cannot be injective

    def test_gorenstein_strong_towers_never_mismatch(self):
        for exps in ((3, 2), (2, 2, 2), (4, 3)):
            a = monomial_complete_intersection(QQ, exps)
            report = search_strong(a, trials=8, seed=5)
            assert report.certified
            # rebuild the certified element by replaying the search's rng
            rng = random.Random(5)
            l = None
            for _ in range(report.trials_used):
                l = a.random_element(1, rng)
            assert str(l) == report.element
            for i in range(a.sigma):
                for j in range(i + 1, a.sigma + 1):
                    classify_injective_surjective(a, l, i, j)


class TestDisproofCertificate:
    def test_none_when_maximal(self):
        a = monomial_complete_intersection(QQ, (3,))
        x = a.generators()[0]
        assert certified_slp_disproof(a, x, 1, 0) is None

    def test_zero_power_certificate(self):
        a = monomial_complete_intersection(QQ, (2, 2))
        x, _ = a.generators()
        cert = certified_slp_disproof(a, x, 2, 0)
        assert cert is not None and cert.rank == 0
        assert cert.dim_source == 1 and cert.dim_target == 1

    def test_char_two_diagonal(self):
        a = monomial_complete_intersection(GF(2), (2, 2))
        x, y = a.generators()
        cert = certified_slp_disproof(a, x + y, 2, 0)
        assert cert is not None and cert.inequality == "1 + 1 > 1"

    def test_no_certificate_for_strong_element(self):
        a = monomial_complete_intersection(QQ, (2, 2))
        x, y = a.generators()
        for r in range(1, a.sigma + 1):
            for i in range(a.sigma + 1):
                assert certified_slp_disproof(a, x + y, r, i) is None
